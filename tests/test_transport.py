"""Socket transport tests: protocol, EOF handling, drain, end-to-end serving.

The unit half drives :class:`ThreadedLineServer` with a toy handler; the
integration half wires the real CLI backend (router + admission +
services) into the transport in-process and checks the acceptance
contract: concurrent mixed-shard clients with a skewed hot-focal
workload get answers bit-identical to standalone ``maxrank()``, with the
single-flight counter showing real coalescing.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import CostCounters, MaxRankService, generate, maxrank
from repro.service import DatasetRouter
from repro.service.core import result_fingerprint
from repro.service.transport import ThreadedLineServer, parse_hostport


def _connect(server):
    sock = socket.create_connection(server.address, timeout=10)
    return sock, sock.makefile("rwb")


def _start(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


class TestParseHostport:
    def test_forms(self):
        assert parse_hostport("127.0.0.1:7117") == ("127.0.0.1", 7117)
        assert parse_hostport(":7117") == ("127.0.0.1", 7117)
        assert parse_hostport("7117") == ("127.0.0.1", 7117)
        assert parse_hostport("0.0.0.0:0") == ("0.0.0.0", 0)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_hostport("nope")
        with pytest.raises(ValueError):
            parse_hostport("host:70000")


class TestThreadedLineServer:
    @pytest.fixture()
    def server(self):
        def handler(line: str):
            if line == "quit":
                return "bye", True
            if line == "boom":
                raise ValueError("boom")
            return line.upper(), False

        server = ThreadedLineServer(
            "127.0.0.1", 0, handler,
            greeting=lambda: "hello",
            farewell=lambda reason: f"farewell:{reason}",
            on_error=lambda exc: f"error:{exc}",
        )
        thread = _start(server)
        yield server
        server.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_round_trip_with_greeting(self, server):
        sock, f = _connect(server)
        assert f.readline() == b"hello\n"
        f.write(b"abc\n\n  \ndef\n")  # blank lines are skipped
        f.flush()
        assert f.readline() == b"ABC\n"
        assert f.readline() == b"DEF\n"
        sock.close()

    def test_unterminated_final_line_is_processed_at_eof(self, server):
        sock, f = _connect(server)
        f.readline()
        sock.sendall(b"tail-no-newline")  # client closes without the \n
        sock.shutdown(socket.SHUT_WR)
        assert f.readline() == b"TAIL-NO-NEWLINE\n"
        assert f.readline() == b"farewell:eof\n"
        assert f.readline() == b""  # connection closed
        sock.close()

    def test_handler_errors_are_isolated(self, server):
        sock, f = _connect(server)
        f.readline()
        f.write(b"boom\nstill-alive\n")
        f.flush()
        assert f.readline() == b"error:boom\n"
        assert f.readline() == b"STILL-ALIVE\n"  # connection survived
        sock.close()

    def test_quit_closes_only_that_connection(self, server):
        sock1, f1 = _connect(server)
        sock2, f2 = _connect(server)
        f1.readline(), f2.readline()
        f1.write(b"quit\n")
        f1.flush()
        assert f1.readline() == b"bye\n"
        assert f1.readline() == b"farewell:quit\n"
        assert f1.readline() == b""
        f2.write(b"ping\n")
        f2.flush()
        assert f2.readline() == b"PING\n"  # untouched by the other's quit
        sock1.close(), sock2.close()

    def test_finished_connections_leave_the_thread_list(self, server):
        for _ in range(50):
            sock, f = _connect(server)
            f.readline()
            f.write(b"quit\n")
            f.flush()
            while f.readline():  # bye, farewell, then EOF
                pass
            sock.close()
            # The connection thread drops itself just after closing.
            deadline = time.monotonic() + 5.0
            while server._threads and time.monotonic() < deadline:
                time.sleep(0.005)
            assert server._threads == []
        assert server.connections_accepted == 50

    def test_shutdown_drains_open_connections(self):
        release = threading.Event()

        def handler(line: str):
            release.wait(10)  # an in-flight request the drain must finish
            return line.upper(), False

        server = ThreadedLineServer(
            "127.0.0.1", 0, handler,
            farewell=lambda reason: f"farewell:{reason}",
        )
        thread = _start(server)
        sock, f = _connect(server)
        f.write(b"inflight\n")
        f.flush()
        time.sleep(0.1)  # let the connection thread pick the request up
        server.shutdown("SIGTERM")
        release.set()
        assert f.readline() == b"INFLIGHT\n"  # finished, not dropped
        assert f.readline() == b"farewell:SIGTERM\n"
        thread.join(timeout=10)
        assert not thread.is_alive()  # serve_forever returned after drain
        sock.close()

    def test_concurrent_clients_each_get_their_own_answers(self, server):
        n_clients, per_client = 8, 20
        failures = []
        barrier = threading.Barrier(n_clients)

        def client(tag: int):
            sock, f = _connect(server)
            f.readline()
            barrier.wait()
            for i in range(per_client):
                message = f"client-{tag}-{i}"
                f.write(message.encode() + b"\n")
                f.flush()
                reply = f.readline().strip().decode()
                if reply != message.upper():
                    failures.append((tag, i, reply))
            sock.close()

        threads = [
            threading.Thread(target=client, args=(tag,))
            for tag in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert server.requests_handled >= n_clients * per_client


class TestServingEndToEnd:
    """Transport + router + admission + service, in-process."""

    N_CLIENTS = 8

    @pytest.fixture()
    def stack(self):
        from repro.service.cli import (
            _error_payload, _handle_request, _RouterBackend,
        )

        datasets = {
            "alpha": generate("IND", 130, 3, seed=61),
            "beta": generate("ANTI", 120, 3, seed=62),
        }
        shards = {name: MaxRankService(ds) for name, ds in datasets.items()}
        router = DatasetRouter(shards, slots=2, wave_window_s=0.05)
        backend = _RouterBackend(router, None)

        def handler(line: str):
            payload, quit_ = _handle_request(backend, json.loads(line))
            return (None if payload is None else json.dumps(payload)), quit_

        server = ThreadedLineServer(
            "127.0.0.1", 0, handler,
            greeting=lambda: json.dumps({"ready": True}),
            farewell=lambda reason: json.dumps({"shutdown": True,
                                                "reason": reason}),
            on_error=lambda exc: json.dumps({"error": _error_payload(exc)}),
        )
        thread = _start(server)
        try:
            yield server, router, datasets
        finally:
            server.shutdown()
            thread.join(timeout=10)
            router.close()

    def test_concurrent_skewed_clients_are_bit_identical(self, stack):
        """The acceptance workload: 8 concurrent clients, mixed shards,
        hot-focal skew — every payload equals the standalone answer and
        duplicates provably coalesced."""
        server, router, datasets = stack

        # Standalone references, computed fresh per (shard, focal, tau).
        hot = [("alpha", 7, 1)]
        cold = [("alpha", 20, 1), ("beta", 7, 1), ("beta", 33, 0),
                ("alpha", 55, 0), ("beta", 11, 1)]
        references = {}
        for shard, focal, tau in hot + cold:
            counters = CostCounters()
            result = maxrank(datasets[shard], focal, tau=tau,
                             counters=counters)
            references[(shard, focal, tau)] = {
                "k_star": result.k_star,
                "regions": result.region_count,
                "dominators": result.dominator_count,
                "tau": result.tau,
                "representative": [
                    round(float(w), 9)
                    for w in result.regions[0].representative_query()
                ] if result.regions else None,
            }

        failures = []
        barrier = threading.Barrier(self.N_CLIENTS)

        def client(tag: int):
            sock, f = _connect(server)
            f.readline()  # greeting
            barrier.wait()
            # Skew: every client opens with the same hot key, then walks
            # the cold keys from a client-specific offset.
            plan = [hot[0]] + [
                cold[(tag + i) % len(cold)] for i in range(len(cold))
            ]
            for shard, focal, tau in plan:
                f.write((json.dumps(
                    {"dataset": shard, "focal": focal, "tau": tau}
                ) + "\n").encode())
                f.flush()
                answer = json.loads(f.readline())
                expected = references[(shard, focal, tau)]
                got = {k: answer.get(k) for k in expected}
                if got != expected:
                    failures.append((tag, shard, focal, got, expected))
            sock.close()

        threads = [
            threading.Thread(target=client, args=(tag,))
            for tag in range(self.N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not failures
        stats = router.stats()
        coalesced = sum(
            slot["coalesced"] for slot in stats["slots"].values()
        )
        assert coalesced > 0  # the hot key provably single-flighted
        # Exactly one computation per unique (shard, focal, tau): the rest
        # were coalesced duplicates or cache hits.
        computed = sum(
            svc["queries_computed"] for svc in stats["services"].values()
        )
        assert computed == len(hot) + len(cold)

    def test_mixed_traffic_mutations_and_errors(self, stack):
        server, router, datasets = stack
        sock, f = _connect(server)
        f.readline()

        def ask(payload):
            f.write((json.dumps(payload) + "\n").encode())
            f.flush()
            return json.loads(f.readline())

        first = ask({"dataset": "alpha", "focal": 3, "tau": 1})
        assert first["cache_hit"] is False
        again = ask({"dataset": "alpha", "focal": 3, "tau": 1})
        assert again["cache_hit"] is True
        assert again["k_star"] == first["k_star"]

        inserted = ask({"cmd": "insert", "dataset": "beta",
                        "record": [0.4, 0.2, 0.7]})
        assert inserted["inserted"] is True
        assert inserted["record_id"] == datasets["beta"].n

        missing = ask({"dataset": "nope", "focal": 1})
        assert missing["error"]["code"] == "bad_request"
        unnamed = ask({"focal": 1})  # two shards: must name one
        assert unnamed["error"]["code"] == "bad_request"
        truncated = ask({"cmd": "delete", "dataset": "beta"})  # no record_id
        assert truncated["error"]["code"] == "bad_request"

        # Still serving after every error (isolation), and stats flow.
        stats = ask({"cmd": "stats"})
        assert stats["routed"] == 2  # only the valid queries were routed
        sock.close()
