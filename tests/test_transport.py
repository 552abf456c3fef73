"""Socket transport tests: protocol, EOF handling, drain, end-to-end serving.

The unit half drives :class:`ThreadedLineServer` with a toy handler; the
integration half wires the real CLI backend (router + admission +
services) into the transport in-process and checks the acceptance
contract: concurrent mixed-shard clients with a skewed hot-focal
workload get answers bit-identical to standalone ``maxrank()``, with the
single-flight counter showing real coalescing.  The fuzz half drives the
line protocol once per example over a fake connection.
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
        from repro.service.cli import _RouterBackend

        datasets = {
            "alpha": generate("IND", 130, 3, seed=61),
            "beta": generate("ANTI", 120, 3, seed=62),
        }
        shards = {name: MaxRankService(ds) for name, ds in datasets.items()}
        router = DatasetRouter(shards)
        backend = _RouterBackend(router)
        server = ThreadedLineServer(
            "127.0.0.1", 0, backend.handle_line,
            greeting=backend.greeting, farewell=backend.farewell,
            on_error=backend.error_line,
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

        # The hot key's opening request computes only once every client's
        # hot request is admitted, so all of them provably share its flight.
        alpha = router.service("alpha")
        query = alpha.query
        release = threading.Event()

        def held_query(focal, **kwargs):
            if focal == hot[0][1]:
                assert release.wait(30)
            return query(focal, **kwargs)

        alpha.query = held_query
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
        deadline = time.monotonic() + 30
        while router.stats()["admitted"] < self.N_CLIENTS:
            assert time.monotonic() < deadline, "hot requests never admitted"
            time.sleep(0.01)
        release.set()
        for t in threads:
            t.join()

        assert not failures
        stats = router.stats()
        # Every hot request but the opener's coalesced onto its flight
        # (cold keys may coalesce too, as their walks overlap).
        assert stats["coalesced"] >= self.N_CLIENTS - 1
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
        # Loose types are rejected, never coerced to tau = 1 / record 1,
        # a coordinate, a record or a budget.
        for loose in ({"dataset": "alpha", "focal": 3, "tau": 1.7},
                      {"dataset": "alpha", "focal": 3, "tau": True},
                      {"dataset": "alpha", "focal": True},
                      {"dataset": "alpha", "focal": [[0.4], [0.3], [0.3]]},
                      {"dataset": "alpha", "focal": ["0.4", "0.3", "0.3"]},
                      {"dataset": "alpha", "focal": [True, 0.3, 0.3]},
                      {"cmd": "insert", "dataset": "beta",
                       "record": ["0.4", True, "0.7"]},
                      {"dataset": "alpha", "focal": 3, "timeout": True},
                      {"dataset": "alpha", "focal": 3, "timeout": "5"},
                      {"dataset": 3, "focal": 3}):
            assert ask(loose)["error"]["code"] == "bad_request", loose
        # An integer budget beyond the float range is a budget, as 1e400
        # is: no overflow reaches the client as an internal error.
        huge = ask({"dataset": "alpha", "focal": 3, "tau": 1,
                    "timeout": 10 ** 400})
        assert huge["k_star"] == first["k_star"]

        # Still serving after every error (isolation), and stats flow.
        stats = ask({"cmd": "stats"})
        # Only the valid queries route: loose fields are refused at the
        # protocol boundary, before routing.
        assert stats["routed"] == 3
        assert stats["services"]["beta"]["n"] == datasets["beta"].n + 1
        sock.close()


class _FakeConnection:
    """A scripted connection: ``recv`` hands out the request bytes in
    fixed-size chunks, then EOF; ``sendall`` collects the replies."""

    def __init__(self, data: bytes, chunk: int = 7) -> None:
        self._chunks = [data[i:i + chunk] for i in range(0, len(data), chunk)]
        self.sent = b""

    def recv(self, size: int) -> bytes:
        return self._chunks.pop(0) if self._chunks else b""

    def sendall(self, data: bytes) -> None:
        self.sent += data


#: Error codes a request may be answered with; ``internal`` is a bug.
_REQUEST_ERROR_CODES = {"timeout", "snapshot", "worker_crash", "bad_request"}

_FUZZ_DATASET = generate("IND", 30, 3, seed=71)


def _edge_numbers():
    """Numbers at the edges of the float and int64 ranges."""
    from hypothesis import strategies as st

    return st.sampled_from([0, -1, 2 ** 63, 10 ** 400, -(10 ** 400), 1e-300,
                            float("inf"), float("nan")])


def _json_values():
    from hypothesis import strategies as st

    scalars = (
        st.none() | st.booleans() | st.integers() | _edge_numbers()
        | st.floats() | st.text(max_size=6)
    )
    return st.recursive(
        scalars,
        lambda children: (
            st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=4), children, max_size=3)
        ),
        max_leaves=8,
    )


def _request_objects():
    """JSON objects whose protocol fields take arbitrary JSON values, mixed
    with values that are valid, so requests also reach the shard."""
    from hypothesis import strategies as st

    anything = _json_values()
    edge = _edge_numbers()
    index = st.integers(-2, 35)
    coordinates = st.lists(st.floats(-2.0, 2.0) | edge, min_size=3, max_size=3)
    return st.fixed_dictionaries({
        "focal": index | coordinates | edge | anything,
    }, optional={
        "cmd": st.sampled_from(["stats", "metrics", "trace", "insert",
                                "delete", "quit"]) | anything,
        "tau": st.integers(0, 3) | edge | anything,
        "timeout": st.floats(1e-6, 60.0) | edge | anything,
        "record": coordinates | coordinates | anything,
        "record_id": index | edge | anything,
        "dataset": st.just("fz") | st.just("fz") | anything,
    })


def _is_quit(line: str) -> bool:
    try:
        request = json.loads(line)
    except (ValueError, RecursionError):
        return False
    return isinstance(request, dict) and request.get("cmd") == "quit"


def _check_one_connection(lines) -> None:
    """Run the real serve backend's line loop once over ``lines`` and check
    the protocol: greeting, one reply per request line, farewell."""
    from repro.service.cli import _RouterBackend
    from repro.service.transport import LineProtocol

    threads_before = threading.active_count()
    service = MaxRankService(_FUZZ_DATASET)
    with DatasetRouter({"fz": service}) as router:
        backend = _RouterBackend(router)
        protocol = LineProtocol(
            backend.handle_line, greeting=backend.greeting,
            farewell=backend.farewell, on_error=backend.error_line,
        )
        conn = _FakeConnection("".join(line + "\n" for line in lines).encode())
        protocol.serve_connection(conn)
    replies = [json.loads(line) for line in conn.sent.decode().splitlines()]

    requests, reason = [], "eof"
    for line in lines:
        if not line.encode().strip():
            continue  # blank lines are skipped, not answered
        if _is_quit(line):
            reason = "quit"
            break
        requests.append(line)
    assert replies[0]["ready"] is True
    assert len(replies) == len(requests) + 2, (lines, replies)
    for request, reply in zip(requests, replies[1:-1]):
        assert isinstance(reply, dict), (request, reply)
        if "error" in reply:
            assert reply["error"]["code"] in _REQUEST_ERROR_CODES, (request, reply)
    assert replies[-1]["shutdown"] is True
    assert replies[-1]["reason"] == reason
    assert threading.active_count() == threads_before


class TestProtocolFuzz:
    """The one serve protocol under arbitrary input, in-process: every line
    gets exactly one JSON reply, never an ``internal`` error, and the loop
    ends with its farewell."""

    def test_arbitrary_text_lines(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        line = st.text(
            st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
            max_size=40,
        )

        @settings(max_examples=60, deadline=None)
        @given(st.lists(line, max_size=6))
        def check(lines):
            _check_one_connection(lines)

        check()

    def test_arbitrary_request_fields(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=150, deadline=None)
        @given(st.lists(_request_objects(), min_size=1, max_size=5))
        def check(requests):
            _check_one_connection([json.dumps(r) for r in requests])

        check()
