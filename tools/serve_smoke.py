#!/usr/bin/env python
"""CI smoke for the network serving front (transport -> router -> admission).

Boots ``python -m repro.service serve --listen 127.0.0.1:0`` as a real
subprocess over two freshly built shard snapshots, then drives it the way
production traffic would and asserts the serving contract end to end:

* 32 concurrent clients, mixed shards, skewed hot-focal workload — every
  JSON answer must be bit-identical to a standalone ``maxrank()`` run on
  the same records (k*, region/dominator counts, tau, representative);
* the admission layer provably coalesced duplicates (single-flight
  counter > 0) and computed each unique query exactly once;
* SIGTERM drains gracefully: open connections get a farewell line naming
  the signal, the process prints its shutdown summary and exits 0.

Run from the repository root::

    python tools/serve_smoke.py [--clients 32]

Exits non-zero on the first broken promise.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import CostCounters, MaxRankService, generate, maxrank  # noqa: E402

SHARDS = {
    "alpha": ("IND", 220, 3, 71),
    "beta": ("ANTI", 180, 3, 72),
}
# The query plan's key universe: one hot key every client opens with
# (forcing single-flight coalescing) plus a cold tail walked from a
# client-specific offset so shards and focals mix across connections.
HOT = ("alpha", 9, 1)
COLD = [
    ("alpha", 30, 1), ("beta", 9, 1), ("alpha", 77, 0),
    ("beta", 41, 0), ("alpha", 120, 1), ("beta", 88, 1),
]


def build_snapshots(tmp: Path) -> dict:
    paths = {}
    for name, (dist, n, d, seed) in SHARDS.items():
        with MaxRankService(generate(dist, n, d, seed=seed)) as service:
            path = tmp / f"{name}.rprs"
            service.save_snapshot(path)
            paths[name] = path
    return paths


def standalone_references() -> dict:
    """The ground truth: fresh ``maxrank()`` per unique (shard, focal, tau)."""
    datasets = {
        name: generate(dist, n, d, seed=seed)
        for name, (dist, n, d, seed) in SHARDS.items()
    }
    references = {}
    for shard, focal, tau in [HOT] + COLD:
        result = maxrank(datasets[shard], focal, tau=tau,
                         counters=CostCounters())
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
    return references


def connect(port: int):
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    f = sock.makefile("rwb")
    greeting = json.loads(f.readline())
    assert greeting.get("ready") is True, f"bad greeting: {greeting}"
    return sock, f

def ask(f, payload: dict) -> dict:
    f.write((json.dumps(payload) + "\n").encode())
    f.flush()
    line = f.readline()
    assert line, "server closed the connection mid-request"
    return json.loads(line)


def run_clients(port: int, n_clients: int, references: dict) -> list:
    failures = []
    barrier = threading.Barrier(n_clients)

    def client(tag: int):
        try:
            sock, f = connect(port)
            barrier.wait()
            plan = [HOT] + [COLD[(tag + i) % len(COLD)]
                            for i in range(len(COLD))]
            for shard, focal, tau in plan:
                answer = ask(f, {"dataset": shard, "focal": focal, "tau": tau})
                expected = references[(shard, focal, tau)]
                got = {k: answer.get(k) for k in expected}
                if got != expected:
                    failures.append(
                        f"client {tag}: {shard}/{focal}/tau={tau} diverged "
                        f"from standalone maxrank(): {got} != {expected}"
                    )
            sock.close()
        except Exception as exc:  # noqa: BLE001 - smoke harness
            failures.append(f"client {tag}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=client, args=(tag,))
               for tag in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--clients", type=int, default=32)
    args = parser.parse_args(argv)

    failures = []
    references = standalone_references()

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmpdir:
        tmp = Path(tmpdir)
        paths = build_snapshots(tmp)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--listen", "127.0.0.1:0",
             "--shard", f"alpha={paths['alpha']}",
             "--shard", f"beta={paths['beta']}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=REPO,
        )
        try:
            meta = json.loads(proc.stdout.readline())
            port = meta["listening"][1]
            print(f"listening on port {port}, shards {meta['datasets']}")

            failures += run_clients(port, args.clients, references)

            # The admission contract, read off the live server.
            _sock, f = connect(port)
            stats = ask(f, {"cmd": "stats"})
            coalesced = stats["coalesced"]
            computed = sum(s["queries_computed"]
                           for s in stats["services"].values())
            unique = len([HOT] + COLD)
            if coalesced <= 0:
                failures.append("single-flight never coalesced a duplicate")
            if computed != unique:
                failures.append(
                    f"computed {computed} queries for {unique} unique keys "
                    "(exactly-once violated)"
                )

            # Graceful drain: SIGTERM while a connection is open.
            proc.send_signal(signal.SIGTERM)
            farewell = json.loads(f.readline())
            if farewell.get("reason") != "SIGTERM":
                failures.append(f"bad farewell: {farewell}")
            out, err = proc.communicate(timeout=30)
            if proc.returncode != 0:
                failures.append(
                    f"server exited {proc.returncode}; stderr: {err.strip()}"
                )
            summary = json.loads(out.strip().splitlines()[-1])
            if summary.get("reason") != "SIGTERM":
                failures.append(f"bad shutdown summary: {summary}")
            expected_requests = args.clients * (1 + len(COLD)) + 1
            if summary.get("requests") != expected_requests:
                failures.append(
                    f"requests {summary.get('requests')} != "
                    f"{expected_requests} sent"
                )
            print(
                f"served {summary['requests']} requests over "
                f"{summary['connections']} connections "
                f"(coalesced {coalesced}, computed {computed}/{unique} unique)"
            )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"serve-smoke: {args.clients} concurrent clients bit-identical to "
        "standalone maxrank(); SIGTERM drained cleanly"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
