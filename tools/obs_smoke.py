#!/usr/bin/env python
"""CI smoke for the observability stack (tracing + metrics + slow log).

Boots ``python -m repro.service serve --listen 127.0.0.1:0`` as a real
subprocess (two shard snapshots, ``REPRO_JOBS=2`` so the within-leaf
engine forks pool workers, ``--metrics-port 0`` and an artificially tight
``--slow-query-threshold``), then drives it and asserts the introspection
contract end to end:

* 16 sequential mixed-shard queries answer bit-identically to standalone
  ``maxrank()`` and land on *exact* counters: no coalescing, a cache hit
  for every repeat, one computation per unique key;
* a ``{"cmd": "trace"}`` request returns a complete span tree — request
  -> admission -> service -> engine phases *including* ``leaf_task``
  spans merged back from forked pool workers — and
  ``tools/trace_view.py`` renders it;
* the Prometheus endpoint exposes per-shard request counters and latency
  histograms with exactly the counts sent, plus the consolidated
  ``repro_serving_*`` gauges;
* every query beat the (tiny) slow threshold, so stderr carries one
  structured slow-query JSON line per query, each with a span dump.

Run from the repository root::

    python tools/obs_smoke.py

Exits non-zero on the first broken promise.
"""

from __future__ import annotations

import io
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import trace_view  # noqa: E402 - sibling tool, imported for render()
from repro import CostCounters, MaxRankService, generate, maxrank  # noqa: E402

SHARDS = {
    "alpha": ("IND", 220, 3, 71),
    "beta": ("ANTI", 180, 3, 72),
}
# 8 unique keys, each asked twice back to back -> exactly 8 computations
# and 8 cache hits; sequential requests -> exactly 0 coalesced.
UNIQUE = [
    ("alpha", 5, 1), ("alpha", 33, 0), ("alpha", 60, 1), ("alpha", 101, 0),
    ("beta", 7, 1), ("beta", 21, 0), ("beta", 55, 1), ("beta", 90, 0),
]
QUERIES = UNIQUE + UNIQUE
# A fresh (cold) key for the traced request so its tree shows the full
# engine funnel rather than a cache hit.
TRACE_KEY = ("alpha", 140, 1)

#: span names a complete traced TCP query must contain: transport-level
#: request, admission, service, engine phases, and worker-side leaf tasks.
EXPECTED_SPANS = {
    "request", "admission.submit", "service.query",
    "compute", "skyline", "quadtree_build", "within_leaf", "collect_level",
    "leaf_task",
}


def build_snapshots(tmp: Path) -> dict:
    paths = {}
    for name, (dist, n, d, seed) in SHARDS.items():
        with MaxRankService(generate(dist, n, d, seed=seed)) as service:
            path = tmp / f"{name}.rprs"
            service.save_snapshot(path)
            paths[name] = path
    return paths


def standalone_references() -> dict:
    datasets = {
        name: generate(dist, n, d, seed=seed)
        for name, (dist, n, d, seed) in SHARDS.items()
    }
    references = {}
    for shard, focal, tau in UNIQUE + [TRACE_KEY]:
        result = maxrank(datasets[shard], focal, tau=tau,
                         counters=CostCounters())
        references[(shard, focal, tau)] = {
            "k_star": result.k_star,
            "regions": result.region_count,
            "dominators": result.dominator_count,
            "tau": result.tau,
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


def scrape(port: int) -> dict:
    """GET /metrics and parse the text exposition into a flat dict."""
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=30
    ) as response:
        text = response.read().decode("utf-8")
    values = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    return values


def main() -> int:
    failures = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    references = standalone_references()
    with tempfile.TemporaryDirectory(prefix="obs-smoke-") as tmpdir:
        tmp = Path(tmpdir)
        paths = build_snapshots(tmp)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env["REPRO_JOBS"] = "2"  # within-leaf pool -> worker-side spans
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--listen", "127.0.0.1:0",
             "--shard", f"alpha={paths['alpha']}",
             "--shard", f"beta={paths['beta']}",
             "--metrics-port", "0",
             "--slow-query-threshold", "0.000000001"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=REPO,
        )
        # Drain stderr continuously: 17 slow-query span dumps overflow a
        # pipe buffer, and a full pipe would deadlock the server.
        stderr_lines: list = []
        drain = threading.Thread(
            target=lambda: stderr_lines.extend(proc.stderr),
            daemon=True,
        )
        drain.start()
        try:
            meta = json.loads(proc.stdout.readline())
            port = meta["listening"][1]
            metrics_port = meta["metrics_port"]
            print(f"listening on {port}, metrics on {metrics_port}")

            sock, f = connect(port)
            for shard, focal, tau in QUERIES:
                answer = ask(f, {"dataset": shard, "focal": focal, "tau": tau})
                expected = references[(shard, focal, tau)]
                got = {k: answer.get(k) for k in expected}
                check(got == expected,
                      f"{shard}/{focal}/tau={tau}: {got} != {expected}")

            # --- the traced request: a complete span tree over TCP.
            shard, focal, tau = TRACE_KEY
            traced = ask(f, {"cmd": "trace", "dataset": shard,
                             "focal": focal, "tau": tau})
            expected = references[TRACE_KEY]
            got = {k: traced.get(k) for k in expected}
            check(got == expected, f"traced answer diverged: {got}")
            spans = traced.get("trace", {}).get("spans", [])
            names = {span["name"] for span in spans}
            check(EXPECTED_SPANS <= names,
                  f"span tree incomplete: missing "
                  f"{sorted(EXPECTED_SPANS - names)} in {sorted(names)}")
            rendered = io.StringIO()
            trace_view.render(traced["trace"], out=rendered)
            tree = rendered.getvalue()
            check(tree.count("\n") == len(spans) + 1,
                  f"trace_view rendered {tree.count(chr(10))} lines "
                  f"for {len(spans)} spans")
            print(f"trace: {len(spans)} spans ({len(names)} kinds), "
                  "tree renders")

            # --- consolidated metrics verb: one coherent snapshot.
            answer = ask(f, {"cmd": "metrics"})
            serving = answer["serving"]
            check(serving["coalesced"] == 0,
                  f"sequential clients coalesced {serving['coalesced']}")
            check(serving["queries_computed"] == len(UNIQUE) + 1,
                  f"computed {serving['queries_computed']} != "
                  f"{len(UNIQUE) + 1} unique keys")
            check(serving["cache_hits"] == len(UNIQUE),
                  f"cache hits {serving['cache_hits']} != {len(UNIQUE)}")
            check(serving["routed"] == len(QUERIES) + 1,
                  f"routed {serving['routed']} != {len(QUERIES) + 1}")
            check(answer["slow_queries"] == len(QUERIES) + 1,
                  f"slow queries {answer['slow_queries']} != "
                  f"{len(QUERIES) + 1}")

            # --- Prometheus endpoint: exact per-shard series.
            metrics = scrape(metrics_port)
            alpha_queries = sum(
                2 for s, _, _ in UNIQUE if s == "alpha"
            ) + 1  # the traced request also hits alpha
            beta_queries = sum(2 for s, _, _ in UNIQUE if s == "beta")
            for shard_name, count in (("alpha", alpha_queries),
                                      ("beta", beta_queries)):
                for series in (
                    f'repro_requests_total{{shard="{shard_name}"}}',
                    f'repro_query_latency_seconds_count{{shard="{shard_name}"}}',
                ):
                    check(metrics.get(series) == count,
                          f"{series} = {metrics.get(series)} != {count}")
                bucket = (f'repro_query_latency_seconds_bucket'
                          f'{{shard="{shard_name}",le="+Inf"}}')
                check(metrics.get(bucket) == count,
                      f"{bucket} = {metrics.get(bucket)} != {count}")
            check(metrics.get("repro_serving_coalesced") == 0,
                  "serving gauge: coalesced != 0")
            check(metrics.get("repro_serving_cache_hits") == len(UNIQUE),
                  f"serving gauge: cache_hits != {len(UNIQUE)}")
            check(metrics.get('repro_shard_queries_computed{shard="alpha"}')
                  == len([1 for s, _, _ in UNIQUE if s == "alpha"]) + 1,
                  "per-shard computed gauge wrong for alpha")
            print(f"metrics: {len(metrics)} series, per-shard counts exact")

            # --- graceful drain + the slow-query log on stderr.
            proc.send_signal(signal.SIGTERM)
            farewell = json.loads(f.readline())
            check(farewell.get("reason") == "SIGTERM",
                  f"bad farewell: {farewell}")
            sock.close()
            out, _ = proc.communicate(timeout=30)
            drain.join(timeout=30)
            check(proc.returncode == 0,
                  f"server exited {proc.returncode}")
            summary = json.loads(out.strip().splitlines()[-1])
            check(summary.get("slow_queries") == len(QUERIES) + 1,
                  f"shutdown slow_queries: {summary}")

            slow = []
            for line in stderr_lines:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if record.get("event") == "slow_query":
                    slow.append(record)
            check(len(slow) == len(QUERIES) + 1,
                  f"{len(slow)} slow-query log lines != {len(QUERIES) + 1}")
            check(all(record["trace"]["spans"] for record in slow),
                  "a slow-query line carried an empty span dump")
            check(all(record["elapsed_s"] >= 0 and record["shard"]
                      for record in slow),
                  "slow-query line missing elapsed_s/shard fields")
            print(f"slow-query log: {len(slow)} structured lines, "
                  "each with a span dump")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("obs-smoke: trace tree complete over TCP, Prometheus counts "
          "exact, slow-query log populated, SIGTERM drained cleanly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
