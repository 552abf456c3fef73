#!/usr/bin/env python3
"""The repository benchmark: served reads, a d=4 catalogue, writes beside reads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload served-hot --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` also runs a
traced pass and reports the per-layer metrics.  Every answer is checked.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``
for the workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The library under test; imported only once ``main`` has found it.
SRC = ROOT / "src"
WORKLOADS = ("served-hot", "catalog-d4", "write-mix")
#: Span dumps of traced runs, kept after the run.
TRACE_DIR = ROOT / "perfbench_traces"
#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: Every per-layer metric, in report order, with its unit.  ``/query``
#: units are means over computed queries.
PER_LAYER = {
    "transport.requests": "count",
    "transport.queue_ms.p50": "ms",
    "transport.queue_ms.p99": "ms",
    "setup.process_s": "s",
    "setup.shard_load_s": "s",
    "admission.admitted": "count",
    "admission.coalesced": "count",
    "admission.coalesce_ratio": "ratio",
    "admission.waves": "count",
    "admission.wave_jobs": "count",
    "admission.flights_per_wave": "ratio",
    "admission.wait_ms.p50": "ms",
    "admission.wait_ms.p99": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.invalidated": "count",
    "cache.retained": "count",
    "cache.swept": "count",
    "cache.retain_ratio": "ratio",
    "service.computed": "count",
    "service.compute_ms.p50": "ms",
    "service.compute_ms.p99": "ms",
    "write.inserts": "count",
    "write.deletes": "count",
    "write.insert_ms.p50": "ms",
    "write.delete_ms.p50": "ms",
    "engine.jobs": "count",
    "engine.batch_wall_s": "s",
    "engine.task_busy_s": "s",
    "engine.pool_utilisation": "ratio",
    "engine.worker_retries": "count",
    "engine.degraded_batches": "count",
    "core.iterations": "count/query",
    "core.halfspaces_expanded": "count/query",
    "core.records_accessed": "count/query",
    "core.scan_ms": "ms/query",
    "skyline.ms": "ms/query",
    "skyline.updates": "count/query",
    "skyline.reused": "count/query",
    "index.page_reads": "count/query",
    "index.distinct_page_reads": "count/query",
    "quadtree.build_ms": "ms/query",
    "quadtree.nodes_created": "count/query",
    "quadtree.splits": "count/query",
    "quadtree.leaves_processed": "count/query",
    "quadtree.leaves_pruned": "count/query",
    "withinleaf.ms": "ms/query",
    "withinleaf.candidates": "count/query",
    "withinleaf.prefixes_cut": "count/query",
    "withinleaf.pairwise_pruned": "count/query",
    "lp.screen_accepts": "count/query",
    "lp.screen_rejects": "count/query",
    "lp.calls": "count/query",
    "lp.screen_resolved": "count/query",
    "lp.screen_examined": "count/query",
    "lp.screen_resolved_ratio": "ratio",
    "planar.lines_inserted": "count/query",
    "planar.faces_enumerated": "count/query",
    "loadgen.sent": "count",
    "loadgen.late_ms.p99": "ms",
    "obs.traced_ms.p50": "ms",
    "obs.untraced_ms.p50": "ms",
    "obs.trace_overhead_ratio": "ratio",
    "obs.traced_wall_s": "s",
    "obs.unattributed_s": "s",
    "obs.unattributed_frac": "ratio",
}

#: The layer each span name belongs to, for the self-time split.  The
#: benchmark's own spans are ``bench.*``; ``bench.request`` is a served
#: request as its client saw it, so its self time is the transport queue.
SPAN_LAYERS = {
    "bench.request": "transport (queue + JSON)",
    "request": "transport (request handling)",
    "admission.submit": "admission",
    "admission.wave": "admission",
    "service.query": "service",
    "compute": "service",
    "service.batch": "engine (pool dispatch)",
    "query_task": "engine (worker)",
    "skyline": "skyline",
    "quadtree_build": "quadtree",
    "subtree_build": "quadtree",
    "within_leaf": "withinleaf",
    "leaf_task": "withinleaf",
    "collect_level": "core (scan)",
    "expansion": "core (expansion)",
}

#: Engine counters reported as means of computed queries' own counters.
COUNTER_METRICS = {
    "core.iterations": "iterations",
    "core.halfspaces_expanded": "halfspaces_expanded",
    "core.records_accessed": "records_accessed",
    "skyline.updates": "skyline_updates",
    "skyline.reused": "skyline_reused",
    "index.page_reads": "page_reads",
    "index.distinct_page_reads": "distinct_page_reads",
    "quadtree.nodes_created": "nodes_created",
    "quadtree.splits": "splits_performed",
    "quadtree.leaves_processed": "leaves_processed",
    "quadtree.leaves_pruned": "leaves_pruned",
    "withinleaf.candidates": "candidates_generated",
    "withinleaf.prefixes_cut": "prefixes_cut",
    "withinleaf.pairwise_pruned": "pairwise_pruned",
    "lp.screen_accepts": "screen_accepts",
    "lp.screen_rejects": "screen_rejects",
    "lp.calls": "lp_calls",
    "planar.lines_inserted": "lines_inserted",
    "planar.faces_enumerated": "faces_enumerated",
}


@dataclass
class Outcome:
    """What one workload run hands back to ``main`` for reporting."""

    record: dict
    end_to_end: Dict[str, tuple]
    #: the same figures under their per-workload names (``p99_ms``,
    #: ``write_p50_ms``, ``qps`` ...)
    named: Dict[str, tuple]
    attempted: int
    failed: int
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: per-layer metric -> why this workload cannot measure it
    absent: Dict[str, str] = field(default_factory=dict)
    traces: List[dict] = field(default_factory=list)
    invalid: List[str] = field(default_factory=list)


# ---------------------------------------------------------------- statistics
def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with p% at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie beyond the p-th percentile."""
    return count - max(1, math.ceil(p / 100.0 * count)) if count else 0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(who: int) -> float:
    """``RUSAGE_SELF``: this process; ``RUSAGE_CHILDREN``: the largest
    child reaped so far."""
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def own_cpu_s() -> float:
    """User plus system CPU seconds of this process and its reaped children."""
    return sum(usage.ru_utime + usage.ru_stime for usage in
               (resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN)))


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a running process (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def service_counts(delta: Dict[str, int]) -> Dict[str, float]:
    """Cache, service and pool counts from a stats delta (the server's
    ``metrics`` verb and ``MaxRankService.stats()`` share these names)."""
    lookups = delta["cache_hits"] + delta["cache_misses"]
    swept = delta["invalidated"] + delta["retained"]
    return {
        "cache.hits": delta["cache_hits"],
        "cache.misses": delta["cache_misses"],
        "cache.lookups": lookups,
        "cache.hit_ratio": ratio(delta["cache_hits"], lookups),
        "cache.evictions": delta["cache_evictions"],
        "cache.invalidated": delta["invalidated"],
        "cache.retained": delta["retained"],
        "cache.swept": swept,
        "cache.retain_ratio": ratio(delta["retained"], swept),
        "service.computed": delta["queries_computed"],
        "write.inserts": delta["inserts"],
        "write.deletes": delta["deletes"],
        "engine.worker_retries": delta["worker_retries"],
        "engine.degraded_batches": delta["degraded_batches"],
    }


def counter_means(counters: Sequence) -> Dict[str, float]:
    """Mean of each engine counter over computed queries' own counters."""
    out = {metric: ratio(sum(getattr(c, name) for c in counters), len(counters))
           for metric, name in COUNTER_METRICS.items()}
    resolved = out["lp.screen_accepts"] + out["lp.screen_rejects"]
    out["lp.screen_resolved"] = resolved
    out["lp.screen_examined"] = resolved + out["lp.calls"]
    out["lp.screen_resolved_ratio"] = ratio(resolved, out["lp.screen_examined"])
    return out


# ----------------------------------------------------------------- span trees
def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time of every span of one ``Tracer.export()`` tree, by span id:
    its duration minus the union of its children's intervals (two children
    that ran at once on two workers are not subtracted twice)."""
    children: Dict[Optional[str], List[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(span)
    out = {}
    for span in spans:
        start = span["start_s"]
        end = start + span["elapsed_s"]
        covered = _union_length(
            (max(start, kid["start_s"]), min(end, kid["start_s"] + kid["elapsed_s"]))
            for kid in children.get(span["id"], ())
        )
        out[span["id"]] = max(0.0, span["elapsed_s"] - covered)
    return out


def _union_length(intervals: Iterable[tuple]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def wall_shares(spans: List[dict]) -> Dict[str, float]:
    """Split one trace's wall clock among span names, summing to its wall.

    Every instant is charged to the innermost open span of each branch
    running at that instant, in equal parts when several run at once (the
    catalogue's two pool workers).  Unlike raw self times, the shares add
    up to the traced wall.
    """
    by_id = {span["id"]: span for span in spans}
    events = []
    for span in spans:
        if span["elapsed_s"] > 0:
            events.append((span["start_s"], 1, span["id"]))
            events.append((span["start_s"] + span["elapsed_s"], -1, span["id"]))
    events.sort(key=lambda event: (event[0], event[1]))
    shares: Dict[str, float] = {}
    open_ids: set = set()
    last = 0.0
    for time_s, kind, span_id in events:
        if open_ids and time_s > last:
            parents = {by_id[s].get("parent") for s in open_ids}
            leaves = [s for s in open_ids if s not in parents]
            for leaf in leaves:
                name = by_id[leaf]["name"]
                shares[name] = shares.get(name, 0.0) + (time_s - last) / len(leaves)
        if kind == 1:
            open_ids.add(span_id)
        else:
            open_ids.discard(span_id)
        last = time_s
    return shares


class SpanSummary:
    """Per-layer totals over many traced calls."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.calls = 0
        self.share_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.elapsed_s: Dict[str, float] = {}

    def add(self, trace: dict) -> Dict[str, float]:
        """Fold one trace in; returns its self times by span name."""
        spans = trace["spans"]
        self.wall_s += sum(s["elapsed_s"] for s in spans if s.get("parent") is None)
        self.calls += 1
        for name, share in wall_shares(spans).items():
            self.share_s[name] = self.share_s.get(name, 0.0) + share
        own = self_times(spans)
        by_name: Dict[str, float] = {}
        for span in spans:
            name = span["name"]
            by_name[name] = by_name.get(name, 0.0) + own[span["id"]]
            self.elapsed_s[name] = self.elapsed_s.get(name, 0.0) + span["elapsed_s"]
        for name, value in by_name.items():
            self.self_s[name] = self.self_s.get(name, 0.0) + value
        return by_name

    def per_query_ms(self, name: str, computed: int) -> float:
        return ratio(self.elapsed_s.get(name, 0.0) * 1e3, computed)

    def obs_metrics(self, traced_ms: List[float], untraced_ms: List[float]) -> dict:
        # Wall charged to spans of no program layer is unattributed.
        unattributed = sum(v for k, v in self.share_s.items() if k not in SPAN_LAYERS)
        return {
            "obs.traced_ms.p50": median(traced_ms),
            "obs.untraced_ms.p50": median(untraced_ms),
            "obs.trace_overhead_ratio": ratio(median(traced_ms), median(untraced_ms)),
            "obs.traced_wall_s": self.wall_s,
            "obs.unattributed_s": unattributed,
            "obs.unattributed_frac": ratio(unattributed, self.wall_s),
        }

    def print_split(self, untraced: str) -> None:
        print(f"--- self-time split of {self.calls} traced calls: traced wall "
              f"{self.wall_s:.4f} s; untraced {untraced}")
        print(f"  {'span':<16} {'layer':<30} {'wall share':>12} {'%':>7} {'self':>12}")
        for name, share in sorted(self.share_s.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<16} {SPAN_LAYERS.get(name, 'unattributed'):<30} "
                  f"{share * 1e3:>10.2f}ms {100 * ratio(share, self.wall_s):>6.2f}% "
                  f"{self.self_s.get(name, 0.0) * 1e3:>10.2f}ms")


# ======================================================= the served workloads
#
# ``served-hot`` sends Zipf-skewed reads to two d=3 IND shards (the
# operator's traffic); ``write-mix`` sends reads of a hot focal set beside
# inserts and deletes to one d=3 shard.  The server is ``python -m
# repro.service serve --listen`` in its own process.  The load comes from
# this process alone, on one thread and two connections: requests follow a
# schedule fixed before the window opens and are written when due, whether
# or not earlier answers have arrived (open loop), so a request waits on
# its connection behind a slow one as it would behind a real client's.
# Every latency runs from the request's scheduled send time to the arrival
# of its answer.

#: Connections of the load generator, which runs on one thread.
CONNECTIONS = 2
#: Cold starts per run; the setup figures are their medians.  One server
#: start took 0.32-0.48 s within a minute on a 2-vCPU VM.
SETUP_REPEATS = 11
#: How long answers may trail the last scheduled send before the rest
#: count as timed out.
GRACE_S = 60.0
#: The generator is behind when its p99 lateness exceeds this.  On a
#: 2-core machine, where the server holds one core, p99 lateness runs at
#: 2-6 ms.
LATE_LIMIT_MS = 10.0

# Shards of 150 records keep a computed d=3 answer at tens of milliseconds,
# so the rate can sit well below capacity.  Each shard has 300 keys; its
# result cache is cut from the default 256 entries to 64 so that the key
# space is several times the cache and a 20 s window evicts.  With 256
# entries a shard would need ~256 computed keys (~12 s) before its first
# eviction.
#
# Both served rates are the lowest that give a true tail in a 20 s window:
# 1000 reads put ten beyond p99, and 100 writes put ten beyond p90.  The
# skew is then the least at which the server's CPU stays under 40% busy at
# that rate (README: the sweep from YCSB's default exponent 0.99 up).
HOT_SHARDS = {"hot-a": ("IND", 150, 3, 101), "hot-b": ("IND", 150, 3, 102)}
HOT_CACHE = 64             # result-cache entries per shard (--cache-size)
HOT_TAUS = (0, 1)
HOT_ZIPF_S = 1.2
HOT_KEYS_SEED = 103
HOT_RATE = 50.0            # requests per second
HOT_LIMIT_MS = 100.0       # goodput latency limit (about p93)
HOT_WARM_KEYS = 2 * HOT_CACHE  # most popular keys computed before the window
HOT_SAMPLE = 12            # unique keys compared bit for bit with maxrank()

# The hot focals are the repository's "strong" focal records (competitive
# products, ``select_focal_records``), as many as the focals per shard of
# ``benchmarks/baseline.py``'s serve/load/hot.  They are addressed by
# coordinates, so their cache keys survive the id renumbering a delete
# causes.  Inserted records come from the shard's own generator, so
# whether an insert outranks a hot focal (and the cache invalidates) is
# the data's doing, not a tuned share.
# Reads ask for tau = 0 only: with tau = 1 as well, the 20 s window kept
# the server's CPU 76% busy at 25 operations/s.
MIX_SHARDS = {"mix": ("IND", 150, 3, 201)}
MIX_HOT = 8
MIX_TAUS = (0,)
MIX_OPS_SEED = 203
MIX_RATE = 25.0            # operations per second
MIX_WRITE_SHARE = 0.2      # one write per four reads
MIX_LIMIT_MS = 250.0       # goodput latency limit (about p95)
MIX_SAMPLE = 8

#: The engine counters a served workload takes from the server's stats.
SERVER_COUNTERS = ("skyline.reused and quadtree.nodes_created/.splits from the "
                   "server's stats delta")

SERVED_ABSENT = {
    "engine.jobs": "the server answers each admission wave in-process "
                   "(serve runs without --jobs): no pool",
    "engine.batch_wall_s": "no pool on the serving path",
    "engine.task_busy_s": "no pool on the serving path",
    "engine.pool_utilisation": "no pool on the serving path",
}


class Connection:
    """A blocking request/answer connection for setup, warm-up and stats."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=GRACE_S)
        self.stream = self.sock.makefile("rwb")
        greeting = json.loads(self.stream.readline())
        if greeting.get("ready") is not True:
            raise RuntimeError(f"unexpected greeting {greeting}")

    def ask(self, request: dict) -> dict:
        return self.ask_many([request])[0]

    def ask_many(self, requests: Sequence[dict]) -> List[dict]:
        """Pipeline ``requests`` and return their answers in order."""
        for request in requests:
            self.stream.write(json.dumps(request).encode() + b"\n")
        self.stream.flush()
        answers = []
        for _ in requests:
            line = self.stream.readline()
            if not line:
                raise ConnectionError("the server closed the connection")
            answers.append(json.loads(line))
        return answers

    def serving(self) -> dict:
        """The consolidated serving counters (the ``metrics`` verb)."""
        return self.ask({"cmd": "metrics"})["serving"]

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.stream.close()
        self.sock.close()


class ServerProcess:
    """``serve --listen`` on a kernel-picked port, in its own process."""

    def __init__(self, shards: Dict[str, str], log_path: Path,
                 options: Sequence[str]) -> None:
        self.shards = shards
        self.log_path = log_path
        self.options = list(options)
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, probe_focal: List[float]) -> tuple:
        """Spawn the server and wait until every shard answers.

        Returns ``(process_s, shard_load_s)``: spawn to the ``listening``
        line, then on to the last shard's answer to ``probe_focal``.
        """
        cmd = [sys.executable, "-m", "repro.service", "serve", "--listen", "127.0.0.1:0"]
        for name, path in self.shards.items():
            cmd += ["--shard", f"{name}={path}"]
        cmd += self.options
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(self.log_path, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self._log,
                                     cwd=ROOT, env=env)
        line = self.proc.stdout.readline()
        listening = time.perf_counter()
        if not line:
            raise RuntimeError(f"the server exited before listening; see {self.log_path}")
        self.port = json.loads(line)["listening"][1]
        with Connection(self.port) as conn:
            for name in self.shards:
                answer = conn.ask({"dataset": name, "focal": probe_focal})
                if "error" in answer:
                    raise RuntimeError(f"shard {name} failed its probe: {answer}")
        return listening - start, time.perf_counter() - listening

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()
        self.proc = None


def snapshot_shards(datasets, work: Path) -> Dict[str, str]:
    """Save one snapshot per shard; returns shard name -> path."""
    from repro.service import MaxRankService

    paths = {}
    for name, dataset in datasets.items():
        paths[name] = str(work / f"{name}.rprs")
        with MaxRankService(dataset) as service:
            service.save_snapshot(paths[name])
    return paths


def start_server(paths: Dict[str, str], d: int, work: Path,
                 options: Sequence[str], repeats: int = SETUP_REPEATS):
    """Start the server ``repeats`` times; every start but the last is
    stopped again and the last one serves.  Returns the server and the
    median setup figures."""
    # This focal dominates every record, so answering it costs no MaxRank
    # work and the probe measures the snapshot load.
    probe = [2.0] * d
    starts = []
    for attempt in range(repeats):
        server = ServerProcess(paths, work / "server.log", options)
        try:
            starts.append(server.start(probe))
        except BaseException:
            server.stop()
            raise
        if attempt < repeats - 1:
            server.stop()
    setup = {
        "setup_s": median([p + load for p, load in starts]),
        "setup.process_s": median([p for p, _ in starts]),
        "setup.shard_load_s": median([load for _, load in starts]),
    }
    return server, setup


@dataclass
class Op:
    """One scheduled request."""

    at: float           # scheduled send, seconds after the window opens
    conn: int
    request: dict
    kind: str = "read"  # "read", "insert" or "delete"
    key: tuple = ()


@dataclass
class Window:
    """What one open-loop window observed, op by op."""

    ops: List[Op]
    start: float
    due: List[float]
    sent: List[float]
    answered: List[Optional[float]]
    answers: List[Optional[dict]]

    def latency_ms(self, index: int) -> float:
        return (self.answered[index] - self.due[index]) * 1e3

    def late_ms(self) -> List[float]:
        return [(s - d) * 1e3 for s, d in zip(self.sent, self.due) if s]

    def wall_s(self) -> float:
        done = [a for a in self.answered if a is not None]
        return (max(done) - self.start) if done else 0.0


def _greeting(sock: socket.socket) -> bytes:
    """Read the greeting line; returns any bytes that followed it."""
    buffer = b""
    while b"\n" not in buffer:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("the server closed the connection")
        buffer += chunk
    line, rest = buffer.split(b"\n", 1)
    if json.loads(line).get("ready") is not True:
        raise RuntimeError(f"unexpected greeting {line!r}")
    return rest


def open_loop(port: int, ops: List[Op]) -> Window:
    """Send ``ops`` on schedule over ``CONNECTIONS`` connections, one thread.

    Answers come back in order on each connection, so each is matched to
    the oldest unanswered request of its connection.
    """
    payloads = [json.dumps(op.request).encode() + b"\n" for op in ops]
    count = len(ops)
    sent = [0.0] * count
    answered: List[Optional[float]] = [None] * count
    lines: List[Optional[bytes]] = [None] * count
    socks: List[socket.socket] = []
    selector = selectors.DefaultSelector()
    try:
        buffers = []
        for index in range(CONNECTIONS):
            sock = socket.create_connection(("127.0.0.1", port), timeout=GRACE_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            socks.append(sock)
            buffers.append(_greeting(sock))
            selector.register(sock, selectors.EVENT_READ, index)
        inflight = [deque() for _ in socks]
        start = time.perf_counter() + 0.05
        due = [start + op.at for op in ops]
        give_up = (due[-1] if ops else start) + GRACE_S
        next_op = done = 0
        while done < count:
            now = time.perf_counter()
            while next_op < count and due[next_op] <= now:
                conn = ops[next_op].conn
                socks[conn].sendall(payloads[next_op])
                now = sent[next_op] = time.perf_counter()
                inflight[conn].append(next_op)
                next_op += 1
            if now >= give_up:
                break
            wait = (due[next_op] if next_op < count else give_up) - now
            for key, _ in selector.select(max(0.0, wait)):
                index = key.data
                chunk = socks[index].recv(1 << 16)
                arrived = time.perf_counter()
                if not chunk:
                    raise ConnectionError("the server closed a connection mid-run")
                buffers[index] += chunk
                while b"\n" in buffers[index]:
                    line, buffers[index] = buffers[index].split(b"\n", 1)
                    op_index = inflight[index].popleft()
                    answered[op_index] = arrived
                    lines[op_index] = line
                    done += 1
    finally:
        selector.close()
        for sock in socks:
            sock.close()
    answers = [json.loads(line) if line is not None else None for line in lines]
    return Window(ops, start, due, sent, answered, answers)


def poisson_times(rng: np.random.Generator, count: int, seconds: float) -> np.ndarray:
    """Arrival times of a Poisson process given its ``count`` arrivals."""
    return np.sort(rng.uniform(0.0, float(seconds), size=count))


def wire_payload(result) -> dict:
    """The answer fields the server sends for ``result``."""
    regions = result.regions
    return {
        "k_star": result.k_star,
        "regions": result.region_count,
        "dominators": result.dominator_count,
        "tau": result.tau,
        "representative": (
            [round(float(w), 9) for w in regions[0].representative_query()]
            if regions else None
        ),
    }


def rank_ok(answer: Optional[dict], dataset, focal, tau: int) -> bool:
    """The per-answer gate: the representative's order is in [k*, k*+tau]."""
    from repro import ReproError
    from repro.topk.scoring import order_of

    if not answer or "error" in answer or answer.get("tau") != tau:
        return False
    representative = answer.get("representative")
    if representative is None:
        return False
    # The wire rounds weights to 9 decimals; one that rounds to 0 is read
    # back as a tiny positive weight, as preference vectors must be.
    query = [max(w, 1e-12) for w in representative]
    try:
        order = order_of(dataset, focal, query)
    except ReproError:
        return False
    return answer["k_star"] <= order <= answer["k_star"] + tau


def same_payload(answer: Optional[dict], expected: dict) -> bool:
    return bool(answer) and {k: answer.get(k) for k in expected} == expected


#: Consolidated serving totals read as deltas around the timed window.
TOTALS = ("requests", "admitted", "coalesced", "waves", "wave_jobs",
          "queries_computed", "cache_hits", "cache_misses", "cache_evictions",
          "inserts", "deletes", "worker_retries", "degraded_batches")
#: Per-shard service counters summed into the same deltas.
SHARD_TOTALS = ("invalidated", "retained", "skyline_reused",
                "nodes_created", "splits_performed")


def serving_delta(before: dict, after: dict) -> Dict[str, int]:
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in TOTALS}
    for key in SHARD_TOTALS:
        delta[key] = sum(
            shard.get(key, 0) - before["shards"].get(name, {}).get(key, 0)
            for name, shard in after["shards"].items()
        )
    delta["requests"] -= 1  # the closing metrics request counts itself
    return delta


def served_layers(delta: Dict[str, int], setup: dict, window: Window,
                  sample_counters: list) -> Dict[str, float]:
    """The per-layer counts of a served workload's untraced window."""
    computed = delta["queries_computed"]
    layers = service_counts(delta)
    layers.update(counter_means(sample_counters))
    layers.update({
        "transport.requests": delta["requests"],
        "setup.process_s": setup["setup.process_s"],
        "setup.shard_load_s": setup["setup.shard_load_s"],
        "admission.admitted": delta["admitted"],
        "admission.coalesced": delta["coalesced"],
        "admission.coalesce_ratio": ratio(delta["coalesced"], delta["admitted"]),
        "admission.waves": delta["waves"],
        "admission.wave_jobs": delta["wave_jobs"],
        "admission.flights_per_wave": ratio(delta["wave_jobs"], delta["waves"]),
        # The server's own stats carry these three exactly.
        "skyline.reused": ratio(delta["skyline_reused"], computed),
        "quadtree.nodes_created": ratio(delta["nodes_created"], computed),
        "quadtree.splits": ratio(delta["splits_performed"], computed),
        "loadgen.sent": len(window.ops),
        "loadgen.late_ms.p99": percentile(window.late_ms(), 99),
    })
    return layers


def request_trace(answer: dict, latency_s: float) -> dict:
    """Nest the server's span tree under a ``bench.request`` span.

    The benchmark span lasts the client's latency; the server's ``request``
    span is placed to end when the answer arrived, so the benchmark span's
    self time is the client latency minus the server ``request`` span: the
    wait on the connection plus JSON and socket time (the transport queue).
    """
    server = answer["trace"]
    spans = server["spans"]
    request = max((s for s in spans if s.get("parent") is None),
                  key=lambda s: s["elapsed_s"])
    offset = max(0.0, latency_s - request["elapsed_s"])
    merged = [{"id": "0", "parent": None, "name": "bench.request", "start_s": 0.0,
               "elapsed_s": max(latency_s, request["elapsed_s"])}]
    for span in spans:
        merged.append(dict(
            span,
            id=f"0.{span['id']}",
            parent=f"0.{span['parent']}" if span.get("parent") else "0",
            start_s=span["start_s"] + offset,
        ))
    return {"trace_id": server["trace_id"], "spans": merged}


def traced_layers(window: Window, untraced_ms: List[float], outcome: Outcome,
                  untraced: str) -> None:
    """Fill in the per-layer times from a traced window."""
    summary = SpanSummary()
    queue_ms, wait_ms, compute_ms, traced_ms = [], [], [], []
    for index, answer in enumerate(window.answers):
        if not answer or "trace" not in answer:
            continue
        latency_ms = window.latency_ms(index)
        trace = request_trace(answer, latency_ms / 1e3)
        outcome.traces.append(trace)
        own = summary.add(trace)
        traced_ms.append(latency_ms)
        queue_ms.append(own.get("bench.request", 0.0) * 1e3)
        wait_ms.append(own.get("admission.submit", 0.0) * 1e3)
        compute_ms.extend(s["elapsed_s"] * 1e3 for s in trace["spans"]
                          if s["name"] == "compute")
    computed = len(compute_ms)
    outcome.per_layer.update({
        "transport.queue_ms.p50": percentile(queue_ms, 50),
        "transport.queue_ms.p99": percentile(queue_ms, 99),
        "admission.wait_ms.p50": percentile(wait_ms, 50),
        "admission.wait_ms.p99": percentile(wait_ms, 99),
        "service.compute_ms.p50": percentile(compute_ms, 50),
        "service.compute_ms.p99": percentile(compute_ms, 99),
        "core.scan_ms": ratio(summary.self_s.get("collect_level", 0.0) * 1e3, computed),
        "skyline.ms": summary.per_query_ms("skyline", computed),
        "quadtree.build_ms": summary.per_query_ms("quadtree_build", computed),
        "withinleaf.ms": summary.per_query_ms("within_leaf", computed),
    })
    outcome.per_layer.update(summary.obs_metrics(traced_ms, untraced_ms))
    outcome.record["traced"] = {
        "requests": len(traced_ms),
        "computed": computed,
        "queue samples beyond p99": beyond(len(queue_ms), 99),
        "compute samples beyond p99": beyond(computed, 99),
    }
    summary.print_split(untraced)


def validity(window: Window, checks: Dict[str, tuple]) -> List[str]:
    """Reasons the window's figures cannot be trusted (empty when valid)."""
    reasons = []
    late_p99 = percentile(window.late_ms(), 99)
    if late_p99 > LATE_LIMIT_MS:
        reasons.append(f"load generator fell behind: late p99 {late_p99:.2f} ms "
                       f"> {LATE_LIMIT_MS} ms")
    nproc = os.cpu_count() or 1
    if CONNECTIONS > nproc:
        reasons.append(f"{CONNECTIONS} connections > nproc {nproc}")
    if threading.active_count() > nproc:
        reasons.append(f"{threading.active_count()} threads > nproc {nproc}")
    for name, (count, p) in checks.items():
        if beyond(count, p) < MIN_BEYOND:
            reasons.append(f"{name}: only {beyond(count, p)} of {count} samples "
                           f"beyond p{p} (need {MIN_BEYOND})")
    return reasons


def generator_record(server: ServerProcess, window: Window) -> dict:
    if server.proc is None or server.proc.pid == os.getpid():
        raise RuntimeError("the server must run in its own process")
    return {
        "server_pid": server.proc.pid,
        "generator_pid": os.getpid(),
        "generator_threads": threading.active_count(),
        "generator_connections": CONNECTIONS,
        "late_ms_p99": percentile(window.late_ms(), 99),
    }


def traced_replay(paths: Dict[str, str], d: int, work: Path, options: Sequence[str],
                  warm: List[dict], ops: List[Op]) -> Window:
    """Replay ``ops`` on a fresh server warmed alike, every read as a
    ``trace`` request, so the traced window matches the untraced one."""
    server, _ = start_server(paths, d, work, options, repeats=1)
    try:
        with Connection(server.port) as conn:
            conn.ask_many(warm)
        return open_loop(server.port, [
            replace(op, request=dict(op.request, cmd="trace")) if op.kind == "read" else op
            for op in ops
        ])
    finally:
        server.stop()


def served_hot(seed: int, seconds: int, trace: bool, work: Path) -> Outcome:
    from repro import CostCounters, generate, maxrank

    rng = np.random.default_rng(seed)
    datasets = {name: generate(dist, n, d, seed=data_seed)
                for name, (dist, n, d, data_seed) in HOT_SHARDS.items()}
    keys = [(name, focal, tau) for name, dataset in datasets.items()
            for focal in range(dataset.n) for tau in HOT_TAUS]
    # The key sequence is part of the workload, like the shards, and the
    # seed draws the arrival times: a per-seed sequence changes which
    # costly keys miss, and that moved p95 by 40% between seeds.
    keys_rng = np.random.default_rng(HOT_KEYS_SEED)
    ranked = [keys[i] for i in keys_rng.permutation(len(keys))]
    weights = 1.0 / np.arange(1, len(ranked) + 1) ** HOT_ZIPF_S
    weights /= weights.sum()
    count = int(round(HOT_RATE * seconds))
    picks = keys_rng.choice(len(ranked), size=count, p=weights)
    times = poisson_times(rng, count, seconds)
    ops = []
    for index, (at, pick) in enumerate(zip(times, picks)):
        name, focal, tau = ranked[pick]
        ops.append(Op(float(at), index % CONNECTIONS,
                      {"dataset": name, "focal": focal, "tau": tau}, key=ranked[pick]))
    # The most popular keys go last, so they are the most recently used.
    warm = [{"dataset": name, "focal": focal, "tau": tau}
            for name, focal, tau in reversed(ranked[:HOT_WARM_KEYS])]

    d = next(iter(datasets.values())).d
    paths = snapshot_shards(datasets, work)
    options = ["--cache-size", str(HOT_CACHE)]
    server, setup = start_server(paths, d, work, options)
    try:
        with Connection(server.port) as conn:
            slots = conn.ask({"cmd": "stats"})["datasets"]
            conn.ask_many(warm)
            before = conn.serving()
        cpu_start = process_cpu_s(server.proc.pid)
        window = open_loop(server.port, ops)
        cpu_s = process_cpu_s(server.proc.pid) - cpu_start
        with Connection(server.port) as conn:
            after = conn.serving()
        record = generator_record(server, window)
    finally:
        server.stop()
    peak_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    traced = traced_replay(paths, d, work, options, warm, ops) if trace else None

    # Correctness: every answer's rank, then a sample bit for bit.
    windows = [window] + ([traced] if traced else [])
    bad = set()
    for w_index, w in enumerate(windows):
        for index, (op, answer) in enumerate(zip(w.ops, w.answers)):
            name, focal, tau = op.key
            if not rank_ok(answer, datasets[name], focal, tau):
                bad.add((w_index, index))
    answered_keys = sorted({op.key for op, a in zip(window.ops, window.answers) if a})
    sampler = np.random.default_rng([seed, 2])
    sample = [answered_keys[i] for i in sampler.choice(
        len(answered_keys), size=min(HOT_SAMPLE, len(answered_keys)), replace=False)]
    # The engine counters are those of the reads the server computed: a
    # sample of its cache misses, so a key weighs as often as it missed.
    missed = [op.key for op, a in zip(window.ops, window.answers)
              if a and not a.get("cache_hit", True)]
    counter_sample = [missed[i] for i in sampler.choice(
        len(missed), size=min(HOT_SAMPLE, len(missed)), replace=False)]
    references = {}
    for key in sorted(set(sample) | set(counter_sample)):
        name, focal, tau = key
        counters = CostCounters()
        references[key] = (wire_payload(maxrank(datasets[name], focal, tau=tau,
                                                counters=counters)), counters)
    sample_counters = [references[key][1] for key in counter_sample]
    for key in sample:
        expected = references[key][0]
        for w_index, w in enumerate(windows):
            for index, (op, answer) in enumerate(zip(w.ops, w.answers)):
                if op.key == key and answer and not same_payload(answer, expected):
                    bad.add((w_index, index))

    latencies = [window.latency_ms(i) for i, a in enumerate(window.answered)
                 if a is not None]
    good = sum(1 for i, a in enumerate(window.answered)
               if a is not None and (0, i) not in bad
               and window.latency_ms(i) <= HOT_LIMIT_MS)
    attempted = sum(len(w.ops) for w in windows)
    failed = len(bad)
    end_to_end = {
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "cpu_ms_per_op": (ratio(cpu_s * 1e3, len(latencies)), "ms"),
    }
    named = {
        "p50_ms": (percentile(latencies, 50), "ms"),
        "p95_ms": (percentile(latencies, 95), "ms"),
        "p99_ms": (percentile(latencies, 99), "ms"),
        "goodput_qps": (good / window.wall_s(), "1/s"),
        "failed_frac": (ratio(failed, attempted), "ratio"),
    }
    record.update({
        "rate_per_s": HOT_RATE,
        "latency_limit_ms": HOT_LIMIT_MS,
        "tail_percentile": 99,
        "shards": {name: list(spec) for name, spec in HOT_SHARDS.items()},
        "admission_slots": slots,
        "cache_entries_per_shard": HOT_CACHE,
        "zipf_s": HOT_ZIPF_S,
        "key_space": len(keys),
        "warm_keys": HOT_WARM_KEYS,
        "samples": len(latencies),
        "samples_beyond_tail": beyond(len(latencies), 99),
        "bit_for_bit_keys": len(sample),
        "missed_reads": len(missed),
        "engine_counters": f"standalone maxrank() of {len(counter_sample)} of the "
                           f"{len(missed)} reads the server computed; "
                           + SERVER_COUNTERS,
    })
    outcome = Outcome(
        record, end_to_end, named, attempted, failed,
        per_layer=served_layers(serving_delta(before, after), setup, window,
                                sample_counters),
        absent=dict(SERVED_ABSENT, **{
            "write.insert_ms.p50": "served-hot sends no writes",
            "write.delete_ms.p50": "served-hot sends no writes",
        }),
        invalid=validity(window, {"read latency": (len(latencies), 99)}),
    )
    if traced is not None:
        traced_layers(traced, latencies, outcome,
                      f"p50 {median(latencies):.3f} ms per request, "
                      f"{len(latencies)} requests")
    return outcome


class Mirror:
    """The benchmark's copy of the shard's records, one state per write.

    Every write goes out on connection 0, in schedule order, and nothing
    else writes, so the server applies them in the same order: state ``w``
    is the record set after the first ``w`` writes.
    """

    def __init__(self, records: np.ndarray) -> None:
        self.base_n = len(records)
        self.states = [np.array(records)]
        self._datasets: dict = {}

    @property
    def writes(self) -> int:
        return len(self.states) - 1

    @property
    def inserted(self) -> int:
        """Inserted records still present; they hold ids ``base_n`` and up."""
        return len(self.states[-1]) - self.base_n

    def insert(self, point: List[float]) -> dict:
        records = self.states[-1]
        self.states.append(np.vstack([records, point]))
        return {"inserted": True, "record_id": len(records), "n": len(records) + 1}

    def delete(self, record_id: int) -> dict:
        records = self.states[-1]
        self.states.append(np.delete(records, record_id, axis=0))
        return {"deleted": True, "record_id": record_id, "n": len(records) - 1}

    def dataset(self, state: int):
        from repro import Dataset

        if state not in self._datasets:
            self._datasets[state] = Dataset(self.states[state])
        return self._datasets[state]


def mix_states(window: Window) -> List[tuple]:
    """For each op, the range of mirror states its answer may reflect.

    A read on connection 0 sits in the writes' FIFO, so its state is exact.
    A read on another connection saw every write acknowledged before it was
    sent and none sent after its answer arrived.
    """
    writes = [i for i, op in enumerate(window.ops) if op.kind != "read"]
    ranges = []
    for index, op in enumerate(window.ops):
        if op.kind != "read":
            state = writes.index(index) + 1
            ranges.append((state, state))
        elif op.conn == 0:
            state = sum(1 for w in writes if w < index)
            ranges.append((state, state))
        else:
            arrived = window.answered[index]
            low = sum(1 for w in writes if window.answered[w] is not None
                      and window.answered[w] < window.sent[index])
            high = sum(1 for w in writes if window.sent[w]
                       and (arrived is None or window.sent[w] < arrived))
            ranges.append((low, high))
    return ranges


def write_mix(seed: int, seconds: int, trace: bool, work: Path) -> Outcome:
    from repro import CostCounters, generate, maxrank
    from repro.experiments.harness import select_focal_records

    rng = np.random.default_rng(seed)
    # As in served-hot, the operation sequence is part of the workload and
    # the seed draws the arrival times: which inserts outrank a hot focal,
    # and whom they displace, would otherwise set every figure.
    ops_rng = np.random.default_rng(MIX_OPS_SEED)
    (name, (dist, n, d, data_seed)), = MIX_SHARDS.items()
    base = generate(dist, n, d, seed=data_seed)
    hot = [base.records[i].tolist() for i in
           select_focal_records(base, MIX_HOT, seed=MIX_OPS_SEED, strategy="strong")]
    read_keys = [(j, tau) for j in range(MIX_HOT) for tau in MIX_TAUS]
    read_keys = [read_keys[i] for i in ops_rng.permutation(len(read_keys))]
    mirror = Mirror(base.records)
    expected_writes: Dict[int, dict] = {}
    count = int(round(MIX_RATE * seconds))
    writes = set(ops_rng.choice(count, size=int(round(count * MIX_WRITE_SHARE)),
                                replace=False).tolist())
    new_records = iter(generate(dist, len(writes), d, seed=MIX_OPS_SEED).records)
    times = poisson_times(rng, count, seconds)
    ops, reads = [], 0
    for index, at in enumerate(times):
        if index in writes:
            if mirror.inserted and mirror.writes % 2:
                record_id = mirror.base_n + int(ops_rng.integers(mirror.inserted))
                expected = mirror.delete(record_id)
                request = {"cmd": "delete", "dataset": name, "record_id": record_id}
                kind = "delete"
            else:
                point = next(new_records).tolist()
                expected = mirror.insert(point)
                request = {"cmd": "insert", "dataset": name, "record": point}
                kind = "insert"
            expected_writes[index] = expected
            ops.append(Op(float(at), 0, request, kind))
            continue
        j, tau = read_keys[reads % len(read_keys)]
        ops.append(Op(float(at), reads % CONNECTIONS,
                      {"dataset": name, "focal": hot[j], "tau": tau}, key=(j, tau)))
        reads += 1
    warm = [{"dataset": name, "focal": hot[j], "tau": tau} for j, tau in read_keys]

    paths = snapshot_shards({name: base}, work)
    server, setup = start_server(paths, d, work, ())
    try:
        with Connection(server.port) as conn:
            conn.ask_many(warm)
            before = conn.serving()
        cpu_start = process_cpu_s(server.proc.pid)
        window = open_loop(server.port, ops)
        cpu_s = process_cpu_s(server.proc.pid) - cpu_start
        with Connection(server.port) as conn:
            after = conn.serving()
        record = generator_record(server, window)
    finally:
        server.stop()
    peak_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    # The replay starts from the same records, so it walks the same states.
    traced = traced_replay(paths, d, work, (), warm, ops) if trace else None

    # Correctness: every write's acknowledgement and every read's rank
    # against the states it may have seen, then a sample bit for bit.
    windows = [window] + ([traced] if traced else [])
    bad = set()
    exact: Dict[tuple, List[tuple]] = {}
    missed = []  # (j, tau, state) of untraced reads the server computed
    for tag, w in enumerate(windows):
        ranges = mix_states(w)
        for index, (op, answer) in enumerate(zip(w.ops, w.answers)):
            low, high = ranges[index]
            if op.kind != "read":
                if not same_payload(answer, expected_writes[index]):
                    bad.add((tag, index))
                continue
            j, tau = op.key
            if not any(rank_ok(answer, mirror.dataset(s), hot[j], tau)
                       for s in range(low, high + 1)):
                bad.add((tag, index))
            elif low == high:
                exact.setdefault((j, tau, low), []).append((tag, index))
                if tag == 0 and not answer.get("cache_hit", True):
                    missed.append((j, tau, low))
    sampler = np.random.default_rng([seed, 2])
    candidates = sorted(exact)
    sample = [candidates[i] for i in sampler.choice(
        len(candidates), size=min(MIX_SAMPLE, len(candidates)), replace=False)]
    # As in served-hot, the engine counters come from a sample of the reads
    # the server computed; only reads of a known state can be recomputed.
    counter_sample = [missed[i] for i in sampler.choice(
        len(missed), size=min(MIX_SAMPLE, len(missed)), replace=False)]
    references = {}
    for j, tau, state in sorted(set(sample) | set(counter_sample)):
        counters = CostCounters()
        references[(j, tau, state)] = (wire_payload(maxrank(
            mirror.dataset(state), np.asarray(hot[j]), tau=tau, counters=counters)),
            counters)
    sample_counters = [references[key][1] for key in counter_sample]
    for key in sample:
        for tag, index in exact[key]:
            if not same_payload(windows[tag].answers[index], references[key][0]):
                bad.add((tag, index))

    reads = [i for i, op in enumerate(window.ops)
             if op.kind == "read" and window.answered[i] is not None]
    writes = [i for i, op in enumerate(window.ops)
              if op.kind != "read" and window.answered[i] is not None]
    read_ms = [window.latency_ms(i) for i in reads]
    write_ms = [window.latency_ms(i) for i in writes]
    good = sum(1 for i in reads + writes
               if (0, i) not in bad and window.latency_ms(i) <= MIX_LIMIT_MS)
    attempted = sum(len(w.ops) for w in windows)
    failed = len(bad)
    end_to_end = {
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "cpu_ms_per_op": (ratio(cpu_s * 1e3, len(reads) + len(writes)), "ms"),
    }
    named = {
        "p50_ms": (percentile(read_ms, 50), "ms"),
        "p95_ms": (percentile(read_ms, 95), "ms"),
        "write_p50_ms": (percentile(write_ms, 50), "ms"),
        "write_p90_ms": (percentile(write_ms, 90), "ms"),
        "goodput_qps": (good / window.wall_s(), "1/s"),
        "failed_frac": (ratio(failed, attempted), "ratio"),
    }
    record.update({
        "rate_per_s": MIX_RATE,
        "latency_limit_ms": MIX_LIMIT_MS,
        "tail_percentile": 95,
        "shards": {k: list(v) for k, v in MIX_SHARDS.items()},
        "hot_keys": len(read_keys),
        "write_share": MIX_WRITE_SHARE,
        "read_samples": len(read_ms),
        "write_samples": len(write_ms),
        "read_samples_beyond_tail": beyond(len(read_ms), 95),
        "write_samples_beyond_p90": beyond(len(write_ms), 90),
        "bit_for_bit_reads": len(sample),
        "engine_counters": f"standalone maxrank() of {len(counter_sample)} of the "
                           f"{len(missed)} reads of a known state the server "
                           "computed; " + SERVER_COUNTERS,
    })
    per_layer = served_layers(serving_delta(before, after), setup, window,
                              sample_counters)
    for kind in ("insert", "delete"):
        per_layer[f"write.{kind}_ms.p50"] = percentile(
            [window.latency_ms(i) for i in writes if window.ops[i].kind == kind], 50)
    outcome = Outcome(
        record, end_to_end, named, attempted, failed,
        per_layer=per_layer, absent=dict(SERVED_ABSENT),
        invalid=validity(window, {"read latency": (len(read_ms), 95),
                                  "write latency": (len(write_ms), 90)}),
    )
    if traced is not None:
        traced_layers(traced, read_ms, outcome,
                      f"read p50 {median(read_ms):.3f} ms, {len(read_ms)} reads")
    return outcome


# ========================================================== the catalogue
#
# ``catalog-d4``: this process owns two ``MaxRankService`` instances, over
# a d=4 IND and a d=4 ANTI dataset, and ranks every record of both through
# ``query_batch(..., jobs=2)`` calls of two focal records, in an order the
# seed draws.  No key repeats, so the result cache only misses, and no
# network is involved.  Every seed makes the same calls and only their
# order changes: the cost of one d=4 IND query ranges over 30x, so a
# catalogue sampled per seed would add that spread to every figure.  One
# pass over the catalogue takes about 25 s on a 2-core machine; a run makes
# one pass per 25 s of ``--seconds`` (at least one), each on fresh services
# so the cache stays cold.

CATALOG = {"cat-ind": ("IND", 100, 4, 301), "cat-anti": ("ANTI", 100, 4, 302)}
BATCH = 2                   # focal records per query_batch call
JOBS = 2                    # pool workers per service
CATALOG_PAIRS_SEED = 303
CATALOG_PASS_S = 25         # nominal length of one pass
CATALOG_TAIL_P = 90         # a pass makes 100 calls: ten lie beyond p90
CATALOG_LIMIT_MS = 5000.0   # goodput latency limit per call
CATALOG_SAMPLE = 6          # answers compared bit for bit with maxrank()
TRACED_CALLS = 16
#: ``MaxRankService.stats()`` keys read as deltas around each pass.
CATALOG_STATS = ("queries_computed", "cache_hits", "cache_misses", "cache_evictions",
                 "invalidated", "retained", "inserts", "deletes",
                 "worker_retries", "degraded_batches")

CATALOG_ABSENT = {
    "transport.requests": "no network front: the caller uses the service in-process",
    "transport.queue_ms.p50": "no network front",
    "transport.queue_ms.p99": "no network front",
    "setup.process_s": "no server process; setup_s is a cold start of the "
                       "analyst's process: import, service build, pool start",
    "setup.shard_load_s": "no snapshot load: the services are built from the records",
    "admission.admitted": "the caller calls query_batch directly: no admission layer",
    "admission.coalesced": "no admission layer",
    "admission.coalesce_ratio": "no admission layer",
    "admission.waves": "no admission layer",
    "admission.wave_jobs": "no admission layer",
    "admission.flights_per_wave": "no admission layer",
    "admission.wait_ms.p50": "no admission layer",
    "admission.wait_ms.p99": "no admission layer",
    "write.insert_ms.p50": "catalog-d4 sends no writes",
    "write.delete_ms.p50": "catalog-d4 sends no writes",
    "loadgen.sent": "closed loop: one caller waits for each batch",
    "loadgen.late_ms.p99": "closed loop: there is no send schedule to fall behind",
}


def open_services(datasets) -> dict:
    """Build every service and start its pool: the catalogue's set-up."""
    from repro.service import MaxRankService

    services = {}
    for name, dataset in datasets.items():
        service = MaxRankService(dataset)
        services[name] = service
        # Two distinct focals that dominate every record start the pool
        # without MaxRank work (a one-task batch would run in-process).
        d = dataset.d
        service.query_batch([[2.0] * d, [2.0] * (d - 1) + [3.0]], jobs=JOBS)
    return services


def close_all(services: dict) -> None:
    for service in services.values():
        service.close()


def catalog_cold_start() -> None:
    """The analyst's set-up in a fresh interpreter: build every catalogue
    service and start its pool, print ``ready``, then close them.  Run by
    ``catalog_setup`` in a child process."""
    from repro import generate

    services = open_services({name: generate(dist, n, d, seed=data_seed)
                              for name, (dist, n, d, data_seed) in CATALOG.items()})
    try:
        print("ready", flush=True)
    finally:
        close_all(services)


def catalog_setup(repeats: int = SETUP_REPEATS) -> List[float]:
    """Time ``repeats`` cold starts, each from spawn to every pool started.

    A start in a fresh process (interpreter, library import, service
    build, pool start) is what an analyst waits for, and it is long enough
    that fork jitter does not set the figure: in-process, build plus pool
    start is ~35 ms, mostly two forks, and its median moved by 45% between
    sets of runs.
    """
    cmd = [sys.executable, "-c", "import run; run.catalog_cold_start()"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)]))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.communicate(timeout=GRACE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("a catalogue cold start failed")
    return times


def catalog_d4(seed: int, seconds: int, trace: bool, work: Path) -> Outcome:
    from repro import CostCounters, generate, maxrank
    from repro.service import result_fingerprint
    from repro.topk.scoring import order_of

    del work  # in-process: nothing goes to disk
    rng = np.random.default_rng(seed)
    datasets = {name: generate(dist, n, d, seed=data_seed)
                for name, (dist, n, d, data_seed) in CATALOG.items()}
    # The calls are part of the workload and the seed draws their order:
    # a call waits for the slower of its two queries, so every run makes
    # the same pairs.
    pairs_rng = np.random.default_rng(CATALOG_PAIRS_SEED)
    calls = []
    for name, dataset in datasets.items():
        order = pairs_rng.permutation(dataset.n)
        calls += [(name, [int(f) for f in order[lo:lo + BATCH]])
                  for lo in range(0, dataset.n, BATCH)]
    calls = [calls[i] for i in rng.permutation(len(calls))]

    walls: List[float] = []
    cpu_s = 0.0
    done = []  # (name, focals, results, call_s), every pass
    delta = dict.fromkeys(CATALOG_STATS, 0)
    # The pass count follows --seconds, never the machine's speed: a second
    # pass on a fast run moved peak RSS by 13%.
    for _ in range(max(1, round(seconds / CATALOG_PASS_S))):
        services = open_services(datasets)
        cpu_start = own_cpu_s()
        try:
            before = [service.stats() for service in services.values()]
            start = time.perf_counter()
            for name, focals in calls:
                call_start = time.perf_counter()
                results = services[name].query_batch(focals, jobs=JOBS)
                done.append((name, focals, results, time.perf_counter() - call_start))
            walls.append(time.perf_counter() - start)
            after = [service.stats() for service in services.values()]
        finally:
            close_all(services)
        # Closing reaps the pool workers, so their CPU time is counted.
        cpu_s += own_cpu_s() - cpu_start
        for key in CATALOG_STATS:
            delta[key] += sum(a[key] for a in after) - sum(b[key] for b in before)
    # Taken before the cold starts, whose processes are children too.
    peak_rss = peak_rss_mb(resource.RUSAGE_SELF) + peak_rss_mb(resource.RUSAGE_CHILDREN)
    setups = catalog_setup()
    wall = sum(walls)

    # Correctness: every representative's rank, then a sample bit for bit.
    answers = [(call, name, focal, result)
               for call, (name, focals, results, _) in enumerate(done)
               for focal, result in zip(focals, results)]
    bad = set()
    for call, name, focal, result in answers:
        order = (order_of(datasets[name], focal, result.regions[0].representative_query())
                 if result.regions else None)
        if order is None or not result.k_star <= order <= result.k_star + result.tau:
            bad.add((call, focal))
    sampler = np.random.default_rng([seed, 2])
    sample = sampler.choice(len(answers), size=min(CATALOG_SAMPLE, len(answers)),
                            replace=False)
    for i in sample:
        call, name, focal, result = answers[i]
        reference = maxrank(datasets[name], focal, counters=CostCounters())
        if result_fingerprint(reference) != result_fingerprint(result):
            bad.add((call, focal))

    call_ms = [call_s * 1e3 for _, _, _, call_s in done]
    good = sum(1 for call, _, focal, _ in answers
               if call_ms[call] <= CATALOG_LIMIT_MS and (call, focal) not in bad)
    attempted = len(answers)
    failed = len(bad)
    end_to_end = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "cpu_ms_per_op": (ratio(cpu_s * 1e3, attempted), "ms"),
    }
    named = {
        "qps": (attempted / wall, "1/s"),
        "goodput_qps": (good / wall, "1/s"),
        "call_p50_ms": (percentile(call_ms, 50), "ms"),
        f"call_p{CATALOG_TAIL_P}_ms": (percentile(call_ms, CATALOG_TAIL_P), "ms"),
        "failed_frac": (ratio(failed, attempted), "ratio"),
    }
    record = {
        "datasets": {name: list(spec) for name, spec in CATALOG.items()},
        "batch": BATCH,
        "jobs": JOBS,
        "latency_limit_ms": CATALOG_LIMIT_MS,
        "latency_unit": "one query_batch call",
        "tail_percentile": CATALOG_TAIL_P,
        "passes": len(walls),
        "calls": len(done),
        "queries": attempted,
        "setup_samples": len(setups),
        "samples_beyond_tail": beyond(len(done), CATALOG_TAIL_P),
        "bit_for_bit_answers": len(sample),
        "engine_counters": f"the own counters of all {attempted} answers",
    }
    invalid = []
    if beyond(len(done), CATALOG_TAIL_P) < MIN_BEYOND:
        invalid.append(f"only {len(done)} calls: fewer than {MIN_BEYOND} "
                       f"beyond p{CATALOG_TAIL_P}")
    per_layer = service_counts(delta)
    per_layer["engine.jobs"] = JOBS
    per_layer.update(counter_means([result.counters for _, _, _, result in answers]))
    outcome = Outcome(record, end_to_end, named, attempted, failed,
                      per_layer=per_layer, absent=dict(CATALOG_ABSENT), invalid=invalid)
    if trace:
        catalog_traced(datasets, done[:TRACED_CALLS], outcome)
    return outcome


def catalog_traced(datasets, calls, outcome: Outcome) -> None:
    """Replay the first calls traced, on fresh services, and fill in the
    per-layer times."""
    from repro.obs import Tracer

    services = open_services(datasets)
    summary = SpanSummary()
    traced_ms, untraced_ms = [], []
    try:
        for name, focals, _, call_s in calls:
            tracer = Tracer()
            with tracer.span("bench.batch", dataset=name, focals=len(focals)):
                services[name].query_batch(focals, jobs=JOBS, tracer=tracer)
            exported = tracer.export()
            outcome.traces.append(exported)
            summary.add(exported)
            traced_ms.append(sum(s["elapsed_s"] for s in exported["spans"]
                                 if s["parent"] is None) * 1e3)
            untraced_ms.append(call_s * 1e3)
    finally:
        close_all(services)
    tasks = [s["elapsed_s"] for t in outcome.traces for s in t["spans"]
             if s["name"] == "query_task"]
    computed = len(tasks)
    batch_wall = summary.elapsed_s.get("service.batch", 0.0)
    busy = sum(tasks)
    outcome.per_layer.update({
        # In a pooled batch the computation runs inside ``query_task``.
        "service.compute_ms.p50": percentile([t * 1e3 for t in tasks], 50),
        "service.compute_ms.p99": percentile([t * 1e3 for t in tasks], 99),
        "engine.batch_wall_s": batch_wall,
        "engine.task_busy_s": busy,
        "engine.pool_utilisation": ratio(busy, JOBS * batch_wall),
        "core.scan_ms": ratio(summary.self_s.get("collect_level", 0.0) * 1e3, computed),
        "skyline.ms": summary.per_query_ms("skyline", computed),
        "quadtree.build_ms": summary.per_query_ms("quadtree_build", computed),
        "withinleaf.ms": summary.per_query_ms("within_leaf", computed),
    })
    outcome.per_layer.update(summary.obs_metrics(traced_ms, untraced_ms))
    outcome.record["traced"] = {
        "calls": len(traced_ms),
        "query_tasks": computed,
        "compute samples beyond p99": beyond(computed, 99),
    }
    summary.print_split(f"p50 {median(untraced_ms):.3f} ms per call over the "
                        f"same {len(untraced_ms)} calls")


# ================================================================= reporting
def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (no git checkout)"


def source_digest() -> str:
    """SHA-256 over the library's Python sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def print_metrics(title: str, metrics: Dict[str, tuple]) -> None:
    print(f"--- {title}")
    width = max((len(name) for name in metrics), default=0)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")


def write_traces(path: Path, record: dict, traces: List[dict]) -> None:
    """The run record, then one ``Tracer.export()`` tree per line; any line
    after the first renders unchanged with ``tools/trace_view.py``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"run_record": record}) + "\n")
        for trace in traces:
            fh.write(json.dumps(trace) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20,
                        help="length of the timed window (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run a traced pass and report the "
                             "per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The library reads these; unset, every run uses one configuration
    # (no pool inside a query, no injected faults).
    for name in ("REPRO_JOBS", "REPRO_FAULTS"):
        os.environ.pop(name, None)

    workload = {"served-hot": served_hot, "catalog-d4": catalog_d4,
                "write-mix": write_mix}[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        outcome = workload(args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__,
    }
    record.update(outcome.record)
    record["valid"] = not outcome.invalid
    record["invalid_reasons"] = outcome.invalid
    print("run record: " + json.dumps(record, sort_keys=True))
    print_metrics("end-to-end (untraced window; BENCHMARK.json gates these)",
                  outcome.end_to_end)
    print_metrics("this workload's figures by name, tails included (reported)",
                  outcome.named)
    metrics = outcome.end_to_end
    if args.trace:
        metrics = {name: (outcome.per_layer.get(name, 0.0), unit)
                   for name, unit in PER_LAYER.items()}
        print_metrics("per-layer", metrics)
        print(f"--- engine counters per query: {outcome.record['engine_counters']}")
        print("--- per-layer metrics this workload cannot measure (reported as 0)")
        for name, reason in outcome.absent.items():
            print(f"  {name}: {reason}")
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        write_traces(path, record, outcome.traces)
        print(f"--- {len(outcome.traces)} span trees in {path.relative_to(ROOT)}")
    # An invalid run's figures cannot be trusted, so it fails like a wrong
    # answer does.
    for reason in outcome.invalid:
        print(f"--- invalid run: {reason}")
    correct = outcome.failed == 0 and not outcome.invalid
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
