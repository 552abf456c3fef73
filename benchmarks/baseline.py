#!/usr/bin/env python
"""Benchmark regression harness for the MaxRank query stack.

Runs a frozen workload matrix and records, per configuration, the exact
result fingerprint (``k*`` and region count per query), the engine's work
counters and, where the configuration times something, that wall-clock.
The records go to ``BENCH_maxrank.json`` at the repository root, which is
committed so every change carries its trajectory.  Served latency and
tracing overhead are timed by ``perfbench/run.py``, not here.

Every configuration runs through one path.  Its family's ``measure`` hook
runs the workload and the family's oracle assertions; :func:`record` turns
the results and the summed counters into a record; :func:`compare` applies
one set of gates to every record.  What differs per family is data:

============  ========================================  ==================================
family        workload (asserted before recording)      gated beyond the shared gates
============  ========================================  ==================================
``fig*``      AA query batches from the paper's         calibrated ``wall_s``
              Figure 8, 9 and 10 sweeps
``build/``    one cost-policy query batch and two       ``halfspaces_inserted``,
              cold single queries at large ``n``        ``nodes_created``,
              (4k, 25k) with the depth capped at 5      ``splits_performed`` exactly;
                                                        calibrated ``wall_s``
``service/``  16 queries (8 focals twice), cold         ``cache_hits``, ``skyline_reused``
              through ``maxrank()`` and warm through    (serial runs) at least as
              one ``MaxRankService``; bit-identical     committed; calibrated warm
                                                        ``wall_s``
``update/``   an 80/20 query/mutate sequence on one     ``inserts``, ``deletes``,
              service; final answers equal a cold       ``invalidated``, ``retained``
              rebuild                                   exactly; calibrated ``wall_s``
``serve/``    closed-loop socket clients on a           ``admitted``, ``queries_computed``,
              two-shard server; payloads equal          ``requests`` exactly
              standalone ``maxrank()``, each key
              computed once, ``coalesced >= 1``
              (not recorded: the split of cache hits
              and coalesced waits follows thread
              timing)
``obs/``      the same queries untraced and traced;     —
              fingerprints and non-time counters
              equal, ``spans > 0``
============  ========================================  ==================================

The shared gates of ``--compare``: every fingerprint is bit-identical, the
work counters (:data:`WORK_COUNTERS`) regress by at most 15 %, the
robustness counters (:data:`ROBUSTNESS_ZERO_COUNTERS`) stay at their
committed value, and a record with a committed ``wall_s`` of at least
half a second regresses by at most 35 % in calibrated wall-clock.

Modes
-----
``python benchmarks/baseline.py``
    Run the full matrix and print a report (no file written).
``--update``
    Run and rewrite the ``current`` section of ``BENCH_maxrank.json``
    (the ``pre_pr`` section, when present, is preserved).
``--compare``
    Run and fail (exit 1) on any gate above.
``--quick``
    Restrict the run to the quick subset (used by CI).
``--jobs N``
    Run the within-leaf execution engine on an ``N``-worker process pool.
    Results and counters stay bit-identical to serial, so ``--compare
    --jobs N`` must pass the fingerprint and counter gates of the serial
    baseline (the wall gate is skipped).  ``serve/`` and ``obs/`` ignore
    it: a served miss is one query on its connection thread, and the
    tracing passes stay serial.
``--family {build,serve,obs}``
    Restrict the run to one family (the CI smokes).

The matrix is frozen: ``--compare`` is only sound when both sides ran the
same configurations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.maxrank import maxrank                  # noqa: E402
from repro.data.generators import generate              # noqa: E402
from repro.experiments.harness import run_batch, select_focal_records  # noqa: E402
from repro.experiments.reporting import format_table, screen_funnel  # noqa: E402
from repro.geometry.seidel import solve_lp              # noqa: E402
from repro.index.rstar import RStarTree                 # noqa: E402
from repro.service.core import MaxRankService, result_fingerprint  # noqa: E402
from repro.stats import CostCounters                    # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_maxrank.json"
SCHEMA = 2
#: Maximum tolerated regression for the deterministic work counters.
REGRESSION_TOLERANCE = 0.15
#: Maximum tolerated regression for calibrated wall-clock.  Wider than the
#: counter tolerance: the calibration loop transfers a host's speed only
#: approximately (the Seidel-LP / numpy speed ratio differs between CPU
#: generations), so the hard regression gate is the deterministic counters
#: and the wall gate only catches gross slowdowns.
WALL_TOLERANCE = 0.35
#: Configurations whose committed wall-clock is below this are exempt from
#: the wall gate — sub-half-second runs are dominated by noise, and their
#: work counters are checked exactly anyway.
WALL_FLOOR_S = 0.5

#: The engine counters every record carries, summed over the
#: configuration's queries.
RECORDED_COUNTERS = (
    "lp_calls",
    "cells_examined",
    "candidates_generated",
    "prefixes_cut",
    "pairwise_pruned",
    "screen_accepts",
    "screen_rejects",
    "core_cuts",
    "cores_learned",
    "lines_inserted",
    "faces_enumerated",
    "worker_retries",
    "degraded_batches",
    "deadline_checks",
    "halfspaces_inserted",
    "nodes_created",
    "splits_performed",
)

#: Work counters whose regression fails a --compare run.  They are
#: deterministic for a fixed workload, so the tolerance only absorbs
#: intentional small algorithm adjustments, not machine noise.
#: ``candidates_generated`` guards the generation volume of the
#: prefix-pruned DFS: a change that re-materialises pruned candidates fails
#: here even when wall-clock happens to absorb it.
WORK_COUNTERS = (
    "lp_calls",
    "cells_examined",
    "candidates_generated",
    "lines_inserted",
    "faces_enumerated",
)

#: Robustness counters that must stay at their committed value (normally 0)
#: on the fault-free benchmark workload: a worker retry, a serial
#: degradation or a deadline check on the happy path means fault-handling
#: machinery leaked into the no-fault code path.
ROBUSTNESS_ZERO_COUNTERS = ("worker_retries", "degraded_batches", "deadline_checks")

#: At-least counters gated on serial runs only: under ``--jobs`` each pool
#: worker forks with a cold skyline cache, so the reuse count depends on
#: worker scheduling.
SERIAL_ONLY_COUNTERS = ("skyline_reused",)


@dataclass(frozen=True)
class Config:
    """One frozen benchmark configuration.

    ``queries`` is the number of seeded focal records asked: per batch for
    ``fig*``/``build/``/``obs/``, distinct focals for
    ``service/``/``update/`` and per shard for ``serve/``.  The remaining
    fields belong to one family each.
    """

    key: str
    distribution: str
    n: int
    d: int
    queries: int = 1
    tau: int = 0
    quick: bool = False
    split_policy: str = "static"            # build/
    max_depth: Optional[int] = None         # build/
    batch: int = 16                         # service/: queries in the batch
    ops: int = 30                           # update/: operations, every fifth a mutation
    clients: int = 8                        # serve/
    requests_per_client: int = 12           # serve/
    hot_share: float = 0.5                  # serve/: share of requests for the hot key


#: What a ``measure`` hook returns: the results (anything with ``k_star``
#: and ``region_count``), the summed counter dump and the family's own
#: fields.
Measurement = Tuple[Sequence[object], Mapping[str, float], Dict[str, object]]


#: Fresh interpreters whose calibration readings :func:`calibrate` takes
#: the median of.
CALIBRATION_PROCESSES = 3


def calibrate(reader: Optional[Callable[[], float]] = None) -> float:
    """Seconds for a fixed CPU workload; normalises wall-clock across hosts.

    The reading of one process moves by up to a factor of two between
    processes on a small VM (two readings inside one process agree), so
    each of :data:`CALIBRATION_PROCESSES` fresh interpreters takes its own
    :func:`process_calibration` and the median is returned.  ``reader``
    replaces the per-process reading (tests stub it).
    """
    reader = reader or _fresh_process_calibration
    return statistics.median(reader() for _ in range(CALIBRATION_PROCESSES))


def _fresh_process_calibration() -> float:
    """:func:`process_calibration` in a new interpreter."""
    code = (
        "import runpy, sys; "
        "print(runpy.run_path(sys.argv[1], run_name='calibration')"
        "['process_calibration']())"
    )
    output = subprocess.run(
        [sys.executable, "-c", code, __file__],
        check=True, capture_output=True, text=True,
    ).stdout
    return float(output.split()[-1])


def process_calibration(rounds: int = 1500, repeats: int = 3) -> float:
    """One process's calibration reading.

    Mixes the two ingredients the benchmark exercises — the pure-Python
    Seidel solver and small-array numpy work — so the ratio between two
    machines transfers reasonably to the measured queries.  The loop is
    repeated and the *minimum* taken: transient load inflates individual
    timings but never deflates them, so the minimum is the stable estimate
    of the process's speed (a calibration measured under load would
    otherwise skew every calibrated comparison against that baseline).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    constraints = [(list(map(float, rng.normal(size=4))), float(rng.normal()))
                   for _ in range(24)]
    box_lower = [0.0] * 4
    box_upper = [1.0] * 4
    objective = [1.0, 0.5, -0.25, 0.125]
    matrix = rng.normal(size=(64, 8))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(rounds):
            solve_lp(constraints, objective, box_lower, box_upper)
            (matrix @ matrix.T).sum()
        best = min(best, time.perf_counter() - start)
    return best


def summed(dumps: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Counter dumps added name by name."""
    total: Dict[str, float] = {}
    for dump in dumps:
        for name, value in dump.items():
            total[name] = total.get(name, 0.0) + value
    return total


def measure_queries(config: Config, jobs: Optional[int]) -> Measurement:
    """``fig*``/``build/``: one AA batch over a prebuilt R*-tree; ``wall_s``
    times it.

    ``max_depth`` must be explicit on the large-``n`` ``build/`` queries:
    the dim-aware default depth is sized for the paper's small-``n``
    panels.
    """
    dataset = generate(config.distribution, config.n, config.d, seed=0)
    tree = RStarTree.build(dataset.records)
    start = time.perf_counter()
    batch = run_batch(
        dataset,
        algorithm="aa",
        queries=config.queries,
        seed=0,
        tau=config.tau,
        tree=tree,
        label=config.key,
        jobs=jobs,
        split_policy=config.split_policy,
        max_depth=config.max_depth,
    )
    wall = time.perf_counter() - start
    counters = summed(m.counters for m in batch.measurements)
    return batch.measurements, counters, {
        "wall_s": round(wall, 4), "io": batch.mean_io,
    }


def measure_service(config: Config, jobs: Optional[int]) -> Measurement:
    """``service/``: the cold per-query path against one warm service batch.

    *Cold* is the standalone shape the service replaces: one fresh
    ``maxrank()`` (R*-tree rebuilt) per distinct focal, timed as
    ``cold_wall_s``.  *Warm* is one :class:`MaxRankService` answering the
    whole batch (shared tree, warm skyline, result cache; ``--jobs`` adds
    whole-query parallelism), timed as ``wall_s``.  Every warm answer is
    asserted bit-identical to its cold one.
    """
    dataset = generate(config.distribution, config.n, config.d, seed=0)
    unique = select_focal_records(dataset, config.queries, seed=0)
    focals = [unique[i % len(unique)] for i in range(config.batch)]

    cold_start = time.perf_counter()
    cold = {focal: maxrank(dataset, int(focal), tau=config.tau) for focal in unique}
    cold_wall = time.perf_counter() - cold_start

    service = MaxRankService(dataset)
    try:
        warm_start = time.perf_counter()
        results = service.query_batch(focals, tau=config.tau, jobs=jobs)
        warm_wall = time.perf_counter() - warm_start
        for focal, result in zip(focals, results):
            if result_fingerprint(result) != result_fingerprint(cold[focal]):
                raise AssertionError(
                    f"{config.key}: service result for focal {focal} differs "
                    f"from standalone maxrank()"
                )
        stats = service.stats()
        counters = service.counters.as_dict()
    finally:
        service.close()
    return results, counters, {
        "wall_s": round(warm_wall, 4),
        "cold_wall_s": round(cold_wall, 4),
        "batch": config.batch,
        "unique": len(unique),
        "cache_hits": int(stats["cache_hits"]),
        "skyline_reused": int(stats["skyline_reused"]),
        "queries_computed": int(stats["queries_computed"]),
    }


def measure_update(config: Config, jobs: Optional[int]) -> Measurement:
    """``update/``: the 80/20 query/mutate sequence on one mutable service.

    The first mutation is an insert strictly dominated by a cached focal
    record — the planted witness that scoped invalidation *must* retain.
    Afterwards every distinct focal is re-asked and asserted bit-identical
    to a cold service built over the mutated records (the mutation
    harness's oracle), so the record never describes stale answers.
    """
    import numpy as np

    from repro.data.dataset import Dataset

    dataset = generate(config.distribution, config.n, config.d, seed=0)
    unique = select_focal_records(dataset, config.queries, seed=0)

    rng = np.random.default_rng(0)
    service = MaxRankService(dataset)
    try:
        start = time.perf_counter()
        mutations = queries = 0
        for op in range(config.ops):
            if op % 5 == 4:
                if mutations == 0:
                    service.insert(dataset.records[unique[0]] * 0.5)
                elif mutations % 2 == 1:
                    service.delete(int(rng.integers(0, service.dataset.n)))
                else:
                    service.insert(rng.uniform(0.05, 0.95, size=config.d))
                mutations += 1
            else:
                focal = unique[queries % len(unique)] % service.dataset.n
                service.query(int(focal), tau=config.tau, jobs=jobs)
                queries += 1
        wall = time.perf_counter() - start

        oracle = MaxRankService(
            Dataset(service.dataset.records.copy(), name="oracle"), cache_size=0
        )
        try:
            results = []
            for focal in (int(f % service.dataset.n) for f in unique):
                served = service.query(focal, tau=config.tau)
                if result_fingerprint(served) != result_fingerprint(
                    oracle.query(focal, tau=config.tau)
                ):
                    raise AssertionError(
                        f"{config.key}: mutated service answer for focal "
                        f"{focal} differs from a cold rebuild"
                    )
                results.append(served)
        finally:
            oracle.close()
        stats = service.stats()
        counters = service.counters.as_dict()
    finally:
        service.close()

    if not stats["retained"]:
        raise AssertionError(
            f"{config.key}: scoped invalidation retained nothing despite the "
            f"planted dominated insert"
        )
    return results, counters, {
        "wall_s": round(wall, 4),
        "ops": config.ops,
        "unique": len(unique),
        **{name: int(stats[name]) for name in (
            "inserts", "deletes", "invalidated", "retained", "cache_hits",
            "queries_computed",
        )},
    }


def measure_obs(config: Config, jobs: Optional[int]) -> Measurement:
    """``obs/``: the same queries answered untraced and fully traced.

    Tracing that changes an answer or a counter is a bug, not a cost, so
    before anything is recorded every result fingerprint and every
    non-time counter must be identical between the passes, and the traced
    pass must have recorded spans.  Both passes run serial: ``--jobs``
    batches trace through a different span shape (``query_task``), which
    the smoke and differential tests cover.
    """
    from repro.obs import Tracer

    del jobs  # see docstring: both passes deliberately serial
    dataset = generate(config.distribution, config.n, config.d, seed=0)
    tree = RStarTree.build(dataset.records)
    focals = [int(f) for f in select_focal_records(dataset, config.queries, seed=0)]

    def one_pass(traced: bool):
        results, dumps, spans = [], [], 0
        for focal in focals:
            counters = CostCounters()
            tracer = handle = None
            if traced:
                tracer = Tracer()
                counters._tracer = tracer
                handle = tracer.begin("request")
            results.append(maxrank(dataset, focal, tau=config.tau, tree=tree,
                                   counters=counters))
            if tracer is not None:
                tracer.finish(handle)
                counters._tracer = None
                tracer.absorb(counters.drain_spans())
                spans += len(tracer.records())
            dumps.append({name: value for name, value in counters.as_dict().items()
                          if not name.startswith("time_")})
        return results, summed(dumps), spans

    results, counters, _ = one_pass(False)
    traced_results, traced_counters, spans = one_pass(True)
    if [result_fingerprint(r) for r in traced_results] != [
        result_fingerprint(r) for r in results
    ]:
        raise AssertionError(f"{config.key}: tracing changed a result fingerprint")
    if traced_counters != counters:
        drifted = sorted(
            name for name in set(traced_counters) | set(counters)
            if traced_counters.get(name) != counters.get(name)
        )
        raise AssertionError(f"{config.key}: tracing changed counters: {drifted}")
    if spans == 0:
        raise AssertionError(f"{config.key}: traced pass recorded no spans")
    return results, counters, {
        "io": float(counters.get("page_reads", 0)), "spans": int(spans),
    }


def measure_serve(config: Config, jobs: Optional[int]) -> Measurement:
    """``serve/``: the network front closed-loop — sockets, router, admission.

    Two shards (IND at ``d`` and at ``d + 1``) are served by one in-process
    :class:`ThreadedLineServer` on a kernel-picked port.  ``clients``
    threads each hold one TCP connection and issue a seeded plan: the first
    request of every client is the same hot key (barrier-synchronised, so
    single-flight provably coalesces), each later one the hot key with
    probability ``hot_share`` or a uniform cold key otherwise.  Three gates
    run before anything is recorded: every payload equals the standalone
    ``maxrank()`` payload of its key, each unique key is computed exactly
    once across both shards, and at least one duplicate coalesced.
    """
    import random
    import socket
    import threading

    from repro.obs.snapshot import serving_snapshot
    from repro.service import DatasetRouter, ThreadedLineServer
    from repro.service.cli import (  # the real CLI backend, not a test double
        _answer_payload, _RouterBackend,
    )

    del jobs  # a served miss is one query on its connection thread
    datasets = {
        "a": generate("IND", config.n, config.d, seed=0),
        "b": generate("IND", max(120, config.n // 2), config.d + 1, seed=1),
    }
    keys = [
        (shard, int(focal), config.tau)
        for shard in sorted(datasets)
        for focal in select_focal_records(datasets[shard], config.queries, seed=0)
    ]
    hot_key, cold_keys = keys[0], keys[1:]

    # Standalone references: the payload each response must equal, bit for
    # bit (k*, region count, dominators, tau and the rounded representative).
    results = [maxrank(datasets[shard], focal, tau=tau) for shard, focal, tau in keys]
    references = {}
    for key, result in zip(keys, results):
        references[key] = _answer_payload(result, False)
        references[key].pop("cache_hit")

    plans = []
    for client in range(config.clients):
        rng = random.Random(1000 + client)
        plan = [hot_key]
        for _ in range(config.requests_per_client - 1):
            if rng.random() < config.hot_share:
                plan.append(hot_key)
            else:
                plan.append(cold_keys[rng.randrange(len(cold_keys))])
        plans.append(plan)

    shards = {name: MaxRankService(dataset) for name, dataset in datasets.items()}
    router = DatasetRouter(shards)
    backend = _RouterBackend(router)
    server = ThreadedLineServer(
        "127.0.0.1", 0, backend.handle_line, on_error=backend.error_line,
    )
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    failures: List[str] = []
    barrier = threading.Barrier(config.clients + 1)

    def client_loop(plan) -> None:
        sock = socket.create_connection(server.address, timeout=60)
        stream = sock.makefile("rwb")
        try:
            barrier.wait()
            for shard, focal, tau in plan:
                request = {"dataset": shard, "focal": focal, "tau": tau}
                stream.write((json.dumps(request) + "\n").encode())
                stream.flush()
                answer = json.loads(stream.readline())
                answer.pop("cache_hit", None)
                if answer != references[(shard, focal, tau)]:
                    failures.append(
                        f"{config.key}: payload for {shard}/{focal} differs "
                        f"from standalone maxrank()"
                    )
                    return
        finally:
            sock.close()

    workers = [threading.Thread(target=client_loop, args=(plan,)) for plan in plans]
    try:
        for worker in workers:
            worker.start()
        barrier.wait()
        for worker in workers:
            worker.join()
        # The serving tallies come from the same consolidated snapshot the
        # ``{"cmd": "metrics"}`` verb and the Prometheus collector read.
        snapshot = serving_snapshot(router)
        counters = summed(service.counters.as_dict() for service in shards.values())
    finally:
        server.shutdown()
        server_thread.join(timeout=30)
        router.close()

    if failures:
        raise AssertionError(failures[0])
    computed = int(snapshot["queries_computed"])
    if computed != len(keys):
        raise AssertionError(
            f"{config.key}: expected exactly-once computation of {len(keys)} "
            f"unique keys, measured {computed}"
        )
    if int(snapshot["coalesced"]) < 1:
        raise AssertionError(
            f"{config.key}: single-flight coalesced nothing despite the "
            f"barrier-synchronised hot key"
        )
    return results, counters, {
        "clients": config.clients,
        "requests": config.clients * config.requests_per_client,
        "unique": len(keys),
        "admitted": int(snapshot["admitted"]),
        "queries_computed": computed,
    }


@dataclass(frozen=True)
class Family:
    """One workload family: its hook, its configurations and its own gates.

    ``exact`` counters must equal their committed value; ``at_least``
    counters may not drop below it; ``report`` names the family's own
    fields printed beside the shared report columns.
    """

    name: str
    measure: Callable[[Config, Optional[int]], Measurement]
    configs: Tuple[Config, ...]
    exact: Tuple[str, ...] = ()
    at_least: Tuple[str, ...] = ()
    report: Tuple[str, ...] = ()


FAMILIES: Tuple[Family, ...] = (
    Family("fig", measure_queries, (
        Config("quick/fig9/d=4", "IND", 150, 4, quick=True),
        Config("fig9/d=3", "IND", 400, 3, queries=2, quick=True),
        Config("fig9/d=4", "IND", 300, 4, queries=2, quick=True),
        Config("fig9/d=5", "IND", 300, 5),
        Config("fig8/IND/n=600", "IND", 600, 4, queries=2),
        Config("fig8/COR/n=600", "COR", 600, 4, queries=2),
        Config("fig8/ANTI/n=600", "ANTI", 600, 4, queries=2),
        # d = 3 on anticorrelated data: the depth-capped fat leaves make the
        # combinatorial within-leaf enumeration infeasible (>500 s per
        # batch); only the planar sweep keeps it sub-second.
        Config("fig8/ANTI/d=3", "ANTI", 600, 3, queries=2),
        # iMaxRank at d = 3: tau widens the explored Hamming weights, the
        # regime where the planar sweep replaces the C(m, w) enumeration.
        Config("fig10/d=3/tau=3", "IND", 400, 3, queries=2, tau=3),
    )),
    # Leaves split on demand, in the query's own process, so the
    # construction volume is deterministic and invariant under --jobs: it is
    # gated exactly.
    Family("build", measure_queries, (
        # The small-n d = 4 shape the cost policy must recover (the static
        # numbers live in quick/fig9/d=4).
        Config("build/quick/fig9/d=4/cost", "IND", 150, 4, quick=True,
               split_policy="cost"),
        # One cold query at scale, depth capped at 5 (a full 8-ary depth-5
        # tree is at most 37k nodes): the exact gates pin how much of the
        # tree the scan splits on demand at large n.  (The seeded focal of
        # n = 30000 to 50000 takes minutes; n = 25000 takes a third of a
        # second.)
        Config("build/cold/d=4/n=4000", "IND", 4000, 4, max_depth=5, quick=True),
        Config("build/cold/d=4/n=25000", "IND", 25000, 4, max_depth=5),
    ), exact=("halfspaces_inserted", "nodes_created", "splits_performed"),
       report=("nodes_created", "splits_performed")),
    # Seeded plans, single-flight and the result cache make computation
    # exactly-once per unique key regardless of thread scheduling.  How the
    # other requests split into cache hits and coalesced waits follows
    # thread timing, so neither is recorded; ``coalesced`` is only required
    # to be positive, inside the run.
    Family("serve", measure_serve, (
        Config("serve/quick/mixed", "IND", 250, 3, queries=6, quick=True),
        Config("serve/load/hot", "IND", 400, 3, queries=8, tau=1,
               requests_per_client=25, hot_share=0.6),
    ), exact=("admitted", "queries_computed", "requests")),
    Family("obs", measure_obs, (
        Config("obs/overhead/d=3", "IND", 400, 3, queries=2, tau=1, quick=True),
    ), report=("spans",)),
    # Deterministic "the service skipped work" tallies: a drop is the
    # regression.
    Family("service", measure_service, (
        Config("service/fig9/d=3", "IND", 400, 3, queries=8, quick=True),
        Config("service/fig9/d=4", "IND", 300, 4, queries=8, quick=True),
        Config("service/fig9/d=5", "IND", 300, 5, queries=8),
        Config("service/fig8/ANTI", "ANTI", 600, 4, queries=8),
    ), at_least=("cache_hits", "skyline_reused"),
       report=("cold_wall_s", "cache_hits")),
    # The mutation sequence is frozen and scoped invalidation deterministic:
    # retaining less (lost scoping) or evicting less (an unsound predicate)
    # is a behavioural change.
    Family("update", measure_update, (
        Config("update/fig9/d=3", "IND", 400, 3, queries=8, tau=1, quick=True),
        Config("update/fig8/ANTI", "ANTI", 300, 4, queries=8, tau=1),
    ), exact=("inserts", "deletes", "invalidated", "retained"),
       report=("cache_hits", "invalidated", "retained")),
)

_FAMILY_BY_PREFIX = {family.name: family for family in FAMILIES}


def family_of(key: str) -> Family:
    """The family a configuration key belongs to (``fig*`` keys carry no
    family prefix)."""
    return _FAMILY_BY_PREFIX.get(key.split("/", 1)[0], FAMILIES[0])


def record(
    results: Sequence[object], counters: Mapping[str, float], fields: Mapping[str, object]
) -> Dict[str, object]:
    """One configuration's record: fingerprint, recorded counters and the
    family's own fields."""
    entry: Dict[str, object] = {
        "k_stars": [result.k_star for result in results],
        "region_counts": [result.region_count for result in results],
    }
    entry.update((name, int(counters.get(name, 0))) for name in RECORDED_COUNTERS)
    entry.update(fields)
    return entry


def run_matrix(
    quick: bool,
    jobs: Optional[int] = None,
    family: str = "all",
) -> Dict[str, Dict[str, object]]:
    """Run the workload matrix, or one family of it (``family`` is a
    ``--family`` value)."""
    results: Dict[str, Dict[str, object]] = {}
    for fam in FAMILIES:
        if family not in ("all", fam.name):
            continue
        for config in fam.configs:
            if quick and not config.quick:
                continue
            print(f"running {config.key} ...", flush=True)
            results[config.key] = record(*fam.measure(config, jobs))
    return results


def load_baseline() -> Optional[Dict[str, object]]:
    if not BASELINE_PATH.exists():
        return None
    with BASELINE_PATH.open() as handle:
        return json.load(handle)


def compare(
    current: Dict[str, Dict[str, object]],
    current_calibration: float,
    baseline: Dict[str, object],
    *,
    wall_gate: bool = True,
    serial_run: bool = True,
) -> List[str]:
    """Return a list of failure messages (empty when the run is clean).

    ``wall_gate=False`` skips the calibrated wall-clock check — used for
    ``--jobs`` runs, where the committed baseline is serial and the
    wall-clock depends on the host's core count; the fingerprint and
    counter gates (which a correct parallel run must pass unchanged) stay.
    ``serial_run=False`` additionally skips :data:`SERIAL_ONLY_COUNTERS`.
    """
    failures: List[str] = []
    base_entries = baseline.get("current", {}).get("configs", {})
    base_calibration = float(baseline.get("current", {}).get("calibration_s", 0.0))
    for key, entry in current.items():
        base = base_entries.get(key)
        if base is None:
            failures.append(f"{key}: missing from committed baseline")
            continue
        family = family_of(key)
        for field in ("k_stars", "region_counts"):
            if entry[field] != base[field]:
                failures.append(
                    f"{key}: result fingerprint changed — {field} "
                    f"{base[field]} -> {entry[field]}"
                )
        for counter in WORK_COUNTERS:
            base_value = float(base.get(counter, 0))
            value = float(entry.get(counter, 0))
            if base_value > 0 and value > base_value * (1 + REGRESSION_TOLERANCE):
                failures.append(
                    f"{key}: {counter} regressed {base_value:.0f} -> {value:.0f}"
                )
        for counter in family.exact:
            base_value = int(base.get(counter, -1))
            value = int(entry.get(counter, -1))
            if value != base_value:
                failures.append(
                    f"{key}: {counter} changed {base_value} -> {value} "
                    f"({family.name}/ gates it exactly)"
                )
        for counter in family.at_least:
            if counter in SERIAL_ONLY_COUNTERS and not serial_run:
                continue
            base_value = float(base.get(counter, 0))
            value = float(entry.get(counter, 0))
            if value < base_value:
                failures.append(
                    f"{key}: {counter} dropped {base_value:.0f} -> {value:.0f} "
                    f"(lost {family.name}/ amortisation)"
                )
        for counter in ROBUSTNESS_ZERO_COUNTERS:
            base_value = float(base.get(counter, 0))
            value = float(entry.get(counter, 0))
            if value > base_value:
                failures.append(
                    f"{key}: {counter} is {value:.0f} on the fault-free "
                    f"workload (committed {base_value:.0f}) — fault-handling "
                    f"work leaked into the happy path"
                )
        if (
            wall_gate
            and base_calibration > 0
            and current_calibration > 0
            and "wall_s" in entry
            and float(base.get("wall_s", 0.0)) >= WALL_FLOOR_S
        ):
            base_scaled = float(base["wall_s"]) / base_calibration
            scaled = float(entry["wall_s"]) / current_calibration
            if scaled > base_scaled * (1 + WALL_TOLERANCE):
                failures.append(
                    f"{key}: calibrated wall-clock regressed "
                    f"{base_scaled:.2f} -> {scaled:.2f} "
                    f"(raw {base['wall_s']}s -> {entry['wall_s']}s)"
                )
    return failures


def print_report(results: Dict[str, Dict[str, object]]) -> None:
    """Shared columns for every record, then each family's own fields."""
    rows = []
    columns = ["config", "wall_s", "k*", "|T|", "lp", "generated", "cut", "screened%"]
    for key, entry in results.items():
        row = {
            "config": key,
            "wall_s": entry.get("wall_s", "-"),
            "k*": "/".join(str(v) for v in entry["k_stars"]),
            "|T|": "/".join(str(v) for v in entry["region_counts"]),
            "lp": entry["lp_calls"],
            "generated": entry["candidates_generated"],
            "cut": entry["prefixes_cut"],
            "screened%": round(100 * screen_funnel(entry)["screen_resolved_ratio"], 1),
        }
        for name in family_of(key).report:
            row[name] = entry[name]
            if name not in columns:
                columns.append(name)
        rows.append(row)
    print()
    print(format_table(rows, columns, title="MaxRank benchmark matrix"))


def print_funnel_comparison(
    results: Dict[str, Dict[str, object]], baseline: Optional[Dict[str, object]]
) -> None:
    """Per-workload generation→screen→LP funnel, against the committed baseline.

    Makes generation-volume regressions visible at a glance: the committed
    candidate count sits next to the measured one, so a change that quietly
    re-materialises pruned candidates shows up even when wall-clock absorbs
    it.
    """
    def funnel_candidates(entry: Optional[Dict[str, object]]) -> object:
        if not entry:
            return "-"
        return int(entry.get("candidates_generated", 0)) + int(entry.get("pairwise_pruned", 0))

    base_entries = (baseline or {}).get("current", {}).get("configs", {})
    rows = []
    for key, entry in results.items():
        rows.append({
            "config": key,
            "candidates": funnel_candidates(entry),
            "baseline": funnel_candidates(base_entries.get(key)),
            "cut": entry["prefixes_cut"],
            "accepts": entry["screen_accepts"],
            "rejects": entry["screen_rejects"],
            "lp": entry["lp_calls"],
        })
    print()
    print(format_table(rows, title="Screen funnel per workload (candidates vs committed baseline)"))


def updated_baseline(
    baseline: Mapping[str, object],
    results: Mapping[str, Dict[str, object]],
    calibration: float,
) -> Dict[str, object]:
    """``baseline`` with ``results`` recorded as its ``current`` section.

    A partial run (``--quick``, ``--family``) keeps the committed records of
    the configs it did not run.  A record whose key is no longer a config
    of :data:`FAMILIES` is dropped, and records of an older schema (they
    carry other fields) are never merged.
    """
    configured = {config.key for family in FAMILIES for config in family.configs}
    previous = (
        baseline.get("current", {}).get("configs", {})
        if baseline.get("schema") == SCHEMA else {}
    )
    merged = {key: entry for key, entry in previous.items() if key in configured}
    merged.update(results)
    return {
        **baseline,
        "schema": SCHEMA,
        "current": {"calibration_s": round(calibration, 4), "configs": merged},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true",
                        help="run only the quick subset (CI smoke)")
    parser.add_argument("--compare", action="store_true",
                        help="fail on regression against BENCH_maxrank.json")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the 'current' section of BENCH_maxrank.json")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="process-pool workers for the within-leaf execution "
                             "engine (results and counters stay bit-identical to "
                             "serial, so --compare remains sound)")
    parser.add_argument("--family", choices=("all", "build", "serve", "obs"),
                        default="all",
                        help="restrict the matrix to one workload family "
                             "('build' = the construction-focused configs, "
                             "'serve' = the closed-loop network-serving "
                             "configs, 'obs' = the tracing bit-identity "
                             "configs; all used by CI smokes)")
    args = parser.parse_args(argv)
    if args.update and args.jobs and args.jobs > 1:
        parser.error("--update records the serial baseline; drop --jobs")

    calibration = calibrate()
    print(f"calibration: {calibration:.3f}s"
          + (f", jobs: {args.jobs}" if args.jobs else ""))
    results = run_matrix(quick=args.quick, jobs=args.jobs, family=args.family)
    print_report(results)

    status = 0
    if args.compare:
        baseline = load_baseline()
        print_funnel_comparison(results, baseline)
        if baseline is None:
            print(f"no committed baseline at {BASELINE_PATH}", file=sys.stderr)
            status = 1
        else:
            parallel = bool(args.jobs and args.jobs > 1)
            failures = compare(
                results,
                calibration,
                baseline,
                wall_gate=not parallel,
                serial_run=not parallel,
            )
            if failures:
                print("\nREGRESSIONS:", file=sys.stderr)
                for failure in failures:
                    print(f"  - {failure}", file=sys.stderr)
                status = 1
            else:
                print("\ncompare: OK (within tolerance of committed baseline)")

    if args.update:
        baseline = updated_baseline(load_baseline() or {}, results, calibration)
        with BASELINE_PATH.open("w") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"updated {BASELINE_PATH}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
