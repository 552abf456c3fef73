#!/usr/bin/env python
"""Benchmark regression harness for the MaxRank query stack.

Runs a fixed workload matrix (subsets of the paper's Figure 8 / Figure 9
sweeps) and records, per configuration: wall-clock, per-query CPU, simulated
I/O, the exact result fingerprint (``k*``, region counts, minimum cell
orders per query) and the screen→LP funnel counters of the batched
feasibility engine.  The numbers are written to ``BENCH_maxrank.json`` at
the repository root, which is committed so every PR carries its performance
trajectory.

Modes
-----
``python benchmarks/baseline.py``
    Run the full matrix and print a report (no file written).
``python benchmarks/baseline.py --update``
    Run and rewrite the ``current`` section of ``BENCH_maxrank.json``
    (the ``pre_pr`` section, when present, is preserved).
``python benchmarks/baseline.py --compare``
    Run and fail (exit 1) when, against the committed baseline:

    * any result fingerprint differs (``k*`` / region counts / minimum cell
      orders are required to be bit-identical), or
    * a deterministic work counter (LP calls, cells examined, candidates
      generated) regresses by more than 15 %, or
    * calibrated wall-clock regresses by more than 35 % on a configuration
      whose committed wall-clock is at least half a second.  Wall-clock is
      normalised by a short CPU calibration loop measured on both sides;
      the normalisation transfers only approximately across hosts, so the
      wall gate is deliberately loose — the deterministic counters are the
      hard gate.
``--quick``
    Restrict any of the modes above to the quick subset (used by CI).
``--jobs N``
    Run the within-leaf execution engine on an ``N``-worker process pool
    (see :mod:`repro.engine`).  The engine is bit-identical to the serial
    path — same results, same funnel counters — so ``--compare --jobs N``
    checks the parallel path against the committed *serial* baseline and
    must pass the same fingerprint and counter gates.  The ``serve/``
    family ignores it: a served miss is one query on its connection
    thread, and ``REPRO_JOBS=N`` is the one way to put a pool under it.

The matrix also carries a ``service/`` workload family: each configuration
answers a 16-query batch (8 unique focal records, each asked twice) both
*cold* — the standalone shape, one fresh ``maxrank()`` + R*-tree build per
query — and *warm* through one :class:`repro.service.MaxRankService`
(shared tree, warm skyline state, LRU result cache; ``--jobs`` additionally
runs the batch through whole-query process parallelism).  Both sides are
asserted bit-identical before recording, and ``--compare`` gates the
amortisation counters (``cache_hits``, ``skyline_reused``) alongside the
work counters, so losing the service's reuse fails CI like losing a pruning
step does.

A ``build/`` workload family watches quad-tree construction: one full-query
configuration that pins the cost-model split policy's recovery of the
small-``n`` ``d = 4`` shape, and two cold-start construction-only
configurations (``n = 4k`` and ``n = 50k``, explicit ``max_depth``) that
time ``insert_bulk`` alone.  Their construction counters
(``halfspaces_inserted`` / ``nodes_created`` / ``splits_performed``) are
serial/parallel-invariant by the parallel-identity contract and are gated
*exactly* by ``--compare``; ``--family build`` restricts a run to this
family (CI smokes it with ``--jobs 2``).

An ``update/`` workload family exercises the mutable service: a seeded
80/20 query/mutate sequence (inserts and deletes interleaved with cached
queries) against one long-lived service.  Before anything is recorded,
every unique focal of the *mutated* dataset is re-asked and asserted
bit-identical to a cold service freshly built over the final records — the
same oracle the mutation-differential test harness uses.  The scoped
cache-invalidation outcome (``invalidated`` / ``retained`` / ``inserts`` /
``deletes``) is deterministic for the frozen sequence, so ``--compare``
gates those counters *exactly*: losing retention (over-invalidation) or
eviction (a vacuous predicate) fails CI like a lost pruning step does.

A ``serve/`` workload family drives the *network* front end closed-loop:
a real :class:`~repro.service.ThreadedLineServer` on a kernel-picked port,
``clients`` concurrent socket clients issuing a seeded, skewed (hot-focal)
request stream over two shards routed through the router / single-flight
admission stack.  Every response payload is compared against a standalone
``maxrank()`` reference before anything is recorded, exactly-once
computation per unique (shard, focal, tau) key is asserted, and the
single-flight ``coalesced`` counter must be positive (the hot key is
barrier-synchronised so all clients provably collide).  Latency p50/p99
and qps are recorded for the trajectory; the deterministic gates are the
work counters and the exact ``admitted`` / ``queries_computed`` totals —
``serve/`` keys are exempt from the calibrated wall gate because a
closed-loop latency benchmark measures scheduling, not algorithm work.

An ``obs/`` workload family gates the observability stack: the same seeded
queries answered untraced and fully traced (a live :class:`repro.obs.Tracer`
riding the engine's counter hooks, producing a complete span tree per
query).  Tracing that changes an answer or a counter is a bug, not a cost,
so both gates are *exact* — every result fingerprint and every non-time
counter must be bit-identical between the two passes — and the recorded
``wall_s`` is the untraced side, so the calibrated wall gate watches the
disabled-path overhead (one ``is None`` check per instrumented site) that
every other configuration also carries.  ``overhead_ratio`` records the
traced/untraced wall ratio for the trajectory; ``--family obs`` restricts a
run to this family (the CI obs smoke).

The workload matrix is intentionally frozen: the ``--compare`` mode is only
sound when both sides ran identical configurations.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.accessor import DataAccessor            # noqa: E402
from repro.core.maxrank import maxrank                  # noqa: E402
from repro.data.generators import generate              # noqa: E402
from repro.engine.executors import make_executor        # noqa: E402
from repro.experiments.harness import run_batch, select_focal_records  # noqa: E402
from repro.experiments.reporting import format_table, screen_funnel  # noqa: E402
from repro.geometry.halfspace import halfspace_for_record  # noqa: E402
from repro.geometry.seidel import solve_lp              # noqa: E402
from repro.index.rstar import RStarTree                 # noqa: E402
from repro.quadtree.quadtree import AugmentedQuadTree   # noqa: E402
from repro.service.core import MaxRankService, result_fingerprint  # noqa: E402
from repro.stats import CostCounters                    # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_maxrank.json"
SCHEMA = 1
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


@dataclass(frozen=True)
class BenchConfig:
    """One frozen benchmark configuration."""

    key: str
    distribution: str
    n: int
    d: int
    queries: int
    quick: bool = False
    tau: int = 0


CONFIGS: List[BenchConfig] = [
    BenchConfig("quick/fig9/d=4", "IND", 150, 4, 1, quick=True),
    BenchConfig("fig9/d=3", "IND", 400, 3, 2, quick=True),
    BenchConfig("fig9/d=4", "IND", 300, 4, 2, quick=True),
    BenchConfig("fig9/d=5", "IND", 300, 5, 1),
    BenchConfig("fig8/IND/n=600", "IND", 600, 4, 2),
    BenchConfig("fig8/COR/n=600", "COR", 600, 4, 2),
    BenchConfig("fig8/ANTI/n=600", "ANTI", 600, 4, 2),
    # d = 3 on anticorrelated data: the depth-capped fat leaves make the
    # combinatorial within-leaf enumeration infeasible (>500 s per batch);
    # only the planar sweep keeps this configuration sub-second, which is
    # why it is in the committed matrix.
    BenchConfig("fig8/ANTI/d=3", "ANTI", 600, 3, 2),
    # iMaxRank at d = 3: tau widens the explored Hamming weights, the
    # regime where the planar sweep replaces the C(m, w) enumeration.
    BenchConfig("fig10/d=3/tau=3", "IND", 400, 3, 2, tau=3),
]

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

#: Service-layer amortisation counters gated on the ``service/`` workload
#: family: these are deterministic "the service skipped work" tallies, so a
#: *drop* (fewer cache hits, less warm-skyline reuse than committed) is the
#: regression.  ``skyline_reused`` is only gated on serial runs — under
#: ``--jobs`` each pool worker forks with a cold cache, so its value depends
#: on worker scheduling.
SERVICE_MIN_COUNTERS = ("cache_hits", "skyline_reused")

#: Robustness counters that must stay at their committed value (normally 0)
#: on the fault-free benchmark workload: a worker retry, a serial
#: degradation or a deadline check on the happy path means fault-handling
#: machinery leaked into the no-fault code path.  Entries absent from an
#: older committed baseline default to 0, so the gate binds without
#: regenerating the baseline file.
ROBUSTNESS_ZERO_COUNTERS = ("worker_retries", "degraded_batches", "deadline_checks")


@dataclass(frozen=True)
class ServiceBenchConfig:
    """One frozen service-workload configuration: a batch of ``batch``
    queries over ``unique`` distinct focal records (the repetition is the
    point — it is what the result cache amortises)."""

    key: str
    distribution: str
    n: int
    d: int
    batch: int = 16
    unique: int = 8
    tau: int = 0
    quick: bool = False


SERVICE_CONFIGS: List[ServiceBenchConfig] = [
    ServiceBenchConfig("service/fig9/d=3", "IND", 400, 3, quick=True),
    ServiceBenchConfig("service/fig9/d=4", "IND", 300, 4, quick=True),
    ServiceBenchConfig("service/fig9/d=5", "IND", 300, 5),
    ServiceBenchConfig("service/fig8/ANTI", "ANTI", 600, 4),
]


@dataclass(frozen=True)
class UpdateBenchConfig:
    """One frozen mutable-service workload: ``ops`` operations, every fifth
    a mutation (inserts and deletes interleaved), the rest queries cycling
    over ``unique`` focal records so the result cache has entries for the
    scoped invalidation to rule on."""

    key: str
    distribution: str
    n: int
    d: int
    ops: int = 30
    unique: int = 8
    tau: int = 1
    quick: bool = False


UPDATE_CONFIGS: List[UpdateBenchConfig] = [
    UpdateBenchConfig("update/fig9/d=3", "IND", 400, 3, quick=True),
    UpdateBenchConfig("update/fig8/ANTI", "ANTI", 300, 4),
]

#: Counters gated *exactly* on the ``update/`` family: the mutation
#: sequence is frozen and scoped invalidation is deterministic, so any
#: drift — retaining less (lost scoping) or evicting less (unsound
#: predicate or stale serves) — is a real behavioural change.
UPDATE_EXACT_COUNTERS = ("inserts", "deletes", "invalidated", "retained")


@dataclass(frozen=True)
class BuildBenchConfig:
    """One frozen construction-focused configuration.

    ``query=True`` runs a full AA query batch (so the record carries the
    end-to-end fingerprint and funnel alongside the construction volume);
    ``query=False`` measures the cold quad-tree build alone: scan the
    incomparable records, derive their half-spaces, time ``insert_bulk``.
    ``max_depth`` must be explicit on the large-``n`` cold builds — the
    dim-aware default depth is sized for the paper's small-``n`` panels and
    saturates toward millions of nodes at ``n = 50k``.
    """

    key: str
    distribution: str
    n: int
    d: int
    split_policy: str = "static"
    query: bool = False
    quick: bool = False
    max_depth: Optional[int] = None
    split_threshold: Optional[int] = None


BUILD_CONFIGS: List[BuildBenchConfig] = [
    # The PR 3 threshold-rebalance regression shape: under the cost policy
    # this must come back under the committed wall/LP numbers (the static
    # numbers live in quick/fig9/d=4).
    BuildBenchConfig("build/quick/fig9/d=4/cost", "IND", 150, 4,
                     split_policy="cost", query=True, quick=True),
    # Cold-start construction at scale: wall is dominated by the split
    # cascade, which is what --jobs parallelises.  Depth is capped at 5 —
    # a full 8-ary depth-5 tree is ≤ 37k nodes, so node volume stays
    # deterministic and exact-gated while the build is long enough to
    # parallelise.
    BuildBenchConfig("build/cold/d=4/n=4000", "IND", 4000, 4,
                     max_depth=5, quick=True),
    BuildBenchConfig("build/cold/d=4/n=50000", "IND", 50000, 4, max_depth=5),
]

@dataclass(frozen=True)
class ServeBenchConfig:
    """One frozen closed-loop network-serving workload.

    Two shards (IND at dimension ``d``, IND at ``d + 1``) are served by one
    in-process :class:`ThreadedLineServer`; ``clients`` socket clients each
    issue ``requests_per_client`` requests.  The request *plans* are seeded
    per client: the first request of every client is the same hot key
    (barrier-synchronised, so single-flight provably coalesces) and each
    later request picks the hot key with probability ``hot_share`` or a
    uniform cold key otherwise — the skewed interactive shape the admission
    layer exists for.  The set of unique keys is deterministic, so the
    exactly-once totals and work counters are gateable; latency and the
    coalesced count are timing and stay ungated.
    """

    key: str
    n: int
    d: int
    clients: int = 8
    requests_per_client: int = 12
    unique: int = 6          # distinct focals per shard
    hot_share: float = 0.5
    tau: int = 0
    quick: bool = False


SERVE_CONFIGS: List[ServeBenchConfig] = [
    ServeBenchConfig("serve/quick/mixed", 250, 3, quick=True),
    ServeBenchConfig("serve/load/hot", 400, 3, requests_per_client=25,
                     unique=8, hot_share=0.6, tau=1),
]

#: Totals gated *exactly* on the ``serve/`` family: the request plans are
#: seeded, and single-flight + result cache make computation exactly-once
#: per unique key regardless of thread scheduling, so these cannot drift
#: without a real behavioural change.  ``coalesced`` is timing-dependent
#: and only sanity-checked (``coalesced >= 1``) at run time.
SERVE_EXACT_COUNTERS = ("admitted", "queries_computed", "requests")


@dataclass(frozen=True)
class ObsBenchConfig:
    """One frozen tracing-overhead workload: the same queries answered
    untraced and traced (full span tree), back to back, ``reps`` times
    each with the minimum wall kept per side."""

    key: str
    distribution: str
    n: int
    d: int
    queries: int = 2
    tau: int = 1
    reps: int = 3
    quick: bool = True


OBS_CONFIGS: List[ObsBenchConfig] = [
    ObsBenchConfig("obs/overhead/d=3", "IND", 400, 3),
]


#: Construction counters gated *exactly* on the ``build/`` family: the
#: split cascade is deterministic for a frozen workload and — by the
#: parallel-identity contract — invariant under --jobs, so any drift is a
#: real change to the tree being built.  ``build_tasks`` is deliberately
#: absent: it counts subtree units shipped to workers, which legitimately
#: varies with jobs (0 when serial).
BUILD_EXACT_COUNTERS = ("halfspaces_inserted", "nodes_created", "splits_performed")


def calibrate(rounds: int = 1500, repeats: int = 3) -> float:
    """Seconds for a fixed CPU workload; normalises wall-clock across hosts.

    Mixes the two ingredients the benchmark exercises — the pure-Python
    Seidel solver and small-array numpy work — so the ratio between two
    machines transfers reasonably to the measured queries.  The loop is
    repeated and the *minimum* taken: transient load inflates individual
    timings but never deflates them, so the minimum is the stable estimate
    of the machine's speed (a calibration measured under load would
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


def run_config(
    config: BenchConfig,
    jobs: Optional[int] = None,
    extra_options: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Execute one configuration and return its measurement record."""
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
        **(extra_options or {}),
    )
    wall = time.perf_counter() - start
    measurements = batch.measurements
    counters: Dict[str, float] = {}
    for measurement in measurements:
        for name, value in measurement.counters.items():
            if not name.startswith("time_"):
                counters[name] = counters.get(name, 0.0) + value
    funnel = screen_funnel(counters)
    return {
        "wall_s": round(wall, 4),
        "cpu_s": round(batch.mean_cpu, 4),
        "io": batch.mean_io,
        "k_stars": [m.k_star for m in measurements],
        "region_counts": [m.region_count for m in measurements],
        "lp_calls": int(counters.get("lp_calls", 0)),
        "cells_examined": int(counters.get("cells_examined", 0)),
        "candidates_generated": int(counters.get("candidates_generated", 0)),
        "prefixes_cut": int(counters.get("prefixes_cut", 0)),
        "pairwise_pruned": int(counters.get("pairwise_pruned", 0)),
        "screen_accepts": int(counters.get("screen_accepts", 0)),
        "screen_rejects": int(counters.get("screen_rejects", 0)),
        "lines_inserted": int(counters.get("lines_inserted", 0)),
        "faces_enumerated": int(counters.get("faces_enumerated", 0)),
        "worker_retries": int(counters.get("worker_retries", 0)),
        "degraded_batches": int(counters.get("degraded_batches", 0)),
        "deadline_checks": int(counters.get("deadline_checks", 0)),
        "screen_resolved_ratio": round(funnel["screen_resolved_ratio"], 4),
        "halfspaces_inserted": int(counters.get("halfspaces_inserted", 0)),
        "nodes_created": int(counters.get("nodes_created", 0)),
        "splits_performed": int(counters.get("splits_performed", 0)),
        "build_tasks": int(counters.get("build_tasks", 0)),
    }


def run_build_config(
    config: BuildBenchConfig,
    jobs: Optional[int] = None,
) -> Dict[str, object]:
    """Execute one construction-focused configuration.

    ``query=True`` delegates to :func:`run_config` (full AA query, one
    focal) with the configured ``split_policy``, so the record carries the
    usual fingerprint and funnel fields plus the construction volume.
    ``query=False`` reproduces exactly the cold-build prefix of BA/AA —
    incomparable scan, half-space derivation, ``insert_bulk`` — and times
    only the ``insert_bulk`` call (the split cascade ``--jobs``
    parallelises); the query-side fields are recorded as empty/zero.
    """
    if config.query:
        return run_config(
            BenchConfig(config.key, config.distribution, config.n, config.d,
                        queries=1, quick=config.quick),
            jobs=jobs,
            extra_options={"split_policy": config.split_policy},
        )

    counters = CostCounters()
    dataset = generate(config.distribution, config.n, config.d, seed=0)
    tree = RStarTree.build(dataset.records)
    focal = int(select_focal_records(dataset, 1, seed=0)[0])
    accessor = DataAccessor(dataset, focal, tree=tree, counters=counters)
    halfspaces = [
        halfspace_for_record(point, accessor.focal, record_id=record_id)
        for record_id, point in accessor.scan_incomparable()
    ]
    quadtree = AugmentedQuadTree(
        config.d - 1,
        split_threshold=config.split_threshold,
        max_depth=config.max_depth,
        split_policy=config.split_policy,
        counters=counters,
    )
    executor = make_executor(jobs) if jobs else None
    try:
        start = time.perf_counter()
        quadtree.insert_bulk(halfspaces, executor=executor)
        wall = time.perf_counter() - start
    finally:
        if executor is not None:
            executor.close()
    dump = counters.as_dict()
    return {
        "wall_s": round(wall, 4),
        "cpu_s": round(wall, 4),
        "io": float(dump.get("page_reads", 0)),
        "k_stars": [],
        "region_counts": [],
        "lp_calls": 0,
        "cells_examined": 0,
        "candidates_generated": 0,
        "prefixes_cut": 0,
        "pairwise_pruned": 0,
        "screen_accepts": 0,
        "screen_rejects": 0,
        "lines_inserted": 0,
        "faces_enumerated": 0,
        "worker_retries": int(dump.get("worker_retries", 0)),
        "degraded_batches": int(dump.get("degraded_batches", 0)),
        "deadline_checks": int(dump.get("deadline_checks", 0)),
        "screen_resolved_ratio": 0.0,
        "halfspaces_inserted": int(dump.get("halfspaces_inserted", 0)),
        "nodes_created": int(dump.get("nodes_created", 0)),
        "splits_performed": int(dump.get("splits_performed", 0)),
        "build_tasks": int(dump.get("build_tasks", 0)),
    }


def run_service_config(
    config: ServiceBenchConfig,
    jobs: Optional[int] = None,
) -> Dict[str, object]:
    """Measure the cold per-query path against the warm service batch.

    *Cold* is the standalone shape the service replaces: one fresh
    ``maxrank()`` per query, R*-tree rebuilt every time.  *Warm* is one
    :class:`MaxRankService` answering the whole batch (shared tree, warm
    skyline state, result cache; ``--jobs`` adds whole-query parallelism).
    The two sides are asserted bit-identical before anything is recorded,
    so the recorded speedup can never be bought with a wrong answer.
    """
    dataset = generate(config.distribution, config.n, config.d, seed=0)
    unique = select_focal_records(dataset, config.unique, seed=0)
    focals = [unique[i % len(unique)] for i in range(config.batch)]

    # Cold: per-query tree build + standalone query, one per unique focal.
    cold_results = {}
    cold_start = time.perf_counter()
    for focal in unique:
        cold_results[focal] = maxrank(dataset, int(focal), tau=config.tau)
    cold_wall = time.perf_counter() - cold_start
    cold_per_query = cold_wall / len(unique)

    # Warm: one service, one batch.
    service = MaxRankService(dataset)
    try:
        warm_start = time.perf_counter()
        results = service.query_batch(
            focals, tau=config.tau, jobs=jobs
        )
        warm_wall = time.perf_counter() - warm_start
        for focal, result in zip(focals, results):
            if result_fingerprint(result) != result_fingerprint(cold_results[focal]):
                raise AssertionError(
                    f"{config.key}: service result for focal {focal} differs "
                    f"from standalone maxrank()"
                )
        stats = service.stats()
        counters = service.counters.as_dict()
    finally:
        service.close()

    warm_per_query = warm_wall / len(focals)
    funnel = screen_funnel(counters)
    return {
        "wall_s": round(warm_wall, 4),
        "cold_wall_s": round(cold_wall, 4),
        "cold_per_query_s": round(cold_per_query, 5),
        "warm_per_query_s": round(warm_per_query, 5),
        "speedup": round(cold_per_query / warm_per_query, 2) if warm_per_query else 0.0,
        "cold_start_s": round(stats["tree_build_seconds"], 5),
        "cpu_s": round(warm_per_query, 4),
        "io": 0.0,
        "batch": config.batch,
        "unique": len(unique),
        "k_stars": [r.k_star for r in results],
        "region_counts": [r.region_count for r in results],
        "cache_hits": int(stats["cache_hits"]),
        "skyline_reused": int(stats["skyline_reused"]),
        "queries_computed": int(stats["queries_computed"]),
        "lp_calls": int(counters.get("lp_calls", 0)),
        "cells_examined": int(counters.get("cells_examined", 0)),
        "candidates_generated": int(counters.get("candidates_generated", 0)),
        "prefixes_cut": int(counters.get("prefixes_cut", 0)),
        "pairwise_pruned": int(counters.get("pairwise_pruned", 0)),
        "screen_accepts": int(counters.get("screen_accepts", 0)),
        "screen_rejects": int(counters.get("screen_rejects", 0)),
        "lines_inserted": int(counters.get("lines_inserted", 0)),
        "faces_enumerated": int(counters.get("faces_enumerated", 0)),
        "worker_retries": int(counters.get("worker_retries", 0)),
        "degraded_batches": int(counters.get("degraded_batches", 0)),
        "deadline_checks": int(counters.get("deadline_checks", 0)),
        "screen_resolved_ratio": round(funnel["screen_resolved_ratio"], 4),
    }


def run_update_config(
    config: UpdateBenchConfig,
    jobs: Optional[int] = None,
) -> Dict[str, object]:
    """Measure the 80/20 query/mutate workload on one mutable service.

    The first mutation is an insert strictly dominated by a cached focal
    record — the planted witness that scoped invalidation *must* retain —
    and before anything is recorded every unique focal is re-asked and
    asserted bit-identical to a cold service built over the mutated
    records, so the recorded numbers can never describe stale answers.
    """
    import numpy as np

    from repro.data.dataset import Dataset

    dataset = generate(config.distribution, config.n, config.d, seed=0)
    unique = select_focal_records(dataset, config.unique, seed=0)

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

        # Oracle gate: the mutated service must be indistinguishable from a
        # cold service over the final records before numbers are recorded.
        final_focals = [int(f % service.dataset.n) for f in unique]
        oracle = MaxRankService(
            Dataset(service.dataset.records.copy(), name="oracle"), cache_size=0
        )
        try:
            results = []
            for focal in final_focals:
                served = service.query(focal, tau=config.tau)
                reference = oracle.query(focal, tau=config.tau)
                if result_fingerprint(served) != result_fingerprint(reference):
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
    funnel = screen_funnel(counters)
    return {
        "wall_s": round(wall, 4),
        "cpu_s": round(wall / config.ops, 4),
        "io": 0.0,
        "ops": config.ops,
        "unique": len(unique),
        "k_stars": [r.k_star for r in results],
        "region_counts": [r.region_count for r in results],
        "inserts": int(stats["inserts"]),
        "deletes": int(stats["deletes"]),
        "invalidated": int(stats["invalidated"]),
        "retained": int(stats["retained"]),
        "cache_hits": int(stats["cache_hits"]),
        "queries_computed": int(stats["queries_computed"]),
        "lp_calls": int(counters.get("lp_calls", 0)),
        "cells_examined": int(counters.get("cells_examined", 0)),
        "candidates_generated": int(counters.get("candidates_generated", 0)),
        "prefixes_cut": int(counters.get("prefixes_cut", 0)),
        "pairwise_pruned": int(counters.get("pairwise_pruned", 0)),
        "screen_accepts": int(counters.get("screen_accepts", 0)),
        "screen_rejects": int(counters.get("screen_rejects", 0)),
        "lines_inserted": int(counters.get("lines_inserted", 0)),
        "faces_enumerated": int(counters.get("faces_enumerated", 0)),
        "worker_retries": int(counters.get("worker_retries", 0)),
        "degraded_batches": int(counters.get("degraded_batches", 0)),
        "deadline_checks": int(counters.get("deadline_checks", 0)),
        "screen_resolved_ratio": round(funnel["screen_resolved_ratio"], 4),
    }


def run_obs_config(
    config: ObsBenchConfig,
    jobs: Optional[int] = None,
) -> Dict[str, object]:
    """Measure tracing overhead: the same queries untraced vs fully traced.

    Two hard gates run before anything is recorded (tracing that buys
    observability with a changed answer is a bug, not a cost):

    * every result fingerprint must be bit-identical between the traced
      and the untraced pass, and
    * every non-time counter must match *exactly* — not within the 15 %
      work-counter tolerance; only the wall-clock ratio is a measurement.

    The recorded ``wall_s`` is the *untraced* side, so the standard
    calibrated wall gate also watches the disabled-path cost (the single
    ``is None`` check per instrumented site) riding in every other
    configuration.  Both passes run serial: ``--jobs`` batches trace
    through a different span shape (``query_task``), which the smoke and
    differential tests cover; this workload isolates the tracer cost.
    """
    from repro.obs import Tracer

    del jobs  # see docstring: both passes deliberately serial

    dataset = generate(config.distribution, config.n, config.d, seed=0)
    tree = RStarTree.build(dataset.records)
    focals = [int(f) for f in select_focal_records(dataset, config.queries, seed=0)]

    def one_pass(traced: bool):
        best = float("inf")
        fingerprints: List[object] = []
        k_stars: List[int] = []
        region_counts: List[int] = []
        dump: Dict[str, float] = {}
        spans = 0
        for _ in range(config.reps):
            fingerprints, k_stars, region_counts = [], [], []
            dump, spans = {}, 0
            start = time.perf_counter()
            for focal in focals:
                counters = CostCounters()
                tracer = handle = None
                if traced:
                    tracer = Tracer()
                    counters._tracer = tracer
                    handle = tracer.begin("request")
                result = maxrank(dataset, focal, tau=config.tau, tree=tree,
                                 counters=counters)
                if tracer is not None:
                    tracer.finish(handle)
                    counters._tracer = None
                    tracer.absorb(counters.drain_spans())
                    spans += len(tracer.records())
                fingerprints.append(result_fingerprint(result))
                k_stars.append(result.k_star)
                region_counts.append(result.region_count)
                for name, value in counters.as_dict().items():
                    if not name.startswith("time_"):
                        dump[name] = dump.get(name, 0.0) + value
            best = min(best, time.perf_counter() - start)
        return best, fingerprints, k_stars, region_counts, dump, spans

    plain_wall, plain_fps, k_stars, region_counts, plain_dump, _ = one_pass(False)
    traced_wall, traced_fps, _, _, traced_dump, spans = one_pass(True)

    if traced_fps != plain_fps:
        raise AssertionError(
            f"{config.key}: tracing changed a result fingerprint"
        )
    if traced_dump != plain_dump:
        drifted = sorted(
            name for name in set(traced_dump) | set(plain_dump)
            if traced_dump.get(name) != plain_dump.get(name)
        )
        raise AssertionError(
            f"{config.key}: tracing changed counters: {drifted}"
        )
    if spans == 0:
        raise AssertionError(f"{config.key}: traced pass recorded no spans")

    funnel = screen_funnel(plain_dump)
    return {
        "wall_s": round(plain_wall, 4),
        "traced_wall_s": round(traced_wall, 4),
        "overhead_ratio": round(traced_wall / plain_wall, 3) if plain_wall else 0.0,
        "spans": int(spans),
        "cpu_s": round(plain_wall / len(focals), 4),
        "io": float(plain_dump.get("page_reads", 0)),
        "k_stars": k_stars,
        "region_counts": region_counts,
        "lp_calls": int(plain_dump.get("lp_calls", 0)),
        "cells_examined": int(plain_dump.get("cells_examined", 0)),
        "candidates_generated": int(plain_dump.get("candidates_generated", 0)),
        "prefixes_cut": int(plain_dump.get("prefixes_cut", 0)),
        "pairwise_pruned": int(plain_dump.get("pairwise_pruned", 0)),
        "screen_accepts": int(plain_dump.get("screen_accepts", 0)),
        "screen_rejects": int(plain_dump.get("screen_rejects", 0)),
        "lines_inserted": int(plain_dump.get("lines_inserted", 0)),
        "faces_enumerated": int(plain_dump.get("faces_enumerated", 0)),
        "worker_retries": int(plain_dump.get("worker_retries", 0)),
        "degraded_batches": int(plain_dump.get("degraded_batches", 0)),
        "deadline_checks": int(plain_dump.get("deadline_checks", 0)),
        "screen_resolved_ratio": round(funnel["screen_resolved_ratio"], 4),
        "halfspaces_inserted": int(plain_dump.get("halfspaces_inserted", 0)),
        "nodes_created": int(plain_dump.get("nodes_created", 0)),
        "splits_performed": int(plain_dump.get("splits_performed", 0)),
        "build_tasks": int(plain_dump.get("build_tasks", 0)),
    }


def run_serve_config(config: ServeBenchConfig) -> Dict[str, object]:
    """Measure the network front closed-loop: sockets, router, admission.

    ``clients`` threads each hold one TCP connection to an in-process
    :class:`ThreadedLineServer` and issue their seeded request plan,
    measuring per-request latency.  Three correctness gates run before
    anything is recorded: every response payload must equal the standalone
    ``maxrank()`` payload for its key, each unique key must have been
    computed exactly once across both shards, and the admission layer must
    have coalesced at least one duplicate (the barrier-synchronised hot
    key guarantees a collision to coalesce).
    """
    import json as json_mod
    import random
    import socket
    import statistics
    import threading

    from repro.obs.snapshot import serving_snapshot
    from repro.service import DatasetRouter, ThreadedLineServer
    from repro.service.cli import (  # the real CLI backend, not a test double
        _answer_payload, _RouterBackend,
    )

    datasets = {
        "a": generate("IND", config.n, config.d, seed=0),
        "b": generate("IND", max(120, config.n // 2), config.d + 1, seed=1),
    }
    focals = {
        shard: select_focal_records(dataset, config.unique, seed=0)
        for shard, dataset in datasets.items()
    }
    keys = [
        (shard, int(focal), config.tau)
        for shard in sorted(datasets)
        for focal in focals[shard]
    ]
    hot_key = keys[0]
    cold_keys = keys[1:]

    # Standalone references: the payload each response must equal, bit for
    # bit (k*, region count, dominators, tau and the rounded representative).
    references = {}
    for shard, focal, tau in keys:
        result = maxrank(datasets[shard], focal, tau=tau)
        payload = _answer_payload(result, False)
        payload.pop("cache_hit")
        references[(shard, focal, tau)] = payload

    # Seeded skewed plans: first request hot everywhere, then hot_share.
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

    latencies: List[float] = []
    latency_lock = threading.Lock()
    failures: List[str] = []
    barrier = threading.Barrier(config.clients + 1)

    def client_loop(plan) -> None:
        sock = socket.create_connection(server.address, timeout=60)
        stream = sock.makefile("rwb")
        try:
            barrier.wait()
            local = []
            for shard, focal, tau in plan:
                request = {"dataset": shard, "focal": focal, "tau": tau}
                sent = time.perf_counter()
                stream.write((json_mod.dumps(request) + "\n").encode())
                stream.flush()
                answer = json_mod.loads(stream.readline())
                local.append(time.perf_counter() - sent)
                answer.pop("cache_hit", None)
                if answer != references[(shard, focal, tau)]:
                    failures.append(
                        f"{config.key}: payload for {shard}/{focal} differs "
                        f"from standalone maxrank()"
                    )
                    return
            with latency_lock:
                latencies.extend(local)
        finally:
            sock.close()

    workers = [
        threading.Thread(target=client_loop, args=(plan,)) for plan in plans
    ]
    try:
        for worker in workers:
            worker.start()
        barrier.wait()
        start = time.perf_counter()
        for worker in workers:
            worker.join()
        wall = time.perf_counter() - start
        # One source of truth for the serving tallies: the same
        # consolidated snapshot the ``{"cmd": "metrics"}`` verb and the
        # Prometheus collector read, instead of re-summing router.stats().
        snapshot = serving_snapshot(router)
        counters: Dict[str, float] = {}
        for service in shards.values():
            for name, value in service.counters.as_dict().items():
                counters[name] = counters.get(name, 0.0) + value
    finally:
        server.shutdown()
        server_thread.join(timeout=30)
        router.close()

    if failures:
        raise AssertionError(failures[0])
    total_requests = config.clients * config.requests_per_client
    admitted = int(snapshot["admitted"])
    coalesced = int(snapshot["coalesced"])
    computed = int(snapshot["queries_computed"])
    if computed != len(keys):
        raise AssertionError(
            f"{config.key}: expected exactly-once computation of {len(keys)} "
            f"unique keys, measured {computed}"
        )
    if coalesced < 1:
        raise AssertionError(
            f"{config.key}: single-flight coalesced nothing despite the "
            f"barrier-synchronised hot key"
        )

    ordered = sorted(latencies)
    p50 = statistics.median(ordered)
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    funnel = screen_funnel(counters)
    return {
        "wall_s": round(wall, 4),
        "cpu_s": round(p50, 5),
        "io": 0.0,
        "clients": config.clients,
        "requests": total_requests,
        "unique": len(keys),
        "p50_ms": round(p50 * 1000, 3),
        "p99_ms": round(p99 * 1000, 3),
        "qps": round(total_requests / wall, 1) if wall > 0 else 0.0,
        "admitted": admitted,
        "coalesced": coalesced,
        "queries_computed": computed,
        "cache_hits": int(counters.get("cache_hits", 0)),
        "k_stars": [references[key]["k_star"] for key in keys],
        "region_counts": [references[key]["regions"] for key in keys],
        "lp_calls": int(counters.get("lp_calls", 0)),
        "cells_examined": int(counters.get("cells_examined", 0)),
        "candidates_generated": int(counters.get("candidates_generated", 0)),
        "prefixes_cut": int(counters.get("prefixes_cut", 0)),
        "pairwise_pruned": int(counters.get("pairwise_pruned", 0)),
        "screen_accepts": int(counters.get("screen_accepts", 0)),
        "screen_rejects": int(counters.get("screen_rejects", 0)),
        "lines_inserted": int(counters.get("lines_inserted", 0)),
        "faces_enumerated": int(counters.get("faces_enumerated", 0)),
        "worker_retries": int(counters.get("worker_retries", 0)),
        "degraded_batches": int(counters.get("degraded_batches", 0)),
        "deadline_checks": int(counters.get("deadline_checks", 0)),
        "screen_resolved_ratio": round(funnel["screen_resolved_ratio"], 4),
    }


def run_matrix(
    quick: bool,
    jobs: Optional[int] = None,
    family: str = "all",
) -> Dict[str, Dict[str, object]]:
    """Run the (possibly restricted) workload matrix.

    ``family="build"`` restricts the run to the ``build/`` configurations
    (the construction-focused subset CI smokes with ``--jobs 2``);
    ``family="serve"`` to the closed-loop network-serving configurations
    (the CI serve smoke); ``family="obs"`` to the tracing-overhead
    configurations (the CI obs smoke); ``"all"`` runs everything.
    """
    results: Dict[str, Dict[str, object]] = {}
    if family == "all":
        for config in CONFIGS:
            if quick and not config.quick:
                continue
            print(f"running {config.key} ...", flush=True)
            results[config.key] = run_config(config, jobs=jobs)
    if family in ("all", "build"):
        for build_config in BUILD_CONFIGS:
            if quick and not build_config.quick:
                continue
            print(f"running {build_config.key} (construction) ...", flush=True)
            results[build_config.key] = run_build_config(build_config, jobs=jobs)
    if family in ("all", "serve"):
        for serve_config in SERVE_CONFIGS:
            if quick and not serve_config.quick:
                continue
            print(f"running {serve_config.key} (closed-loop load) ...", flush=True)
            results[serve_config.key] = run_serve_config(serve_config)
    if family in ("all", "obs"):
        for obs_config in OBS_CONFIGS:
            if quick and not obs_config.quick:
                continue
            print(f"running {obs_config.key} (tracing overhead) ...", flush=True)
            results[obs_config.key] = run_obs_config(obs_config, jobs=jobs)
    if family != "all":
        return results
    for service_config in SERVICE_CONFIGS:
        if quick and not service_config.quick:
            continue
        print(f"running {service_config.key} (cold vs warm) ...", flush=True)
        results[service_config.key] = run_service_config(service_config, jobs=jobs)
    for update_config in UPDATE_CONFIGS:
        if quick and not update_config.quick:
            continue
        print(f"running {update_config.key} (query/mutate) ...", flush=True)
        results[update_config.key] = run_update_config(update_config, jobs=jobs)
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
    ``serial_run=False`` (also a ``--jobs`` property, but deliberately a
    separate flag) additionally skips the ``skyline_reused`` amortisation
    gate: pool workers fork with a cold skyline cache, so that counter
    depends on worker scheduling under ``--jobs``.
    """
    failures: List[str] = []
    base_entries = baseline.get("current", {}).get("configs", {})
    base_calibration = float(baseline.get("current", {}).get("calibration_s", 0.0))
    for key, entry in current.items():
        base = base_entries.get(key)
        if base is None:
            failures.append(f"{key}: missing from committed baseline")
            continue
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
        if key.startswith("service/"):
            # Amortisation gates: the service family must keep skipping at
            # least as much work as the committed baseline (deterministic
            # counts, so any drop is a real lost optimisation).
            for counter in SERVICE_MIN_COUNTERS:
                if counter == "skyline_reused" and not serial_run:
                    continue  # worker forks start cold under --jobs
                base_value = float(base.get(counter, 0))
                value = float(entry.get(counter, 0))
                if value < base_value:
                    failures.append(
                        f"{key}: {counter} dropped {base_value:.0f} -> {value:.0f} "
                        f"(lost service amortisation)"
                    )
        if key.startswith("update/"):
            for counter in UPDATE_EXACT_COUNTERS:
                base_value = int(base.get(counter, -1))
                value = int(entry.get(counter, -1))
                if value != base_value:
                    failures.append(
                        f"{key}: {counter} changed {base_value} -> {value} "
                        f"(scoped mutation invalidation drifted)"
                    )
        if key.startswith("serve/"):
            # Exactly-once totals of the serving front: the request plans
            # are seeded and single-flight + cache make computation
            # exactly-once per unique key, so any drift is behavioural.
            for counter in SERVE_EXACT_COUNTERS:
                base_value = int(base.get(counter, -1))
                value = int(entry.get(counter, -1))
                if value != base_value:
                    failures.append(
                        f"{key}: {counter} changed {base_value} -> {value} "
                        f"(admission/serving behaviour drifted)"
                    )
        if key.startswith("build/"):
            # Construction gates: the split cascade is deterministic and
            # serial/parallel-invariant, so these must match exactly — a
            # drift means the tree being built changed shape.
            for counter in BUILD_EXACT_COUNTERS:
                base_value = int(base.get(counter, -1))
                value = int(entry.get(counter, -1))
                if value != base_value:
                    failures.append(
                        f"{key}: {counter} changed {base_value} -> {value} "
                        f"(construction volume drifted)"
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
            and not key.startswith("serve/")  # closed-loop latency is
            # scheduling, not algorithm work; p50/p99/qps are trajectory only
            and base_calibration > 0
            and current_calibration > 0
            and float(base["wall_s"]) >= WALL_FLOOR_S
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
    rows = []
    for key, entry in results.items():
        row = {
            "config": key,
            "wall_s": entry["wall_s"],
            "k*": "/".join(str(v) for v in entry["k_stars"]),
            "|T|": "/".join(str(v) for v in entry["region_counts"]),
            "lp": entry["lp_calls"],
            "generated": entry.get("candidates_generated", entry["cells_examined"]),
            "cut": entry.get("prefixes_cut", 0),
            "screened%": round(100 * entry["screen_resolved_ratio"], 1),
        }
        if key.startswith("service/"):
            row["k*"] = "/".join(str(v) for v in entry["k_stars"][: entry["unique"]])
            row["|T|"] = "/".join(
                str(v) for v in entry["region_counts"][: entry["unique"]]
            )
            row["warm_x"] = entry["speedup"]
            row["hits"] = entry["cache_hits"]
        if key.startswith("update/"):
            row["hits"] = entry["cache_hits"]
            row["inv"] = entry["invalidated"]
            row["ret"] = entry["retained"]
        if key.startswith("build/"):
            row["nodes"] = entry["nodes_created"]
            row["splits"] = entry["splits_performed"]
            row["tasks"] = entry["build_tasks"]
        if key.startswith("serve/"):
            row["hits"] = entry["cache_hits"]
            row["qps"] = entry["qps"]
            row["p50ms"] = entry["p50_ms"]
            row["p99ms"] = entry["p99_ms"]
            row["coal"] = entry["coalesced"]
        rows.append(row)
    columns = ["config", "wall_s", "k*", "|T|", "lp", "generated", "cut",
               "screened%", "warm_x", "hits", "inv", "ret",
               "nodes", "splits", "tasks", "qps", "p50ms", "p99ms", "coal"]
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
    def funnel_candidates(record: Dict[str, object]) -> object:
        if not record:
            return "-"
        if "candidates_generated" in record:
            generated = record["candidates_generated"]
        else:  # pre-DFS baseline records
            generated = record.get("cells_examined", 0)
        return int(generated) + int(record.get("pairwise_pruned", 0))

    base_entries = (baseline or {}).get("current", {}).get("configs", {})
    rows = []
    for key, entry in results.items():
        rows.append({
            "config": key,
            "candidates": funnel_candidates(entry),
            "baseline": funnel_candidates(base_entries.get(key, {})),
            "cut": entry.get("prefixes_cut", 0),
            "accepts": entry["screen_accepts"],
            "rejects": entry["screen_rejects"],
            "lp": entry["lp_calls"],
        })
    print()
    print(format_table(rows, title="Screen funnel per workload (candidates vs committed baseline)"))


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
                             "configs, 'obs' = the tracing-overhead "
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
        baseline = load_baseline() or {}
        previous = baseline.get("current", {}).get("configs", {})
        merged = dict(previous)
        merged.update(results)
        baseline["schema"] = SCHEMA
        baseline["current"] = {
            "calibration_s": round(calibration, 4),
            "configs": merged,
        }
        with BASELINE_PATH.open("w") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"updated {BASELINE_PATH}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
