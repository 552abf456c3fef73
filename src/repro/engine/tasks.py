"""Self-contained leaf-processing work units of the execution engine.

The quad-tree scan of :func:`repro.core.cells.collect_cells` decomposes into
independent ``(leaf, Hamming weight)`` probes: enumerate the candidate cells
of one weight inside one leaf and report the non-empty ones.  A
:class:`LeafTask` captures everything such a probe needs — the leaf box, the
partial half-space rows, the weight, and the reusable per-leaf state
(witness probes, infeasibility cores, pairwise verdicts, surviving-prefix
frontier) — so the probe can run in *any* process without the parent
quad-tree:
:func:`execute_leaf_task` rebuilds a
:class:`~repro.quadtree.withinleaf.WithinLeafProcessor` from the task alone
and runs the screen→LP funnel exactly as the in-process scan would.

Determinism contract
--------------------
A task must produce bit-identical results wherever it runs.  This hinges on
four properties, each pinned by tests:

* the task ships the *entire* probe-panel history of its leaf
  (``seed_probes`` lists the inherited witnesses plus every LP witness found
  by lower-weight tasks, in discovery order), so the rebuilt panel matches
  the panel of one processor that had walked the leaf's lower weights;
* likewise ``seed_cores`` lists every infeasibility core learned by the
  lower-weight tasks of the leaf configuration, in discovery order, so the
  core gate rejects exactly the candidates a live processor's would;
* the pairwise analysis is shipped verbatim (``pairwise``) once built, so
  no re-analysis — however deterministic — ever happens twice;
* results carry the *deltas* (new witnesses, new cores, this weight's
  frontier entry) rather than absolute state, so the scheduler can merge
  them back in task order and seed the next weight's task identically in
  serial and parallel runs.

Everything in this module is picklable; the :class:`LeafTaskResult` carries
its own :class:`~repro.stats.CostCounters` so funnel accounting crosses
process boundaries losslessly (counters merge by plain addition, which is
order-independent).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..geometry.halfspace import Halfspace
from ..geometry.planar import PlanarArrangement
from ..obs.trace import TraceContext, worker_span
from ..quadtree.withinleaf import (
    LeafCell,
    LeafReuseState,
    PairwiseConstraints,
    WithinLeafProcessor,
)
from ..stats import CostCounters
from ..testing import faults
from .deadline import Deadline

__all__ = ["LeafTask", "LeafTaskResult", "execute_leaf_task", "execute_task"]


@dataclass(frozen=True)
class LeafTask:
    """One self-contained ``(leaf, weight)`` probe.

    Attributes
    ----------
    leaf_key:
        Opaque key identifying the leaf in the scheduler (results are routed
        back by this key; workers never interpret it).
    seq:
        The leaf's creation sequence number — the deterministic tie-break
        the scheduler orders tasks by.
    weight:
        Hamming weight of the candidate bit-strings to enumerate.
    lower, upper:
        Leaf extent in the reduced query space.
    partial:
        ``(halfspace_id, halfspace)`` pairs of the leaf's partial-overlap
        set, in tree insertion order (bit positions follow this order).
    use_pairwise:
        Whether pairwise-constraint pruning is enabled for this query.
    track_frontier:
        Whether the generation survivors of this weight should be memoised
        and returned (the scheduler requests this when it keeps a
        cross-iteration cache).
    seed_probes:
        Probe-panel history of the leaf: inherited witness points followed
        by every LP witness found by this leaf's lower-weight tasks, in
        discovery order.  ``None`` when the panel is just the default one.
    seed_cores:
        Infeasibility cores learned by this leaf configuration's
        lower-weight tasks, in discovery order (the cores inherited through
        ``seed_state`` are not repeated here).
    seed_state:
        The :class:`LeafReuseState` harvested when the leaf last grew
        (partial ids form a prefix of ``partial``'s), or ``None`` for a
        leaf processed from scratch.  Constant across all weights of one
        leaf configuration — it feeds the frontier-seeded re-enumeration.
    pairwise:
        The pair analysis of exactly this configuration, shipped verbatim
        once some earlier task built it (``None`` lets the processor build
        it, reusing ``seed_state.pairwise`` incrementally).
    use_planar:
        Whether the planar-arrangement sweep is enabled for this query
        (``d = 3`` fast path; see :mod:`repro.geometry.planar`).
    planar:
        The planar arrangement of exactly this configuration, shipped
        verbatim once some earlier task built it (``None`` lets the
        processor build it, extending ``seed_state.planar`` incrementally).
    deadline:
        Optional wall-clock budget (:class:`~repro.engine.deadline.Deadline`,
        an absolute expiry — valid across fork).  The rebuilt processor
        checks it cooperatively inside the funnel and raises
        :class:`~repro.errors.QueryTimeoutError`, which executors propagate
        across the process boundary.
    trace:
        Optional :class:`~repro.obs.trace.TraceContext`.  When set, the
        task times itself and records one span into its own counters with
        an id derived from the task's own ``(seq, weight)`` identity — so
        spans merged back from any schedule sort into the same canonical
        tree.  ``None`` (the default, whenever tracing is off) costs a
        single ``is None`` check.
    """

    leaf_key: int
    seq: int
    weight: int
    lower: np.ndarray
    upper: np.ndarray
    partial: Tuple[Tuple[int, Halfspace], ...]
    use_pairwise: bool = True
    track_frontier: bool = False
    seed_probes: Optional[Tuple[np.ndarray, ...]] = None
    seed_cores: Tuple[Tuple[int, int], ...] = ()
    seed_state: Optional[LeafReuseState] = None
    pairwise: Optional[PairwiseConstraints] = None
    use_planar: bool = False
    planar: Optional[PlanarArrangement] = None
    deadline: Optional[Deadline] = None
    trace: Optional[TraceContext] = None


@dataclass
class LeafTaskResult:
    """Outcome of one :class:`LeafTask`, carrying state deltas.

    Attributes
    ----------
    leaf_key, weight:
        Echoed from the task (results are merged strictly in task order, so
        these exist for routing and asserts, not for reordering).
    cells:
        The non-empty cells of the probed weight.
    witnesses:
        LP witnesses discovered by *this* task (the delta on top of the
        shipped ``seed_probes``), in discovery order.
    cores:
        Infeasibility cores learned by *this* task (the delta on top of the
        shipped ``seed_cores``), in discovery order.
    frontier:
        The surviving-prefix frontier entries recorded by this task —
        ``{weight: survivors-or-None}`` — empty when frontier tracking was
        off.
    pairwise:
        The pair analysis built by this task, or ``None`` when the task was
        handed one (or never needed one).
    planar:
        The planar arrangement built (or incrementally extended) by this
        task, or ``None`` when the task was handed one or the planar sweep
        is off.
    counters:
        Task-local cost counters covering exactly this task's work (the
        scheduler merges them into the query's).
    """

    leaf_key: int
    weight: int
    cells: List[LeafCell]
    witnesses: List[np.ndarray]
    cores: List[Tuple[int, int]]
    frontier: Dict[int, Optional[Tuple[Tuple[int, ...], ...]]]
    pairwise: Optional[PairwiseConstraints]
    counters: CostCounters
    planar: Optional[PlanarArrangement] = None


def execute_leaf_task(task: LeafTask) -> LeafTaskResult:
    """Run one leaf task to completion in the current process.

    All cost accounting goes to a fresh task-local :class:`CostCounters`,
    returned with the result for the scheduler to merge.
    """
    own = CostCounters()
    span_start = time.perf_counter() if task.trace is not None else 0.0
    if task.deadline is not None:
        # Entry checkpoint: a task that sat in a pool queue (or was stalled
        # by fault injection) past its budget dies before any funnel work.
        task.deadline.check(own, "leaf_task")
    processor = WithinLeafProcessor(
        task.lower,
        task.upper,
        task.partial,
        use_pairwise=task.use_pairwise,
        counters=own,
        seed_probes=task.seed_probes,
        seed_cores=task.seed_cores,
        seed_state=task.seed_state,
        track_frontier=task.track_frontier,
        pairwise=task.pairwise,
        use_planar=task.use_planar,
        planar=task.planar,
        deadline=task.deadline,
    )
    cells = processor.cells_at_weight(task.weight)
    if task.trace is not None:
        # The span id derives from task identity, not completion order, so
        # merging worker results in any schedule yields the same tree.
        own.record_span(worker_span(
            task.trace,
            f"L{task.seq}w{task.weight}",
            "leaf_task",
            span_start,
            time.perf_counter(),
            meta={"leaf_seq": task.seq, "weight": task.weight},
        ))
    return LeafTaskResult(
        leaf_key=task.leaf_key,
        weight=task.weight,
        cells=cells,
        witnesses=list(processor.witness_probes()),
        cores=processor.learned_cores(),
        frontier=processor.frontier_entries(),
        pairwise=processor.pairwise_constraints if task.pairwise is None else None,
        counters=own,
        planar=processor.planar_arrangement if task.planar is None else None,
    )


def execute_task(task):
    """Run any engine work unit in the current process.

    The executors schedule two kinds of self-contained tasks: the
    :class:`LeafTask` probes of the within-leaf scan, and any other
    picklable object exposing a no-argument ``run()`` method — the service
    layer's whole-query tasks (:class:`repro.service.batch.QueryTask`) use
    that hook to push entire MaxRank queries through the same executors
    (same chunked dispatch, same submission-order merge, hence the same
    determinism story).
    """
    faults.on_task()  # no-op unless a chaos-test fault plan is armed
    if isinstance(task, LeafTask):
        return execute_leaf_task(task)
    return task.run()
