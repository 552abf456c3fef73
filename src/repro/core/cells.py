"""Shared cell-collection machinery for BA and AA (``d ≥ 3``).

Both the basic and the advanced approach repeatedly need the same primitive:
given the current augmented quad-tree over (a subset of) the incomparable
half-spaces, find the cells of the implied arrangement with the smallest
order — processing leaves in increasing ``|F_l|`` order and pruning leaves
that cannot contain a competitive cell.  BA runs the primitive once over the
full set of half-spaces; AA runs it once per iteration over the mixed
arrangement.  The iMaxRank variant widens the collection bound by ``τ``.

:func:`collect_cells` implements that primitive and returns
:class:`CellRecord` objects, which carry everything the callers need: the
leaf, the within-leaf cell, its order, and the ids of the half-spaces that
contain it.  :func:`region_for_cell` converts a record into the user-facing
:class:`~repro.core.result.MaxRankRegion`.

The scan is *incremental*: it walks the tree's lazily-validated priority
buckets (leaves keyed by ``|F_l|``) instead of traversing and sorting every
leaf, so its cost is proportional to the number of competitive leaves — not
to the size of the tree.  Between AA iterations only the leaves reported
dirty by the tree (partial-overlap set grew) lose their cached within-leaf
state, and even then four things survive into the replacement processor:
the witness points already found (accept-screen probes), the pairwise
conflict masks and the infeasibility cores (old pair verdicts and cores stay
valid because the leaf box is unchanged and the old partial set is a prefix
of the new one) and the surviving-prefix frontier (re-enumeration extends
previously surviving prefixes by the new half-spaces instead of re-walking
the whole assignment tree).  This makes re-scans of a grown leaf largely LP-free *and* largely
enumeration-free.

Execution engine
----------------
The scan doubles as the *scheduler* of the execution engine
(:mod:`repro.engine`): the ``(leaf, weight)`` probes of one priority level
are mutually independent, so they are materialised as self-contained
:class:`~repro.engine.tasks.LeafTask` units and handed to an executor — the
in-process :class:`~repro.engine.executors.SerialExecutor` by default, or a
:class:`~repro.engine.executors.ProcessPoolExecutor`.  Every task carries a
snapshot of its leaf's reusable state (probe-panel history, infeasibility
cores, pairwise verdicts, planar arrangement, frontier), and the results —
cells, new witnesses, new cores, frontier entries, task-local
:class:`~repro.stats.CostCounters` — are merged back **in task order**.
Serial and pooled runs therefore take the same code path and reproduce the
same results and cost reports exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..engine.deadline import Deadline
from ..engine.executors import LeafTaskExecutor, SerialExecutor
from ..engine.tasks import LeafTask, LeafTaskResult
from ..geometry.halfspace import Halfspace, reduced_space_constraints
from ..geometry.polytope import ConvexPolytope
from ..quadtree.quadtree import AugmentedQuadTree, QuadTreeNode
from ..quadtree.withinleaf import LeafCell, LeafReuseState
from ..stats import CostCounters
from .result import MaxRankRegion

__all__ = ["CellRecord", "collect_cells", "region_for_cell"]

#: The executor of ``executor=None`` scans (stateless, so one is shared).
_SERIAL = SerialExecutor()


@dataclass(frozen=True)
class CellRecord:
    """One non-empty arrangement cell found during a quad-tree scan.

    Attributes
    ----------
    leaf:
        The quad-tree leaf the cell was found in.
    cell:
        The within-leaf cell (bit-string, p-order, witness point).
    order:
        Global cell order: ``|F_l|`` plus the cell's p-order.
    containing_ids:
        Ids of every half-space containing the cell (full-containment set of
        the leaf plus the bit-string's 1-bits).
    full_ids:
        The leaf's full-containment set (kept separately so regions can be
        rebuilt without re-deriving it).
    """

    leaf: QuadTreeNode
    cell: LeafCell
    order: int
    containing_ids: FrozenSet[int]
    full_ids: FrozenSet[int]


class _LeafScanState:
    """Per-leaf scan state: memoised per-weight results plus reusable seeds.

    The state mirrors what a long-lived
    :class:`~repro.quadtree.withinleaf.WithinLeafProcessor` of the
    leaf would hold — probe-panel history, infeasibility cores, pairwise
    verdicts, planar arrangement, frontier entries — assembled from
    task-result deltas;
    :meth:`make_task` snapshots the mirror into the next self-contained
    :class:`~repro.engine.tasks.LeafTask` so the processor the task rebuilds
    is indistinguishable from a live one.
    """

    __slots__ = (
        "partial_len",
        "seq",
        "weight_cells",
        "lower",
        "upper",
        "partial_pairs",
        "use_pairwise",
        "use_planar",
        "track_frontier",
        "seed_probes",
        "seed_state",
        "witnesses",
        "cores",
        "pairwise",
        "planar",
        "frontier",
        "deadline",
    )

    def __init__(
        self,
        leaf: QuadTreeNode,
        partial_pairs: Tuple[Tuple[int, Halfspace], ...],
        *,
        use_pairwise: bool,
        use_planar: bool,
        seed_probes: Optional[List[np.ndarray]],
        seed_state: Optional[LeafReuseState],
        track_frontier: bool,
        deadline: Optional[Deadline] = None,
    ) -> None:
        self.partial_len = len(partial_pairs)
        self.seq = leaf.seq
        self.weight_cells: Dict[int, List[LeafCell]] = {}
        self.deadline = deadline
        self.lower = leaf.lower
        self.upper = leaf.upper
        self.partial_pairs = partial_pairs
        self.use_pairwise = use_pairwise
        self.use_planar = use_planar
        self.track_frontier = track_frontier
        #: probe-panel history shipped to every task: harvested seeds first,
        #: then LP witnesses in discovery order (mirrors the live panel)
        self.seed_probes: Tuple[np.ndarray, ...] = (
            tuple(seed_probes) if seed_probes else ()
        )
        #: harvested reuse state — constant for this leaf configuration
        self.seed_state = seed_state
        self.witnesses: List[np.ndarray] = []
        #: cores learned by this configuration's tasks, in task order (the
        #: inherited ones travel inside ``seed_state``)
        self.cores: List[Tuple[int, int]] = []
        self.pairwise = None
        #: planar arrangement of this leaf configuration, mirrored from the
        #: first task that built (or extended) it
        self.planar = None
        self.frontier: Dict[int, Optional[Tuple[Tuple[int, ...], ...]]] = {}

    def make_task(self, leaf_key: int, weight: int, trace=None) -> LeafTask:
        """Snapshot the mirror into a self-contained task for ``weight``."""
        probes = self.seed_probes + tuple(self.witnesses)
        seed_state = self.seed_state
        if (
            self.planar is not None
            and seed_state is not None
            and seed_state.planar is not None
        ):
            # Once some task built (or extended) this configuration's
            # arrangement, the shipped ``planar`` is adopted verbatim and
            # the seed's retained arrangement is dead weight — strip it
            # from the snapshot rather than pickling O(m²) face polygons
            # twice per task.
            seed_state = replace(seed_state, planar=None)
        return LeafTask(
            leaf_key=leaf_key,
            seq=self.seq,
            weight=weight,
            lower=self.lower,
            upper=self.upper,
            partial=self.partial_pairs,
            use_pairwise=self.use_pairwise,
            track_frontier=self.track_frontier,
            seed_probes=probes if probes else None,
            seed_cores=tuple(self.cores),
            seed_state=seed_state,
            pairwise=self.pairwise,
            use_planar=self.use_planar,
            planar=self.planar,
            deadline=self.deadline,
            trace=trace,
        )

    def absorb(self, result: LeafTaskResult) -> None:
        """Merge a task result's deltas back into the mirror."""
        self.weight_cells[result.weight] = result.cells
        self.witnesses.extend(result.witnesses)
        self.cores.extend(result.cores)
        self.frontier.update(result.frontier)
        if result.pairwise is not None:
            self.pairwise = result.pairwise
        if result.planar is not None:
            self.planar = result.planar

    # -------------------------------------------------------------- harvest
    def witness_points(self) -> List[np.ndarray]:
        """Interior points of every memoised non-empty cell, plus LP probes.

        When the leaf's partial set grows, these remain interior points of
        cells of the refined arrangement and are handed to the replacement
        processor as accept-screen probes.
        """
        points = [
            cell.interior_point
            for cells in self.weight_cells.values()
            for cell in cells
        ]
        points.extend(self.witnesses)
        return points

    def reuse_state(self) -> LeafReuseState:
        """The leaf's reusable state (pairwise verdicts, frontier, cores)."""
        partial_ids = tuple(hid for hid, _ in self.partial_pairs)
        inherited = self.seed_state
        cores = tuple(self.cores)
        if inherited is not None and inherited.extends_to(partial_ids):
            # The processors put inherited cores first; so does the mirror.
            cores = inherited.cores + cores
        return LeafReuseState(
            partial_ids=partial_ids,
            pairwise=self.pairwise,
            frontier=dict(self.frontier),
            planar=self.planar,
            cores=cores,
        )


def collect_cells(
    tree: AugmentedQuadTree,
    *,
    tau: int = 0,
    use_pairwise: bool = True,
    use_planar: bool = False,
    counters: Optional[CostCounters] = None,
    cache: Optional[dict] = None,
    executor: Optional[LeafTaskExecutor] = None,
    deadline: Optional[Deadline] = None,
) -> Tuple[Optional[int], List[CellRecord]]:
    """Scan the quad-tree for the smallest-order cells of its arrangement.

    Returns ``(best_order, cells)`` where ``cells`` contains every non-empty
    cell whose order is at most ``best_order + tau``.  ``best_order`` is
    ``None`` when the arrangement has no non-empty cell inside the
    permissible simplex (which only happens for degenerate inputs).

    Candidate ``(leaf, Hamming weight)`` pairs are explored best-first by the
    lower bound ``|F_l| + weight`` on the order of any cell they can produce.
    This generalises the paper's leaf-pruning rule (a leaf whose ``|F_l|``
    exceeds the best order found so far, plus ``tau``, is never processed)
    and additionally guarantees that no leaf is enumerated beyond the weight
    a competitive cell could have — important when a leaf's partial set is
    large.

    Parameters
    ----------
    cache:
        Optional dictionary reused across calls (AA scans the same tree once
        per iteration).  Per-leaf, per-weight results are stored keyed by
        ``id(leaf)`` and invalidated when the leaf's partial-overlap set has
        grown since they were computed; the invalidated entry's witness
        points seed the new processor's accept screen, and its reuse state
        (pairwise conflict masks plus the surviving-prefix frontier) seeds
        the new processor's candidate generation.
    executor:
        Optional :class:`~repro.engine.executors.LeafTaskExecutor`.  The
        independent ``(leaf, weight)`` probes of each priority level run
        through it as :class:`~repro.engine.tasks.LeafTask` units; ``None``
        runs them in-process, like
        :class:`~repro.engine.executors.SerialExecutor`.  All executors
        produce bit-identical results and counters — only wall-clock
        differs.
    use_planar:
        Enable the planar-arrangement sweep inside leaves of a
        2-dimensional reduced space (the ``d = 3`` fast path; see
        :mod:`repro.geometry.planar`).  Ignored at other dimensionalities;
        results are bit-identical either way.
    deadline:
        Optional wall-clock budget (:class:`~repro.engine.deadline.Deadline`).
        Checked once per priority level here and at the within-leaf
        checkpoints (the deadline travels inside every
        :class:`~repro.engine.tasks.LeafTask`); expiry raises
        :class:`~repro.errors.QueryTimeoutError` carrying the partial
        counters.  ``None`` (the default) disables every checkpoint.
    """
    if executor is None:
        executor = _SERIAL
    # Tracing piggybacks on the counters object; off (None) costs one check.
    tracer = counters._tracer if counters is not None else None
    # Harvest witness and reuse-state seeds from cache entries the tree
    # reports as dirty.
    dirty = tree.consume_dirty_leaves()
    seeds: Dict[int, Tuple[List[np.ndarray], LeafReuseState]] = {}
    if cache is not None and dirty:
        for key in dirty:
            entry = cache.pop(key, None)
            if entry is not None:
                seeds[key] = (entry.witness_points(), entry.reuse_state())

    def state_for(leaf: QuadTreeNode) -> _LeafScanState:
        key = id(leaf)
        if cache is not None:
            entry = cache.get(key)
            if entry is not None and entry.partial_len == len(leaf.partial):
                return entry
        seed_probes, seed_state = seeds.get(key, (None, None))
        state = _LeafScanState(
            leaf,
            tree.leaf_partial_pairs(leaf),
            use_pairwise=use_pairwise,
            use_planar=use_planar,
            seed_probes=seed_probes,
            seed_state=seed_state,
            track_frontier=cache is not None,
            deadline=deadline,
        )
        if cache is not None:
            cache[key] = state
        return state

    best: Optional[int] = None
    collected: List[CellRecord] = []
    touched = 0
    entered: set = set()
    #: weight continuations: priority -> [(leaf, state, weight)]
    deferred: Dict[int, List[Tuple[QuadTreeNode, Optional[_LeafScanState], int]]] = {}

    priority = 0
    while True:
        if deadline is not None:
            # Cancellation checkpoint: once per priority level of the scan.
            deadline.check(counters, "collect_cells")
        if best is not None and priority > best + tau:
            break
        if priority > tree.max_bucket_priority() and not deferred:
            # No bucket or continuation can yield a cell any more, however
            # far best + tau reaches.
            break
        # One span per priority level with bucket entries or continuations;
        # the on-demand leaf splits of validated_bucket and the leaf-task
        # spans parent under it.
        level_handle = None
        if tracer is not None and (
            priority in deferred or tree.has_bucket_entries(priority)
        ):
            level_handle = tracer.begin("collect_level")
        resolved: List[Tuple[QuadTreeNode, _LeafScanState, int]] = []
        try:
            work: List[Tuple[QuadTreeNode, Optional[_LeafScanState], int]] = []
            for leaf in tree.validated_bucket(priority):
                if id(leaf) not in entered:
                    entered.add(id(leaf))
                    work.append((leaf, None, 0))
            work.extend(deferred.pop(priority, ()))

            for leaf, state, weight in work:
                if state is None:
                    state = state_for(leaf)
                    touched += 1
                resolved.append((leaf, state, weight))

            # Materialise every unresolved (leaf, weight) probe of this
            # priority level as a self-contained task; the batch runs on the
            # executor and the results merge back in task order.
            task_trace = tracer.context() if level_handle is not None else None
            pending = [
                (index, state.make_task(id(leaf), weight, trace=task_trace))
                for index, (leaf, state, weight) in enumerate(resolved)
                if weight <= state.partial_len and weight not in state.weight_cells
            ]
            if pending:
                results = executor.run([task for _, task in pending])
                if len(results) != len(pending):
                    raise RuntimeError(
                        f"executor returned {len(results)} results "
                        f"for {len(pending)} tasks"
                    )
                for (index, task), result in zip(pending, results):
                    if result.leaf_key != task.leaf_key or result.weight != task.weight:
                        raise RuntimeError(
                            "executor returned results out of task order"
                        )
                    resolved[index][1].absorb(result)
                    if counters is not None:
                        counters.merge(result.counters)
                if counters is not None:
                    # Fold the executor's robustness events (worker retries,
                    # serial degradations) into this query's cost report.
                    for name, value in executor.drain_events().items():
                        setattr(counters, name, getattr(counters, name) + value)

            for leaf, state, weight in resolved:
                if weight > state.partial_len:
                    continue
                cells = state.weight_cells[weight]
                if cells:
                    if best is None:
                        best = priority
                    frozen_full = frozenset(leaf.full_ids())
                    for cell in cells:
                        collected.append(
                            CellRecord(
                                leaf=leaf,
                                cell=cell,
                                order=priority,
                                containing_ids=frozen_full | frozenset(cell.inside_ids),
                                full_ids=frozen_full,
                            )
                        )
                if weight < state.partial_len:
                    deferred.setdefault(priority + 1, []).append((leaf, state, weight + 1))
        finally:
            if level_handle is not None:
                tracer.finish(
                    level_handle, priority=priority, leaves=len(resolved)
                )
        priority += 1

    if counters is not None:
        counters.leaves_processed += touched
        counters.leaves_pruned += tree.live_leaf_count - touched
    if best is None:
        return None, []
    kept = [record for record in collected if record.order <= best + tau]
    kept.sort(key=lambda record: (record.order, record.leaf.seq, record.cell.bits))
    return best, kept


def region_for_cell(
    tree: AugmentedQuadTree,
    record: CellRecord,
    dominator_count: int,
) -> MaxRankRegion:
    """Convert a collected cell into a user-facing :class:`MaxRankRegion`.

    The region geometry is the intersection of the leaf extent, the
    permissible-simplex constraints, and the half-spaces / complements
    selected by the cell's bit-string.  The half-spaces that fully contain
    the leaf are redundant inside the leaf box and are therefore omitted from
    the geometry, but their inducing records do appear in ``outscored_by``.
    """
    constraints = list(reduced_space_constraints(tree.dim))
    for (hid, _), bit in zip(
        [(hid, tree.halfspace(hid)) for hid in record.leaf.partial], record.cell.bits
    ):
        halfspace = tree.halfspace(hid)
        constraints.append(halfspace if bit else halfspace.complement())
    geometry = ConvexPolytope(constraints, record.leaf.lower, record.leaf.upper)
    outscored = []
    for hid in sorted(record.containing_ids):
        record_id = tree.halfspace(hid).record_id
        if record_id is not None:
            outscored.append(record_id)
    return MaxRankRegion(
        geometry=geometry,
        cell_order=record.order,
        order=dominator_count + record.order + 1,
        outscored_by=tuple(outscored),
    )
