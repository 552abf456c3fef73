"""Advanced approach (AA) for MaxRank in general dimensionality (paper, Section 6).

AA avoids BA's fatal cost — reading and indexing *every* incomparable record —
by exploiting dominance among the incomparable records themselves.  If ``r``
dominates ``r'`` then the half-space of ``r'`` is contained in that of ``r``,
so ``r'`` cannot matter before ``r`` does.  AA therefore maintains a *mixed
arrangement* containing one *augmented* half-space per record on the skyline
of the not-yet-expanded incomparable records (computed and maintained
incrementally with BBS), plus the *singular* half-spaces of records already
expanded.

Each iteration (Algorithm 1) identifies the minimum-order cells of the mixed
arrangement.  Cells contained only in singular half-spaces are accurate and
enter the result; cells contained in some augmented half-space require those
half-spaces to be expanded — the record becomes singular, is removed from the
skyline, and the records it implicitly subsumed surface as new augmented
half-spaces.  AA terminates when every competitive cell is accurate, having
typically accessed only a small fraction of the incomparable records.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..data.dataset import Dataset
from ..engine.deadline import Deadline
from ..engine.executors import LeafTaskExecutor, resolve_executor
from ..errors import AlgorithmError
from ..geometry.halfspace import halfspace_for_record
from ..index.rstar import RStarTree
from ..quadtree.quadtree import AugmentedQuadTree
from ..skyline.bbs import SkylineCache
from ..stats import CostCounters
from .accessor import DataAccessor
from .cells import CellRecord, collect_cells, region_for_cell
from .result import MaxRankResult
from ._full_space import full_space_region

__all__ = ["aa_maxrank"]

#: Safety cap on AA iterations (each iteration expands at least one
#: half-space, so the cap is never reached for valid inputs).
_MAX_ITERATIONS = 1_000_000


def aa_maxrank(
    dataset: Dataset,
    focal: Sequence[float] | np.ndarray | int,
    *,
    tau: int = 0,
    tree: Optional[RStarTree] = None,
    counters: Optional[CostCounters] = None,
    split_threshold: Optional[int] = None,
    max_depth: Optional[int] = None,
    split_policy: str = "static",
    use_pairwise: bool = True,
    use_planar: bool = False,
    executor: Optional[LeafTaskExecutor] = None,
    skyline_cache: Optional[SkylineCache] = None,
    deadline: Optional[Deadline] = None,
) -> MaxRankResult:
    """Answer a MaxRank / iMaxRank query with the advanced approach (``d ≥ 3``).

    AA (paper, Section 6, Algorithm 1) iterates over a *mixed arrangement*
    of augmented and singular half-spaces, expanding augmented half-spaces
    only when a candidate minimum-order cell depends on them; it typically
    accesses a small fraction of the incomparable records, which is its
    advantage over :func:`repro.core.ba.ba_maxrank`.  Iterations reuse
    within-leaf state incrementally: only leaves whose partial set grew are
    re-enumerated, seeded with their previous witness points, pairwise
    conflict masks and surviving-prefix frontier (see
    :func:`repro.core.cells.collect_cells`).

    Parameters
    ----------
    dataset, focal:
        The dataset ``D`` (``d ≥ 3``) and focal record ``p`` (index or
        coordinates).
    tau:
        iMaxRank slack ``τ ≥ 0``; 0 gives plain MaxRank.
    tree:
        Optional pre-built R*-tree over ``dataset.records``.
    counters:
        Optional :class:`~repro.stats.CostCounters` to accumulate into.
    split_threshold:
        Quad-tree leaf split threshold (ablation A2); ``None`` picks the
        dimension-aware default.
    max_depth:
        Quad-tree depth cap; ``None`` picks the dimension-aware default and
        ``0`` keeps the whole reduced space as one fat leaf.
    split_policy:
        ``"static"`` (default) or ``"cost"`` — see
        :class:`~repro.quadtree.quadtree.AugmentedQuadTree`.  ``k*`` and
        the covered regions are policy-invariant; only the leaf-fragment
        granularity of the reported regions differs.
    use_pairwise:
        Enable the pairwise binary constraints of Section 5.2 (ablation A1
        switches them off).  On by default: the LP-free pair analysis
        compiles into the conflict bitmasks that drive prefix-pruned
        candidate generation, so forbidden bit combinations are never even
        enumerated.  Ablation A1 in ``benchmarks/`` quantifies the
        trade-off.
    use_planar:
        Enable the planar-arrangement sweep inside leaves (``d = 3`` only;
        see :func:`repro.core.aa3d.aa3d_maxrank` and
        :mod:`repro.geometry.planar`).  Results are bit-identical to the
        generic path.  Off by default — the :func:`repro.core.maxrank.maxrank`
        façade switches it on exactly when ``d = 3``.  ``False`` at
        ``d = 3`` runs the generic path, the differential tests' reference.
    executor:
        Optional :class:`~repro.engine.executors.LeafTaskExecutor` running
        the independent within-leaf probes of each scan level (e.g. a
        process pool; see :mod:`repro.engine`).  ``None`` selects the
        serial in-process path, unless the ``REPRO_JOBS`` environment
        variable forces a shared pool.  Results and counters are
        bit-identical across executors.
    skyline_cache:
        Optional warm :class:`~repro.skyline.bbs.SkylineCache` for ``tree``
        (shared across queries by :mod:`repro.service`).  A pure CPU memo
        for the BBS passes; results and engine-invariant counters are
        identical with and without it.
    deadline:
        Optional wall-clock budget (:class:`~repro.engine.deadline.Deadline`).
        Checked at the start, once per AA iteration, once per scan priority
        level and inside the within-leaf funnel; expiry raises
        :class:`~repro.errors.QueryTimeoutError` carrying the partial
        counters.  ``None`` disables every checkpoint (zero overhead).

    Returns
    -------
    MaxRankResult
        ``k*``, the accurate minimum-order regions ``T`` (orders up to the
        minimum plus ``tau``), and the cost report; ``algorithm`` is
        ``"AA"``.

    Raises
    ------
    AlgorithmError
        When ``d < 3`` (use :func:`repro.core.aa2d.aa2d_maxrank`) or
        ``tau < 0``.
    """
    if dataset.d < 3:
        raise AlgorithmError(
            f"AA requires d >= 3 (use aa2d_maxrank for d = 2), got d = {dataset.d}"
        )
    if tau < 0:
        raise AlgorithmError(f"tau must be non-negative, got {tau}")
    start = time.perf_counter()
    executor = resolve_executor(executor)
    accessor = DataAccessor(
        dataset, focal, tree=tree, counters=counters, skyline_cache=skyline_cache
    )
    counters = accessor.counters
    if deadline is not None:
        deadline.check(counters, "aa_start")

    dominators = accessor.dominator_count()
    reduced_dim = dataset.d - 1
    quadtree = AugmentedQuadTree(
        reduced_dim,
        split_threshold=split_threshold,
        max_depth=max_depth,
        split_policy=split_policy,
        counters=counters,
    )
    skyline = accessor.incremental_skyline()

    record_to_hid: Dict[int, int] = {}
    augmented_ids: Set[int] = set()
    staged: List = []

    def stage_record(record_id: int, point: np.ndarray) -> None:
        """Stage the (augmented) half-space of a newly exposed skyline record."""
        if record_id in record_to_hid:
            return
        record_to_hid[record_id] = -1  # reserved; real id assigned on flush
        staged.append(
            (record_id, halfspace_for_record(
                point, accessor.focal, record_id=record_id, augmented=True
            ))
        )

    def flush_staged() -> None:
        """Bulk-insert every staged half-space with one tree descent."""
        if not staged:
            return
        ids = quadtree.insert_bulk([halfspace for _, halfspace in staged])
        for (record_id, _), hid in zip(staged, ids):
            record_to_hid[record_id] = hid
            augmented_ids.add(hid)
        staged.clear()

    with counters.timer("skyline"):
        for member in skyline.compute():
            stage_record(member.record_id, member.point)
    # The initial build gets its own timer (separate from the BBS skyline
    # pass above) so `build_wall_fraction` means the same thing for AA and
    # BA; expansion-time flushes remain accounted to the iteration they
    # serve.
    with counters.timer("quadtree_build"):
        flush_staged()

    if len(quadtree) == 0:
        regions = [full_space_region(reduced_dim, dominators)]
        return MaxRankResult(
            k_star=dominators + 1,
            regions=regions,
            dominator_count=dominators,
            minimum_cell_order=0,
            tau=tau,
            algorithm="AA",
            counters=counters,
            cpu_seconds=time.perf_counter() - start,
            focal=accessor.focal,
            materialised_ids=frozenset(),
        )

    best_accurate: Optional[int] = None
    final_cells: List[CellRecord] = []
    leaf_cache: dict = {}

    with counters.timer("within_leaf"):
        for _ in range(_MAX_ITERATIONS):
            counters.iterations += 1
            if deadline is not None:
                deadline.check(counters, "aa_iteration")
            scan_best, cells = collect_cells(
                quadtree,
                tau=tau,
                use_pairwise=use_pairwise,
                use_planar=use_planar,
                counters=counters,
                cache=leaf_cache,
                executor=executor,
                deadline=deadline,
            )
            if scan_best is None:
                break
            bound = scan_best + tau
            if best_accurate is not None:
                bound = min(scan_best, best_accurate) + tau
            candidates = [cell for cell in cells if cell.order <= bound]
            accurate = [
                cell for cell in candidates if not (cell.containing_ids & augmented_ids)
            ]
            inaccurate = [
                cell for cell in candidates if cell.containing_ids & augmented_ids
            ]
            if accurate:
                best = min(cell.order for cell in accurate)
                if best_accurate is None or best < best_accurate:
                    best_accurate = best
            to_expand: Set[int] = set()
            for cell in inaccurate:
                to_expand.update(cell.containing_ids & augmented_ids)
            if not to_expand:
                limit = (best_accurate if best_accurate is not None else scan_best) + tau
                final_cells = [cell for cell in candidates if cell.order <= limit]
                break
            with counters.timer("expansion"):
                for hid in to_expand:
                    augmented_ids.discard(hid)
                    halfspace = quadtree.halfspace(hid)
                    quadtree.replace(hid, halfspace.with_flags(augmented=False))
                    counters.halfspaces_expanded += 1
                    record_id = halfspace.record_id
                    if record_id is None:
                        continue
                    for member in skyline.exclude(record_id):
                        stage_record(member.record_id, member.point)
                flush_staged()

    if not final_cells:
        raise AlgorithmError(
            "AA terminated without locating any accurate arrangement cell"
        )

    minimum_order = min(cell.order for cell in final_cells)
    regions = [region_for_cell(quadtree, cell, dominators) for cell in final_cells]
    return MaxRankResult(
        k_star=dominators + minimum_order + 1,
        regions=regions,
        dominator_count=dominators,
        minimum_cell_order=minimum_order,
        tau=tau,
        algorithm="AA",
        counters=counters,
        cpu_seconds=time.perf_counter() - start,
        focal=accessor.focal,
        materialised_ids=frozenset(record_to_hid),
    )
