"""Basic approach (BA) for MaxRank in general dimensionality (paper, Section 5).

BA reads every incomparable record, maps each to a half-space of the reduced
query space, organises all those half-spaces in an augmented quad-tree, and
then processes the quad-tree leaves in increasing ``|F_l|`` order, running
the within-leaf module on each leaf that could still contain a cell of
competitive order.  The result is exact, but — as the paper's evaluation
shows — BA does not scale: it must access the whole dataset and insert one
half-space per incomparable record, which is why it is only run on small
cardinalities in the benchmarks (the same restriction the paper applies).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..data.dataset import Dataset
from ..engine.deadline import Deadline
from ..engine.executors import LeafTaskExecutor, resolve_executor
from ..errors import AlgorithmError
from ..geometry.halfspace import halfspace_for_record
from ..index.rstar import RStarTree
from ..quadtree.quadtree import AugmentedQuadTree
from ..stats import CostCounters
from .accessor import DataAccessor
from .cells import collect_cells, region_for_cell
from .result import MaxRankRegion, MaxRankResult
from ._full_space import full_space_region

__all__ = ["ba_maxrank"]


def ba_maxrank(
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
    deadline: Optional[Deadline] = None,
) -> MaxRankResult:
    """Answer a MaxRank / iMaxRank query with the basic approach (``d ≥ 3``).

    BA (paper, Section 5) maps every incomparable record to a half-space of
    the reduced query space, indexes all of them in one augmented quad-tree
    (Section 5.1) and scans the leaves in increasing ``|F_l|`` order with
    within-leaf processing (Section 5.2).  Exact but non-scalable — it reads
    the whole dataset — which is why the paper (and the benchmarks here)
    only run it at small cardinalities.

    Parameters
    ----------
    dataset, focal:
        The dataset ``D`` (``d ≥ 3``) and focal record ``p`` (index or
        coordinates).
    tau:
        iMaxRank slack ``τ ≥ 0``; 0 gives plain MaxRank.
    tree:
        Optional pre-built R*-tree over the dataset.
    counters:
        Optional cost counters to accumulate into.
    split_threshold:
        Quad-tree leaf split threshold (ablation A2).
    max_depth:
        Quad-tree depth cap; ``0`` keeps the whole reduced space as one fat
        leaf.
    split_policy:
        ``"static"`` (default) or ``"cost"`` — see
        :class:`~repro.quadtree.quadtree.AugmentedQuadTree`.  ``k*`` and the
        covered regions are policy-invariant; only leaf fragmentation
        differs.
    use_pairwise:
        Enable pairwise-constraint pruning inside leaves (ablation A1).  On
        by default: the LP-free pair analysis compiles into conflict
        bitmasks that stop forbidden candidate bit-strings from ever being
        generated.
    use_planar:
        Enable the planar-arrangement sweep inside leaves (``d = 3`` only;
        see :mod:`repro.geometry.planar`).  Bit-identical results; the
        :func:`repro.core.maxrank.maxrank` façade switches it on exactly
        when ``d = 3``.  ``False`` at ``d = 3`` runs the generic path, the
        differential tests' reference.
    executor:
        Optional :class:`~repro.engine.executors.LeafTaskExecutor` running
        the independent within-leaf probes of each scan level (e.g. a
        process pool; see :mod:`repro.engine`).  ``None`` selects the
        serial in-process path, unless ``REPRO_JOBS`` forces a pool.
    deadline:
        Optional wall-clock budget (:class:`~repro.engine.deadline.Deadline`);
        checked at the start, before the quad-tree build, per scan priority
        level and inside the within-leaf funnel.  Expiry raises
        :class:`~repro.errors.QueryTimeoutError`.

    Returns
    -------
    MaxRankResult
        ``k*``, the minimum-order regions ``T`` (orders up to the minimum
        plus ``tau``) and the cost report; ``algorithm`` is ``"BA"``.

    Raises
    ------
    AlgorithmError
        When ``d < 3`` (use FCA or the 2-D advanced approach) or
        ``tau < 0``.
    """
    if dataset.d < 3:
        raise AlgorithmError(
            f"BA requires d >= 3 (use FCA for d = 2), got d = {dataset.d}"
        )
    if tau < 0:
        raise AlgorithmError(f"tau must be non-negative, got {tau}")
    start = time.perf_counter()
    executor = resolve_executor(executor)
    accessor = DataAccessor(dataset, focal, tree=tree, counters=counters)
    counters = accessor.counters
    if deadline is not None:
        deadline.check(counters, "ba_start")

    dominators = accessor.dominator_count()
    incomparable = accessor.scan_incomparable()

    reduced_dim = dataset.d - 1
    quadtree = AugmentedQuadTree(
        reduced_dim,
        split_threshold=split_threshold,
        max_depth=max_depth,
        split_policy=split_policy,
        counters=counters,
    )
    if deadline is not None:
        deadline.check(counters, "ba_quadtree_build")
    with counters.timer("quadtree_build"):
        quadtree.insert_bulk(
            [
                halfspace_for_record(point, accessor.focal, record_id=record_id)
                for record_id, point in incomparable
            ]
        )

    if len(quadtree) == 0:
        regions = [full_space_region(reduced_dim, dominators)]
        return MaxRankResult(
            k_star=dominators + 1,
            regions=regions,
            dominator_count=dominators,
            minimum_cell_order=0,
            tau=tau,
            algorithm="BA",
            counters=counters,
            cpu_seconds=time.perf_counter() - start,
            focal=accessor.focal,
        )

    with counters.timer("within_leaf"):
        best_order, cell_records = collect_cells(
            quadtree,
            tau=tau,
            use_pairwise=use_pairwise,
            use_planar=use_planar,
            counters=counters,
            executor=executor,
            deadline=deadline,
        )
    if best_order is None:
        raise AlgorithmError(
            "BA found no non-empty arrangement cell; the permissible query space is empty"
        )

    regions = [region_for_cell(quadtree, record, dominators) for record in cell_records]
    return MaxRankResult(
        k_star=dominators + best_order + 1,
        regions=regions,
        dominator_count=dominators,
        minimum_cell_order=best_order,
        tau=tau,
        algorithm="BA",
        counters=counters,
        cpu_seconds=time.perf_counter() - start,
        focal=accessor.focal,
    )
