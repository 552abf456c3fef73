"""Advanced approach specialised for three dimensions (planar sweep).

The paper specialises AA at the two ends of the dimensionality range: for
``d = 2`` the reduced query space is one-dimensional and the mixed
arrangement degenerates to a sorted list (:mod:`repro.core.aa2d`).  For
``d = 3`` the reduced space is a *plane* — one step up, but still special:
the within-leaf arrangement of every quad-tree leaf is a planar line
arrangement whose faces (with exact cover sets) can be enumerated by **one**
incremental sweep in ``O(m²)`` face splits, instead of enumerating
``C(m, w)`` candidate bit-strings weight by weight and clipping each one.

:func:`aa3d_maxrank` runs the general advanced approach with that planar
sweep enabled (see :mod:`repro.geometry.planar` and the ``use_planar`` path
of :mod:`repro.quadtree.withinleaf`).  Everything outside candidate
discovery is *shared* with :func:`repro.core.aa.aa_maxrank` — the skyline
maintenance, the quad-tree, the expansion loop, the leaf scheduling, the
execution engine — which is what makes the two paths bit-identical: the
planar sweep only changes *which* candidates are examined, never how a
candidate is decided (same pairwise filter, same cell test, same
witnesses).  ``tests/test_differential.py`` pins this equivalence
against the generic path and the brute-force oracle on randomized
workloads.

Two practical notes:

* **Whole-space sweep for small skylines.**  The quad-tree root *is* the
  whole reduced space until its partial set exceeds the split threshold, so
  a query whose skyline is small is answered by a single arrangement sweep
  over the entire reduced plane — no tree descent, no per-leaf overhead.
* **Incremental re-scans.**  AA iterations that expand augmented
  half-spaces do not rebuild leaf arrangements: a grown leaf's retained
  arrangement is copied and only the newly arrived half-planes are inserted
  (:class:`~repro.quadtree.withinleaf.LeafReuseState`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..data.dataset import Dataset
from ..engine.deadline import Deadline
from ..engine.executors import LeafTaskExecutor
from ..errors import AlgorithmError
from ..index.rstar import RStarTree
from ..skyline.bbs import SkylineCache
from ..stats import CostCounters
from .aa import aa_maxrank
from .result import MaxRankResult

__all__ = ["aa3d_maxrank"]


def aa3d_maxrank(
    dataset: Dataset,
    focal: Sequence[float] | np.ndarray | int,
    *,
    tau: int = 0,
    tree: Optional[RStarTree] = None,
    counters: Optional[CostCounters] = None,
    split_threshold: Optional[int] = None,
    split_policy: str = "static",
    use_pairwise: bool = True,
    executor: Optional[LeafTaskExecutor] = None,
    skyline_cache: Optional[SkylineCache] = None,
    deadline: Optional[Deadline] = None,
) -> MaxRankResult:
    """Answer a MaxRank / iMaxRank query with the planar-sweep AA (``d = 3``).

    Identical contract to :func:`repro.core.aa.aa_maxrank`, restricted to
    ``d = 3`` and with the planar-arrangement fast path enabled: each leaf's
    candidate cells are read off the faces of one incremental planar line
    arrangement instead of being enumerated combinatorially.  Results —
    ``k*``, regions, witness points — and all engine-invariant counters are
    bit-identical to the generic path; only the candidate-examination
    volume (and hence CPU time) differs.

    Raises
    ------
    AlgorithmError
        When ``d != 3`` (use :func:`repro.core.aa.aa_maxrank` for higher
        dimensionalities, :func:`repro.core.aa2d.aa2d_maxrank` for 2) or
        ``tau < 0``.
    """
    if dataset.d != 3:
        raise AlgorithmError(
            f"AA-3D requires d = 3 (use aa_maxrank for d >= 3 in general), "
            f"got d = {dataset.d}"
        )
    result = aa_maxrank(
        dataset,
        focal,
        tau=tau,
        tree=tree,
        counters=counters,
        split_threshold=split_threshold,
        split_policy=split_policy,
        use_pairwise=use_pairwise,
        use_planar=True,
        executor=executor,
        skyline_cache=skyline_cache,
        deadline=deadline,
    )
    result.algorithm = "AA-3D"
    return result
