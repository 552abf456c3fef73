"""Public MaxRank / iMaxRank entry points.

:func:`maxrank` dispatches a query to the appropriate algorithm.  The
default, ``algorithm="auto"``, picks the paper's recommended processing
strategy: the specialised 2-dimensional advanced approach for ``d = 2`` and
the general advanced approach for ``d ≥ 3``.  The first-cut algorithm (FCA)
and the basic approach (BA) remain selectable — they are the baselines the
paper compares against and the benchmarks need them — as are the exact and
sampling brute-force oracles.

:func:`imaxrank` is a thin convenience wrapper that makes the incremental
variant (Definition 2 of the paper) explicit in calling code.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..data.dataset import Dataset
from ..engine.deadline import Deadline
from ..engine.executors import make_executor
from ..errors import AlgorithmError, QueryTimeoutError
from ..index.rstar import RStarTree
from ..skyline.bbs import SkylineCache
from ..stats import CostCounters
from .aa import aa_maxrank
from .aa2d import aa2d_maxrank
from .aa3d import aa3d_maxrank
from .ba import ba_maxrank
from .bruteforce import maxrank_exact_small
from .fca import fca_maxrank
from .result import MaxRankResult

__all__ = ["maxrank", "imaxrank", "ALGORITHMS"]

#: Selectable algorithm names.
ALGORITHMS = ("auto", "aa", "aa2d", "aa3d", "ba", "fca", "exact")


def maxrank(
    dataset: Dataset,
    focal: Sequence[float] | np.ndarray | int,
    *,
    algorithm: str = "auto",
    tau: int = 0,
    tree: Optional[RStarTree] = None,
    counters: Optional[CostCounters] = None,
    jobs: Optional[int] = None,
    skyline_cache: Optional[SkylineCache] = None,
    deadline: Optional[Deadline] = None,
    **options,
) -> MaxRankResult:
    """Answer a MaxRank (or iMaxRank, with ``tau > 0``) query.

    MaxRank (paper, Definition 1) asks for the highest rank ``k*`` a focal
    record can achieve in the dataset under *any* linear preference vector,
    together with all regions ``T`` of the preference space where that rank
    is attained; iMaxRank (Definition 2) widens the answer to every region
    within ``tau`` ranks of the optimum.  This façade dispatches to the
    paper's algorithms: FCA (Section 4), BA (Section 5), AA (Section 6) and
    the 2-D specialisation of AA (Section 6.3), plus brute-force oracles
    used for verification.

    Parameters
    ----------
    dataset:
        The dataset ``D``.
    focal:
        The focal record ``p`` — either an index into ``dataset`` or explicit
        coordinates (it need not belong to the dataset, enabling the what-if
        analyses of the paper's introduction).
    algorithm:
        One of ``"auto"``, ``"aa"``, ``"aa2d"``, ``"aa3d"``, ``"ba"``,
        ``"fca"``, ``"exact"``.  ``"auto"`` selects the paper's recommended
        processing strategy for the dataset's dimensionality: ``aa2d`` for
        ``d = 2``, ``aa3d`` (the planar-sweep specialisation) for ``d = 3``
        and ``aa`` for ``d ≥ 4``.
    tau:
        iMaxRank slack ``τ ≥ 0``; regions covering orders up to
        ``k* + tau`` are reported.
    tree:
        Optional pre-built :class:`~repro.index.rstar.RStarTree` over
        ``dataset.records`` (reused across queries by the benchmarks).
    counters:
        Optional :class:`~repro.stats.CostCounters` to accumulate costs into.
    jobs:
        Number of worker processes for the within-leaf execution engine
        (BA/AA only; see :mod:`repro.engine`).  ``None`` or ``1`` runs
        serially; ``jobs >= 2`` creates a process pool for this query.
        Results and cost counters are bit-identical to the serial run.
        For batches of queries, build one executor with
        :func:`repro.engine.make_executor` and pass ``executor=`` instead,
        so the pool is reused across queries.
    skyline_cache:
        Optional warm :class:`~repro.skyline.bbs.SkylineCache` built for
        ``tree`` (the :mod:`repro.service` layer shares one across all
        queries it serves).  Consumed by the BBS-driven algorithms (AA,
        AA-2D, AA-3D) and ignored by the scan-based ones (FCA, BA, exact);
        a pure CPU memo, so results and engine-invariant counters are
        identical with and without it.
    deadline:
        Optional wall-clock budget: a
        :class:`~repro.engine.deadline.Deadline` (build one with
        ``Deadline.after(seconds)``; :meth:`MaxRankService.query` exposes
        the friendlier ``timeout=`` seconds form).  Checked at entry for
        every algorithm and cooperatively throughout the quad-tree
        algorithms (AA/BA/AA-3D: per iteration, per scan priority level
        and inside the within-leaf funnel; AA-2D: per arrangement
        iteration).  FCA and the brute-force oracles only check at entry —
        they are verification baselines, not serving paths.  Expiry raises
        :class:`~repro.errors.QueryTimeoutError` carrying the partial
        counters; ``None`` (default) disables every checkpoint.
    options:
        Algorithm-specific tuning knobs (``split_threshold``,
        ``split_policy``, ``max_depth``, ``use_pairwise``, ``executor``
        for BA/AA).

    Returns
    -------
    MaxRankResult
        ``k*`` (:attr:`~repro.core.result.MaxRankResult.k_star`), the result
        regions ``T`` (each a convex polytope of the reduced preference
        space with a ``representative_query()``), the dominator count, the
        algorithm label and the per-query cost report.

    Raises
    ------
    AlgorithmError
        For an unknown algorithm name, a negative ``tau``, an algorithm
        incompatible with the dataset's dimensionality, or a ``deadline``
        that is not a :class:`~repro.engine.deadline.Deadline`.
    QueryTimeoutError
        When ``deadline`` expires before the query completes.
    """
    if deadline is not None:
        if not isinstance(deadline, Deadline):
            raise AlgorithmError(
                f"deadline must be a repro.engine.Deadline "
                f"(build one with Deadline.after(seconds)), got "
                f"{type(deadline).__name__}"
            )
        # Entry checkpoint: an already-expired budget fails fast for every
        # algorithm, including the ones without interior checkpoints.
        deadline.check(counters, "maxrank_entry")
    name = algorithm.lower()
    if name not in ALGORITHMS:
        raise AlgorithmError(
            f"unknown algorithm {algorithm!r}; choose one of {ALGORITHMS}"
        )
    if name == "auto":
        name = {2: "aa2d", 3: "aa3d"}.get(dataset.d, "aa")

    try:
        if name == "fca":
            return fca_maxrank(dataset, focal, tau=tau, tree=tree, counters=counters)
        if name == "aa2d":
            return aa2d_maxrank(
                dataset,
                focal,
                tau=tau,
                tree=tree,
                counters=counters,
                skyline_cache=skyline_cache,
                deadline=deadline,
            )
        if name in ("ba", "aa", "aa3d"):
            run = {"ba": ba_maxrank, "aa": aa_maxrank, "aa3d": aa3d_maxrank}[name]
            if name != "ba" and skyline_cache is not None:
                # BA reads every incomparable record with a full scan and never
                # runs BBS, so the warm skyline state has nothing to memoise.
                options = dict(options, skyline_cache=skyline_cache)
            if "use_planar" in options:
                # The planar sweep is chosen by dimensionality alone; the
                # generic path is reachable only through aa_maxrank /
                # ba_maxrank directly (the differential tests' reference).
                raise AlgorithmError(
                    "maxrank() uses the planar sweep exactly when d = 3; "
                    "pass use_planar only to aa_maxrank/ba_maxrank directly"
                )
            if name != "aa3d":
                options = dict(options, use_planar=dataset.d == 3)
            owned = None
            if jobs is not None and options.get("executor") is None:
                owned = make_executor(jobs)
                if owned is not None:
                    options = dict(options, executor=owned)
            try:
                return run(
                    dataset, focal, tau=tau, tree=tree, counters=counters,
                    deadline=deadline, **options
                )
            finally:
                if owned is not None:
                    owned.close()
        return maxrank_exact_small(dataset, focal, tau=tau, **options)
    except QueryTimeoutError as exc:
        if counters is not None:
            # Attach the query-level counters: the leaf-side checkpoint
            # only sees its task-local tallies, but the caller (and the
            # service, which merges them into its aggregates) wants the
            # partial work of the whole cancelled query.
            exc.counters = counters
        raise


def imaxrank(
    dataset: Dataset,
    focal: Sequence[float] | np.ndarray | int,
    tau: int,
    *,
    algorithm: str = "auto",
    tree: Optional[RStarTree] = None,
    counters: Optional[CostCounters] = None,
    **options,
) -> MaxRankResult:
    """Answer an incremental MaxRank query (paper, Definition 2).

    Convenience wrapper around :func:`maxrank` that makes the iMaxRank
    variant explicit in calling code: the result covers every region whose
    attained rank is within ``tau`` of the optimum ``k*`` (``tau = 0``
    degenerates to plain MaxRank).  Parameters, return value and errors are
    those of :func:`maxrank`, with ``tau`` promoted to a required positional
    argument.
    """
    if tau < 0:
        raise AlgorithmError(f"tau must be non-negative, got {tau}")
    return maxrank(
        dataset,
        focal,
        algorithm=algorithm,
        tau=tau,
        tree=tree,
        counters=counters,
        **options,
    )
