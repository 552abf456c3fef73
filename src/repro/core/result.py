"""Result types returned by the MaxRank algorithms.

A MaxRank answer has two components (paper, Definition 1): the best
achievable order ``k*`` of the focal record, and the set ``T`` of query-space
regions where that order is attained.  For the incremental variant
(Definition 2) the regions additionally cover every order up to ``k* + τ``.

Regions live in the *reduced* query space (dimensionality ``d - 1``).  Each
:class:`MaxRankRegion` carries a geometric description (an interval for
``d = 2``, a convex polytope otherwise), the cell order, the identities of
the records that outscore the focal record inside the region, and helpers to
produce representative full-dimensional query vectors — which is what an
application (market analysis, customer profiling) ultimately consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import AlgorithmError
from ..geometry.halfspace import lift_query_vector
from ..geometry.interval import Interval
from ..geometry.polytope import ConvexPolytope
from ..stats import CostCounters

__all__ = ["MaxRankRegion", "MaxRankResult"]

RegionGeometry = Union[Interval, ConvexPolytope]


@dataclass(frozen=True)
class MaxRankRegion:
    """One region of the query space where the focal record attains a given order.

    Attributes
    ----------
    geometry:
        :class:`Interval` (``d = 2``) or :class:`ConvexPolytope` (``d ≥ 3``)
        in the reduced query space.
    cell_order:
        Number of incomparable records outscoring the focal record inside
        the region (``|H_c|`` in the paper).
    order:
        The focal record's order inside the region
        (``|D+| + cell_order + 1``).
    outscored_by:
        Record ids of the incomparable records that outscore the focal
        record inside the region (``R_c``), when known.
    """

    geometry: RegionGeometry
    cell_order: int
    order: int
    outscored_by: Tuple[int, ...] = ()

    @property
    def reduced_dim(self) -> int:
        """Dimensionality of the reduced query space the region lives in."""
        if isinstance(self.geometry, Interval):
            return 1
        return self.geometry.dim

    def representative_reduced_point(self) -> np.ndarray:
        """A point of the reduced query space strictly inside the region."""
        if isinstance(self.geometry, Interval):
            return np.array([self.geometry.midpoint])
        return self.geometry.interior_point()

    def representative_query(self) -> np.ndarray:
        """A full ``d``-dimensional permissible query vector inside the region."""
        return lift_query_vector(self.representative_reduced_point())

    def sample_queries(self, count: int = 5, rng: Optional[np.random.Generator] = None
                       ) -> List[np.ndarray]:
        """Sample ``count`` permissible query vectors from the region."""
        rng = rng or np.random.default_rng(0)
        if isinstance(self.geometry, Interval):
            low, high = self.geometry.low, self.geometry.high
            picks = rng.uniform(low, high, size=count)
            return [lift_query_vector(np.array([value])) for value in picks]
        points = self.geometry.sample(count, rng=rng)
        return [lift_query_vector(point) for point in points]

    def contains_query(self, query: Sequence[float] | np.ndarray) -> bool:
        """True when the (full-dimensional) query vector falls inside the region."""
        q = np.asarray(query, dtype=float).ravel()
        total = float(q.sum())
        if total <= 0:
            return False
        reduced = q[:-1] / total
        if isinstance(self.geometry, Interval):
            return self.geometry.contains(float(reduced[0]))
        return self.geometry.contains(reduced)

    def volume(self) -> float:
        """Measure of the region in the reduced query space (length / area / volume)."""
        if isinstance(self.geometry, Interval):
            return self.geometry.length
        return self.geometry.volume()


@dataclass
class MaxRankResult:
    """Complete answer of a MaxRank / iMaxRank query.

    Attributes
    ----------
    k_star:
        Best order achievable by the focal record over all permissible
        query vectors.
    regions:
        The regions of the query space; for ``tau = 0`` they all have
        ``order == k_star``, for iMaxRank orders range up to ``k_star + tau``.
    dominator_count:
        ``|D+|`` — number of records dominating the focal record.
    minimum_cell_order:
        ``k_star - dominator_count - 1``; the minimum arrangement cell order.
    tau:
        The iMaxRank slack used (0 for plain MaxRank).
    algorithm:
        Name of the algorithm that produced the result.
    counters:
        Cost counters accumulated while processing the query.
    cpu_seconds:
        Wall-clock processing time.
    focal:
        Coordinates of the focal record.
    materialised_ids:
        Ids of every record whose half-space the computation materialised
        (staged or expanded) — the answer's *provenance scope*.  A record
        outside this set provably never influenced the reported regions, so
        the mutable service layer uses the scope to decide whether an
        insert/delete can leave a cached answer byte-identical (see
        :meth:`repro.service.cache.QueryCache`).  ``None`` when the
        producing algorithm does not track provenance (BA, FCA, the
        brute-force oracles); scope-less answers are always conservatively
        invalidated.
    """

    k_star: int
    regions: List[MaxRankRegion]
    dominator_count: int
    minimum_cell_order: int
    tau: int
    algorithm: str
    counters: CostCounters = field(default_factory=CostCounters)
    cpu_seconds: float = 0.0
    focal: Optional[np.ndarray] = None
    materialised_ids: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if self.k_star < 1:
            raise AlgorithmError(f"k_star must be at least 1, got {self.k_star}")
        if self.tau < 0:
            raise AlgorithmError(f"tau must be non-negative, got {self.tau}")

    # ---------------------------------------------------------------- queries
    @property
    def region_count(self) -> int:
        """``|T|`` — number of reported regions."""
        return len(self.regions)

    @property
    def io_cost(self) -> int:
        """Simulated page accesses charged while answering the query."""
        return self.counters.page_reads

    def regions_at(self, order: int) -> List[MaxRankRegion]:
        """Regions where the focal record attains exactly ``order``."""
        return [region for region in self.regions if region.order == order]

    def best_regions(self) -> List[MaxRankRegion]:
        """Regions where the focal record attains ``k_star``."""
        return self.regions_at(self.k_star)

    def total_volume(self) -> float:
        """Total reduced-query-space measure of all reported regions."""
        return float(sum(region.volume() for region in self.regions))

    def representative_queries(self) -> List[np.ndarray]:
        """One representative permissible query vector per region."""
        return [region.representative_query() for region in self.regions]

    def summary(self) -> str:
        """One-line human-readable summary (used by the examples)."""
        return (
            f"{self.algorithm}: k*={self.k_star} "
            f"(dominators={self.dominator_count}, min cell order={self.minimum_cell_order}), "
            f"|T|={self.region_count}, tau={self.tau}, "
            f"cpu={self.cpu_seconds:.3f}s, io={self.io_cost} pages"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MaxRankResult({self.summary()})"
