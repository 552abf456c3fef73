"""Half-spaces of the reduced query space.

Section 5 of the paper maps every record ``r`` that is incomparable to the
focal record ``p`` into a half-space of the *reduced query space*: the
``(d-1)``-dimensional space of weights ``q_1 .. q_{d-1}`` obtained after
eliminating ``q_d = 1 - Σ_{i<d} q_i``.  The record scores higher than the
focal record exactly when the query vector lies inside its half-space:

    Σ_{i<d} (r_i − r_d − p_i + p_d) q_i  >  p_d − r_d

This module provides the :class:`Halfspace` primitive (an open half-space
``a · x > b``), the record-to-half-space mapping, the constraints that define
the permissible region of the reduced query space, and the box-relation test
used by the quad-tree to classify a half-space as fully containing, partially
overlapping or disjoint from an axis-aligned cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GeometryError

__all__ = [
    "BoxRelation",
    "Halfspace",
    "halfspace_for_record",
    "reduced_space_constraints",
    "reduce_query_vector",
    "lift_query_vector",
]

#: Numerical slack used for classifying degenerate touching configurations.
EPSILON = 1e-9


class BoxRelation(Enum):
    """Relation between a half-space and an axis-aligned box."""

    CONTAINS = "contains"      #: the half-space fully contains the box
    OVERLAPS = "overlaps"      #: the supporting hyperplane crosses the box
    DISJOINT = "disjoint"      #: the half-space does not touch the box interior


@dataclass(frozen=True, eq=False)
class Halfspace:
    """An open half-space ``{x : a · x > b}`` of the reduced query space.

    Attributes
    ----------
    coefficients:
        The normal vector ``a`` (length ``d - 1``).
    offset:
        The right-hand side ``b``.
    record_id:
        Optional identifier of the data record that induced the half-space.
    augmented:
        Whether the half-space is *augmented* in the sense of the advanced
        approach (it implicitly subsumes the half-spaces of records dominated
        by its inducing record).  Singular half-spaces have ``augmented=False``.
    """

    coefficients: np.ndarray
    offset: float
    record_id: Optional[int] = None
    augmented: bool = False

    def __init__(
        self,
        coefficients: Sequence[float] | np.ndarray,
        offset: float,
        record_id: Optional[int] = None,
        augmented: bool = False,
    ) -> None:
        coeffs = np.asarray(coefficients, dtype=float).ravel()
        if coeffs.size == 0:
            raise GeometryError("a half-space needs at least one coefficient")
        if not np.isfinite(coeffs).all() or not np.isfinite(offset):
            raise GeometryError("half-space coefficients must be finite")
        if np.allclose(coeffs, 0.0):
            raise GeometryError("half-space normal vector must be non-zero")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "offset", float(offset))
        object.__setattr__(self, "record_id", record_id)
        object.__setattr__(self, "augmented", bool(augmented))
        # Plain-float copy used by scalar hot paths (quad-tree classification).
        object.__setattr__(self, "coefficients_t", tuple(float(v) for v in coeffs))

    def __getstate__(self) -> dict:
        """Pickle without the complement cache (rebuilt lazily; avoids
        doubling the payload of every shipped half-space)."""
        state = dict(self.__dict__)
        state.pop("_complement", None)
        return state

    # ----------------------------------------------------------- basic algebra
    @property
    def dim(self) -> int:
        """Dimensionality of the (reduced) space the half-space lives in."""
        return int(self.coefficients.shape[0])

    def evaluate(self, point: Sequence[float] | np.ndarray) -> float:
        """Return ``a · x − b`` (positive inside, negative outside)."""
        x = np.asarray(point, dtype=float).ravel()
        if x.shape[0] != self.dim:
            raise GeometryError(
                f"point has dimension {x.shape[0]}, half-space has {self.dim}"
            )
        return float(self.coefficients @ x - self.offset)

    def contains_point(self, point: Sequence[float] | np.ndarray, *, tol: float = 0.0) -> bool:
        """True when the point lies strictly inside (up to ``tol``)."""
        return self.evaluate(point) > tol

    def complement(self) -> "Halfspace":
        """Return the complementary (closed boundary flips side) half-space ``a · x < b``.

        The complement is represented as ``(-a) · x > (-b)``; boundary points
        are considered part of neither half-space, consistent with the
        paper's ignore-ties convention.

        The result is cached on the instance (and the cache is linked both
        ways, since negation is exact in floating point): ``complement()`` is
        called on every oriented clip/constraint construction of the hot
        within-leaf paths, and re-validating a normal vector that is already
        known to be valid wasted a measurable share of re-scan time.
        """
        cached = getattr(self, "_complement", None)
        if cached is None:
            cached = Halfspace.__new__(Halfspace)
            coeffs = -self.coefficients
            coeffs.setflags(write=False)
            object.__setattr__(cached, "coefficients", coeffs)
            object.__setattr__(cached, "offset", -self.offset)
            object.__setattr__(cached, "record_id", self.record_id)
            object.__setattr__(cached, "augmented", self.augmented)
            object.__setattr__(
                cached, "coefficients_t", tuple(float(v) for v in coeffs)
            )
            object.__setattr__(self, "_complement", cached)
            object.__setattr__(cached, "_complement", self)
        return cached

    def with_flags(self, *, augmented: Optional[bool] = None) -> "Halfspace":
        """Return a copy with the ``augmented`` flag replaced."""
        return Halfspace(
            self.coefficients,
            self.offset,
            record_id=self.record_id,
            augmented=self.augmented if augmented is None else augmented,
        )

    # ------------------------------------------------------------ box relation
    def extremes_over_box(
        self, lower: Sequence[float] | np.ndarray, upper: Sequence[float] | np.ndarray
    ) -> tuple:
        """Return ``(min, max)`` of ``a · x`` over the axis-aligned box.

        The extremes of a linear function over a box are attained at corners
        selected coordinate-wise by the sign of the corresponding coefficient.
        """
        lo = np.asarray(lower, dtype=float).ravel()
        hi = np.asarray(upper, dtype=float).ravel()
        if lo.shape[0] != self.dim or hi.shape[0] != self.dim:
            raise GeometryError("box bounds must match the half-space dimensionality")
        pos = self.coefficients > 0
        min_val = float(self.coefficients @ np.where(pos, lo, hi))
        max_val = float(self.coefficients @ np.where(pos, hi, lo))
        return min_val, max_val

    def relation_to_box(
        self,
        lower: Sequence[float] | np.ndarray,
        upper: Sequence[float] | np.ndarray,
        *,
        tol: float = EPSILON,
    ) -> BoxRelation:
        """Classify the half-space against an axis-aligned box.

        ``CONTAINS`` means every box point satisfies ``a · x > b``;
        ``DISJOINT`` means no box point does; otherwise ``OVERLAPS``.
        """
        min_val, max_val = self.extremes_over_box(lower, upper)
        if min_val > self.offset + tol:
            return BoxRelation.CONTAINS
        if max_val <= self.offset + tol:
            return BoxRelation.DISJOINT
        return BoxRelation.OVERLAPS

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "aug" if self.augmented else "sng"
        return (
            f"Halfspace(record={self.record_id}, {tag}, "
            f"a={np.array2string(self.coefficients, precision=3)}, b={self.offset:.3f})"
        )


def halfspace_for_record(
    record: Sequence[float] | np.ndarray,
    focal: Sequence[float] | np.ndarray,
    record_id: Optional[int] = None,
    *,
    augmented: bool = False,
) -> Halfspace:
    """Map an incomparable record to its reduced-query-space half-space.

    The returned half-space contains exactly the reduced query vectors
    ``(q_1, .., q_{d-1})`` for which ``S(record) > S(focal)``.
    """
    r = np.asarray(record, dtype=float).ravel()
    p = np.asarray(focal, dtype=float).ravel()
    if r.shape != p.shape:
        raise GeometryError("record and focal record must have the same dimensionality")
    d = r.shape[0]
    if d < 2:
        raise GeometryError("the reduced query space requires d >= 2")
    coefficients = (r[:-1] - r[-1]) - (p[:-1] - p[-1])
    offset = float(p[-1] - r[-1])
    if np.allclose(coefficients, 0.0):
        # The two records score identically up to the constant difference in
        # the last attribute: the half-space is either the whole space or
        # empty.  Such a pair is not "incomparable" in any meaningful way for
        # the arrangement; callers should have filtered it out, so we signal
        # the degenerate case explicitly.
        raise GeometryError(
            "record induces a degenerate half-space (parallel score functions); "
            "it is either a dominator or a dominee of the focal record"
        )
    return Halfspace(coefficients, offset, record_id=record_id, augmented=augmented)


def reduced_space_constraints(reduced_dim: int) -> List[Halfspace]:
    """Return the half-spaces bounding the permissible reduced query space.

    The permissible region is the open simplex ``q_i > 0`` for ``i < d`` and
    ``Σ_{i<d} q_i < 1`` (so that the eliminated weight ``q_d`` stays
    positive).  Each constraint is returned as a :class:`Halfspace` with
    ``record_id=None``.

    The half-spaces are built once per dimensionality and shared (they are
    immutable); the list itself is fresh, so callers may extend it.
    """
    if reduced_dim < 1:
        raise GeometryError("the reduced query space must have at least one dimension")
    return list(_simplex_constraints(reduced_dim))


@lru_cache(maxsize=None)
def _simplex_constraints(reduced_dim: int) -> Tuple[Halfspace, ...]:
    constraints: List[Halfspace] = []
    for i in range(reduced_dim):
        axis = np.zeros(reduced_dim)
        axis[i] = 1.0
        constraints.append(Halfspace(axis, 0.0))
    constraints.append(Halfspace(-np.ones(reduced_dim), -1.0))
    return tuple(constraints)


def reduce_query_vector(query: Sequence[float] | np.ndarray) -> np.ndarray:
    """Project a full d-dimensional permissible vector to the reduced space."""
    q = np.asarray(query, dtype=float).ravel()
    if q.shape[0] < 2:
        raise GeometryError("query vectors must have at least two weights")
    total = float(q.sum())
    if total <= 0:
        raise GeometryError("query vector weights must have a positive sum")
    return q[:-1] / total


def lift_query_vector(reduced: Sequence[float] | np.ndarray) -> np.ndarray:
    """Lift a reduced-space point back to a full normalised query vector."""
    x = np.asarray(reduced, dtype=float).ravel()
    last = 1.0 - float(x.sum())
    if (x <= 0).any() or last <= 0:
        raise GeometryError(
            "reduced point does not correspond to a permissible query vector"
        )
    return np.append(x, last)
