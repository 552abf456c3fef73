"""Incremental planar line-arrangement over a convex region.

For data dimensionality ``d = 3`` the reduced query space is a plane, so the
within-leaf arrangement of a quad-tree leaf is a *planar* arrangement of the
partial half-planes' supporting lines, restricted to the convex region
``leaf box ∩ permissible simplex``.  Instead of enumerating candidate
bit-strings weight by weight (``C(m, w)`` of them) and clipping each one,
the whole arrangement can be built **once**, in ``O(m²)`` face splits, and
every face read off together with its exact *cover set* — the bitset of
half-planes containing it.  That is what :class:`PlanarArrangement`
provides, and what :mod:`repro.quadtree.withinleaf` consumes as the ``d = 3``
fast path (see ``use_planar``).

Representation
--------------
The arrangement is stored face-first: a list of convex polygons (CCW vertex
arrays) that partition the region, each carrying an integer bitset ``mask``
whose bit ``i`` is set exactly when the face lies inside the ``i``-th
inserted half-plane.  Inserting a line walks the current faces and splits
every face the line crosses (Sutherland–Hodgman clipping against both
orientations); faces on one side keep their vertices verbatim, so repeated
insertion does not erode the geometry.  The vertex/edge structure is derived
from the faces on demand (:meth:`PlanarArrangement.vertex_edge_face_counts`)
— enough for the Euler-characteristic invariants the tests pin, without the
bookkeeping of a full DCEL.

Equivalence contract
--------------------
The arrangement is used for *discovery only*: it over-approximates the set
of non-empty cells (its face-retention threshold :data:`SPLIT_MIN_AREA` is
below the area of the smallest ball the LP emptiness rule accepts), and
every discovered cover set is re-certified by the same per-bit-string cell
test the generic path runs.  A cell the generic path reports therefore
intersects at least one retained face with the identical cover set, and
every candidate the sweep proposes passes or fails the identical final
test — which is what makes the planar and the generic engine bit-identical
(the differential harness in ``tests/test_differential.py`` cross-checks
this on randomized workloads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GeometryError
from ..stats import CostCounters
from .clipping import box_polygon, clip_polygon, polygon_area
from .halfspace import Halfspace

__all__ = ["PlanarFace", "PlanarArrangement", "SPLIT_MIN_AREA"]

#: Faces whose area falls below this threshold are dropped during a split.
#: The sweep relies on ``1e-18 < π·MIN_INTERIOR_RADIUS²`` (about 3.1e-18):
#: a cell the LP rule calls non-empty holds a ball of radius
#: ``MIN_INTERIOR_RADIUS``, so its area exceeds this threshold and it
#: survives as a face.  The arrangement thus *over*-approximates the
#: non-empty cells, and the per-cell re-certification — not the sweep — is
#: the authority on emptiness.
SPLIT_MIN_AREA = 1e-18


def _cover_positions(mask: int) -> Tuple[int, ...]:
    """Bit positions set in ``mask``, in increasing order."""
    positions = []
    position = 0
    while mask:
        if mask & 1:
            positions.append(position)
        mask >>= 1
        position += 1
    return tuple(positions)


def _fast_area(vertices: np.ndarray) -> float:
    """Shoelace area without the ``np.roll`` temporaries (hot path)."""
    if vertices.shape[0] < 3:
        return 0.0
    x = vertices[:, 0]
    y = vertices[:, 1]
    cross = x @ np.concatenate([y[1:], y[:1]]) - y @ np.concatenate([x[1:], x[:1]])
    return abs(float(cross)) / 2.0


def _split_polygon(
    vertices: np.ndarray, values: np.ndarray
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Split a convex polygon by the zero set of per-vertex line values.

    ``values[i]`` is the (signed) evaluation of the splitting line at vertex
    ``i``.  Returns ``(inside, outside)`` vertex arrays — the parts with
    ``values ≥ 0`` and ``values ≤ 0`` — using exactly the edge-interpolation
    formula of :func:`repro.geometry.clipping.clip_polygon`, without
    constructing intermediate :class:`Halfspace` objects.  Parts with fewer
    than 3 vertices come back as ``None``.
    """
    inside: List[np.ndarray] = []
    outside: List[np.ndarray] = []
    m = len(vertices)
    for i in range(m):
        j = (i + 1) % m
        current = vertices[i]
        val_c = values[i]
        val_n = values[j]
        if val_c >= 0:
            inside.append(current)
        if val_c <= 0:
            outside.append(current)
        if (val_c > 0 and val_n < 0) or (val_c < 0 and val_n > 0):
            t = val_c / (val_c - val_n)
            point = current + t * (vertices[j] - current)
            inside.append(point)
            outside.append(point)
    return (
        np.asarray(inside, dtype=float) if len(inside) >= 3 else None,
        np.asarray(outside, dtype=float) if len(outside) >= 3 else None,
    )


@dataclass(frozen=True)
class PlanarFace:
    """One face of the arrangement: a convex polygon plus its cover bitset.

    Attributes
    ----------
    vertices:
        ``(k, 2)`` CCW vertex array of the face polygon.
    mask:
        Integer bitset over the inserted lines, in insertion order: bit ``i``
        is set exactly when the face lies inside the ``i``-th half-plane.
    """

    vertices: np.ndarray
    mask: int

    def area(self) -> float:
        """Area of the face polygon."""
        return polygon_area(self.vertices)

    def cover_positions(self) -> Tuple[int, ...]:
        """Positions (insertion indices) of the half-planes covering the face."""
        return _cover_positions(self.mask)


class PlanarArrangement:
    """Incremental arrangement of half-plane boundary lines over a convex region.

    Parameters
    ----------
    region:
        CCW vertex array of the convex region the arrangement lives in, or
        ``None`` for an empty region (the arrangement then has no faces and
        inserts are no-ops on the face set).

    The object is picklable and cheap to :meth:`copy` (faces are never
    mutated in place, so copies share vertex arrays), which is how AA
    re-scans retain a leaf's arrangement across iterations and how the
    execution engine ships it into worker processes.
    """

    def __init__(self, region: Optional[np.ndarray]) -> None:
        if region is not None:
            region = np.asarray(region, dtype=float)
            if region.ndim != 2 or region.shape[1] != 2:
                raise GeometryError("the arrangement region must be a (k, 2) polygon")
            if polygon_area(region) <= SPLIT_MIN_AREA:
                region = None
        #: the initial convex region (None when empty)
        self.region: Optional[np.ndarray] = region
        self._face_polygons: List[np.ndarray] = [] if region is None else [region]
        self._face_masks: List[int] = [] if region is None else [0]
        #: inserted half-planes, in insertion order (bit positions)
        self.lines: List[Halfspace] = []
        #: external ids of the inserted half-planes, in insertion order
        self.line_ids: Tuple[int, ...] = ()
        #: leaf box the arrangement was built for (set by :meth:`for_leaf`);
        #: consumers verify it before adopting a shipped/retained arrangement
        self.lower: Optional[np.ndarray] = None
        self.upper: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ sizes
    @property
    def line_count(self) -> int:
        """Number of half-planes inserted so far."""
        return len(self.lines)

    @property
    def face_count(self) -> int:
        """Number of faces currently partitioning the region."""
        return len(self._face_polygons)

    def __len__(self) -> int:
        return len(self._face_polygons)

    # ------------------------------------------------------------------ build
    @classmethod
    def for_leaf(
        cls,
        lower: Sequence[float] | np.ndarray,
        upper: Sequence[float] | np.ndarray,
        base_constraints: Sequence[Halfspace] = (),
    ) -> "PlanarArrangement":
        """Arrangement over ``[lower, upper] ∩ base_constraints`` (2-D only).

        Mirrors the clipping sequence of the within-leaf emptiness test: the
        leaf box polygon is clipped by each base (permissible-simplex)
        constraint in order; an empty intersection yields an arrangement
        with no faces.
        """
        polygon: Optional[np.ndarray] = box_polygon(lower, upper)
        for constraint in base_constraints:
            polygon = clip_polygon(polygon, constraint)
            if polygon is None:
                break
        arrangement = cls(polygon)
        arrangement.lower = np.asarray(lower, dtype=float).ravel()
        arrangement.upper = np.asarray(upper, dtype=float).ravel()
        return arrangement

    def matches_box(
        self,
        lower: Sequence[float] | np.ndarray,
        upper: Sequence[float] | np.ndarray,
    ) -> bool:
        """True when the arrangement was built for exactly this leaf box."""
        return (
            self.lower is not None
            and self.upper is not None
            and np.array_equal(self.lower, np.asarray(lower, dtype=float).ravel())
            and np.array_equal(self.upper, np.asarray(upper, dtype=float).ravel())
        )

    def copy(self) -> "PlanarArrangement":
        """Cheap copy sharing the (immutable) face vertex arrays."""
        clone = PlanarArrangement(None)
        clone.region = self.region
        clone._face_polygons = list(self._face_polygons)
        clone._face_masks = list(self._face_masks)
        clone.lines = list(self.lines)
        clone.line_ids = self.line_ids
        clone.lower = self.lower
        clone.upper = self.upper
        return clone

    def insert(
        self,
        line_id: int,
        halfspace: Halfspace,
        *,
        counters: Optional[CostCounters] = None,
    ) -> None:
        """Insert one half-plane: split every face its boundary line crosses.

        Faces entirely on one side keep their vertex arrays verbatim (only
        the mask of the inside ones gains the new bit); crossed faces are
        replaced by their two clipped parts.  Parts whose area falls below
        :data:`SPLIT_MIN_AREA` are dropped — their face then counts as
        entirely on the other side.
        """
        if halfspace.dim != 2:
            raise GeometryError("PlanarArrangement requires 2-D half-planes")
        position = len(self.lines)
        self.lines.append(halfspace)
        self.line_ids = self.line_ids + (line_id,)
        if counters is not None:
            counters.lines_inserted += 1
        if not self._face_polygons:
            return
        bit = 1 << position
        # Classify every face against the line in one shot: stack all face
        # vertices, evaluate the linear form once, and reduce per face.
        # Most faces are not crossed, so the Python-level clipping below
        # only runs for the (few) faces in the line's zone.
        stacked = np.concatenate(self._face_polygons, axis=0)
        values = stacked @ halfspace.coefficients - halfspace.offset
        sizes = np.fromiter(
            (polygon.shape[0] for polygon in self._face_polygons),
            dtype=np.intp,
            count=len(self._face_polygons),
        )
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        face_min = np.minimum.reduceat(values, offsets)
        face_max = np.maximum.reduceat(values, offsets)
        fully_inside = face_min >= 0.0
        fully_outside = face_max <= 0.0
        crossed = ~(fully_inside | fully_outside)
        if not crossed.any():
            self._face_masks = [
                mask | bit if inside else mask
                for mask, inside in zip(self._face_masks, fully_inside)
            ]
            return
        polygons: List[np.ndarray] = []
        masks: List[int] = []
        for index, (vertices, mask) in enumerate(
            zip(self._face_polygons, self._face_masks)
        ):
            if fully_inside[index]:
                # Entirely inside (boundary touching allowed).
                polygons.append(vertices)
                masks.append(mask | bit)
                continue
            if fully_outside[index]:
                polygons.append(vertices)
                masks.append(mask)
                continue
            face_values = values[offsets[index]: offsets[index] + sizes[index]]
            inside, outside = _split_polygon(vertices, face_values)
            inside_area = _fast_area(inside) if inside is not None else 0.0
            outside_area = _fast_area(outside) if outside is not None else 0.0
            if outside_area <= SPLIT_MIN_AREA:
                polygons.append(vertices)
                masks.append(mask | bit)
            elif inside_area <= SPLIT_MIN_AREA:
                polygons.append(vertices)
                masks.append(mask)
            else:
                polygons.append(inside)
                masks.append(mask | bit)
                polygons.append(outside)
                masks.append(mask)
        self._face_polygons = polygons
        self._face_masks = masks

    def insert_many(
        self,
        pairs: Iterable[Tuple[int, Halfspace]],
        *,
        counters: Optional[CostCounters] = None,
    ) -> None:
        """Insert ``(line_id, halfspace)`` pairs in order."""
        for line_id, halfspace in pairs:
            self.insert(line_id, halfspace, counters=counters)

    # ------------------------------------------------------------ enumeration
    def faces(self) -> List[PlanarFace]:
        """Every face of the arrangement with its cover bitset."""
        return [
            PlanarFace(vertices=vertices, mask=mask)
            for vertices, mask in zip(self._face_polygons, self._face_masks)
        ]

    def face_areas(self) -> List[float]:
        """Areas of all faces (they partition the region)."""
        return [polygon_area(vertices) for vertices in self._face_polygons]

    def cover_ids(self, mask: int) -> Tuple[int, ...]:
        """External line ids selected by a face mask, in insertion order."""
        return tuple(
            self.line_ids[position]
            for position in range(len(self.line_ids))
            if mask & (1 << position)
        )

    def distinct_masks(self) -> List[int]:
        """The distinct cover bitsets over all faces (deduplicated).

        A cell of the arrangement is convex, hence connected; numerically a
        cell can surface as several face fragments with the same mask, so
        consumers work with the deduplicated mask set.
        """
        return sorted(set(self._face_masks))

    def positions_by_weight(self) -> Dict[int, List[Tuple[int, ...]]]:
        """Distinct cover sets grouped by weight (number of covering lines).

        Returns ``{weight: [ones, ...]}`` where each ``ones`` tuple lists the
        covering line *positions* in increasing order; within one weight the
        tuples are in lexicographic order — the enumeration order of
        ``itertools.combinations``, which keeps the planar sweep's candidate
        stream aligned with the generic path's.
        """
        by_weight: Dict[int, List[Tuple[int, ...]]] = {}
        seen = set()
        for mask in self._face_masks:
            if mask in seen:
                continue
            seen.add(mask)
            ones = _cover_positions(mask)
            by_weight.setdefault(len(ones), []).append(ones)
        for ones_list in by_weight.values():
            ones_list.sort()
        return by_weight

    # -------------------------------------------------------------- structure
    def vertex_edge_face_counts(self, *, decimals: int = 9) -> Tuple[int, int, int]:
        """Derived ``(V, E, F)`` of the planar subdivision (outer face excluded).

        Vertices and edges are extracted from the face polygons with
        coordinates rounded to ``decimals`` for identification.  For a
        subdivision of a convex region (a disk), Euler's formula gives
        ``V − E + F = 1`` when the outer face is not counted — the invariant
        the metamorphic tests assert on well-conditioned inputs.
        """
        vertices = set()
        edges = set()
        for polygon in self._face_polygons:
            rounded = [tuple(np.round(vertex, decimals)) for vertex in polygon]
            count = len(rounded)
            for index, vertex in enumerate(rounded):
                vertices.add(vertex)
                other = rounded[(index + 1) % count]
                if vertex != other:
                    edges.add(frozenset((vertex, other)))
        return len(vertices), len(edges), len(self._face_polygons)
