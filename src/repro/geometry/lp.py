"""Strict feasibility of open half-space intersections.

Cells of the half-space arrangement are intersections of open half-spaces
clipped to a quad-tree leaf (an axis-aligned box).  Deciding whether such a
cell has non-empty interior — and producing a witness point inside it — is
the work-horse primitive of within-leaf processing (paper, Section 5.2),
replacing the authors' use of the Qhull library.

Strict feasibility is decided with a *maximum-slack* program: find a point
``x`` and a slack ``ε`` maximal such that ``a_j · x ≥ b_j + ε · ||a_j||``
for every half-space ``j`` and ``lower + ε ≤ x ≤ upper − ε``.  The system of
open inequalities has an interior point exactly when the optimal ``ε`` is
strictly positive; the normalisation gives ``ε`` the geometric meaning of an
inscribed-ball radius, so the witness point is numerically well inside the
cell.

The slack's floor sits below the most negative slack of the box centre, so
the program is feasible even for an empty cell and ends at an optimum
``ε* ≤ 0``.  The rows tight at that optimum are an *infeasibility core*: by
complementary slackness they carry every optimal dual, so the program over
those rows, the box and nothing else has the same optimum ``ε*``, and any
system containing them is at least as empty.  Within-leaf processing keeps
the cores it is handed and rejects later candidates that contain one without
solving them.

Because a single MaxRank query performs thousands of these tests on systems
with only a handful of variables, the solver matters: it is the library's
own Seidel randomised LP (:mod:`repro.geometry.seidel`), with cheap
vectorised accept/reject screens in front of it.  The tests cross-check it
against ``scipy``'s HiGHS on the same program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import GeometryError
from .halfspace import Halfspace
from .seidel import solve_float_lp

__all__ = [
    "FeasibilityResult",
    "find_interior_point",
    "find_interior_point_arrays",
    "screen_cells_batch",
    "box_row_extremes",
    "simplex_box_row_extremes",
    "MIN_INTERIOR_RADIUS",
    "ACCEPT_MARGIN_FACTOR",
]

#: A cell narrower than this inscribed radius is treated as empty.  The paper
#: ignores score ties; degenerate slivers of (near) zero measure correspond to
#: tie hyperplanes and carry no query-space area.
MIN_INTERIOR_RADIUS = 1e-9

#: Safety factor of the accept screens: a candidate point only certifies a
#: cell as non-empty when every (normalised) constraint margin exceeds
#: ``ACCEPT_MARGIN_FACTOR * MIN_INTERIOR_RADIUS``.  Cells whose inscribed
#: radius falls between the two thresholds go to the exact LP, so the screens
#: never flip a feasibility decision relative to the per-cell solver.
ACCEPT_MARGIN_FACTOR = 10.0

#: Rows whose normalised slack at the optimum lies within this fraction of
#: the box's largest extent above the optimum slack join the core.  Only
#: missing a tight row would be unsound; a loose tolerance merely makes
#: cores larger (and less often matched).
_CORE_TOLERANCE = 1e-7


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a strict-feasibility test.

    Attributes
    ----------
    feasible:
        True when the open intersection has an interior point.
    point:
        A witness interior point (None when infeasible).
    radius:
        The radius of the largest inscribed ball found (0 when infeasible).
    core:
        For an infeasible system decided by the max-slack program with an
        optimum slack of at most ``-ACCEPT_MARGIN_FACTOR * min_radius``: the
        indices of the rows of ``A`` tight at the optimum.  Those rows and
        the box alone are infeasible, and so is every system containing
        them over any sub-box.  ``None`` otherwise.
    """

    feasible: bool
    point: Optional[np.ndarray]
    radius: float
    core: Optional[Tuple[int, ...]] = None


_INFEASIBLE = FeasibilityResult(False, None, 0.0)


def find_interior_point_arrays(
    A: np.ndarray,
    b: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    *,
    min_radius: float = MIN_INTERIOR_RADIUS,
    counters=None,
) -> FeasibilityResult:
    """Find an interior point of ``{x : A x > b} ∩ [lower, upper]``.

    Array-based fast path used by within-leaf processing.  ``A`` is an
    ``(m, k)`` matrix (``m`` may be zero), ``b`` an ``(m,)`` vector and the
    box bounds ``k``-vectors.
    """
    dim = int(lower.shape[0])
    extent = upper - lower
    if np.any(extent <= 0):
        return _INFEASIBLE
    box_radius = float(extent.min()) / 2.0
    centre = (lower + upper) / 2.0

    if A.shape[0] == 0:
        return FeasibilityResult(True, centre, box_radius)

    norms = _safe_norms(A)

    # Quick reject: some half-space cannot be satisfied anywhere in the box.
    max_vals = np.where(A > 0, A * upper, A * lower).sum(axis=1)
    if np.any(max_vals <= b + min_radius * norms):
        return _INFEASIBLE

    # Quick accept: the box centre is already comfortably inside everything.
    margins = (A @ centre - b) / norms
    radius = float(min(margins.min(), box_radius))
    if radius > ACCEPT_MARGIN_FACTOR * min_radius:
        return FeasibilityResult(True, centre, radius)

    if counters is not None:
        counters.lp_calls += 1
    # A slack floor one unit below the centre's worst row keeps the program
    # feasible, so an empty cell ends at an optimum instead of at ``None``.
    floor = -(max(0.0, -float(margins.min())) + 1.0)
    return _solve_with_seidel(
        A, b, norms, lower, upper, min_radius, floor, counters=counters
    )


def _solve_with_seidel(
    A: np.ndarray,
    b: np.ndarray,
    norms: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    min_radius: float,
    floor: float,
    counters=None,
) -> FeasibilityResult:
    """Max-slack feasibility via the library's Seidel LP solver.

    ``floor`` is the slack's lower bound; it lies below the slack of the
    box centre, so the program is feasible and an empty cell yields its
    optimum slack and core.  The constraint-row tally goes to
    ``counters.lp_constraint_rows`` (when counters are supplied) rather
    than any solver-local state, so the accounting survives execution on
    worker processes and merges exactly.
    """
    dim = int(lower.shape[0])
    max_slack = float(np.max(upper - lower))
    if counters is not None:
        counters.lp_constraint_rows += A.shape[0] + 2 * dim
    lo = lower.tolist()
    hi = upper.tolist()
    # a · x - ||a|| t >= b   ->   -a · x + ||a|| t <= -b, each row scaled
    # by 1/||a|| so the solver's tolerances hold at any coefficient scale.
    constraints = [
        (row + [1.0], offset)
        for row, offset in zip((-A / norms[:, None]).tolist(), (-b / norms).tolist())
    ]
    # Keep the witness off the box boundary as well:  x_i ± t within bounds.
    for i in range(dim):
        grow = [0.0] * (dim + 1)
        grow[i] = 1.0
        grow[dim] = 1.0
        constraints.append((grow, hi[i]))
        shrink = [0.0] * (dim + 1)
        shrink[i] = -1.0
        shrink[dim] = 1.0
        constraints.append((shrink, -lo[i]))
    objective = [0.0] * dim + [1.0]
    solution = solve_float_lp(constraints, objective, lo + [floor], hi + [max_slack])
    if solution is None:
        # Only rounding can lose the feasible floor point; no core then.
        return _INFEASIBLE
    radius = float(solution[-1])
    point = np.asarray(solution[:dim], dtype=float)
    if radius > min_radius:
        return FeasibilityResult(True, point, radius)
    if radius > -ACCEPT_MARGIN_FACTOR * min_radius:
        return _INFEASIBLE
    slack = (A @ point - b) / norms
    tolerance = _CORE_TOLERANCE * max_slack
    core = tuple(np.flatnonzero(slack <= radius + tolerance).tolist())
    return FeasibilityResult(False, None, 0.0, core)


def box_row_extremes(
    A: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``(min, max)`` of ``A @ x`` over the box ``[lower, upper]``.

    The extremes of a linear function over an axis-aligned box decompose into
    the positive and the negative coefficient parts, so all rows are handled
    with two matrix–vector products.
    """
    Apos = np.where(A > 0, A, 0.0)
    Aneg = A - Apos
    row_min = Apos @ lower + Aneg @ upper
    row_max = Apos @ upper + Aneg @ lower
    return row_min, row_max


def simplex_box_row_extremes(
    A: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``(min, max)`` of ``A @ x`` over ``{lower ≤ x ≤ upper, Σx ≤ 1}``.

    The box cut by the simplex row of the reduced query space.  Each
    extreme is a fractional knapsack in closed form: start at ``lower`` and
    spend the budget ``1 − Σlower`` on the coordinates in decreasing order of
    the coefficient gained per unit (the maximum buys the positive
    coefficients, the minimum the negative ones), each up to its extent.
    When the whole box lies under the simplex row (``Σupper ≤ 1``) these
    are the :func:`box_row_extremes`, which are returned unchanged.  When
    ``Σlower ≥ 1`` the region holds at most the corner ``lower`` and the
    budget is zero: both extremes are ``A @ lower``.
    """
    if float(upper.sum()) <= 1.0:
        return box_row_extremes(A, lower, upper)
    extent = upper - lower
    budget = max(0.0, 1.0 - float(lower.sum()))
    base = A @ lower

    def best_gain(coefficients: np.ndarray) -> np.ndarray:
        gain = np.maximum(coefficients, 0.0)
        order = np.argsort(-gain, axis=1, kind="stable")
        spans = extent[order]
        spent_before = np.cumsum(spans, axis=1) - spans
        bought = np.clip(budget - spent_before, 0.0, spans)
        return (np.take_along_axis(gain, order, axis=1) * bought).sum(axis=1)

    return base - best_gain(-A), base + best_gain(A)


def _safe_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean row norms of ``A``, with zero norms replaced by 1."""
    norms = np.sqrt(np.einsum("ij,ij->i", A, A))
    return np.where(norms > 0, norms, 1.0)


def screen_cells_batch(
    A: np.ndarray,
    b: np.ndarray,
    signs: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    *,
    base_A: Optional[np.ndarray] = None,
    base_b: Optional[np.ndarray] = None,
    probes: Optional[np.ndarray] = None,
    probe_margins: Optional[np.ndarray] = None,
    probe_valid: Optional[np.ndarray] = None,
    norms: Optional[np.ndarray] = None,
    row_extremes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    base_norms: Optional[np.ndarray] = None,
    base_extremes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    min_radius: float = MIN_INTERIOR_RADIUS,
    counters=None,
) -> Tuple[np.ndarray, list]:
    """Resolve a batch of arrangement cells without per-cell LPs.

    Every candidate cell of one ``(leaf, weight)`` batch shares the same row
    set ``A x ≷ b`` and differs only in the orientation of each row, encoded
    by ``signs`` — a ``(C, m)`` matrix of ``±1`` where row ``c`` describes
    the cell ``{x : signs[c, i] · (A_i · x − b_i) > 0 ∀ i}`` intersected with
    the box ``[lower, upper]`` and the fixed-orientation ``base`` rows.  The
    batches arrive from the prefix-pruned DFS generator of
    :mod:`repro.quadtree.withinleaf`, which already refuses row orientations
    with no room in the box cut by the simplex row
    (:func:`simplex_box_row_extremes`, a stronger bound than this screen's
    box-only one), so within a leaf the reject screen below mainly guards
    degenerate boxes and base-infeasible leaves.

    Two vectorised screens are applied:

    * **reject** — a cell is empty whenever a single row cannot be satisfied
      anywhere in the box; the per-row corner extremes are computed once and
      compared against all orientations at once.  This is exactly the
      quick-reject of :func:`find_interior_point_arrays`, applied batch-wise.
    * **accept** — a panel of probe points (leaf centre, perturbed corners,
      previously found witness points) is evaluated against all rows in one
      matrix product; a probe whose normalised margins all clear the safety
      threshold certifies the unique cell whose bit-string matches the
      probe's sign pattern.  Matching is done on packed bit patterns, so the
      cost is ``O((C + p) · m / 8)`` rather than ``O(C · p · m)``.

    Cells resolved by neither screen must go to the exact per-cell solver
    (:func:`find_interior_point_arrays`); because the accept threshold is
    ``ACCEPT_MARGIN_FACTOR`` times the LP's feasibility radius, the screens
    agree with the solver on every cell they resolve.

    A caller screening many batches over the same rows and box passes the
    row inputs once computed: ``norms`` / ``base_norms`` (row norms with
    zeros replaced by 1) and ``row_extremes`` / ``base_extremes`` (the
    :func:`box_row_extremes` of ``A`` / ``base_A`` over this box).  Omitted
    ones are computed here, identically.

    Returns
    -------
    (status, witnesses)
        ``status`` is an ``int8`` array over cells: ``1`` accepted (non-empty,
        witness available), ``-1`` rejected (empty), ``0`` unresolved.
        ``witnesses`` is a list with a witness point for every accepted cell
        and ``None`` elsewhere.
    """
    n_cells = signs.shape[0]
    status = np.zeros(n_cells, dtype=np.int8)
    witnesses: list = [None] * n_cells
    if n_cells == 0:
        return status, witnesses
    extent = upper - lower
    if np.any(extent <= 0):
        status[:] = -1
        if counters is not None:
            counters.screen_rejects += n_cells
        return status, witnesses

    # ---- reject screen: some row unsatisfiable anywhere in the box --------
    if base_A is not None and base_A.shape[0]:
        if base_norms is None:
            base_norms = _safe_norms(base_A)
        _, base_max = base_extremes or box_row_extremes(base_A, lower, upper)
        if np.any(base_max <= base_b + min_radius * base_norms):
            status[:] = -1
            if counters is not None:
                counters.screen_rejects += n_cells
            return status, witnesses

    m = A.shape[0]
    if m:
        if norms is None:
            norms = _safe_norms(A)
        row_min, row_max = row_extremes or box_row_extremes(A, lower, upper)
        # max of signs[c,i]·(A_i·x) over the box is row_max or -row_min.
        oriented_max = np.where(signs > 0, row_max[None, :], -row_min[None, :])
        rejected = np.any(
            oriented_max <= signs * b[None, :] + min_radius * norms[None, :], axis=1
        )
        status[rejected] = -1

        # ---- accept screen: probe sign patterns certify matching cells ----
        if probe_margins is not None and probe_margins.shape[1]:
            threshold = ACCEPT_MARGIN_FACTOR * min_radius
            usable = probe_valid & (np.abs(probe_margins) > threshold).all(axis=0)
            if np.any(usable):
                usable_idx = np.nonzero(usable)[0]
                probe_bits = probe_margins[:, usable_idx] > 0  # (m, p_usable)
                packed_probe = np.packbits(probe_bits.T, axis=1)
                pattern_to_probe = {}
                for position, j in enumerate(usable_idx):
                    key = packed_probe[position].tobytes()
                    if key not in pattern_to_probe:
                        pattern_to_probe[key] = int(j)
                cell_bits = signs > 0
                packed_cells = np.packbits(cell_bits, axis=1)
                for c in range(n_cells):
                    if status[c]:
                        continue
                    probe_index = pattern_to_probe.get(packed_cells[c].tobytes())
                    if probe_index is not None:
                        status[c] = 1
                        witnesses[c] = probes[probe_index]
    if counters is not None:
        counters.screen_rejects += int(np.count_nonzero(status == -1))
        counters.screen_accepts += int(np.count_nonzero(status == 1))
    return status, witnesses


def find_interior_point(
    halfspaces: Sequence[Halfspace],
    lower: Sequence[float] | np.ndarray,
    upper: Sequence[float] | np.ndarray,
    *,
    min_radius: float = MIN_INTERIOR_RADIUS,
    counters=None,
) -> FeasibilityResult:
    """Find an interior point of ``{x : a_j · x > b_j} ∩ [lower, upper]``.

    Object-based convenience wrapper around
    :func:`find_interior_point_arrays`; see that function for semantics.
    """
    lo = np.asarray(lower, dtype=float).ravel()
    hi = np.asarray(upper, dtype=float).ravel()
    if lo.shape != hi.shape:
        raise GeometryError("box bounds must have identical shapes")
    dim = lo.shape[0]
    halfspaces = list(halfspaces)
    if halfspaces:
        A = np.vstack([h.coefficients for h in halfspaces])
        if A.shape[1] != dim:
            raise GeometryError("half-space dimensionality does not match the box")
        b = np.array([h.offset for h in halfspaces], dtype=float)
    else:
        A = np.zeros((0, dim))
        b = np.zeros(0)
    return find_interior_point_arrays(
        A, b, lo, hi, min_radius=min_radius, counters=counters
    )
