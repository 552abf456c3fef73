"""Tests for the LP feasibility layer: the Seidel solver, its infeasibility
cores and their cross-check against scipy's HiGHS."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Halfspace, find_interior_point
from repro.geometry.lp import MIN_INTERIOR_RADIUS, find_interior_point_arrays
from repro.geometry.seidel import solve_lp


class TestSeidelSolver:
    def test_box_only_optimum(self):
        x = solve_lp([], [1.0, 1.0], [0.0, 0.0], [2.0, 3.0])
        assert x == pytest.approx([2.0, 3.0])

    def test_single_constraint_binds(self):
        # maximise x subject to x <= 0.5 within [0, 1]
        x = solve_lp([(([1.0]), 0.5)], [1.0], [0.0], [1.0])
        assert x[0] == pytest.approx(0.5)

    def test_infeasible_detected(self):
        # x <= 0.2 and -x <= -0.8 (i.e. x >= 0.8) cannot both hold
        constraints = [([1.0], 0.2), ([-1.0], -0.8)]
        assert solve_lp(constraints, [1.0], [0.0], [1.0]) is None

    def test_two_dimensional_vertex_optimum(self):
        # maximise x + y subject to x + y <= 1 within the unit box
        constraints = [([1.0, 1.0], 1.0)]
        x = solve_lp(constraints, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        assert x[0] + x[1] == pytest.approx(1.0)

    def test_empty_box_infeasible(self):
        assert solve_lp([], [1.0], [1.0], [0.0]) is None

    @given(seed=st.integers(0, 500), m=st.integers(0, 15), k=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_on_random_systems(self, seed, m, k):
        """Feasibility decisions must agree with scipy's HiGHS on random
        systems, and every core must be infeasible under HiGHS on its own."""
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(m, k))
        b = rng.normal(size=m) * 0.3
        lower = np.zeros(k)
        upper = np.ones(k)
        ours = find_interior_point_arrays(A, b, lower, upper)
        reference = highs_max_slack(A, b, lower, upper)
        if max(ours.radius, reference) > 1e-6:
            assert ours.feasible == (reference > MIN_INTERIOR_RADIUS)
        if ours.feasible:
            margins = A @ ours.point - b if m else np.array([1.0])
            assert (margins > 0).all()
            assert (ours.point >= lower - 1e-9).all()
            assert (ours.point <= upper + 1e-9).all()
        elif ours.core is not None:
            core = list(ours.core)
            assert highs_max_slack(A[core], b[core], lower, upper) <= MIN_INTERIOR_RADIUS


def highs_max_slack(A, b, lower, upper):
    """Optimum slack of the max-slack program under HiGHS (``-inf`` when it
    is infeasible with a slack floor of 0)."""
    from scipy.optimize import linprog

    k = lower.shape[0]
    norms = np.linalg.norm(A, axis=1) if A.shape[0] else np.zeros(0)
    # a · x - ||a|| t >= b and lower + t <= x <= upper - t
    box = np.hstack([np.vstack([np.eye(k), -np.eye(k)]), np.ones((2 * k, 1))])
    A_ub = np.vstack([np.hstack([-A, np.where(norms > 0, norms, 1.0)[:, None]]), box])
    b_ub = np.concatenate([-b, upper, -lower])
    c = np.zeros(k + 1)
    c[-1] = -1.0
    bounds = [(float(l), float(h)) for l, h in zip(lower, upper)]
    bounds.append((0.0, float(np.max(upper - lower))))
    result = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    return float(result.x[-1]) if result.success else -np.inf


class TestFindInteriorPoint:
    def test_no_constraints_returns_centre(self):
        result = find_interior_point([], [0.0, 0.0], [1.0, 1.0])
        assert result.feasible
        assert np.allclose(result.point, [0.5, 0.5])

    def test_simple_halfplane(self):
        h = Halfspace([1.0, 0.0], 0.5)
        result = find_interior_point([h], [0.0, 0.0], [1.0, 1.0])
        assert result.feasible
        assert result.point[0] > 0.5

    def test_contradictory_halfplanes(self):
        h = Halfspace([1.0, 0.0], 0.7)
        result = find_interior_point([h, h.complement()], [0.0, 0.0], [1.0, 1.0])
        assert not result.feasible
        assert result.point is None

    def test_core_names_the_contradicting_rows(self):
        """The rows tight at the max-slack optimum of an empty cell are its
        core; a row that is satisfiable beside them stays out."""
        right = Halfspace([1.0, 0.0], 0.7)
        left = Halfspace([-1.0, 0.0], -0.6)
        free = Halfspace([0.0, 1.0], 0.1)
        result = find_interior_point([free, right, left], [0.0, 0.0], [1.0, 1.0])
        assert not result.feasible
        assert result.core == (1, 2)

    def test_touching_cell_has_no_core(self):
        """A cell of zero width is empty, but its optimum slack is 0, above
        the margin a core needs."""
        h = Halfspace([1.0, 0.0], 0.7)
        result = find_interior_point([h, h.complement()], [0.0, 0.0], [1.0, 1.0])
        assert not result.feasible and result.core is None

    def test_feasible_cell_has_no_core(self):
        h = Halfspace([1.0, 1.0], 0.5)
        assert find_interior_point([h], [0.0, 0.0], [1.0, 1.0]).core is None

    def test_halfspace_outside_box(self):
        h = Halfspace([1.0, 0.0], 5.0)
        result = find_interior_point([h], [0.0, 0.0], [1.0, 1.0])
        assert not result.feasible

    def test_degenerate_box(self):
        h = Halfspace([1.0, 0.0], 0.1)
        result = find_interior_point([h], [0.5, 0.5], [0.5, 0.5])
        assert not result.feasible

    def test_thin_slab_still_found(self):
        lo_cut = Halfspace([1.0, 0.0], 0.499)
        hi_cut = Halfspace([-1.0, 0.0], -0.501)
        result = find_interior_point([lo_cut, hi_cut], [0.0, 0.0], [1.0, 1.0])
        assert result.feasible
        assert 0.499 < result.point[0] < 0.501

    def test_witness_respects_every_constraint(self, rng):
        for _ in range(20):
            halfspaces = [
                Halfspace(rng.normal(size=3), rng.normal() * 0.2) for _ in range(8)
            ]
            result = find_interior_point(halfspaces, np.zeros(3), np.ones(3))
            if result.feasible:
                for h in halfspaces:
                    assert h.evaluate(result.point) > 0

    #: ``(a1, a2, b)`` rows of ``scale * a1 * x1 + a2 * x2 > b``: the cells
    #: of a focal record far outside the data's range have such rows.
    SCALED_ROWS = [(1.0, -0.063, 0.887), (1.0, -0.443, 0.505),
                   (1.0, -0.444, 0.345), (1.0, 0.325, 0.696),
                   (1.0, 0.248, 0.911), (1.0, -0.205, 0.325),
                   (1.0, 0.977, 0.988), (1.0, 0.379, 0.924),
                   (1.0, -0.780, 0.171)]

    @pytest.mark.parametrize("scale", [1.0, 1e9, 1e15, 1e18])
    def test_row_scale_does_not_change_feasibility(self, scale):
        """A row's scale does not change its half-space; the solver must
        find the same non-empty region at every scale."""
        halfspaces = [
            Halfspace([1.0, 0.0], 0.0),
            Halfspace([0.0, 1.0], 0.0),
            Halfspace([-1.0, -1.0], -1.0),
        ] + [Halfspace([scale * a1, a2], b) for a1, a2, b in self.SCALED_ROWS]
        result = find_interior_point(halfspaces, [0.0, 0.0], [1.0, 1.0])
        assert result.feasible
        for h in halfspaces:
            assert h.evaluate(result.point) > 0

    def test_radius_reported_positive_when_feasible(self):
        h = Halfspace([1.0, 1.0], 0.5)
        result = find_interior_point([h], [0.0, 0.0], [1.0, 1.0])
        assert result.feasible and result.radius > 0
