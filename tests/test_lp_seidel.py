"""Tests for the LP feasibility layer: the Seidel solver and its scipy cross-check."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Halfspace, find_interior_point
from repro.geometry.lp import find_interior_point_arrays
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
        """Feasibility decisions must agree with scipy's HiGHS on random systems."""
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(m, k))
        b = rng.normal(size=m) * 0.3
        lower = np.zeros(k)
        upper = np.ones(k)
        ours = find_interior_point_arrays(A, b, lower, upper, engine="seidel")
        reference = find_interior_point_arrays(A, b, lower, upper, engine="scipy")
        if max(ours.radius, reference.radius) > 1e-6:
            assert ours.feasible == reference.feasible
        if ours.feasible:
            margins = A @ ours.point - b if m else np.array([1.0])
            assert (margins > 0).all()
            assert (ours.point >= lower - 1e-9).all()
            assert (ours.point <= upper + 1e-9).all()


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
