"""The DFS row bound over ``leaf box ∩ {Σx ≤ 1}``.

:func:`~repro.geometry.lp.simplex_box_row_extremes` gives each row's extremes
over the leaf box cut by the simplex row in closed form, and
:attr:`WithinLeafProcessor._row_bounds` forbids an orientation that has no
room there.  These tests pin:

* the extremes equal HiGHS's optimum over the same region, and the box
  extremes when the box lies under the simplex row;
* every orientation the bound forbids is empty by the max-slack LP over the
  simplex rows plus that row alone;
* on small leaves straddling ``Σx = 1`` the processor's non-empty cells at
  every weight are exactly the bit-strings an LP finds non-empty.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Halfspace
from repro.geometry.lp import (
    box_row_extremes,
    find_interior_point_arrays,
    simplex_box_row_extremes,
)
from repro.quadtree import WithinLeafProcessor
from repro.quadtree.withinleaf import _simplex_rows


def _box(rng, dim, straddling):
    """A leaf box inside the unit cube whose corner sum stays below 1 and
    whose far corner lies beyond (``straddling``) or under the simplex row."""
    lower = rng.uniform(0.0, 0.9 / dim, size=dim)
    if straddling:
        extent = rng.uniform(0.05, 1.0, size=dim)
        scale = (1.0 - lower.sum()) / extent.sum() * rng.uniform(1.05, 3.0)
        upper = np.minimum(lower + extent * scale, 1.0)
    else:
        extent = rng.uniform(0.0, 1.0, size=dim) + 1e-3
        upper = lower + extent * (1.0 - lower.sum()) / extent.sum() * rng.uniform(0.2, 1.0)
    return lower, upper


def _rows_through(rng, count, lower, upper):
    """Rows whose hyperplanes pass near points of ``box ∩ simplex``; some
    nearly parallel to ``Σx = 1``, whose one side the simplex row empties."""
    dim = lower.shape[0]
    rows = []
    for _ in range(count):
        if rng.uniform() < 0.4:
            normal = np.ones(dim) + rng.normal(scale=0.3, size=dim)
        else:
            normal = rng.normal(size=dim)
        normal[rng.uniform(size=dim) < 0.15] = 0.0
        if not normal.any():
            normal[0] = 1.0
        point = lower + rng.uniform(size=dim) * (upper - lower)
        if point.sum() > 1.0:
            point = lower + (point - lower) * (1.0 - lower.sum()) / (point - lower).sum()
        rows.append((normal, float(normal @ point + rng.normal(scale=0.05))))
    return rows


def _highs_extremes(A, lower, upper):
    from scipy.optimize import linprog

    ones = np.ones((1, A.shape[1]))
    bounds = list(zip(lower, upper))
    lows, highs = [], []
    for a in A:
        low = linprog(a, A_ub=ones, b_ub=[1.0], bounds=bounds, method="highs")
        high = linprog(-a, A_ub=ones, b_ub=[1.0], bounds=bounds, method="highs")
        assert low.status == 0 and high.status == 0
        lows.append(low.fun)
        highs.append(-high.fun)
    return np.array(lows), np.array(highs)


class TestClosedForm:
    @given(
        seed=st.integers(0, 10_000),
        dim=st.integers(2, 6),
        count=st.integers(1, 8),
        straddling=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_extremes_equal_highs(self, seed, dim, count, straddling):
        rng = np.random.default_rng(seed)
        lower, upper = _box(rng, dim, straddling)
        A = np.array([row for row, _ in _rows_through(rng, count, lower, upper)])
        row_min, row_max = simplex_box_row_extremes(A, lower, upper)
        reference_min, reference_max = _highs_extremes(A, lower, upper)
        assert np.allclose(row_min, reference_min, rtol=0.0, atol=1e-9)
        assert np.allclose(row_max, reference_max, rtol=0.0, atol=1e-9)
        if upper.sum() <= 1.0:
            box_min, box_max = box_row_extremes(A, lower, upper)
            assert np.array_equal(row_min, box_min) and np.array_equal(row_max, box_max)

    def test_no_rows(self):
        row_min, row_max = simplex_box_row_extremes(
            np.zeros((0, 3)), np.full(3, 0.3), np.full(3, 0.6)
        )
        assert row_min.shape == row_max.shape == (0,)

    def test_lower_corner_on_or_beyond_the_simplex_reads_the_corner(self):
        A = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
        for lower in (np.full(3, 1.0 / 3.0), np.array([0.5, 0.4, 0.3])):
            row_min, row_max = simplex_box_row_extremes(A, lower, lower + 0.2)
            assert np.array_equal(row_min, A @ lower)
            assert np.array_equal(row_max, A @ lower)

    def test_box_corner_beyond_the_simplex_is_forbidden(self):
        # x0 + x1 + x2 > 1.2 holds in the box's far corner only, which lies
        # beyond Σx = 1: the box bound allows the 1-orientation, this one not.
        lower, upper = np.full(3, 0.3), np.full(3, 0.6)
        row = (100, Halfspace([1.0, 1.0, 1.0], 1.2, record_id=100))
        processor = WithinLeafProcessor(lower, upper, [row])
        allowed0, allowed1, _, _ = processor._row_bounds
        assert allowed0 == [True] and allowed1 == [False]
        assert box_row_extremes(np.ones((1, 3)), lower, upper)[1][0] > 1.2
        assert processor.cells_at_weight(1) == []
        assert len(processor.cells_at_weight(0)) == 1


class TestSoundness:
    @given(
        seed=st.integers(0, 10_000),
        dim=st.integers(2, 6),
        count=st.integers(1, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_forbidden_orientation_is_lp_infeasible(self, seed, dim, count):
        rng = np.random.default_rng(seed)
        lower, upper = _box(rng, dim, straddling=True)
        partial = [
            (i, Halfspace(a, b, record_id=i))
            for i, (a, b) in enumerate(_rows_through(rng, count, lower, upper))
        ]
        processor = WithinLeafProcessor(lower, upper, partial)
        allowed0, allowed1, _, _ = processor._row_bounds
        _, base_A, base_b, _ = _simplex_rows(dim)
        for (_, halfspace), ok0, ok1 in zip(partial, allowed0, allowed1):
            for sign, allowed in ((-1.0, ok0), (1.0, ok1)):
                if allowed:
                    continue
                result = find_interior_point_arrays(
                    np.vstack([base_A, sign * halfspace.coefficients]),
                    np.append(base_b, sign * halfspace.offset),
                    lower,
                    upper,
                )
                assert not result.feasible


class TestBruteForceOracle:
    @given(
        seed=st.integers(0, 10_000),
        dim=st.integers(3, 4),
        count=st.integers(2, 7),
    )
    @settings(max_examples=40, deadline=None)
    def test_nonempty_cells_equal_an_lp_over_every_bit_string(self, seed, dim, count):
        rng = np.random.default_rng(seed)
        lower, upper = _box(rng, dim, straddling=True)
        partial = [
            (i, Halfspace(a, b, record_id=i))
            for i, (a, b) in enumerate(_rows_through(rng, count, lower, upper))
        ]
        processor = WithinLeafProcessor(lower, upper, partial, pairwise_min_size=2)
        _, base_A, base_b, _ = _simplex_rows(dim)
        A = np.array([h.coefficients for _, h in partial])
        b = np.array([h.offset for _, h in partial])
        for weight in range(count + 1):
            found = [cell.bits for cell in processor.cells_at_weight(weight)]
            expected = []
            for ones in combinations(range(count), weight):
                signs = -np.ones(count)
                signs[list(ones)] = 1.0
                result = find_interior_point_arrays(
                    np.vstack([base_A, A * signs[:, None]]),
                    np.concatenate([base_b, b * signs]),
                    lower,
                    upper,
                )
                if result.feasible:
                    expected.append(tuple(int(s > 0) for s in signs))
            assert found == expected
