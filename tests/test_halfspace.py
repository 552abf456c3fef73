"""Tests for the half-space mapping into the reduced query space."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import random_permissible_vector
from repro.errors import GeometryError
from repro.geometry import (
    BoxRelation,
    Halfspace,
    halfspace_for_record,
    lift_query_vector,
    reduce_query_vector,
    reduced_space_constraints,
)

coords = st.lists(st.floats(0.01, 0.99), min_size=2, max_size=5)


class TestHalfspaceBasics:
    def test_evaluate_and_contains(self):
        h = Halfspace([1.0, -1.0], 0.2)
        assert h.evaluate([0.5, 0.1]) == pytest.approx(0.2)
        assert h.contains_point([0.5, 0.1])
        assert not h.contains_point([0.1, 0.5])

    def test_complement_flips_containment(self):
        h = Halfspace([1.0, 0.0], 0.5)
        c = h.complement()
        point_inside = [0.9, 0.0]
        point_outside = [0.1, 0.0]
        assert h.contains_point(point_inside) and not c.contains_point(point_inside)
        assert c.contains_point(point_outside) and not h.contains_point(point_outside)

    def test_zero_normal_rejected(self):
        with pytest.raises(GeometryError):
            Halfspace([0.0, 0.0], 0.5)

    def test_dimension_mismatch_rejected(self):
        h = Halfspace([1.0, 1.0], 0.5)
        with pytest.raises(GeometryError):
            h.evaluate([0.5])

    def test_with_flags(self):
        h = Halfspace([1.0], 0.2, record_id=7, augmented=True)
        s = h.with_flags(augmented=False)
        assert s.record_id == 7 and not s.augmented and h.augmented

    def test_coefficient_tuple_matches_array(self):
        h = Halfspace([0.25, -0.5, 1.0], 0.1)
        assert h.coefficients_t == (0.25, -0.5, 1.0)


class TestBoxRelation:
    def test_contains(self):
        h = Halfspace([1.0, 0.0], -1.0)   # x > -1 contains the unit box
        assert h.relation_to_box([0, 0], [1, 1]) is BoxRelation.CONTAINS

    def test_disjoint(self):
        h = Halfspace([1.0, 0.0], 2.0)    # x > 2 misses the unit box
        assert h.relation_to_box([0, 0], [1, 1]) is BoxRelation.DISJOINT

    def test_overlaps(self):
        h = Halfspace([1.0, 0.0], 0.5)
        assert h.relation_to_box([0, 0], [1, 1]) is BoxRelation.OVERLAPS

    def test_extremes_over_box(self):
        h = Halfspace([2.0, -1.0], 0.0)
        low, high = h.extremes_over_box([0, 0], [1, 1])
        assert low == pytest.approx(-1.0)
        assert high == pytest.approx(2.0)


class TestRecordMapping:
    @given(record=coords, focal=coords, seed=st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_halfspace_membership_equals_score_comparison(self, record, focal, seed):
        """Core soundness property (paper, Section 5): S(r) > S(p) iff the
        reduced query vector lies inside the record's half-space."""
        size = min(len(record), len(focal))
        assume(size >= 2)
        r = np.array(record[:size])
        p = np.array(focal[:size])
        try:
            halfspace = halfspace_for_record(r, p)
        except GeometryError:
            assume(False)
            return
        q = random_permissible_vector(size, np.random.default_rng(seed))
        reduced = reduce_query_vector(q)
        score_r = float(r @ q)
        score_p = float(p @ q)
        assume(abs(score_r - score_p) > 1e-9)
        assert halfspace.contains_point(reduced) == (score_r > score_p)

    def test_dominating_record_is_degenerate_or_contains_space(self):
        """A record differing from the focal record by a constant shift in every
        attribute induces a degenerate (parallel-score) half-space."""
        with pytest.raises(GeometryError):
            halfspace_for_record([0.6, 0.6], [0.5, 0.5])

    def test_record_id_and_flags_carried(self):
        h = halfspace_for_record([0.9, 0.1, 0.5], [0.5, 0.5, 0.5], record_id=3, augmented=True)
        assert h.record_id == 3 and h.augmented

    def test_dimension_guard(self):
        with pytest.raises(GeometryError):
            halfspace_for_record([0.5], [0.4])
        with pytest.raises(GeometryError):
            halfspace_for_record([0.5, 0.5], [0.4, 0.4, 0.4])


class TestReducedSpace:
    def test_constraints_count(self):
        constraints = reduced_space_constraints(3)
        assert len(constraints) == 4

    def test_constraints_describe_open_simplex(self):
        constraints = reduced_space_constraints(2)
        inside = [0.3, 0.3]
        outside = [0.7, 0.5]
        assert all(c.contains_point(inside) for c in constraints)
        assert not all(c.contains_point(outside) for c in constraints)

    def test_invalid_dimension(self):
        with pytest.raises(GeometryError):
            reduced_space_constraints(0)

    def test_constraints_are_shared_but_the_list_is_fresh(self):
        first = reduced_space_constraints(3)
        first.append(Halfspace([1.0, 0.0, 0.0], 0.5))  # callers may extend
        second = reduced_space_constraints(3)
        assert len(second) == 4
        assert all(a is b for a, b in zip(first, second))

    @given(d=st.integers(2, 6), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_reduce_then_lift_round_trip(self, d, seed):
        q = random_permissible_vector(d, np.random.default_rng(seed))
        reduced = reduce_query_vector(q)
        lifted = lift_query_vector(reduced)
        assert np.allclose(lifted, q / q.sum())

    def test_lift_rejects_non_permissible(self):
        with pytest.raises(GeometryError):
            lift_query_vector([0.7, 0.4])   # sums above 1
        with pytest.raises(GeometryError):
            lift_query_vector([0.0, 0.4])   # zero weight
