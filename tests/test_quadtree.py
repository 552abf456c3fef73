"""Tests for the augmented quad-tree and the within-leaf processing module."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostCounters
from repro.errors import GeometryError
from repro.geometry import BoxRelation, Halfspace, reduced_space_constraints
from repro.geometry.lp import find_interior_point
from repro.quadtree import AugmentedQuadTree, WithinLeafProcessor
from repro.quadtree.withinleaf import PairwiseConstraints


def random_halfspaces(count: int, dim: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    result = []
    for i in range(count):
        normal = rng.normal(size=dim)
        while np.allclose(normal, 0):
            normal = rng.normal(size=dim)
        result.append(Halfspace(normal, rng.uniform(-0.3, 0.6), record_id=i))
    return result


def scan_all_priorities(tree: AugmentedQuadTree) -> list:
    """Every leaf the best-first scan is handed when it visits every priority."""
    handed = []
    priority = 0
    while priority <= tree.max_bucket_priority():
        handed.extend(tree.validated_bucket(priority))
        priority += 1
    return handed


class TestQuadTreeStructure:
    def test_requires_dim_at_least_two(self):
        with pytest.raises(GeometryError):
            AugmentedQuadTree(1)

    def test_requires_sane_threshold(self):
        with pytest.raises(GeometryError):
            AugmentedQuadTree(2, split_threshold=1)

    def test_dimension_mismatch_rejected(self):
        tree = AugmentedQuadTree(2)
        with pytest.raises(GeometryError):
            tree.insert(Halfspace([1.0, 0.0, 0.0], 0.1))

    def test_insert_counts(self):
        counters = CostCounters()
        tree = AugmentedQuadTree(2, counters=counters)
        for h in random_halfspaces(5, 2, seed=1):
            tree.insert(h)
        assert len(tree) == 5
        assert counters.halfspaces_inserted == 5

    def test_split_triggered_by_threshold(self):
        """Inserts only classify; the leaves the scan is handed are split
        down to the threshold (or the depth cap)."""
        tree = AugmentedQuadTree(2, split_threshold=3)
        for h in random_halfspaces(12, 2, seed=2):
            tree.insert(h)
        assert tree.leaf_count() == 1
        handed = scan_all_priorities(tree)
        assert tree.leaf_count() == len(handed) > 1
        for leaf in handed:
            assert leaf.depth <= tree.max_depth
            assert len(leaf.partial) <= 3 or leaf.depth == tree.max_depth

    def test_leaves_tile_the_box(self):
        """Leaf boxes must not overlap and must cover the permissible simplex."""
        tree = AugmentedQuadTree(2, split_threshold=3)
        for h in random_halfspaces(15, 2, seed=3):
            tree.insert(h)
        scan_all_priorities(tree)
        leaves = list(tree.leaves())
        assert len(leaves) > 1
        rng = np.random.default_rng(0)
        for _ in range(200):
            point = rng.uniform(0, 1, size=2)
            if point.sum() >= 1.0:
                continue
            containing = [
                leaf for leaf in leaves
                if np.all(point >= leaf.lower) and np.all(point <= leaf.upper)
            ]
            assert len(containing) >= 1

    def test_replace_requires_identical_geometry(self):
        tree = AugmentedQuadTree(2)
        h = Halfspace([1.0, 0.2], 0.1, augmented=True)
        hid = tree.insert(h)
        tree.replace(hid, h.with_flags(augmented=False))
        assert not tree.halfspace(hid).augmented
        with pytest.raises(GeometryError):
            tree.replace(hid, Halfspace([0.5, 0.2], 0.1))

    def test_statistics_keys(self):
        tree = AugmentedQuadTree(3)
        for h in random_halfspaces(6, 3, seed=4):
            tree.insert(h)
        stats = tree.statistics()
        assert stats["halfspaces"] == 6
        assert stats["leaves"] >= 1


class TestConstructionValidation:
    """Impossible construction parameters fail fast with GeometryError."""

    @pytest.mark.parametrize("threshold", [True, 2.5, "10", 1, 0, -3])
    def test_bad_split_threshold_rejected(self, threshold):
        with pytest.raises(GeometryError):
            AugmentedQuadTree(2, split_threshold=threshold)

    @pytest.mark.parametrize("max_depth", [True, 1.5, "2", -1])
    def test_bad_max_depth_rejected(self, max_depth):
        with pytest.raises(GeometryError):
            AugmentedQuadTree(2, max_depth=max_depth)

    def test_unknown_split_policy_rejected(self):
        with pytest.raises(GeometryError):
            AugmentedQuadTree(2, split_policy="greedy")

    def test_minimum_threshold_terminates(self):
        """split_threshold=2 is the tightest legal value: splits cascade hard
        but must still terminate at max_depth with exact sets."""
        tree = AugmentedQuadTree(2, split_threshold=2, max_depth=4)
        tree.insert_bulk(random_halfspaces(25, 2, seed=6))
        assert len(tree) == 25
        handed = scan_all_priorities(tree)
        assert len(handed) > 1
        assert any(leaf.depth == 4 for leaf in handed)
        for leaf in handed:
            assert leaf.depth <= 4
            assert len(leaf.partial) <= 2 or leaf.depth == 4

    def test_max_depth_zero_keeps_one_fat_leaf(self):
        """max_depth=0 is legal: the root never splits and holds every
        overlapping half-space."""
        halfspaces = random_halfspaces(30, 2, seed=7)
        tree = AugmentedQuadTree(2, max_depth=0)
        tree.insert_bulk(halfspaces)
        assert tree.leaf_count() == 1
        assert tree.root.is_leaf
        covered = set(tree.root.containment) | set(tree.root.partial)
        expected = {
            hid for hid, h in tree.halfspaces.items()
            if h.relation_to_box(tree.root.lower, tree.root.upper)
            is not BoxRelation.DISJOINT
        }
        assert covered == expected


class TestQuadTreeBookkeeping:
    @given(seed=st.integers(0, 60), count=st.integers(1, 18))
    @settings(max_examples=25, deadline=None)
    def test_containment_and_partial_sets_are_exact(self, seed, count):
        """For every leaf, F_l must contain exactly the half-spaces that fully
        contain the leaf box, and P_l exactly those that straddle it."""
        tree = AugmentedQuadTree(2, split_threshold=4)
        halfspaces = random_halfspaces(count, 2, seed=seed)
        for h in halfspaces:
            tree.insert(h)
        scan_all_priorities(tree)
        for leaf in tree.leaves():
            full = leaf.full_ids()
            partial = set(leaf.partial)
            for hid, h in tree.halfspaces.items():
                relation = h.relation_to_box(leaf.lower, leaf.upper)
                if relation is BoxRelation.CONTAINS:
                    assert hid in full
                    assert hid not in partial
                elif relation is BoxRelation.OVERLAPS:
                    assert hid in partial
                    assert hid not in full
                else:
                    assert hid not in full and hid not in partial

    @given(seed=st.integers(0, 60))
    @settings(max_examples=20, deadline=None)
    def test_full_count_matches_full_ids(self, seed):
        tree = AugmentedQuadTree(3, split_threshold=4)
        for h in random_halfspaces(10, 3, seed=seed):
            tree.insert(h)
        scan_all_priorities(tree)
        for leaf, count in tree.leaves_by_containment():
            assert count == len(leaf.full_ids())
            assert count == leaf.full_count()

    def test_leaves_sorted_by_containment(self):
        tree = AugmentedQuadTree(2, split_threshold=3)
        for h in random_halfspaces(14, 2, seed=9):
            tree.insert(h)
        scan_all_priorities(tree)
        counts = [count for _, count in tree.leaves_by_containment()]
        assert counts == sorted(counts)


class TestWithinLeaf:
    def test_empty_partial_set_returns_whole_leaf(self):
        processor = WithinLeafProcessor([0.0, 0.0], [0.4, 0.4], [])
        minimum, cells = processor.minimal_cells()
        assert minimum == 0
        assert len(cells) == 1

    def test_single_halfspace_minimum_zero(self):
        h = Halfspace([1.0, 0.0], 0.2)
        processor = WithinLeafProcessor([0.0, 0.0], [0.4, 0.4], [(0, h)])
        minimum, cells = processor.minimal_cells()
        assert minimum == 0
        assert all(cell.p_order == 0 for cell in cells)

    def test_halfspace_covering_leaf_forces_order_one(self):
        # Inside the leaf [0.1,0.3]^2 the half-space x + y > 0.05 always holds,
        # but it is registered as partial; the minimum p-order is then 1.
        h = Halfspace([1.0, 1.0], 0.05)
        processor = WithinLeafProcessor([0.1, 0.1], [0.3, 0.3], [(0, h)])
        minimum, cells = processor.minimal_cells()
        assert minimum == 1

    def test_cells_report_inside_ids(self):
        a = Halfspace([1.0, 0.0], -1.0)    # contains everything
        b = Halfspace([0.0, 1.0], 0.2)
        processor = WithinLeafProcessor([0.0, 0.0], [0.4, 0.4], [(7, a), (9, b)])
        minimum, cells = processor.minimal_cells()
        assert minimum == 1
        assert all(cell.inside_ids == (7,) for cell in cells)

    def test_max_weight_truncates_search(self):
        a = Halfspace([1.0, 0.0], -1.0)
        b = Halfspace([0.0, 1.0], -1.0)
        processor = WithinLeafProcessor([0.0, 0.0], [0.4, 0.4], [(0, a), (1, b)])
        minimum, cells = processor.minimal_cells(max_weight=1)
        assert minimum is None and cells == []

    def test_extra_collects_higher_orders(self):
        a = Halfspace([1.0, 0.0], 0.2)
        b = Halfspace([0.0, 1.0], 0.2)
        processor = WithinLeafProcessor([0.0, 0.0], [0.4, 0.4], [(0, a), (1, b)])
        _, tight = processor.minimal_cells(extra=0)
        _, loose = processor.minimal_cells(extra=2)
        assert len(loose) > len(tight)

    @given(seed=st.integers(0, 80), count=st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_lp_and_clipping_paths_agree_in_2d(self, seed, count):
        """The exact polygon-clipping fast path must agree with the LP path."""
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(count, 2, seed=seed))]
        lower, upper = [0.0, 0.0], [0.5, 0.5]
        clip = WithinLeafProcessor(lower, upper, halfspaces)
        min_clip, cells_clip = clip.minimal_cells()
        # Force the LP path by evaluating feasibility directly per bit-string.
        base = reduced_space_constraints(2)
        for cell in cells_clip:
            constraints = list(base)
            for (_, h), bit in zip(halfspaces, cell.bits):
                constraints.append(h if bit else h.complement())
            assert find_interior_point(constraints, lower, upper).feasible

    @given(seed=st.integers(0, 50), count=st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_3d_witness_points_match_bits(self, seed, count):
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(count, 3, seed=seed))]
        processor = WithinLeafProcessor([0.0] * 3, [0.5] * 3, halfspaces)
        _, cells = processor.minimal_cells(extra=1)
        for cell in cells:
            for (_, h), bit in zip(halfspaces, cell.bits):
                assert h.contains_point(cell.interior_point) == bool(bit)


class TestPairwiseConstraints:
    def test_disjoint_pair_forbids_both_ones(self):
        a = Halfspace([1.0, 0.0], 0.8)     # x > 0.8
        b = Halfspace([-1.0, 0.0], -0.2)   # x < 0.2
        constraints = PairwiseConstraints.build(
            [(0, a), (1, b)], np.zeros(2), np.ones(2))
        assert constraints.violates([1, 1])
        assert not constraints.violates([0, 1])

    def test_covering_pair_forbids_both_zeros(self):
        a = Halfspace([1.0, 0.0], 0.3)     # x > 0.3
        b = Halfspace([-1.0, 0.0], -0.7)   # x < 0.7
        constraints = PairwiseConstraints.build(
            [(0, a), (1, b)], np.zeros(2), np.ones(2))
        assert constraints.violates([0, 0])
        assert not constraints.violates([1, 1])

    def test_pruning_does_not_change_results(self):
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(6, 2, seed=13))]
        with_pruning = WithinLeafProcessor(
            [0.0, 0.0], [0.6, 0.6], halfspaces, use_pairwise=True, pairwise_min_size=2)
        without_pruning = WithinLeafProcessor(
            [0.0, 0.0], [0.6, 0.6], halfspaces, use_pairwise=False)
        min_a, cells_a = with_pruning.minimal_cells(extra=1)
        min_b, cells_b = without_pruning.minimal_cells(extra=1)
        assert min_a == min_b
        assert {cell.bits for cell in cells_a} == {cell.bits for cell in cells_b}
