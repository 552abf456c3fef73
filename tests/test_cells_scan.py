"""Unit tests for the shared quad-tree cell-collection scan used by BA and AA."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CostCounters, Deadline, generate, maxrank
from repro.core.cells import collect_cells, region_for_cell
from repro.geometry import Halfspace, minimum_order_cells
from repro.quadtree import AugmentedQuadTree
from repro.service import result_fingerprint


def build_tree(halfspaces, split_threshold=4):
    tree = AugmentedQuadTree(halfspaces[0].dim, split_threshold=split_threshold)
    for h in halfspaces:
        tree.insert(h)
    return tree


def random_halfspaces(count, dim, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        normal = rng.normal(size=dim)
        while np.allclose(normal, 0):
            normal = rng.normal(size=dim)
        out.append(Halfspace(normal, rng.uniform(-0.3, 0.6), record_id=i))
    return out


class TestCollectCells:
    def test_single_halfspace_minimum_zero(self):
        tree = build_tree([Halfspace([1.0, 0.2], 0.4, record_id=0)])
        best, cells = collect_cells(tree)
        assert best == 0
        assert all(record.order == 0 for record in cells)
        assert all(record.containing_ids == frozenset() for record in cells)

    def test_covering_halfspace_forces_order_one(self):
        tree = build_tree([Halfspace([1.0, 1.0], -5.0, record_id=9)])
        best, cells = collect_cells(tree)
        assert best == 1
        assert all(record.containing_ids == {0} for record in cells)

    @pytest.mark.parametrize("seed,count", [(0, 5), (1, 8), (2, 11), (3, 6)])
    def test_minimum_matches_reference_arrangement(self, seed, count):
        """The scan must find the same minimum order as the exhaustive oracle."""
        halfspaces = random_halfspaces(count, 2, seed)
        tree = build_tree(halfspaces)
        best, cells = collect_cells(tree)
        reference_best, _ = minimum_order_cells(halfspaces)
        assert best == reference_best
        assert cells, "at least one minimum-order cell must be reported"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tau_widens_collection(self, seed):
        halfspaces = random_halfspaces(7, 3, seed)
        tree = build_tree(halfspaces)
        best0, tight = collect_cells(tree, tau=0)
        best1, loose = collect_cells(tree, tau=1)
        assert best0 == best1
        assert len(loose) >= len(tight)
        assert all(record.order <= best1 + 1 for record in loose)

    def test_cache_reuse_is_consistent(self):
        halfspaces = random_halfspaces(9, 2, seed=5)
        tree = build_tree(halfspaces)
        cache: dict = {}
        best_first, cells_first = collect_cells(tree, cache=cache)
        best_second, cells_second = collect_cells(tree, cache=cache)
        assert best_first == best_second
        assert len(cells_first) == len(cells_second)

    def test_counters_track_leaf_processing(self):
        halfspaces = random_halfspaces(12, 2, seed=6)
        tree = build_tree(halfspaces, split_threshold=3)
        counters = CostCounters()
        collect_cells(tree, counters=counters)
        assert counters.leaves_processed >= 1
        assert counters.leaves_processed + counters.leaves_pruned == tree.leaf_count()

    def test_region_for_cell_round_trip(self):
        halfspaces = random_halfspaces(6, 2, seed=7)
        tree = build_tree(halfspaces)
        best, cells = collect_cells(tree)
        region = region_for_cell(tree, cells[0], dominator_count=3)
        assert region.order == 3 + best + 1
        point = region.geometry.interior_point()
        # The witness point must satisfy the bit assignment the cell encodes.
        for hid in cells[0].containing_ids:
            assert tree.halfspace(hid).contains_point(point)


class TestScanTermination:
    def test_huge_tau_stops_once_work_is_exhausted(self):
        """A τ beyond every reachable order answers like the widest useful
        τ: the scan stops when no bucket or continuation is left instead of
        stepping through empty priority levels up to ``k* + τ``."""
        dataset = generate("IND", 60, 3, seed=0)
        wide = maxrank(dataset, 3, tau=60)  # n = 60: every order is covered
        huge = maxrank(dataset, 3, tau=10**20, deadline=Deadline.after(20))
        assert result_fingerprint(huge) == result_fingerprint(wide)
