"""Equivalence tests for the batched feasibility engine.

The batched screens (:func:`repro.geometry.lp.screen_cells_batch`), the
LP-free pairwise analysis and the incremental scan cache are pure
optimisations: every decision they make must agree with the per-cell exact
path.  These tests pin that contract on random inputs.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostCounters, generate_independent
from repro.core import aa_maxrank
from repro.core.cells import collect_cells
from repro.geometry import Halfspace
from repro.geometry.lp import (
    find_interior_point,
    find_interior_point_arrays,
    screen_cells_batch,
)
from repro.quadtree import AugmentedQuadTree, WithinLeafProcessor
from repro.quadtree.withinleaf import PairwiseConstraints


def random_system(seed: int, m: int, k: int):
    """A random constraint system over a random sub-box of the unit cube."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, k))
    b = rng.normal(size=m) * 0.2
    lower = rng.uniform(0.0, 0.4, size=k)
    upper = lower + rng.uniform(0.2, 0.6, size=k)
    upper = np.minimum(upper, 1.0)
    return A, b, lower, upper


def random_halfspaces(count: int, dim: int, seed: int):
    rng = np.random.default_rng(seed)
    result = []
    for i in range(count):
        normal = rng.normal(size=dim)
        while np.allclose(normal, 0):
            normal = rng.normal(size=dim)
        result.append(Halfspace(normal, rng.uniform(-0.3, 0.6), record_id=i))
    return result


class TestScreenCellsBatch:
    @given(seed=st.integers(0, 300), m=st.integers(1, 8), k=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_screen_decisions_match_per_cell_solver(self, seed, m, k):
        """Accepts and rejects must agree with the exact per-cell LP."""
        A, b, lower, upper = random_system(seed, m, k)
        # All 2^m orientation patterns of the system (bounded by m <= 8).
        signs = np.array(list(product((-1.0, 1.0), repeat=m)))
        centre = (lower + upper) / 2.0
        probes = np.vstack([centre[None, :],
                            lower[None, :] + 0.25 * (upper - lower),
                            lower[None, :] + 0.75 * (upper - lower)])
        norms = np.sqrt((A * A).sum(axis=1))
        norms = np.where(norms > 0, norms, 1.0)
        margins = (A @ probes.T - b[:, None]) / norms[:, None]
        valid = np.minimum(probes - lower, upper - probes).min(axis=1) > 1e-8
        status, witnesses = screen_cells_batch(
            A, b, signs, lower, upper,
            probes=probes, probe_margins=margins, probe_valid=valid,
        )
        for row in range(signs.shape[0]):
            oriented_A = A * signs[row][:, None]
            oriented_b = b * signs[row]
            exact = find_interior_point_arrays(oriented_A, oriented_b, lower, upper)
            if status[row] > 0:
                assert exact.feasible, "accept screen certified an empty cell"
                witness = witnesses[row]
                assert (oriented_A @ witness - oriented_b > 0).all()
            elif status[row] < 0:
                assert not exact.feasible, "reject screen killed a non-empty cell"

    def test_empty_batch(self):
        A = np.zeros((0, 3))
        status, witnesses = screen_cells_batch(
            A, np.zeros(0), np.zeros((0, 0)), np.zeros(3), np.ones(3)
        )
        assert status.shape == (0,)
        assert witnesses == []

    def test_degenerate_box_rejects_everything(self):
        A = np.array([[1.0, 0.0]])
        b = np.array([0.0])
        signs = np.array([[1.0], [-1.0]])
        status, _ = screen_cells_batch(
            A, b, signs, np.array([0.5, 0.5]), np.array([0.5, 0.4])
        )
        assert (status == -1).all()


class TestProcessorEquivalence:
    @given(seed=st.integers(0, 200), count=st.integers(2, 9), dim=st.integers(3, 4))
    @settings(max_examples=30, deadline=None)
    def test_batched_enumeration_matches_per_cell_oracle(self, seed, count, dim):
        """Every weight's cell set must equal brute-force per-cell testing."""
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(count, dim, seed))]
        lower = [0.05] * dim
        upper = [0.45] * dim
        processor = WithinLeafProcessor(lower, upper, halfspaces, use_pairwise=True,
                                        pairwise_min_size=2)
        reference = WithinLeafProcessor(lower, upper, halfspaces, use_pairwise=False)
        for weight in range(count + 1):
            fast = {cell.bits for cell in processor.cells_at_weight(weight)}
            slow = set()
            for ones in combinations(range(count), weight):
                bits = tuple(1 if i in ones else 0 for i in range(count))
                if reference._test_cell_lp(bits) is not None:
                    slow.add(bits)
            assert fast == slow

    @given(seed=st.integers(0, 120), count=st.integers(2, 7))
    @settings(max_examples=25, deadline=None)
    def test_seed_probes_do_not_change_results(self, seed, count):
        """Witness seeding is a pure accept-screen accelerator."""
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(count, 3, seed))]
        lower, upper = [0.0] * 3, [0.5] * 3
        plain = WithinLeafProcessor(lower, upper, halfspaces)
        _, cells = plain.minimal_cells(extra=1)
        seeds = [cell.interior_point for cell in cells]
        seeded = WithinLeafProcessor(lower, upper, halfspaces, seed_probes=seeds)
        minimum_plain, cells_plain = plain.minimal_cells(extra=1)
        minimum_seeded, cells_seeded = seeded.minimal_cells(extra=1)
        assert minimum_plain == minimum_seeded
        assert {c.bits for c in cells_plain} == {c.bits for c in cells_seeded}


class TestPairwiseSoundness:
    @given(seed=st.integers(0, 300), count=st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_forbidden_combinations_are_truly_infeasible(self, seed, count):
        """Every forbidden pair orientation must be exactly infeasible."""
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(count, 3, seed))]
        rng = np.random.default_rng(seed + 1)
        lower = rng.uniform(0.0, 0.3, size=3)
        upper = lower + rng.uniform(0.2, 0.5, size=3)
        constraints = PairwiseConstraints.build(halfspaces, lower, upper)
        orientations = ((0, 0), (0, 1), (1, 0), (1, 1))
        for (bit_i, bit_j), masks in zip(orientations, constraints.conflict_masks()):
            for pos_j, mask in enumerate(masks):
                h_j = halfspaces[pos_j][1]
                for pos_i in (q for q in range(pos_j) if mask >> q & 1):
                    h_i = halfspaces[pos_i][1]
                    parts = [
                        h_i if bit_i else h_i.complement(),
                        h_j if bit_j else h_j.complement(),
                    ]
                    result = find_interior_point(parts, lower, upper)
                    assert not result.feasible, (
                        f"combo {(bit_i, bit_j)} of pair {(pos_i, pos_j)} was "
                        "forbidden but is feasible"
                    )


class TestBulkInsertEquivalence:
    @given(seed=st.integers(0, 80), count=st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_bulk_insert_builds_identical_tree(self, seed, count):
        """insert_bulk must produce the same structure as one-by-one inserts."""
        halfspaces = random_halfspaces(count, 2, seed)
        sequential = AugmentedQuadTree(2, split_threshold=4)
        for h in halfspaces:
            sequential.insert(h)
        bulk = AugmentedQuadTree(2, split_threshold=4)
        bulk.insert_bulk(halfspaces)

        def signature(tree):
            return sorted(
                (
                    tuple(np.round(leaf.lower, 12)),
                    tuple(np.round(leaf.upper, 12)),
                    tuple(sorted(leaf.full_ids())),
                    tuple(sorted(leaf.partial)),
                )
                for leaf in tree.leaves()
            )

        assert signature(sequential) == signature(bulk)


def _region_fingerprint(result):
    return sorted(
        (region.cell_order, region.order, region.outscored_by)
        for region in result.regions
    )


class TestIncrementalScanEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_warm_cache_scan_matches_fresh_scan(self, seed):
        """Scans with a reused cache across tree growth match cold scans."""
        halfspaces = random_halfspaces(14, 2, seed)
        tree = AugmentedQuadTree(2, split_threshold=4)
        cache: dict = {}
        tree.insert_bulk(halfspaces[:8])
        collect_cells(tree, cache=cache)
        tree.insert_bulk(halfspaces[8:])
        best_warm, cells_warm = collect_cells(tree, tau=1, cache=cache)

        fresh_tree = AugmentedQuadTree(2, split_threshold=4)
        fresh_tree.insert_bulk(halfspaces[:8])
        collect_cells(fresh_tree)
        fresh_tree.insert_bulk(halfspaces[8:])
        best_cold, cells_cold = collect_cells(fresh_tree, tau=1)

        assert best_warm == best_cold
        warm = {(record.order, record.cell.bits, tuple(record.containing_ids))
                for record in cells_warm}
        cold = {(record.order, record.cell.bits, tuple(record.containing_ids))
                for record in cells_cold}
        assert warm == cold

    @pytest.mark.parametrize("seed,n,d", [(1, 70, 3), (6, 60, 4)])
    def test_aa_is_deterministic_and_cache_neutral(self, seed, n, d):
        """Two AA runs (each exercising the incremental cache) agree exactly."""
        data = generate_independent(n, d, seed=seed)
        first = aa_maxrank(data, 4, tau=1, counters=CostCounters())
        second = aa_maxrank(data, 4, tau=1, counters=CostCounters())
        assert first.k_star == second.k_star
        assert first.minimum_cell_order == second.minimum_cell_order
        assert _region_fingerprint(first) == _region_fingerprint(second)
