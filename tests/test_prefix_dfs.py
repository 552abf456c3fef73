"""Contract tests for the prefix-pruned DFS candidate generator.

The DFS (:meth:`repro.quadtree.withinleaf.WithinLeafProcessor._dfs_chunks`)
is a pure enumeration optimisation: it must emit exactly the candidate
bit-strings that the old enumerate-then-filter pipeline would have passed to
the screens — all ``C(m, w)`` combinations minus those violating a pairwise
constraint or a per-row corner-extreme bound — in the same lexicographic
order, while never materialising a forbidden subtree.  Reuse of conflict
masks and of the surviving-prefix frontier across simulated AA re-scans must
not change any result.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostCounters
from repro.geometry import Halfspace
from repro.geometry.lp import MIN_INTERIOR_RADIUS, box_row_extremes
from repro.quadtree import WithinLeafProcessor
from repro.quadtree.withinleaf import PairwiseConstraints


def random_halfspaces(count: int, dim: int, seed: int):
    rng = np.random.default_rng(seed)
    result = []
    for i in range(count):
        normal = rng.normal(size=dim)
        while np.allclose(normal, 0):
            normal = rng.normal(size=dim)
        result.append(Halfspace(normal, rng.uniform(-0.3, 0.6), record_id=i))
    return result


def oracle_survivors(processor: WithinLeafProcessor, weight: int):
    """Combinations surviving pairwise + per-row pruning, by brute force."""
    m = len(processor.partial)
    A = processor._partial_A
    b = processor._partial_b
    norms = processor._partial_norms
    row_min, row_max = box_row_extremes(A, processor.lower, processor.upper)
    margin = MIN_INTERIOR_RADIUS * norms
    allowed0 = row_min < b - margin
    allowed1 = row_max > b + margin
    pairwise = processor.pairwise_constraints
    survivors = []
    for ones in combinations(range(m), weight):
        bits = processor._bits_for(ones)
        if any(not (allowed1[p] if v else allowed0[p]) for p, v in enumerate(bits)):
            continue
        if pairwise is not None and pairwise.violates(bits):
            continue
        survivors.append(ones)
    return survivors


class TestDfsGeneration:
    @pytest.mark.parametrize("use_pairwise", [True, False])
    @given(seed=st.integers(0, 200), count=st.integers(2, 9), dim=st.integers(3, 4))
    @settings(max_examples=40, deadline=None)
    def test_dfs_emits_exactly_the_filter_survivors_in_order(
        self, use_pairwise, seed, count, dim
    ):
        """DFS output == (combinations minus filtered), lexicographically.

        Without pairwise masks the DFS is the only generator for every leaf,
        so the no-mask case pins it against plain ``combinations`` (minus
        the per-row bound).
        """
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(count, dim, seed))]
        rng = np.random.default_rng(seed + 17)
        lower = rng.uniform(0.0, 0.3, size=dim)
        upper = lower + rng.uniform(0.2, 0.5, size=dim)
        processor = WithinLeafProcessor(lower, upper, halfspaces,
                                        use_pairwise=use_pairwise,
                                        pairwise_min_size=2)
        assert (processor.pairwise_constraints is None) == (not use_pairwise)
        for weight in range(count + 1):
            emitted = [ones for chunk in processor._dfs_chunks(weight) for ones in chunk]
            assert emitted == oracle_survivors(processor, weight)

    @given(seed=st.integers(0, 120), count=st.integers(3, 9))
    @settings(max_examples=30, deadline=None)
    def test_generated_candidates_counter_matches_emission(self, seed, count):
        """candidates_generated counts emitted candidates; cuts are branches."""
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(count, 3, seed))]
        counters = CostCounters()
        processor = WithinLeafProcessor([0.05] * 3, [0.45] * 3, halfspaces,
                                        use_pairwise=True, pairwise_min_size=2,
                                        counters=counters)
        total = 0
        for weight in range(count + 1):
            total += len(oracle_survivors(processor, weight))
            processor.cells_at_weight(weight)
        assert counters.candidates_generated == total
        assert counters.cells_examined == total
        # The post-hoc pairwise filter is gone on this path.
        assert counters.pairwise_pruned == 0

    def test_weight_zero_and_full_weight(self):
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(5, 3, 3))]
        processor = WithinLeafProcessor([0.0] * 3, [0.5] * 3, halfspaces,
                                        use_pairwise=True, pairwise_min_size=2)
        for weight in (0, 5):
            emitted = [ones for chunk in processor._dfs_chunks(weight) for ones in chunk]
            assert emitted == oracle_survivors(processor, weight)


class TestConflictMasks:
    @given(seed=st.integers(0, 200), count=st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_masks_agree_with_violates(self, seed, count):
        """The bitmask check must equal the per-pair violates() predicate."""
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(count, 3, seed))]
        rng = np.random.default_rng(seed + 5)
        lower = rng.uniform(0.0, 0.3, size=3)
        upper = lower + rng.uniform(0.2, 0.5, size=3)
        constraints = PairwiseConstraints.build(halfspaces, lower, upper)
        c00, c01, c10, c11 = constraints.conflict_masks()
        one_masks, zero_masks = (c10, c11), (c00, c01)
        for _ in range(24):
            bits = tuple(int(v) for v in rng.integers(0, 2, size=count))
            ones_mask = zeros_mask = 0
            masked = False
            for pos, value in enumerate(bits):
                if (ones_mask & one_masks[value][pos]) or (
                    zeros_mask & zero_masks[value][pos]
                ):
                    masked = True
                    break
                if value:
                    ones_mask |= 1 << pos
                else:
                    zeros_mask |= 1 << pos
            assert masked == constraints.violates(bits)

    @given(seed=st.integers(0, 100), count=st.integers(4, 10), split=st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_incremental_build_equals_full_build(self, seed, count, split):
        """Reusing prefix pair verdicts must reproduce the scratch analysis."""
        split = min(split, count)
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(count, 3, seed))]
        rng = np.random.default_rng(seed + 9)
        lower = rng.uniform(0.0, 0.3, size=3)
        upper = lower + rng.uniform(0.2, 0.5, size=3)
        prefix = PairwiseConstraints.build(halfspaces[:split], lower, upper)
        incremental = PairwiseConstraints.build(halfspaces, lower, upper, reuse=prefix)
        scratch = PairwiseConstraints.build(halfspaces, lower, upper)
        assert incremental.conflict_masks() == scratch.conflict_masks()

    def test_reuse_rejected_on_id_mismatch(self):
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(5, 3, 11))]
        lower, upper = np.zeros(3), np.full(3, 0.5)
        prefix = PairwiseConstraints.build(halfspaces[:3], lower, upper)
        reordered = [halfspaces[1], halfspaces[0]] + halfspaces[2:]
        incremental = PairwiseConstraints.build(reordered, lower, upper, reuse=prefix)
        scratch = PairwiseConstraints.build(reordered, lower, upper)
        assert incremental.conflict_masks() == scratch.conflict_masks()


class TestFrontierReuse:
    @given(seed=st.integers(0, 120), count=st.integers(4, 9), old=st.integers(2, 7))
    @settings(max_examples=30, deadline=None)
    def test_seeded_processor_matches_fresh_processor(self, seed, count, old):
        """A grown leaf re-enumerated from the frontier finds the same cells."""
        old = min(old, count - 1)
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(count, 3, seed))]
        lower, upper = [0.0] * 3, [0.5] * 3
        previous = WithinLeafProcessor(lower, upper, halfspaces[:old],
                                       use_pairwise=True, pairwise_min_size=2,
                                       track_frontier=True)
        previous.minimal_cells(extra=old)  # populate the frontier for all weights
        seeded = WithinLeafProcessor(lower, upper, halfspaces,
                                     use_pairwise=True, pairwise_min_size=2,
                                     seed_state=previous.reuse_state())
        fresh = WithinLeafProcessor(lower, upper, halfspaces,
                                    use_pairwise=True, pairwise_min_size=2)
        for weight in range(count + 1):
            seeded_cells = {cell.bits for cell in seeded.cells_at_weight(weight)}
            fresh_cells = {cell.bits for cell in fresh.cells_at_weight(weight)}
            assert seeded_cells == fresh_cells

    def test_frontier_fallback_when_weight_missing(self):
        """Weights the old processor never enumerated fall back to full DFS."""
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(7, 3, 21))]
        lower, upper = [0.0] * 3, [0.5] * 3
        previous = WithinLeafProcessor(lower, upper, halfspaces[:4],
                                       use_pairwise=True, pairwise_min_size=2,
                                       track_frontier=True)
        previous.cells_at_weight(0)  # frontier only has weight 0
        seeded = WithinLeafProcessor(lower, upper, halfspaces,
                                     use_pairwise=True, pairwise_min_size=2,
                                     seed_state=previous.reuse_state())
        fresh = WithinLeafProcessor(lower, upper, halfspaces,
                                    use_pairwise=True, pairwise_min_size=2)
        for weight in range(8):
            assert {c.bits for c in seeded.cells_at_weight(weight)} == {
                c.bits for c in fresh.cells_at_weight(weight)
            }

    @given(seed=st.integers(0, 120), old=st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_frontier_grown_past_the_pairwise_minimum_emits_the_survivors(
        self, seed, old
    ):
        """A frontier recorded without a pair analysis (the old partial set
        was below ``pairwise_min_size``) is replayed against the new one's
        verdicts: the seeded walk emits exactly the filter survivors (in
        frontier order, not lexicographic)."""
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(9, 3, seed))]
        lower, upper = [0.0] * 3, [0.5] * 3
        previous = WithinLeafProcessor(lower, upper, halfspaces[:old],
                                       pairwise_min_size=6, track_frontier=True)
        previous.minimal_cells(extra=old)
        assert previous.reuse_state().pairwise is None
        seeded = WithinLeafProcessor(lower, upper, halfspaces, pairwise_min_size=6,
                                     seed_state=previous.reuse_state())
        for weight in range(old + 1):
            emitted = [ones for chunk in seeded._candidate_chunks(weight)
                       for ones in chunk]
            assert sorted(emitted) == oracle_survivors(seeded, weight)

    def test_minimal_cells_unchanged_by_seeding(self):
        halfspaces = [(i, h) for i, h in enumerate(random_halfspaces(8, 4, 5))]
        lower, upper = [0.05] * 4, [0.45] * 4
        previous = WithinLeafProcessor(lower, upper, halfspaces[:5],
                                       use_pairwise=True, pairwise_min_size=2,
                                       track_frontier=True)
        previous.minimal_cells(extra=2)
        seeded = WithinLeafProcessor(lower, upper, halfspaces,
                                     use_pairwise=True, pairwise_min_size=2,
                                     seed_state=previous.reuse_state())
        fresh = WithinLeafProcessor(lower, upper, halfspaces,
                                    use_pairwise=True, pairwise_min_size=2)
        assert seeded.minimal_cells(extra=1)[0] == fresh.minimal_cells(extra=1)[0]
        assert {c.bits for c in seeded.minimal_cells(extra=1)[1]} == {
            c.bits for c in fresh.minimal_cells(extra=1)[1]
        }
