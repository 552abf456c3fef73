"""Pay-as-you-read within-leaf state.

A :class:`~repro.quadtree.withinleaf.WithinLeafProcessor` builds each piece
of its state on first read: the pair analysis one orientation at a time
(a weight-0 walk reads only the ``(0, 0)`` verdicts, and none at all when a
row bound or an empty inherited frontier settles the all-zeros string), and
the probe panel when the first batch screen runs.  These tests pin that the
laziness moves no counter, cell, core or witness:

* a weight-0 task that ends in a row cut, or that inherits an empty
  frontier, analyses no pair and counts exactly what the eager walk (the
  analysis built up front) counts;
* the vectorised pair analysis equals a per-pair reference loop over
  :func:`~repro.quadtree.withinleaf._pair_combo_feasible`, with and without
  reused prefixes;
* a processor that never materialised its panel reports no witnesses;
* a chain of self-contained :class:`~repro.engine.tasks.LeafTask` units,
  serial and pooled, equals one live processor walking every weight.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostCounters
from repro.engine import LeafTask, ProcessPoolExecutor, SerialExecutor, execute_leaf_task
from repro.geometry import Halfspace
from repro.geometry.halfspace import halfspace_for_record
from repro.geometry.lp import MIN_INTERIOR_RADIUS
from repro.quadtree.withinleaf import (
    PairwiseConstraints,
    WithinLeafProcessor,
    _pair_combo_feasible,
)

LOWER, UPPER = np.zeros(3), np.full(3, 0.34)


def _leaf(seed, count):
    """Partial half-spaces of random records against a central focal."""
    rng = np.random.default_rng(seed)
    focal = np.full(4, 0.5)
    return [
        (rid, halfspace_for_record(rng.uniform(0.0, 1.0, size=4), focal, record_id=rid))
        for rid in range(count)
    ]


#: A row whose 0-side is empty in the leaf box (``x0 + x1 + x2 > -5``
#: holds everywhere there): the all-zeros string is cut by its row bound.
ROW_CUT = (100, Halfspace([1.0, 1.0, 1.0], -5.0, record_id=100))
#: Two rows whose 0-sides (``x0 < 0.1`` and ``x0 > 0.2``) are disjoint in
#: the box although each is satisfiable: the all-zeros string is pair-cut.
PAIR_CUT = [
    (101, Halfspace([1.0, 0.0, 0.0], 0.1, record_id=101)),
    (102, Halfspace([-1.0, 0.0, 0.0], -0.2, record_id=102)),
]


def _counts(counters):
    return {
        name: value for name, value in counters.as_dict().items()
        if not name.startswith("time_")
    }


def _cell_keys(cells):
    return [(cell.bits, cell.interior_point.tobytes()) for cell in cells]


@pytest.fixture
def analysed(monkeypatch):
    """Record every orientation the pair analyses actually compute."""
    computed = []
    original = PairwiseConstraints._analyse

    def spy(self, orientations):
        computed.extend(o for o in orientations if o not in self._masks)
        original(self, orientations)

    monkeypatch.setattr(PairwiseConstraints, "_analyse", spy)
    return computed


def _eager(partial, weight, **options):
    """The reference walk: the pair analysis built before the DFS reads it."""
    counters = CostCounters()
    processor = WithinLeafProcessor(LOWER, UPPER, partial, counters=counters, **options)
    assert processor.pairwise_constraints is not None
    cells = processor.cells_at_weight(weight)
    return _cell_keys(cells), _counts(counters)


class TestWeightZeroReadsNoPairs:
    def test_row_cut_builds_no_analysis(self, analysed):
        partial = _leaf(3, 8) + [ROW_CUT]
        counters = CostCounters()
        processor = WithinLeafProcessor(LOWER, UPPER, partial, counters=counters)
        cells = processor.cells_at_weight(0)
        assert analysed == []
        assert processor.built_pairwise() is None
        assert counters.prefixes_cut == 1 and counters.candidates_generated == 0
        assert (_cell_keys(cells), _counts(counters)) == _eager(partial, 0)

    def test_row_cut_task_ships_no_analysis(self, analysed):
        partial = tuple(_leaf(3, 8) + [ROW_CUT])
        result = execute_leaf_task(
            LeafTask(leaf_key=0, seq=0, weight=0, lower=LOWER, upper=UPPER,
                     partial=partial)
        )
        assert analysed == [] and result.pairwise is None
        assert result.witnesses == [] and result.counters.prefixes_cut == 1

    def test_empty_inherited_frontier_builds_no_analysis(self, analysed):
        partial = [ROW_CUT] + _leaf(4, 9)
        previous = WithinLeafProcessor(LOWER, UPPER, partial[:7], track_frontier=True)
        previous.cells_at_weight(0)
        state = previous.reuse_state()
        assert state.frontier == {0: ()} and state.pairwise is None
        counters = CostCounters()
        grown = WithinLeafProcessor(
            LOWER, UPPER, partial, counters=counters, seed_state=state
        )
        cells = grown.cells_at_weight(0)
        assert analysed == []
        assert counters.prefixes_cut == 0 and counters.candidates_generated == 0
        assert (_cell_keys(cells), _counts(counters)) == _eager(
            partial, 0, seed_state=state
        )

    def test_pair_cut_reads_only_the_zero_zero_verdicts(self, analysed):
        partial = _leaf(20, 6) + PAIR_CUT
        counters = CostCounters()
        processor = WithinLeafProcessor(LOWER, UPPER, partial, counters=counters)
        cells = processor.cells_at_weight(0)
        assert analysed == [(0, 0)]
        assert processor.built_pairwise() is None
        assert counters.prefixes_cut == 1
        assert (_cell_keys(cells), _counts(counters)) == _eager(partial, 0)
        # The next weight analyses the three missing orientations only.
        del analysed[:]
        processor.cells_at_weight(1)
        assert sorted(analysed) == [(0, 1), (1, 0), (1, 1)]
        assert processor.built_pairwise() is not None

    @given(seed=st.integers(0, 200), count=st.integers(6, 11))
    @settings(max_examples=25, deadline=None)
    def test_every_weight_counts_what_the_eager_walk_counts(self, seed, count):
        partial = _leaf(seed, count)
        lazy_counters = CostCounters()
        lazy = WithinLeafProcessor(LOWER, UPPER, partial, counters=lazy_counters)
        eager_counters = CostCounters()
        eager = WithinLeafProcessor(LOWER, UPPER, partial, counters=eager_counters)
        eager.pairwise_constraints  # build every verdict up front
        for weight in range(min(count, 4) + 1):
            assert _cell_keys(lazy.cells_at_weight(weight)) == _cell_keys(
                eager.cells_at_weight(weight)
            )
        assert _counts(lazy_counters) == _counts(eager_counters)
        assert lazy.learned_cores() == eager.learned_cores()


def _reference_masks(halfspaces, lower, upper):
    """Per-pair, per-orientation loop over the closed-form pair test, as
    ``(c00, c01, c10, c11)`` conflict masks."""
    masks = {o: [0] * len(halfspaces) for o in ((0, 0), (0, 1), (1, 0), (1, 1))}
    for j in range(len(halfspaces)):
        for i in range(j):
            h_i, h_j = halfspaces[i][1], halfspaces[j][1]
            for bit_i, bit_j in masks:
                s_i = 1.0 if bit_i else -1.0
                s_j = 1.0 if bit_j else -1.0
                feasible = _pair_combo_feasible(
                    (s_i * h_i.coefficients)[None],
                    np.array([s_i * h_i.offset
                              + MIN_INTERIOR_RADIUS * np.linalg.norm(h_i.coefficients)]),
                    (s_j * h_j.coefficients)[None],
                    np.array([s_j * h_j.offset
                              + MIN_INTERIOR_RADIUS * np.linalg.norm(h_j.coefficients)]),
                    lower,
                    upper,
                )[0]
                if not feasible:
                    masks[bit_i, bit_j][j] |= 1 << i
    return tuple(masks.values())


class TestVectorisedBuild:
    @given(
        seed=st.integers(0, 500),
        count=st.integers(0, 12),
        dim=st.integers(2, 5),
        split=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_build_equals_the_per_pair_loop(self, seed, count, dim, split):
        rng = np.random.default_rng(seed)
        halfspaces = [
            (i, Halfspace(rng.normal(size=dim), float(rng.uniform(-0.3, 0.6))))
            for i in range(count)
        ]
        lower = rng.uniform(0.0, 0.3, size=dim)
        upper = lower + rng.uniform(0.05, 0.5, size=dim)
        reference = _reference_masks(halfspaces, lower, upper)
        scratch = PairwiseConstraints.build(halfspaces, lower, upper)
        assert scratch.conflict_masks() == reference
        prefix = PairwiseConstraints.build(halfspaces[: min(split, count)], lower, upper)
        grown = PairwiseConstraints.build(halfspaces, lower, upper, reuse=prefix)
        assert grown._reused_prefix_len == min(split, count)
        assert grown.conflict_masks() == reference

    @given(seed=st.integers(0, 300), count=st.integers(2, 10))
    @settings(max_examples=30, deadline=None)
    def test_one_orientation_equals_its_share_of_the_full_build(self, seed, count):
        halfspaces = _leaf(seed, count)
        full = PairwiseConstraints.build(halfspaces, LOWER, UPPER)
        lazy = WithinLeafProcessor(LOWER, UPPER, halfspaces, pairwise_min_size=2)
        assert lazy._pairwise.masks(0, 0) == full.masks(0, 0)
        assert not lazy._pairwise.built
        assert lazy.pairwise_constraints.conflict_masks() == full.conflict_masks()


class TestLazyPanel:
    def test_unmaterialised_panel_reports_no_witnesses(self):
        seeds = [np.full(3, 0.1), np.full(3, 0.2)]
        processor = WithinLeafProcessor(
            LOWER, UPPER, _leaf(3, 8) + [ROW_CUT], seed_probes=seeds
        )
        processor.cells_at_weight(0)
        assert processor._probe_points is None
        assert processor.witness_probes() == []

    def test_planar_clipping_never_materialises_the_panel(self):
        focal = np.full(3, 0.5)
        rng = np.random.default_rng(2)
        partial = [
            (rid, halfspace_for_record(rng.uniform(0.0, 1.0, size=3), focal))
            for rid in range(5)
        ]
        processor = WithinLeafProcessor(
            np.zeros(2), np.full(2, 0.5), partial, seed_probes=[np.full(2, 0.2)]
        )
        processor.minimal_cells(extra=2)
        assert processor._probe_points is None
        assert processor.witness_probes() == []

    def test_materialised_panel_reports_only_new_witnesses(self):
        seeds = [np.full(3, 0.1)]
        processor = WithinLeafProcessor(LOWER, UPPER, _leaf(8, 14), seed_probes=seeds)
        plain = WithinLeafProcessor(LOWER, UPPER, _leaf(8, 14))
        for weight in range(4):
            processor.cells_at_weight(weight)
            plain.cells_at_weight(weight)
        assert processor._probe_points is not None
        default = len(plain._default_probes())
        assert len(processor._probe_points) == default + 1 + len(processor.witness_probes())
        assert all(
            not np.array_equal(point, seeds[0]) for point in processor.witness_probes()
        )


def _chain(executor, leaves, weights):
    """Run every leaf's weights as chained tasks, one batch per weight."""
    mirrors = [
        {"witnesses": [], "cores": [], "pairwise": None, "counters": CostCounters(),
         "cells": []}
        for _ in leaves
    ]
    shipped_at = [None] * len(leaves)
    for weight in weights:
        tasks = [
            LeafTask(
                leaf_key=key, seq=key, weight=weight, lower=LOWER, upper=UPPER,
                partial=partial,
                seed_probes=tuple(mirror["witnesses"]) or None,
                seed_cores=tuple(mirror["cores"]),
                pairwise=mirror["pairwise"],
            )
            for key, (partial, mirror) in enumerate(zip(leaves, mirrors))
        ]
        for key, (mirror, result) in enumerate(zip(mirrors, executor.run(tasks))):
            mirror["witnesses"].extend(result.witnesses)
            mirror["cores"].extend(result.cores)
            mirror["counters"].merge(result.counters)
            mirror["cells"].append(_cell_keys(result.cells))
            if result.pairwise is not None:
                assert mirror["pairwise"] is None, "an analysis shipped twice"
                mirror["pairwise"] = result.pairwise
                shipped_at[key] = weight
    return mirrors, shipped_at


class TestTaskChain:
    WEIGHTS = range(5)

    @pytest.mark.parametrize("pooled", [False, True])
    def test_task_chain_equals_one_live_processor(self, pooled):
        leaves = [tuple(_leaf(8, 14)), tuple(_leaf(9, 12) + PAIR_CUT)]
        if pooled:
            with ProcessPoolExecutor(2) as pool:
                mirrors, shipped_at = _chain(pool, leaves, self.WEIGHTS)
        else:
            mirrors, shipped_at = _chain(SerialExecutor(), leaves, self.WEIGHTS)
        for partial, mirror, weight_shipped in zip(leaves, mirrors, shipped_at):
            counters = CostCounters()
            live = WithinLeafProcessor(LOWER, UPPER, partial, counters=counters)
            cells = [_cell_keys(live.cells_at_weight(w)) for w in self.WEIGHTS]
            assert mirror["cells"] == cells
            assert mirror["cores"] == live.learned_cores()
            assert [p.tobytes() for p in mirror["witnesses"]] == [
                p.tobytes() for p in live.witness_probes()
            ]
            assert _counts(mirror["counters"]) == _counts(counters)
            # Weight 0 reads at most the (0, 0) verdicts; the next weight's
            # task builds the analysis and ships it once.
            assert weight_shipped == 1
            assert mirror["pairwise"].conflict_masks() == (
                live.pairwise_constraints.conflict_masks()
            )
