"""Infeasibility cores in the within-leaf funnel.

An LP that finds a candidate cell empty returns the rows tight at its
max-slack optimum (the cell's *core*); the leaf keeps it, and later
candidates that fix every core row the same way are rejected without an
LP.  These tests pin the three properties the gate rests on:

* **soundness** — every candidate the gate cuts is empty when solved by
  the LP without the gate, and answers equal the brute-force oracle on a
  ``d ∈ {4, 5}`` matrix (the 42-case differential matrix is ``d = 3`` and
  barely reaches the LP);
* **determinism** — cores travel between the weights of a leaf in task
  order, so serial and pooled runs cut, learn and solve identically, and a
  chain of self-contained tasks matches one live processor;
* **reuse** — a grown leaf inherits its cores through
  :class:`~repro.quadtree.withinleaf.LeafReuseState` and makes fewer LPs
  with identical cells.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import CostCounters, generate, maxrank
from repro.core import maxrank_exact_small
from repro.engine import LeafTask, ProcessPoolExecutor, execute_leaf_task
from repro.geometry.halfspace import halfspace_for_record
from repro.geometry.lp import find_interior_point_arrays
from repro.quadtree.withinleaf import WithinLeafProcessor
from repro.skyline.dominance import partition_by_dominance

from test_differential import assert_rank_semantics, canonical_cells

#: Cardinalities tried per distribution for an oracle-sized focal record
#: (at most ``_MAX_INCOMPARABLE`` incomparable records) at d = 4 and 5.
_CASE_CARDINALITIES = {
    "IND": (24, 20, 16, 12),
    "ANTI": (12, 10, 8),
    "COR": (48, 36, 24),
}
_MAX_INCOMPARABLE = 10


def make_case(dist, d, seed):
    """A seeded ``(dataset, focal)`` pair with 4–10 incomparable records."""
    for n in _CASE_CARDINALITIES[dist]:
        dataset = generate(dist, n, d, seed=seed)
        for focal in range(dataset.n):
            partition = partition_by_dominance(
                dataset, dataset.records[focal], exclude_index=focal
            )
            if 4 <= partition.incomparable.shape[0] <= _MAX_INCOMPARABLE:
                return dataset, focal
    raise AssertionError(f"no oracle-sized focal record for {dist}/d={d}/seed={seed}")


@pytest.fixture
def shadowed_gate(monkeypatch):
    """Solve every core-cut candidate with the LP alone; collect verdicts."""
    verdicts = []
    original = WithinLeafProcessor._test_cell_lp

    def shadowed(self, bits):
        before = self.counters.core_cuts
        point = original(self, bits)
        if self.counters.core_cuts > before:
            signs = np.where(np.asarray(bits, dtype=bool), 1.0, -1.0)
            A = np.vstack([self._base_A, self._partial_A * signs[:, None]])
            b = np.concatenate([self._base_b, self._partial_b * signs])
            verdicts.append(
                find_interior_point_arrays(A, b, self.lower, self.upper).feasible
            )
        return point

    monkeypatch.setattr(WithinLeafProcessor, "_test_cell_lp", shadowed)
    return verdicts


class TestShadowMatrix:
    """IND/ANTI/COR × d ∈ {4, 5} × τ ∈ {0, 2} × 3 seeds against the oracle."""

    @pytest.mark.parametrize("dist", ["IND", "ANTI", "COR"])
    @pytest.mark.parametrize("d", [4, 5])
    @pytest.mark.parametrize("tau", [0, 2])
    def test_cut_candidates_are_empty(self, shadowed_gate, dist, d, tau):
        cuts = 0
        for seed in range(3):
            dataset, focal = make_case(dist, d, 200 + seed)
            counters = CostCounters()
            result = maxrank(dataset, focal, tau=tau, counters=counters)
            oracle = maxrank_exact_small(dataset, focal, tau=tau)
            assert result.k_star == oracle.k_star
            assert canonical_cells(result) == canonical_cells(oracle)
            assert_rank_semantics(dataset, focal, result)
            cuts += counters.core_cuts
        assert len(shadowed_gate) == cuts
        assert not any(shadowed_gate), "a core cut a non-empty cell"
        if tau:
            # iMaxRank widens the explored weights; the gate must fire.
            assert cuts > 0


def _pool_fingerprint(result, counters):
    return (
        [(r.cell_order, r.outscored_by, r.representative_query().tobytes())
         for r in result.regions],
        {name: value for name, value in counters.as_dict().items()
         if not name.startswith("time_")},
    )


class TestSerialEqualsPooled:
    def test_pool_cuts_learns_and_solves_identically(self):
        # Six AA iterations: cores cross weights and grown-leaf rescans.
        dataset = generate("IND", 100, 4, seed=301)
        serial_counters = CostCounters()
        serial = maxrank(dataset, 32, counters=serial_counters)
        pooled_counters = CostCounters()
        with ProcessPoolExecutor(2) as pool:
            pooled = maxrank(dataset, 32, counters=pooled_counters, executor=pool)
        assert serial_counters.core_cuts > 0
        assert _pool_fingerprint(pooled, pooled_counters) == _pool_fingerprint(
            serial, serial_counters
        )
        for name in ("core_cuts", "cores_learned", "lp_calls"):
            assert getattr(pooled_counters, name) == getattr(serial_counters, name)


def _leaf(seed, count):
    """Partial half-spaces of random records against a central focal."""
    rng = np.random.default_rng(seed)
    focal = np.full(4, 0.5)
    return [
        (rid, halfspace_for_record(rng.uniform(0.0, 1.0, size=4), focal, record_id=rid))
        for rid in range(count)
    ]


def _cells(pair):
    minimum, cells = pair
    return minimum, [(cell.bits, cell.interior_point.tobytes()) for cell in cells]


class TestCoreTransport:
    LOWER, UPPER = np.zeros(3), np.full(3, 0.34)

    def test_grown_leaf_inherits_cores(self):
        partial = _leaf(10, 14)
        previous = WithinLeafProcessor(
            self.LOWER, self.UPPER, partial[:9], track_frontier=True
        )
        previous.minimal_cells(extra=2)
        state = previous.reuse_state()
        assert state.cores and state.cores == tuple(previous.learned_cores())

        inheriting, forgetful = CostCounters(), CostCounters()
        grown = WithinLeafProcessor(
            self.LOWER, self.UPPER, partial, seed_state=state, counters=inheriting
        )
        fresh = WithinLeafProcessor(
            self.LOWER, self.UPPER, partial, seed_state=replace(state, cores=()),
            counters=forgetful,
        )
        assert _cells(grown.minimal_cells(extra=2)) == _cells(
            fresh.minimal_cells(extra=2)
        )
        assert inheriting.lp_calls < forgetful.lp_calls
        assert grown.reuse_state().cores[: len(state.cores)] == state.cores

    def test_cores_are_dropped_when_the_ids_are_not_a_prefix(self):
        partial = _leaf(10, 14)
        previous = WithinLeafProcessor(self.LOWER, self.UPPER, partial[:9])
        previous.minimal_cells(extra=2)
        state = previous.reuse_state()
        shuffled = partial[1:] + partial[:1]
        processor = WithinLeafProcessor(
            self.LOWER, self.UPPER, shuffled, seed_state=state
        )
        assert processor.reuse_state().cores == ()

    def test_task_chain_matches_live_processor(self):
        """Shipping each weight's learned cores (and witnesses) to the next
        weight's task reproduces one processor walking every weight."""
        partial = tuple(_leaf(8, 14))
        live_counters = CostCounters()
        live = WithinLeafProcessor(
            self.LOWER, self.UPPER, partial, counters=live_counters
        )
        chained = CostCounters()
        cores, witnesses = [], []
        for weight in range(6):
            task = LeafTask(
                leaf_key=0, seq=0, weight=weight, lower=self.LOWER,
                upper=self.UPPER, partial=partial,
                seed_probes=tuple(witnesses) or None, seed_cores=tuple(cores),
            )
            result = execute_leaf_task(task)
            cores.extend(result.cores)
            witnesses.extend(result.witnesses)
            chained.merge(result.counters)
            expected = live.cells_at_weight(weight)
            assert [c.bits for c in result.cells] == [c.bits for c in expected]
        assert cores == live.learned_cores()
        assert chained.core_cuts == live_counters.core_cuts > 0
        assert chained.lp_calls == live_counters.lp_calls
