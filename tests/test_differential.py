"""Seeded randomized differential harness for the MaxRank engines.

Dimension-specialised fast paths are where query processors silently
diverge, so every specialised engine in this repo is pinned against two
independent references on a seeded random matrix:

* at ``d = 3``: the planar-sweep engine (``maxrank()``'s ``aa3d``)
  versus the generic quad-tree path (``aa_maxrank(..., use_planar=False)``,
  reachable only from tests) versus the
  brute-force arrangement oracle (:func:`repro.core.maxrank_exact_small`),
  over IND/ANTI/COR × τ ∈ {1, 4} × several seeds (42 cases), plus a τ = 0
  sanity slice; the basic approach (``algorithm="ba"``) runs the same
  matrix against ``ba_maxrank(..., use_planar=False)`` and the oracle;
* at ``d = 2``: the sorted-list arrangement (``aa2d``) versus the same
  brute-force oracle.

Three levels of agreement are asserted per case:

1. **k\\*** — identical across all engines and the oracle.
2. **Region sets** — *bit-identical* between the planar and the generic
   engine (same orders, same outscored sets, same representative points,
   byte for byte); *canonically identical* against the oracle (the
   quad-tree engines report cells fragmented by leaf, so fragments are
   collapsed by their ``(cell_order, outscored_by)`` identity, which
   uniquely determines an arrangement cell).
3. **Counters and semantics** — the engine-invariant cost counters (I/O,
   records accessed, half-space inserts/expansions, iterations, non-empty
   cells, leaf accounting) are equal between the two engines, and every
   reported region's representative query really gives the focal record
   the region's order (checked with the independent scoring layer).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CostCounters, generate, maxrank
from repro.core import aa_maxrank, ba_maxrank
from repro.obs import Tracer
from repro.skyline.dominance import partition_by_dominance
from repro.topk.scoring import order_of

#: Counters that must not depend on the within-leaf engine: everything
#: outside candidate discovery.  (Discovery-side counters — candidates
#: generated, cells examined, pairwise pruned, faces enumerated — legitimately
#: differ between the combinatorial generator and the planar sweep.)
ENGINE_INVARIANT_COUNTERS = (
    "page_reads",
    "distinct_page_reads",
    "records_accessed",
    "halfspaces_inserted",
    "halfspaces_expanded",
    "skyline_updates",
    "iterations",
    "nonempty_cells",
    "leaves_processed",
    "leaves_pruned",
)

#: Brute-force oracle budget: cases are selected so the focal record has at
#: most this many incomparable records.
_MAX_INCOMPARABLE = 12

#: Cardinalities tried per distribution when selecting a case.  The
#: incomparable-set size distribution differs wildly between them (almost
#: everything is incomparable on an anticorrelated shell; almost nothing on
#: a correlated one), so each distribution gets oracle-sized cases from a
#: different n range.
_CASE_CARDINALITIES = {
    "IND": (24, 20, 30),
    "ANTI": (12, 10, 14),
    "COR": (48, 36, 60),
}


def pick_focal(dataset, *, lo=4, hi=_MAX_INCOMPARABLE):
    """First focal index with an oracle-sized, non-trivial incomparable set."""
    for index in range(dataset.n):
        partition = partition_by_dominance(
            dataset, dataset.records[index], exclude_index=index
        )
        count = partition.incomparable.shape[0]
        if lo <= count <= hi:
            return index
    return None


def make_case(dist, d, seed):
    """A seeded ``(dataset, focal)`` pair with an oracle-sized focal record."""
    for n in _CASE_CARDINALITIES[dist]:
        dataset = generate(dist, n, d, seed=seed)
        focal = pick_focal(dataset)
        if focal is not None:
            return dataset, focal
    raise AssertionError(
        f"no oracle-sized focal record for {dist}/d={d}/seed={seed}"
    )


def region_fingerprint(result):
    """Bit-exact region identity: order, outscored set, representative bytes."""
    return sorted(
        (
            region.cell_order,
            region.outscored_by,
            region.representative_query().tobytes(),
        )
        for region in result.regions
    )


def canonical_cells(result):
    """Collapse leaf fragments: the set of (cell_order, outscored_by) pairs.

    An arrangement cell is uniquely identified by the records outscoring the
    focal inside it, so this canonicalisation makes quad-tree results (which
    report cells fragmented by leaf, with outscored ids in half-space-id
    order) comparable with whole-space oracles (record-id order).
    """
    return {
        (region.cell_order, tuple(sorted(region.outscored_by)))
        for region in result.regions
    }


def assert_rank_semantics(dataset, focal, result):
    """Every region's representative query must realise the region's order."""
    for region in result.regions:
        query = region.representative_query()
        assert order_of(dataset, focal, query) == region.order


CASES_3D = [
    (dist, tau, seed)
    for dist in ("IND", "ANTI", "COR")
    for tau in (1, 4)
    for seed in range(7)
]


class TestPlanarVsGenericVsBruteforce3D:
    """The full d = 3 differential matrix (42 seeded cases)."""

    @pytest.mark.parametrize("dist,tau,seed", CASES_3D)
    def test_differential_case(self, dist, tau, seed):
        dataset, focal = make_case(dist, 3, 100 + seed)

        planar_counters = CostCounters()
        planar = maxrank(dataset, focal, tau=tau, counters=planar_counters)
        generic_counters = CostCounters()
        generic = aa_maxrank(
            dataset, focal, tau=tau, counters=generic_counters, use_planar=False
        )
        oracle = maxrank(dataset, focal, algorithm="exact", tau=tau)

        # 1. k* agreement everywhere.
        assert planar.algorithm == "AA-3D" and generic.algorithm == "AA"
        assert planar.k_star == generic.k_star == oracle.k_star
        assert planar.dominator_count == generic.dominator_count == oracle.dominator_count
        assert planar.minimum_cell_order == generic.minimum_cell_order

        # 2. Bit-identical regions between the two engines; canonical
        #    identity against the oracle.
        assert region_fingerprint(planar) == region_fingerprint(generic)
        assert canonical_cells(planar) == canonical_cells(oracle)

        # 3. Engine-invariant counters and independent rank semantics.
        planar_dump = planar_counters.as_dict()
        generic_dump = generic_counters.as_dict()
        for name in ENGINE_INVARIANT_COUNTERS:
            assert planar_dump[name] == generic_dump[name], name
        assert_rank_semantics(dataset, focal, planar)
        assert_rank_semantics(dataset, focal, oracle)

    @pytest.mark.parametrize("dist,seed", [
        ("IND", 0), ("ANTI", 1), ("COR", 2), ("IND", 3), ("ANTI", 4),
    ])
    def test_tau_zero_sanity(self, dist, seed):
        """Plain MaxRank slice: minimum-order cells only."""
        dataset, focal = make_case(dist, 3, 200 + seed)
        planar = maxrank(dataset, focal)
        generic = aa_maxrank(dataset, focal, use_planar=False)
        oracle = maxrank(dataset, focal, algorithm="exact")
        assert planar.k_star == generic.k_star == oracle.k_star
        assert region_fingerprint(planar) == region_fingerprint(generic)
        assert canonical_cells(planar) == canonical_cells(oracle)

    def test_planar_engine_is_deterministic(self):
        dataset, focal = make_case("IND", 3, 300)
        first = maxrank(dataset, focal, tau=2)
        second = maxrank(dataset, focal, tau=2)
        assert region_fingerprint(first) == region_fingerprint(second)


class TestBaPlanarVsGenericVsBruteforce3D:
    """The same 42-case matrix through the basic approach (BA).

    ``maxrank(..., algorithm="ba")`` turns the planar sweep on at ``d = 3``
    exactly as ``aa`` does, so BA's planar and generic within-leaf paths
    must agree bit for bit as well, and both with the oracle.
    """

    @pytest.mark.parametrize("dist,tau,seed", CASES_3D)
    def test_ba_planar_matches_generic_and_oracle(self, dist, tau, seed):
        dataset, focal = make_case(dist, 3, 100 + seed)

        planar_counters = CostCounters()
        planar = maxrank(
            dataset, focal, algorithm="ba", tau=tau, counters=planar_counters
        )
        generic_counters = CostCounters()
        generic = ba_maxrank(
            dataset, focal, tau=tau, counters=generic_counters, use_planar=False
        )
        oracle = maxrank(dataset, focal, algorithm="exact", tau=tau)

        assert planar.algorithm == generic.algorithm == "BA"
        assert planar.k_star == generic.k_star == oracle.k_star
        assert planar.dominator_count == generic.dominator_count == oracle.dominator_count
        assert planar.minimum_cell_order == generic.minimum_cell_order
        assert region_fingerprint(planar) == region_fingerprint(generic)
        assert canonical_cells(planar) == canonical_cells(oracle)

        planar_dump = planar_counters.as_dict()
        generic_dump = generic_counters.as_dict()
        for name in ENGINE_INVARIANT_COUNTERS:
            assert planar_dump[name] == generic_dump[name], name
        assert generic_dump["faces_enumerated"] == 0
        assert_rank_semantics(dataset, focal, planar)


class TestCostPolicy3D:
    """split_policy='cost' over the same matrix.

    The policy changes only *where* the arrangement work happens
    (cost-driven vs static splits), so ``k*``, the dominator count and the
    canonical cell set must match the static policy and the brute-force
    oracle on every case — only the leaf-fragment granularity of the
    reported regions may differ.
    """

    @pytest.mark.parametrize("dist,tau,seed", CASES_3D)
    def test_cost_policy_matches_static_and_oracle(self, dist, tau, seed):
        dataset, focal = make_case(dist, 3, 100 + seed)
        static = maxrank(dataset, focal, tau=tau)
        cost = maxrank(dataset, focal, tau=tau, split_policy="cost")
        oracle = maxrank(dataset, focal, algorithm="exact", tau=tau)
        assert cost.k_star == static.k_star == oracle.k_star
        assert cost.dominator_count == static.dominator_count
        assert canonical_cells(cost) == canonical_cells(oracle)
        assert_rank_semantics(dataset, focal, cost)


class TestTracedBitIdentity3D:
    """Tracing must be bit-identity neutral over the full 42-case matrix.

    The span side channels (``CostCounters._spans`` / ``_tracer``) ride
    outside the counter dicts, so an instrumented run must produce the
    same regions and the same non-time counters as an untraced one.
    Wall-clock timer accumulations (``time_*`` keys) legitimately differ
    between any two runs and are stripped before comparison.
    """

    @staticmethod
    def _strip_times(dump):
        return {k: v for k, v in dump.items() if not k.startswith("time_")}

    @pytest.mark.parametrize("dist,tau,seed", CASES_3D)
    def test_traced_run_is_bit_identical(self, dist, tau, seed):
        dataset, focal = make_case(dist, 3, 100 + seed)

        plain_counters = CostCounters()
        plain = maxrank(dataset, focal, tau=tau, counters=plain_counters)

        tracer = Tracer()
        traced_counters = CostCounters()
        traced_counters._tracer = tracer
        with tracer.span("request"):
            traced = maxrank(
                dataset, focal, tau=tau, counters=traced_counters
            )
        traced_counters._tracer = None
        tracer.absorb(traced_counters.drain_spans())

        assert traced.k_star == plain.k_star
        assert traced.dominator_count == plain.dominator_count
        assert traced.minimum_cell_order == plain.minimum_cell_order
        assert region_fingerprint(traced) == region_fingerprint(plain)
        assert self._strip_times(traced_counters.as_dict()) == \
            self._strip_times(plain_counters.as_dict())

        records = tracer.records()
        assert records, "traced run recorded no spans"
        names = {record.name for record in records}
        assert "request" in names and "skyline" in names


class TestAa2dVsBruteforce2D:
    """The same harness pinning the d = 2 sorted-list arrangement."""

    @pytest.mark.parametrize("dist,tau,seed", [
        (dist, tau, seed)
        for dist in ("IND", "ANTI", "COR")
        for tau in (0, 1, 4)
        for seed in range(2)
    ])
    def test_aa2d_matches_bruteforce(self, dist, tau, seed):
        dataset, focal = make_case(dist, 2, 400 + seed)
        aa2d = maxrank(dataset, focal, algorithm="aa2d", tau=tau)
        oracle = maxrank(dataset, focal, algorithm="exact", tau=tau)
        assert aa2d.k_star == oracle.k_star
        assert canonical_cells(aa2d) == canonical_cells(oracle)
        assert_rank_semantics(dataset, focal, aa2d)
