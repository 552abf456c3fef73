"""Tests for the public facade (maxrank / imaxrank), result types and accessor."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CostCounters,
    MaxRankRegion,
    MaxRankResult,
    RStarTree,
    generate_independent,
    imaxrank,
    maxrank,
)
from repro.core import DataAccessor
from repro.core.result import MaxRankRegion as RegionType
from repro.errors import AlgorithmError
from repro.geometry import Interval


class TestFacadeDispatch:
    def test_auto_selects_aa2d_for_two_dimensions(self, small_2d):
        result = maxrank(small_2d, 0)
        assert result.algorithm == "AA-2D"

    def test_auto_selects_aa3d_for_three_dimensions(self, small_3d):
        result = maxrank(small_3d, 0)
        assert result.algorithm == "AA-3D"

    def test_auto_selects_aa_for_higher_dimensions(self):
        data = generate_independent(40, 4, seed=3)
        result = maxrank(data, 0)
        assert result.algorithm == "AA"

    @pytest.mark.parametrize("algorithm", ["auto", "aa", "aa3d", "ba"])
    def test_caller_use_planar_rejected(self, small_3d, algorithm):
        """The façade picks the planar sweep by d alone; a raw use_planar
        (the generic path is reachable only through aa_maxrank/ba_maxrank)
        is refused rather than silently honoured or ignored."""
        with pytest.raises(AlgorithmError, match="use_planar"):
            maxrank(small_3d, 0, algorithm=algorithm, use_planar=False)

    @pytest.mark.parametrize("name, expected", [
        ("fca", "FCA"), ("aa2d", "AA-2D"),
    ])
    def test_explicit_2d_algorithms(self, small_2d, name, expected):
        assert maxrank(small_2d, 1, algorithm=name).algorithm == expected

    @pytest.mark.parametrize("name, expected", [
        ("ba", "BA"), ("aa", "AA"), ("aa3d", "AA-3D"),
    ])
    def test_explicit_highdim_algorithms(self, small_3d, name, expected):
        assert maxrank(small_3d, 1, algorithm=name).algorithm == expected

    def test_exact_oracle_dispatch(self):
        data = generate_independent(16, 3, seed=21)
        result = maxrank(data, 0, algorithm="exact")
        assert result.algorithm == "BF"

    def test_unknown_algorithm_rejected(self, small_2d):
        with pytest.raises(AlgorithmError):
            maxrank(small_2d, 0, algorithm="magic")

    def test_all_algorithms_agree_on_k_star(self, small_2d):
        focal = 7
        values = {
            maxrank(small_2d, focal, algorithm=name).k_star for name in ("fca", "aa2d")
        }
        assert len(values) == 1

    def test_imaxrank_wrapper(self, small_3d):
        result = imaxrank(small_3d, 4, tau=1)
        assert result.tau == 1
        with pytest.raises(AlgorithmError):
            imaxrank(small_3d, 4, tau=-1)

    def test_shared_tree_and_counters(self, small_3d):
        tree = RStarTree.build(small_3d.records)
        counters = CostCounters()
        first = maxrank(small_3d, 1, tree=tree, counters=counters)
        pages_after_first = counters.page_reads
        maxrank(small_3d, 2, tree=tree, counters=counters)
        assert counters.page_reads > pages_after_first
        assert first.counters is counters


class TestResultObjects:
    def test_summary_mentions_key_numbers(self, small_2d):
        result = maxrank(small_2d, 3)
        text = result.summary()
        assert f"k*={result.k_star}" in text
        assert f"|T|={result.region_count}" in text

    def test_best_regions_and_regions_at(self, small_3d):
        result = maxrank(small_3d, 3, tau=1)
        best = result.best_regions()
        assert best == result.regions_at(result.k_star)
        assert all(region.order == result.k_star for region in best)

    def test_total_volume_positive(self, small_3d):
        result = maxrank(small_3d, 3)
        assert result.total_volume() > 0

    def test_representative_queries_are_permissible(self, small_3d):
        result = maxrank(small_3d, 5)
        for query in result.representative_queries():
            assert query.shape == (small_3d.d,)
            assert (query > 0).all()
            assert query.sum() == pytest.approx(1.0)

    def test_region_reduced_dim(self, small_2d, small_3d):
        r2 = maxrank(small_2d, 0).regions[0]
        r3 = maxrank(small_3d, 0).regions[0]
        assert r2.reduced_dim == 1
        assert r3.reduced_dim == 2

    def test_invalid_result_construction(self):
        with pytest.raises(AlgorithmError):
            MaxRankResult(
                k_star=0, regions=[], dominator_count=0, minimum_cell_order=0,
                tau=0, algorithm="X",
            )
        with pytest.raises(AlgorithmError):
            MaxRankResult(
                k_star=1, regions=[], dominator_count=0, minimum_cell_order=0,
                tau=-1, algorithm="X",
            )

    def test_region_volume_interval(self):
        region = MaxRankRegion(geometry=Interval(0.2, 0.5), cell_order=0, order=1)
        assert region.volume() == pytest.approx(0.3)
        assert region.representative_query().shape == (2,)


class TestDataAccessor:
    def test_focal_by_index_excluded_from_incomparable(self, small_3d):
        accessor = DataAccessor(small_3d, 0)
        assert all(record_id != 0 for record_id, _ in accessor.scan_incomparable())

    def test_dominator_count_matches_partition(self, small_3d):
        accessor = DataAccessor(small_3d, 6)
        assert accessor.dominator_count() == accessor.partition().dominator_count

    def test_scan_matches_partition(self, small_3d):
        accessor = DataAccessor(small_3d, 6)
        scanned = {record_id for record_id, _ in accessor.scan_incomparable()}
        assert scanned == set(accessor.partition().incomparable.tolist())

    def test_external_focal(self, small_3d):
        accessor = DataAccessor(small_3d, np.array([0.5, 0.5, 0.5]))
        assert accessor.focal_index is None
        assert accessor.dominator_count() >= 0

    def test_counters_shared(self, small_3d):
        counters = CostCounters()
        accessor = DataAccessor(small_3d, 1, counters=counters)
        accessor.dominator_count()
        assert counters.page_reads > 0


class TestCostCounters:
    def test_timer_accumulates(self):
        counters = CostCounters()
        with counters.timer("phase"):
            pass
        with counters.timer("phase"):
            pass
        assert counters.timer_seconds("phase") >= 0
        assert "time_phase" in counters.as_dict()

    def test_merge(self):
        a, b = CostCounters(), CostCounters()
        a.count_page_read(1)
        b.count_page_read(2)
        b.lp_calls = 5
        a.merge(b)
        assert a.page_reads == 2
        assert a.distinct_page_reads == 2
        assert a.lp_calls == 5

    def test_reset(self):
        counters = CostCounters()
        counters.count_page_read(3)
        counters.reset()
        assert counters.page_reads == 0
        assert counters.distinct_page_reads == 0

    def test_distinct_vs_total(self):
        counters = CostCounters()
        counters.count_page_read(1)
        counters.count_page_read(1)
        assert counters.page_reads == 2
        assert counters.distinct_page_reads == 1
