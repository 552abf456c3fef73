"""Parallel quad-tree construction: identity, cost policy, counters.

The parallel build contract is *node-for-node identity*: a tree built by
shipping frontier subtrees to a process pool must be indistinguishable from
the serially built one — same node sequence numbers, same boxes, same
containment/partial sets, same scan-index buckets in the same order — so
every downstream scan, prune and within-leaf pass behaves identically.
These tests walk both trees and compare everything; the only tolerated
difference is the ``build_tasks`` counter (0 serial, positive parallel).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import CostCounters, generate, maxrank
from repro.core.aa import aa_maxrank
from repro.engine.executors import (
    ProcessPoolExecutor,
    SerialExecutor,
    make_executor,
)
from repro.experiments.reporting import construction_summary
from repro.geometry import Halfspace
from repro.quadtree import AugmentedQuadTree
from repro.quadtree.build import SubtreeBuildTask, build_subtree
from repro.service.core import MaxRankService


def random_halfspaces(count: int, dim: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    result = []
    for i in range(count):
        normal = rng.normal(size=dim)
        while np.allclose(normal, 0):
            normal = rng.normal(size=dim)
        result.append(Halfspace(normal, rng.uniform(-0.3, 0.6), record_id=i))
    return result


def structure_dump(tree: AugmentedQuadTree):
    """Everything structural, in deterministic traversal order."""
    nodes = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        nodes.append(
            (
                node.seq,
                node.depth,
                node.lower.tobytes(),
                node.upper.tobytes(),
                tuple(node.containment),
                tuple(node.partial),
                node.children is None,
            )
        )
        if node.children is not None:
            stack.extend(reversed(node.children))
    buckets = [
        tuple(entry.seq for entry in bucket) for bucket in tree._buckets
    ]
    return {
        "nodes": nodes,
        "buckets": buckets,
        "node_seq": tree._node_seq,
        "live_leaves": tree._live_leaves,
    }


def build_tree(halfspaces, *, executor=None, split_policy="static",
               max_depth=3, counters=None):
    tree = AugmentedQuadTree(
        3, max_depth=max_depth, split_policy=split_policy, counters=counters
    )
    tree.parallel_min_rows = 8  # the test workloads are far below the gate
    tree.insert_bulk(halfspaces, executor=executor)
    return tree


class TestParallelBuildIdentity:
    @pytest.mark.parametrize("split_policy", ["static", "cost"])
    def test_pool_build_is_node_for_node_identical(self, split_policy):
        halfspaces = random_halfspaces(300, 3, seed=17)
        serial_counters = CostCounters()
        serial = build_tree(
            halfspaces, split_policy=split_policy, counters=serial_counters
        )
        pool_counters = CostCounters()
        executor = make_executor(2)
        try:
            pool = build_tree(
                halfspaces,
                executor=executor,
                split_policy=split_policy,
                counters=pool_counters,
            )
        finally:
            executor.close()
        assert pool_counters.build_tasks > 0, "parallel path never engaged"
        assert serial_counters.build_tasks == 0
        assert structure_dump(pool) == structure_dump(serial)
        assert pool_counters.nodes_created == serial_counters.nodes_created
        assert pool_counters.splits_performed == serial_counters.splits_performed

    def test_parallel_gate_leaves_small_inserts_serial(self):
        halfspaces = random_halfspaces(40, 3, seed=5)
        counters = CostCounters()
        tree = AugmentedQuadTree(3, max_depth=3, counters=counters)
        executor = make_executor(2)
        try:
            tree.insert_bulk(halfspaces, executor=executor)
        finally:
            executor.close()
        # 40 rows < PARALLEL_MIN_ROWS: the build must not pay pool overhead.
        assert counters.build_tasks == 0

    @pytest.mark.parametrize("executor", [SerialExecutor(), ProcessPoolExecutor(1)])
    def test_single_worker_executors_build_serially(self, executor):
        counters = CostCounters()
        build_tree(random_halfspaces(300, 3, seed=17), executor=executor,
                   counters=counters)
        assert counters.build_tasks == 0

    def test_end_to_end_aa_parallel_build_matches_serial(self, monkeypatch):
        dataset = generate("IND", 300, 4, seed=0)

        def fingerprint(executor):
            counters = CostCounters()
            result = aa_maxrank(dataset, 7, counters=counters, executor=executor)
            dump = counters.as_dict()
            return (
                result.k_star,
                [r.cell_order for r in result.regions],
                [r.representative_query().tobytes() for r in result.regions],
                {k: v for k, v in dump.items()
                 if not k.startswith("time_") and k != "build_tasks"},
                dump["build_tasks"],
            )

        serial = fingerprint(None)
        monkeypatch.setattr("repro.quadtree.quadtree.PARALLEL_MIN_ROWS", 8)
        executor = make_executor(2)
        try:
            parallel = fingerprint(executor)
        finally:
            executor.close()
        assert parallel[:4] == serial[:4]
        assert serial[4] == 0 and parallel[4] > 0


class TestSubtreeBuildTask:
    def make_task(self, split_policy="static"):
        rng = np.random.default_rng(3)
        m = 60
        return SubtreeBuildTask(
            lower=np.zeros(3),
            upper=np.full(3, 0.5),
            depth=1,
            pending_ids=np.arange(100, 100 + m),
            coefficients=rng.normal(size=(m, 3)),
            offsets_tol=rng.uniform(-0.3, 0.4, size=m),
            split_threshold=10,
            max_depth=4,
            split_policy=split_policy,
        )

    @pytest.mark.parametrize("split_policy", ["static", "cost"])
    def test_pickle_roundtrip_builds_identical_subtree(self, split_policy):
        task = self.make_task(split_policy)
        direct = build_subtree(task)
        shipped = pickle.loads(pickle.dumps(task)).run()
        assert shipped.nodes_created == direct.nodes_created
        assert shipped.splits_performed == direct.splits_performed
        for field in ("lowers", "uppers", "events", "containment_flat",
                      "containment_offsets", "partial_flat", "partial_offsets"):
            assert np.array_equal(getattr(shipped, field), getattr(direct, field))

    def test_result_ids_are_original_tree_ids(self):
        result = build_subtree(self.make_task())
        ids = np.concatenate([result.containment_flat, result.partial_flat])
        assert ids.size > 0
        assert ids.min() >= 100 and ids.max() < 160


class TestCostPolicyBookkeeping:
    def test_cost_built_tree_has_exact_sets(self):
        """The dry-run child classification inside the cost model must agree
        with the actual redistribution: every leaf's containment/partial sets
        stay exact."""
        from repro.geometry import BoxRelation

        halfspaces = random_halfspaces(150, 3, seed=23)
        tree = AugmentedQuadTree(3, max_depth=3, split_policy="cost")
        tree.insert_bulk(halfspaces)
        assert tree.leaf_count() > 1
        for leaf in tree.leaves():
            full = leaf.full_ids()
            partial = set(leaf.partial)
            for hid, h in tree.halfspaces.items():
                relation = h.relation_to_box(leaf.lower, leaf.upper)
                if relation is BoxRelation.CONTAINS:
                    assert hid in full and hid not in partial
                elif relation is BoxRelation.OVERLAPS:
                    assert hid in partial and hid not in full
                else:
                    assert hid not in full and hid not in partial


class TestConstructionCounters:
    def test_merge_sums_construction_counters(self):
        a, b = CostCounters(), CostCounters()
        a.nodes_created, a.splits_performed, a.build_tasks = 8, 1, 2
        b.nodes_created, b.splits_performed, b.build_tasks = 16, 2, 3
        a.merge(b)
        assert (a.nodes_created, a.splits_performed, a.build_tasks) == (24, 3, 5)
        dump = a.as_dict()
        assert dump["nodes_created"] == 24
        assert dump["splits_performed"] == 3
        assert dump["build_tasks"] == 5

    def test_build_wall_fraction(self):
        counters = CostCounters()
        assert counters.build_wall_fraction == 0.0
        counters._timers["quadtree_build"] = 3.0
        counters._timers["skyline"] = 0.5
        counters._timers["within_leaf"] = 0.5
        assert counters.build_wall_fraction == pytest.approx(0.75)

    def test_construction_summary_derivation(self):
        summary = construction_summary({
            "halfspaces_inserted": 100,
            "nodes_created": 250,
            "splits_performed": 31,
            "build_tasks": 4,
            "time_quadtree_build": 1.0,
            "time_skyline": 0.5,
            "time_within_leaf": 2.5,
        })
        assert summary["nodes_per_halfspace"] == pytest.approx(2.5)
        assert summary["build_wall_fraction"] == pytest.approx(0.25)
        assert summary["build_tasks"] == 4

    def test_service_stats_expose_construction(self):
        service = MaxRankService(generate("IND", 60, 3, seed=2))
        try:
            service.query(3)
            stats = service.stats()
        finally:
            service.close()
        for key in ("nodes_created", "splits_performed", "build_tasks",
                    "build_wall_fraction"):
            assert key in stats
        assert stats["nodes_created"] >= 0
        assert 0.0 <= stats["build_wall_fraction"] <= 1.0
