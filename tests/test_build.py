"""On-demand quad-tree splitting: equivalence with eager splitting, counters.

The tree splits a leaf only when the best-first scan reaches its priority
(:meth:`AugmentedQuadTree.validated_bucket`).  The contract is that every
leaf the scan is handed is the leaf an eager split-on-insert cascade would
have produced — same box, same partial ids in the same order, same
``|F_l|`` — so every downstream prune and within-leaf pass behaves
identically.  These tests write that eager cascade out as a reference and
compare against it, under both split policies, and check that the scan
leaves the subtrees it never reaches unsplit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CostCounters, generate
from repro.core.aa import aa_maxrank
from repro.engine.executors import ProcessPoolExecutor
from repro.experiments.reporting import construction_summary
from repro.geometry import Halfspace
from repro.quadtree import AugmentedQuadTree
from repro.quadtree.build import COST_EVAL_FLOOR, corner_masks, cost_should_split
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


def eager_reference_leaves(tree: AugmentedQuadTree) -> dict:
    """Leaves of the split-on-insert cascade over ``tree``'s half-spaces.

    ``tree`` must be unsplit (inserted into, never scanned).  Returns
    ``{(lower bytes, upper bytes): (partial ids, |F_l|)}``: every leaf the
    policy wants split is split, recursively, with the tree's own corner
    extreme arithmetic and split policy.
    """
    Apos, Aneg, btol = tree._coef_sign_split()
    masks = corner_masks(tree.dim)

    def should_split(lower, upper, depth, rows):
        if depth >= tree.max_depth:
            return False
        if tree.split_policy == "static":
            return rows.size > tree.split_threshold
        return rows.size > COST_EVAL_FLOOR and cost_should_split(
            lower, upper, Apos[rows], Aneg[rows], btol[rows], masks
        )

    root = tree.root
    assert root.is_leaf
    leaves = {}
    stack = [(root.lower, root.upper, 0, np.asarray(root.partial, dtype=np.intp),
              len(root.containment))]
    while stack:
        lower, upper, depth, rows, full = stack.pop()
        if not should_split(lower, upper, depth, rows):
            leaves[(lower.tobytes(), upper.tobytes())] = (tuple(rows.tolist()), full)
            continue
        centre = (lower + upper) / 2.0
        child_lowers = np.where(masks, centre, lower)
        child_uppers = np.where(masks, upper, centre)
        inside = child_lowers.sum(axis=1) < 1.0
        child_lowers, child_uppers = child_lowers[inside], child_uppers[inside]
        min_vals = Apos[rows] @ child_lowers.T + Aneg[rows] @ child_uppers.T
        max_vals = Apos[rows] @ child_uppers.T + Aneg[rows] @ child_lowers.T
        b = btol[rows][:, None]
        contains = min_vals > b
        overlaps = ~(contains | (max_vals <= b))
        for j in range(child_lowers.shape[0]):
            stack.append((child_lowers[j], child_uppers[j], depth + 1,
                          rows[overlaps[:, j]], full + int(contains[:, j].sum())))
    return leaves


def scanned_leaves(tree: AugmentedQuadTree, last_priority=None) -> list:
    """Every leaf ``validated_bucket`` hands out, priority by priority."""
    handed = []
    priority = 0
    while priority <= tree.max_bucket_priority():
        if last_priority is not None and priority > last_priority:
            break
        handed.extend((priority, leaf) for leaf in tree.validated_bucket(priority))
        priority += 1
    return handed


def build_tree(halfspaces, *, split_policy="static", max_depth=3, counters=None):
    tree = AugmentedQuadTree(
        3, max_depth=max_depth, split_policy=split_policy, counters=counters
    )
    tree.insert_bulk(halfspaces)
    return tree


class EagerQuadTree(AugmentedQuadTree):
    """Split-on-insert reference: every over-policy leaf splits at insert.

    Like the eager cascade, it reports a split leaf and its children to
    the scan caches as dirty; ``validated_bucket`` then finds nothing left
    to split.
    """

    def insert_bulk(self, halfspaces):
        ids = super().insert_bulk(halfspaces)
        stack = [(leaf, leaf.full_count()) for leaf in self.leaves()]
        while stack:
            leaf, priority = stack.pop()
            if not self._should_split(leaf):
                continue
            if self._track_dirty:
                self._dirty_leaves.add(id(leaf))
            self._split_one(leaf, priority)
            for child in leaf.children:
                if self._track_dirty and child.partial:
                    self._dirty_leaves.add(id(child))
                stack.append((child, priority + len(child.containment)))
        return ids


class TestOnDemandSplitting:
    @pytest.mark.parametrize("split_policy", ["static", "cost"])
    @pytest.mark.parametrize("seed", [17, 23, 41])
    def test_scanned_leaves_equal_the_eager_reference(self, split_policy, seed):
        halfspaces = random_halfspaces(300 if split_policy == "static" else 150,
                                       3, seed=seed)
        reference = eager_reference_leaves(
            build_tree(halfspaces, split_policy=split_policy)
        )
        assert len(reference) > 1
        tree = build_tree(halfspaces, split_policy=split_policy)
        assert tree.root.is_leaf, "an insert split the tree"
        handed = scanned_leaves(tree)
        seen = set()
        for priority, leaf in handed:
            key = (leaf.lower.tobytes(), leaf.upper.tobytes())
            assert key in reference
            partial, full = reference[key]
            assert tuple(leaf.partial) == partial
            assert leaf.full_count() == full == priority
            seen.add(key)
        # Scanning every priority reaches every leaf, each exactly once.
        assert len(handed) == len(seen) == len(reference)
        assert tree.leaf_count() == len(reference)

    def test_interleaved_inserts_and_scans_equal_the_eager_reference(self):
        """Leaves split before later rows arrive still end up as the eager
        leaves: a partial set depends on the box, not on arrival order."""
        halfspaces = random_halfspaces(300, 3, seed=29)
        reference = eager_reference_leaves(build_tree(halfspaces))
        tree = build_tree(halfspaces[:150])
        scanned_leaves(tree, last_priority=tree.root.full_count() + 2)
        assert not tree.root.is_leaf
        tree.insert_bulk(halfspaces[150:])
        for priority, leaf in scanned_leaves(tree):
            partial, full = reference[(leaf.lower.tobytes(), leaf.upper.tobytes())]
            assert tuple(leaf.partial) == partial
            assert leaf.full_count() == full == priority

    def test_unreached_priorities_are_never_split(self):
        counters = CostCounters()
        halfspaces = random_halfspaces(300, 3, seed=17)
        reference = eager_reference_leaves(build_tree(halfspaces))
        tree = build_tree(halfspaces, counters=counters)
        last = tree.root.full_count() + 1
        scanned_leaves(tree, last_priority=last)
        internal = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                internal.append(node)
                stack.extend(node.children)
        assert internal, "the scanned priorities split nothing"
        assert all(node.full_count() <= last for node in internal)
        assert any(
            tree._should_split(leaf) for leaf in tree.leaves()
            if leaf.full_count() > last
        ), "no unreached leaf is over policy: the check is vacuous"
        assert counters.splits_performed == len(internal)
        assert tree.leaf_count() < len(reference)

    def test_aa_on_a_pool_matches_serial_counters(self):
        dataset = generate("IND", 150, 4, seed=3)

        def run(executor):
            counters = CostCounters()
            result = aa_maxrank(dataset, 5, counters=counters, executor=executor)
            return (
                [(r.cell_order, r.representative_query().tobytes())
                 for r in result.regions],
                {k: v for k, v in counters.as_dict().items()
                 if not k.startswith("time_")},
            )

        serial = run(None)
        with ProcessPoolExecutor(2) as pool:
            pooled = run(pool)
        assert serial[1]["splits_performed"] > 0
        assert pooled == serial

    def test_multi_iteration_aa_does_the_eager_work(self, monkeypatch):
        """Scan-time splits must not report their children dirty: the next
        AA iteration would evict the children's fresh cache entries and
        process those leaves twice."""
        dataset = generate("IND", 200, 4, seed=5)
        focal = 40

        def run():
            counters = CostCounters()
            result = aa_maxrank(dataset, focal, counters=counters)
            return result, counters

        lazy, lazy_counters = run()
        monkeypatch.setattr("repro.core.aa.AugmentedQuadTree", EagerQuadTree)
        eager, eager_counters = run()
        assert lazy_counters.iterations >= 2
        assert lazy_counters.splits_performed < eager_counters.splits_performed
        for name in ("leaves_processed", "candidates_generated", "lp_calls"):
            assert getattr(lazy_counters, name) == getattr(eager_counters, name), name
        assert lazy.k_star == eager.k_star
        assert sorted(r.cell_order for r in lazy.regions) == sorted(
            r.cell_order for r in eager.regions
        )


class TestConstructionCounters:
    def test_merge_sums_construction_counters(self):
        a, b = CostCounters(), CostCounters()
        a.nodes_created, a.splits_performed = 8, 1
        b.nodes_created, b.splits_performed = 16, 2
        a.merge(b)
        assert (a.nodes_created, a.splits_performed) == (24, 3)
        dump = a.as_dict()
        assert dump["nodes_created"] == 24
        assert dump["splits_performed"] == 3

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
            "time_quadtree_build": 1.0,
            "time_skyline": 0.5,
            "time_within_leaf": 2.5,
        })
        assert summary["nodes_per_halfspace"] == pytest.approx(2.5)
        assert summary["build_wall_fraction"] == pytest.approx(0.25)

    def test_service_stats_expose_construction(self):
        service = MaxRankService(generate("IND", 60, 3, seed=2))
        try:
            service.query(3)
            stats = service.stats()
        finally:
            service.close()
        for key in ("nodes_created", "splits_performed", "build_wall_fraction"):
            assert key in stats
        assert stats["nodes_created"] >= 0
        assert 0.0 <= stats["build_wall_fraction"] <= 1.0
