"""Augmented Quad-tree over the reduced query space (paper, Section 5.1).

The half-spaces induced by incomparable records are organised by a space
partitioning quad-tree whose leaves tile the reduced query space.  For every
node the tree records the half-spaces that *fully contain* it — excluding
those already recorded at an ancestor, to avoid redundancy — and for every
leaf additionally the half-spaces that *partially overlap* it.  A leaf is
split when its partial-overlap set exceeds a threshold.

Two sets are derived per leaf ``l``:

* ``F_l`` — half-spaces fully containing ``l`` (own set plus all ancestors');
  ``|F_l|`` lower-bounds the order of every arrangement cell inside ``l`` and
  drives the leaf pruning of BA and AA;
* ``P_l`` — half-spaces partially overlapping ``l``; they define the
  within-leaf arrangement processed by :mod:`repro.quadtree.withinleaf`.

Nodes that lie entirely outside the permissible simplex
(``Σ q_i < 1``) are discarded, as prescribed by the paper.

Splitting on demand
-------------------
A leaf whose ``|F_l|`` exceeds the best cell order found so far is pruned,
so its subtree would never be read.  The tree therefore splits lazily:
:meth:`AugmentedQuadTree.insert_bulk` and :meth:`AugmentedQuadTree.insert`
only classify half-spaces (a leaf absorbs its partial rows and never splits
on insert), and :meth:`AugmentedQuadTree.validated_bucket` splits the
over-policy leaves of a priority when the best-first scan reaches it.
Because a leaf's partial set depends only on its box, not on the order in
which half-spaces arrived, every leaf the scan is handed has the same box,
the same partial ids in the same order and the same ``|F_l|`` as under an
eager split-on-insert cascade; only the subtrees the scan never reaches are
left unsplit.  :meth:`~AugmentedQuadTree.leaves`,
:meth:`~AugmentedQuadTree.leaf_count`, :meth:`~AugmentedQuadTree.statistics`
and the ``leaves_pruned`` counter describe this lazily split tree.

Performance notes
-----------------
The hot paths are array-level:

* splitting a leaf classifies **all** its partial half-spaces against
  **all** children with two matrix products (the corner extremes of a
  linear function over a box decompose into a positive-part and a
  negative-part product);
* inserting a half-space classifies it against all children of a node at
  once instead of one scalar test per child;
* the tree maintains an incremental *scan index* — leaves bucketed by their
  last-known ``|F_l|``, re-validated lazily when popped — so the per-query
  (and, for AA, per-iteration) best-first leaf scan touches only the leaves
  that are actually competitive instead of traversing and sorting the whole
  tree.  See :func:`repro.core.cells.collect_cells`.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import GeometryError
from ..geometry.halfspace import BoxRelation, Halfspace
from ..stats import CostCounters
from .build import (
    CLASSIFY_TOL as _CLASSIFY_TOL,
    COST_EVAL_FLOOR,
    SPLIT_POLICIES,
    corner_masks,
    cost_should_split,
)

__all__ = [
    "QuadTreeNode",
    "AugmentedQuadTree",
    "DEFAULT_SPLIT_THRESHOLD",
    "DEFAULT_MAX_DEPTH",
]

#: A leaf splits when its partial-overlap set grows beyond this many half-spaces.
DEFAULT_SPLIT_THRESHOLD = 10
#: Hard depth cap: at this depth leaves absorb overflow instead of splitting.
DEFAULT_MAX_DEPTH = 8


class QuadTreeNode:
    """One node of the augmented quad-tree."""

    __slots__ = (
        "lower",
        "upper",
        "depth",
        "parent",
        "children",
        "children_lower",
        "children_upper",
        "containment",
        "partial",
        "seq",
    )

    def __init__(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        depth: int,
        parent: Optional["QuadTreeNode"],
        seq: int = 0,
    ) -> None:
        self.lower = lower                      #: lower corner of the node's box
        self.upper = upper                      #: upper corner of the node's box
        self.depth = depth                      #: root has depth 0
        self.parent = parent
        self.children: Optional[List["QuadTreeNode"]] = None
        #: stacked children bounds, kept from the split so insertion can
        #: classify a half-space against every child with two products
        self.children_lower: Optional[np.ndarray] = None
        self.children_upper: Optional[np.ndarray] = None
        #: ids of half-spaces fully containing this node but not its parent
        self.containment: List[int] = []
        #: ids of half-spaces partially overlapping this node (leaves only)
        self.partial: List[int] = []
        #: creation sequence number (deterministic tie-break in scans)
        self.seq = seq

    @property
    def is_leaf(self) -> bool:
        """True while the node has not been split."""
        return self.children is None

    def full_ids(self) -> Set[int]:
        """``F_l``: own containment ids plus those of every ancestor."""
        ids: Set[int] = set()
        node: Optional[QuadTreeNode] = self
        while node is not None:
            ids.update(node.containment)
            node = node.parent
        return ids

    def full_count(self) -> int:
        """``|F_l|`` without materialising the id set."""
        total = 0
        node: Optional[QuadTreeNode] = self
        while node is not None:
            total += len(node.containment)
            node = node.parent
        return total

    def centre(self) -> np.ndarray:
        """Centre point of the node's box."""
        return (self.lower + self.upper) / 2.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else "internal"
        return (
            f"QuadTreeNode({kind}, depth={self.depth}, |C|={len(self.containment)}, "
            f"|P|={len(self.partial)})"
        )


class AugmentedQuadTree:
    """Augmented quad-tree holding half-spaces of the reduced query space.

    Parameters
    ----------
    dim:
        Dimensionality of the reduced query space (``d - 1``); must be >= 2
        (the 1-D case uses a sorted list instead, see
        :class:`repro.core.aa2d.SortedHalflineArrangement`).
    split_threshold:
        Maximum size of a leaf's partial-overlap set before it splits.
        ``None`` (default) selects a dimension-aware value: 10 for ``dim = 2``
        and roughly ``5·dim`` beyond, because splitting a high-dimensional
        box into ``2^dim`` children rarely reduces the partial set enough to
        pay for the extra nodes — while the batched within-leaf engine
        processes the resulting fatter leaves cheaply (and, with a process
        pool, in parallel).  Lower thresholds produce finer-grained result
        regions (cells are reported per leaf fragment); the answer ``k*``
        and the covered region are unaffected.
    max_depth:
        Depth cap; leaves at this depth grow beyond the threshold instead of
        splitting further.  ``None`` (default) selects a dimension-aware cap
        for the same reason (node count is ``O(2^(dim·depth))`` in the worst
        case).  ``0`` is legal and means the root never splits — the whole
        reduced space is one fat leaf; negative or non-integral values raise
        :class:`~repro.errors.GeometryError`.
    split_policy:
        ``"static"`` (default) splits a leaf whenever its partial set
        exceeds ``split_threshold``; ``"cost"`` dry-runs the child
        classification and splits only when the modelled within-leaf funnel
        work of the fat leaf exceeds the split cascade's modelled cost (see
        :func:`repro.quadtree.build.cost_should_split`).  Both policies
        produce the same ``k*`` and covered regions — only the leaf
        fragmentation (and hence construction/enumeration cost) differs.
        Either policy is consulted only for leaves the scan reaches (see
        :meth:`validated_bucket`).
    counters:
        Optional cost counters (half-space insertions, nodes created and
        splits performed are recorded; splits run under the
        ``quadtree_build`` timer).
    """

    def __init__(
        self,
        dim: int,
        *,
        split_threshold: Optional[int] = None,
        max_depth: Optional[int] = None,
        split_policy: str = "static",
        counters: Optional[CostCounters] = None,
    ) -> None:
        if dim < 2:
            raise GeometryError(
                "the augmented quad-tree requires a reduced space of dimension >= 2"
            )
        if split_threshold is None:
            # The default balances the cost of splitting (2^dim children per
            # split, cascading — the dominant cost of tree construction at
            # dim >= 3) against the cost of enumerating the fatter leaves a
            # higher threshold leaves behind.  With the batched, prefix-pruned
            # within-leaf engine (and its parallel executors) leaf processing
            # is no longer the bottleneck, so the threshold grows with the
            # dimension: the node count of an over-split tree explodes as
            # O(2^(dim·depth)) while the within-leaf funnel absorbs the
            # larger partial sets at a fraction of that cost.
            if dim <= 3:
                split_threshold = max(DEFAULT_SPLIT_THRESHOLD, 5 * dim)
            elif dim <= 5:
                split_threshold = 5 * dim
            else:
                split_threshold = 4 * dim
        if max_depth is None:
            if dim <= 3:
                max_depth = DEFAULT_MAX_DEPTH
            elif dim <= 5:
                max_depth = max(3, 11 - dim)
            else:
                # Splitting a >5-dimensional box produces 2^dim children and
                # rarely shrinks the partial sets; keep the tree very shallow
                # and let within-leaf enumeration (bounded by the small cell
                # orders typical at high d) do the work instead.
                max_depth = 2
        if isinstance(split_threshold, bool) or not isinstance(split_threshold, int):
            raise GeometryError(
                f"split_threshold must be an integer, got {split_threshold!r}"
            )
        if split_threshold < 2:
            # A threshold below 2 could never terminate: a split distributes
            # at least one overlapping half-space to some child, which would
            # immediately be over-threshold again at every depth.
            raise GeometryError("split_threshold must be at least 2")
        if isinstance(max_depth, bool) or not isinstance(max_depth, int):
            raise GeometryError(f"max_depth must be an integer, got {max_depth!r}")
        if max_depth < 0:
            raise GeometryError(
                f"max_depth must be non-negative (0 keeps the root as one fat "
                f"leaf), got {max_depth}"
            )
        if split_policy not in SPLIT_POLICIES:
            raise GeometryError(
                f"unknown split_policy {split_policy!r}; choose one of {SPLIT_POLICIES}"
            )
        self.dim = int(dim)
        self.split_threshold = int(split_threshold)
        self.max_depth = int(max_depth)
        self.split_policy = split_policy
        self.counters = counters
        self._node_seq = 0
        self.root = QuadTreeNode(np.zeros(dim), np.ones(dim), depth=0, parent=None, seq=0)
        self._node_seq = 1
        self.halfspaces: Dict[int, Halfspace] = {}
        self._next_id = 0
        #: Corner selection masks used to derive the 2^dim children of a box.
        self._corner_masks = corner_masks(self.dim)
        # Growing coefficient matrix over all inserted half-spaces; rebuilt
        # lazily so splits can slice the rows of their partial ids at once.
        self._coef_rows: List[np.ndarray] = []
        self._offsets: List[float] = []
        self._matrix: Optional[np.ndarray] = None
        self._offset_vec: Optional[np.ndarray] = None
        #: sign-split coefficient views (positive part, negative part,
        #: tolerance-shifted offsets), cached alongside the matrix so the
        #: corner-extreme classifications of splits and bulk inserts slice
        #: rows instead of recomputing the split per call
        self._matrix_pos: Optional[np.ndarray] = None
        self._matrix_neg: Optional[np.ndarray] = None
        self._offset_tol: Optional[np.ndarray] = None
        # ---- incremental scan index ----
        #: live leaves bucketed by last-known |F_l| (lazily re-validated)
        self._buckets: List[List[QuadTreeNode]] = [[self.root]]
        self._live_leaves = 1
        #: ids of leaves whose partial set changed since the last consume;
        #: tracking only starts at the first consume — before that, every
        #: consumer cache is empty anyway, so recording churn would be waste
        self._dirty_leaves: Set[int] = set()
        self._track_dirty = False

    # ------------------------------------------------------------ bookkeeping
    def halfspace(self, halfspace_id: int) -> Halfspace:
        """Return the half-space registered under ``halfspace_id``."""
        return self.halfspaces[halfspace_id]

    def leaf_partial_pairs(self, leaf: "QuadTreeNode") -> Tuple[Tuple[int, Halfspace], ...]:
        """``(id, half-space)`` pairs of a leaf's partial set, in insertion order.

        This is the half-space payload of a self-contained
        :class:`~repro.engine.tasks.LeafTask`: together with the leaf box it
        lets within-leaf processing run in a worker process without the
        tree.  The order defines the bit positions of the leaf's cell
        bit-strings, so it must stay the insertion order.
        """
        return tuple((hid, self.halfspaces[hid]) for hid in leaf.partial)

    def __len__(self) -> int:
        return len(self.halfspaces)

    @property
    def live_leaf_count(self) -> int:
        """Number of leaves currently in the tree (inside the simplex)."""
        return self._live_leaves

    def consume_dirty_leaves(self) -> Set[int]:
        """Return ids of leaves whose partial set changed since the last call.

        The ids are ``id(node)`` keys, matching the keys used by the
        cell-collection cache of :func:`repro.core.cells.collect_cells`; the
        internal set is cleared, so each change is reported exactly once.
        Tracking begins with the first call — changes made before any
        consumer existed are irrelevant, since no cache predates them.
        """
        dirty = self._dirty_leaves
        self._dirty_leaves = set()
        self._track_dirty = True
        return dirty

    def _coef_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked ``(A, b)`` over every inserted half-space (lazily rebuilt)."""
        if self._matrix is None:
            self._matrix = np.vstack(self._coef_rows)
            self._offset_vec = np.asarray(self._offsets, dtype=float)
            self._matrix_pos = np.where(self._matrix > 0, self._matrix, 0.0)
            self._matrix_neg = self._matrix - self._matrix_pos
            self._offset_tol = self._offset_vec + _CLASSIFY_TOL
        return self._matrix, self._offset_vec

    def _coef_sign_split(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(A⁺, A⁻, b + tol)`` over every inserted half-space."""
        if self._matrix is None:
            self._coef_arrays()
        return self._matrix_pos, self._matrix_neg, self._offset_tol

    @staticmethod
    def _child_major_gather(
        relation: np.ndarray, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Group the rows a boolean ``(rows, children)`` relation selects.

        Returns ``(grouped, counts)``: ``grouped`` concatenates, child by
        child, the entries of ``values`` whose row the child's column
        selects (row order preserved within a child), and ``counts[j]`` is
        child ``j``'s group size — so child ``j`` owns the contiguous slice
        ``grouped[counts[:j].sum() : counts[:j+1].sum()]``.  One ``nonzero``
        per relation matrix replaces two boolean slices per child in the
        split/insert redistribution loops.
        """
        child_idx, row_idx = np.nonzero(relation.T)
        return values[row_idx], np.bincount(child_idx, minlength=relation.shape[1])

    @staticmethod
    def _classify(halfspace: Halfspace, node: "QuadTreeNode", tol: float = _CLASSIFY_TOL) -> BoxRelation:
        """Classify one half-space against one node box (corner extremes)."""
        a = halfspace.coefficients
        pos = a > 0
        min_val = float(np.where(pos, a * node.lower, a * node.upper).sum())
        max_val = float(np.where(pos, a * node.upper, a * node.lower).sum())
        offset = halfspace.offset
        if min_val > offset + tol:
            return BoxRelation.CONTAINS
        if max_val <= offset + tol:
            return BoxRelation.DISJOINT
        return BoxRelation.OVERLAPS

    # ----------------------------------------------------- scan-index plumbing
    def _file_leaf(self, leaf: QuadTreeNode, priority: int) -> None:
        """Register a live leaf in the priority bucket ``priority``."""
        buckets = self._buckets
        while len(buckets) <= priority:
            buckets.append([])
        buckets[priority].append(leaf)

    def max_bucket_priority(self) -> int:
        """Largest priority that currently has a (possibly stale) bucket entry."""
        return len(self._buckets) - 1

    def has_bucket_entries(self, priority: int) -> bool:
        """True when bucket ``priority`` holds (possibly stale) entries."""
        return priority < len(self._buckets) and bool(self._buckets[priority])

    def validated_bucket(self, priority: int) -> List[QuadTreeNode]:
        """Leaves whose current ``|F_l|`` equals ``priority``, split on demand.

        Entries are re-validated on access: nodes that were split are
        dropped, leaves whose ``|F_l|`` has grown (an ancestor gained a
        containment entry) are re-filed under their current priority — they
        will be seen again when the scan reaches it.  ``|F_l|`` never
        shrinks, so a leaf is never filed below a priority that was already
        handed out.

        A leaf of this priority that the split policy wants split is split
        here, one level at a time: its children are filed at ``priority +
        |containment|``, and the bucket is re-validated until no leaf of
        ``priority`` is left to split.  These splits run under one
        ``quadtree_build`` timer per call.  They mark nothing dirty: a split
        leaf that a scan cache holds gained partial rows since it was
        cached, so the insert already reported it, and the children are
        new — reporting them would evict the state this very scan builds.
        """
        if not self.has_bucket_entries(priority):
            return []
        valid, to_split = self._triage_bucket(priority)
        if to_split:
            counters = self.counters
            with counters.timer("quadtree_build") if counters is not None else nullcontext():
                while to_split:
                    for node in to_split:
                        self._split_one(node, priority)
                    more_valid, to_split = self._triage_bucket(priority)
                    valid.extend(more_valid)
        self._buckets[priority] = valid
        return valid

    def _triage_bucket(
        self, priority: int
    ) -> Tuple[List[QuadTreeNode], List[QuadTreeNode]]:
        """Empty bucket ``priority`` into ``(leaves to keep, leaves to split)``.

        Split nodes are dropped and leaves whose ``|F_l|`` grew are re-filed.
        """
        entries = self._buckets[priority]
        self._buckets[priority] = []
        valid: List[QuadTreeNode] = []
        to_split: List[QuadTreeNode] = []
        for node in entries:
            if node.children is not None:
                continue
            current = node.full_count()
            if current != priority:
                self._file_leaf(node, current)
            elif self._should_split(node):
                to_split.append(node)
            else:
                valid.append(node)
        return valid, to_split

    # --------------------------------------------------------------- insertion
    def insert(self, halfspace: Halfspace) -> int:
        """Insert a half-space and return its id."""
        if halfspace.dim != self.dim:
            raise GeometryError(
                f"half-space dimension {halfspace.dim} does not match tree dimension {self.dim}"
            )
        halfspace_id = self._next_id
        self._next_id += 1
        self.halfspaces[halfspace_id] = halfspace
        self._coef_rows.append(np.asarray(halfspace.coefficients, dtype=float))
        self._offsets.append(float(halfspace.offset))
        self._matrix = None
        if self.counters is not None:
            self.counters.halfspaces_inserted += 1
        self._insert_into(self.root, halfspace_id, halfspace)
        return halfspace_id

    def insert_bulk(self, halfspaces: Sequence[Halfspace]) -> List[int]:
        """Insert several half-spaces with a single tree descent.

        Classifying a *batch* of half-spaces against every node's children
        amortises the per-node Python overhead over the whole batch (the
        corner-extreme classification is two matrix products either way).
        The resulting tree is identical to inserting the half-spaces one by
        one: a node's partial/containment sets depend only on box geometry.
        Leaves absorb their partial rows and never split here; the scan
        splits them on demand (:meth:`validated_bucket`).
        """
        halfspaces = list(halfspaces)
        for halfspace in halfspaces:
            if halfspace.dim != self.dim:
                raise GeometryError(
                    f"half-space dimension {halfspace.dim} does not match "
                    f"tree dimension {self.dim}"
                )
        ids: List[int] = []
        for halfspace in halfspaces:
            halfspace_id = self._next_id
            self._next_id += 1
            self.halfspaces[halfspace_id] = halfspace
            self._coef_rows.append(np.asarray(halfspace.coefficients, dtype=float))
            self._offsets.append(float(halfspace.offset))
            ids.append(halfspace_id)
        if not ids:
            return ids
        self._matrix = None
        if self.counters is not None:
            self.counters.halfspaces_inserted += len(ids)
        Apos_all, Aneg_all, btol_all = self._coef_sign_split()
        id_arr = np.asarray(ids, dtype=np.intp)
        Apos = Apos_all[id_arr]
        Aneg = Aneg_all[id_arr]
        b_new = btol_all[id_arr]

        root = self.root
        root_min = Apos @ root.lower + Aneg @ root.upper
        root_max = Apos @ root.upper + Aneg @ root.lower
        contains = root_min > b_new
        disjoint = root_max <= b_new
        root.containment.extend(id_arr[contains].tolist())
        overlap_idx = np.nonzero(~(contains | disjoint))[0]
        if overlap_idx.size == 0:
            return ids
        stack: List[Tuple[QuadTreeNode, np.ndarray]] = [(root, overlap_idx)]
        while stack:
            current, rows = stack.pop()
            if current.children is None:
                current.partial.extend(id_arr[rows].tolist())
                if self._track_dirty:
                    self._dirty_leaves.add(id(current))
                continue
            children = current.children
            if not children:
                continue
            cl = current.children_lower
            cu = current.children_upper
            Rp = Apos[rows]
            Rn = Aneg[rows]
            min_vals = Rp @ cl.T + Rn @ cu.T
            max_vals = Rp @ cu.T + Rn @ cl.T
            b_rows = b_new[rows][:, None]
            contains = min_vals > b_rows
            disjoint = max_vals <= b_rows
            overlaps = ~(contains | disjoint)
            contained, c_counts = self._child_major_gather(contains, id_arr[rows])
            contained_ids = contained.tolist()
            sub_rows, o_counts = self._child_major_gather(overlaps, rows)
            c_off = o_off = 0
            for j, child in enumerate(children):
                c_end = c_off + int(c_counts[j])
                if c_end > c_off:
                    child.containment.extend(contained_ids[c_off:c_end])
                c_off = c_end
                o_end = o_off + int(o_counts[j])
                if o_end > o_off:
                    stack.append((child, sub_rows[o_off:o_end]))
                o_off = o_end
        return ids

    def replace(self, halfspace_id: int, halfspace: Halfspace) -> None:
        """Replace the half-space object stored under ``halfspace_id``.

        The geometry must be identical — this is used by AA to swap an
        augmented half-space for its singular version without touching the
        tree structure.
        """
        current = self.halfspaces[halfspace_id]
        if not np.allclose(current.coefficients, halfspace.coefficients) or not np.isclose(
            current.offset, halfspace.offset
        ):
            raise GeometryError("replace() must not change the half-space geometry")
        self.halfspaces[halfspace_id] = halfspace

    def _insert_into(self, node: QuadTreeNode, halfspace_id: int, halfspace: Halfspace) -> None:
        a = np.asarray(halfspace.coefficients, dtype=float)
        apos = np.where(a > 0, a, 0.0)
        aneg = a - apos
        offset = halfspace.offset + _CLASSIFY_TOL

        relation = self._classify(halfspace, node)
        if relation is BoxRelation.DISJOINT:
            return
        if relation is BoxRelation.CONTAINS:
            node.containment.append(halfspace_id)
            return
        stack = [node]
        while stack:
            current = stack.pop()
            if current.children is None:
                current.partial.append(halfspace_id)
                if self._track_dirty:
                    self._dirty_leaves.add(id(current))
                continue
            # Classify against every child at once: the extremes of a · x over
            # each child box decompose into positive/negative coefficient parts.
            children = current.children
            if not children:
                continue
            lowers = current.children_lower
            uppers = current.children_upper
            min_vals = lowers @ apos + uppers @ aneg
            max_vals = uppers @ apos + lowers @ aneg
            for child, mn, mx in zip(children, min_vals, max_vals):
                if mx <= offset:
                    continue
                if mn > offset:
                    child.containment.append(halfspace_id)
                else:
                    stack.append(child)

    def _should_split(self, node: QuadTreeNode) -> bool:
        """Decide whether a leaf splits, under the configured split policy.

        ``"static"`` reproduces the historical check (partial set beyond the
        threshold, depth below the cap); ``"cost"`` additionally dry-runs
        the child classification and only splits when the modelled funnel
        work of the fat leaf exceeds the modelled split cost.  The decision
        is a pure function of the leaf box and its partial rows, so it does
        not depend on when the scan asks.
        """
        if node.depth >= self.max_depth:
            return False
        m = len(node.partial)
        if self.split_policy == "static":
            return m > self.split_threshold
        if m <= COST_EVAL_FLOOR:
            return False
        Apos_all, Aneg_all, btol_all = self._coef_sign_split()
        rows = np.asarray(node.partial, dtype=np.intp)
        return cost_should_split(
            node.lower,
            node.upper,
            Apos_all[rows],
            Aneg_all[rows],
            btol_all[rows],
            self._corner_masks,
        )

    def _split_one(self, current: QuadTreeNode, priority: int) -> None:
        """Split leaf ``current`` (``|F_l| = priority``) one level.

        The ``2^dim`` children inside the simplex are created, the partial
        set is redistributed and every child is filed at ``priority +
        |containment|``; whether a child splits further is decided when the
        scan reaches its priority.  The body is array-level: the corner
        extremes of all partial half-spaces over all child boxes come from
        two matrix products, and the per-child id lists from one
        child-major ``nonzero`` gather per relation matrix.
        """
        masks = self._corner_masks
        centre = (current.lower + current.upper) / 2.0
        child_lowers = np.where(masks, centre, current.lower)
        child_uppers = np.where(masks, current.upper, centre)
        inside = child_lowers.sum(axis=1) < 1.0
        children: List[QuadTreeNode] = []
        seq = self._node_seq
        depth = current.depth + 1
        inside_idx = np.nonzero(inside)[0]
        child_lowers = child_lowers[inside_idx]
        child_uppers = child_uppers[inside_idx]
        for j in range(inside_idx.shape[0]):
            child = QuadTreeNode(child_lowers[j], child_uppers[j], depth, current, seq)
            seq += 1
            children.append(child)
        self._node_seq = seq
        pending = current.partial
        current.partial = []
        current.children = children
        current.children_lower = child_lowers
        current.children_upper = child_uppers
        self._live_leaves += len(children) - 1
        counters = self.counters
        if counters is not None:
            counters.splits_performed += 1
            counters.nodes_created += len(children)
        if not children:
            return
        if not pending:
            for child in children:
                self._file_leaf(child, priority)
            return
        # Vectorised redistribution: corner extremes of every partial
        # half-space over every child box via two matrix products each.
        Apos_all, Aneg_all, btol_all = self._coef_sign_split()
        pending_arr = np.asarray(pending, dtype=np.intp)
        Apos = Apos_all[pending_arr]
        Aneg = Aneg_all[pending_arr]
        b_pending = btol_all[pending_arr]
        min_vals = Apos @ child_lowers.T + Aneg @ child_uppers.T
        max_vals = Apos @ child_uppers.T + Aneg @ child_lowers.T
        contains = min_vals > b_pending[:, None]
        disjoint = max_vals <= b_pending[:, None]
        overlaps = ~(contains | disjoint)
        contained, c_counts = self._child_major_gather(contains, pending_arr)
        contained_ids = contained.tolist()
        overlap, o_counts = self._child_major_gather(overlaps, pending_arr)
        overlap_ids = overlap.tolist()
        c_off = o_off = 0
        for j, child in enumerate(children):
            c_end = c_off + int(c_counts[j])
            if c_end > c_off:
                child.containment.extend(contained_ids[c_off:c_end])
            c_off = c_end
            o_end = o_off + int(o_counts[j])
            if o_end > o_off:
                child.partial.extend(overlap_ids[o_off:o_end])
            o_off = o_end
            self._file_leaf(child, priority + len(child.containment))

    # ----------------------------------------------------------------- queries
    def leaves(self) -> Iterator[QuadTreeNode]:
        """Iterate over all leaves inside the permissible simplex.

        The tree is split on demand, so these are the leaves of the tree as
        the scans so far left it: a leaf no scan reached may still be fat.
        """
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(node.children)

    def leaf_count(self) -> int:
        """Number of leaves (inside the simplex) of the lazily split tree."""
        return sum(1 for _ in self.leaves())

    def leaves_by_containment(self) -> List[Tuple[QuadTreeNode, int]]:
        """Return ``(leaf, |F_l|)`` pairs sorted by increasing ``|F_l|``.

        Reference implementation of the BA/AA processing order: a leaf whose
        full-containment cardinality already exceeds the best cell order
        found so far can be pruned without within-leaf processing.  The
        best-first scan of :func:`repro.core.cells.collect_cells` uses the
        incremental bucket index (:meth:`validated_bucket`) instead, which
        avoids materialising and sorting this list on every AA iteration;
        this method remains as the exact, traversal-based view used by tests
        and one-off statistics.
        """
        annotated: List[Tuple[QuadTreeNode, int]] = []
        stack: List[Tuple[QuadTreeNode, int]] = [(self.root, 0)]
        while stack:
            node, inherited = stack.pop()
            total = inherited + len(node.containment)
            if node.is_leaf:
                annotated.append((node, total))
            else:
                stack.extend((child, total) for child in node.children)
        annotated.sort(key=lambda pair: pair[1])
        return annotated

    def statistics(self) -> Dict[str, float]:
        """Structural statistics of the lazily split tree (see :meth:`leaves`)."""
        leaf_partial_sizes = []
        leaf_count = 0
        max_depth = 0
        for leaf in self.leaves():
            leaf_count += 1
            leaf_partial_sizes.append(len(leaf.partial))
            max_depth = max(max_depth, leaf.depth)
        return {
            "halfspaces": float(len(self.halfspaces)),
            "leaves": float(leaf_count),
            "max_depth": float(max_depth),
            "mean_partial": float(np.mean(leaf_partial_sizes)) if leaf_partial_sizes else 0.0,
            "max_partial": float(np.max(leaf_partial_sizes)) if leaf_partial_sizes else 0.0,
        }
