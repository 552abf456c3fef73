"""The cost-model split policy of the augmented quad-tree.

:class:`repro.quadtree.quadtree.AugmentedQuadTree` splits a leaf on demand,
when the best-first scan reaches its priority.  Whether it splits is the
split policy's call:

* ``"static"`` splits a leaf whose partial set exceeds a static ``~5·dim``
  threshold;
* ``"cost"`` dry-runs the child classification (the same two matrix
  products the split itself would perform) and splits only when the
  modelled within-leaf funnel work of the fat leaf exceeds the modelled
  cost of the split plus the (pruning-discounted) work of the children.

The cost decision depends only on the leaf box and its partial rows'
coefficients, so it is the same whenever the scan asks.  Since splitting
is on demand, either policy prices only the leaves the scan reaches.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SPLIT_POLICIES",
    "corner_masks",
    "leaf_work",
    "cost_should_split",
]

#: Selectable leaf-split policies of :class:`AugmentedQuadTree`.
SPLIT_POLICIES = ("static", "cost")

#: Tolerance of the containment / disjointness classification.  Single
#: source of truth shared with the tree (imported there as
#: ``_CLASSIFY_TOL``); it matches :data:`repro.geometry.halfspace.EPSILON`.
CLASSIFY_TOL = 1e-9

# --------------------------------------------------------------- cost model
#
# Relative costs calibrated with tools/profile_build.py against the
# committed workload matrix (see PERFORMANCE.md, "Construction").  The units
# are arbitrary — only the ratios matter:
#
# * a leaf with m partial half-spaces costs roughly one candidate unit per
#   potential cell up to Hamming weight 2 (1 + m + m(m-1)/2) — the screen→LP
#   funnel's volume is quadratic in m for the small weights that decide k*;
# * materialising one child node costs COST_CHILD_NODE candidate units
#   (allocation, bookkeeping, scan-index filing);
# * classifying the pending rows against the children costs
#   COST_ROW_CLASSIFY per (row, child) pair (two matrix products);
# * a child leaf's own funnel work is discounted by COST_CHILD_DISCOUNT,
#   because the |F_l| bound prunes most children outright (rows that become
#   *containment* in a child raise its scan priority) and surviving
#   children may split further.
COST_CHILD_NODE = 4.0
COST_ROW_CLASSIFY = 0.05
COST_CHILD_DISCOUNT = 0.25
#: The cost model is never consulted below this partial-set size: splitting
#: micro-leaves cannot pay off and the dry-run itself would dominate.
COST_EVAL_FLOOR = 8


def leaf_work(m: int) -> float:
    """Modelled within-leaf funnel work for a leaf with ``m`` partial rows."""
    return 1.0 + m + 0.5 * m * (m - 1)


def corner_masks(dim: int) -> np.ndarray:
    """Corner selection masks deriving the ``2^dim`` children of a box."""
    corners = np.arange(2 ** dim)
    return ((corners[:, None] >> np.arange(dim)[None, :]) & 1).astype(bool)


def cost_should_split(
    lower: np.ndarray,
    upper: np.ndarray,
    Apos: np.ndarray,
    Aneg: np.ndarray,
    btol: np.ndarray,
    masks: np.ndarray,
) -> bool:
    """Cost-model decision: split this leaf or keep it fat?

    Dry-runs the child classification (the identical two matrix products the
    split cascade would perform) to obtain each inside-simplex child's
    overlap count, then compares the fat leaf's modelled funnel work against
    the split overhead plus the discounted child work.  Purely a function of
    the box and the rows' coefficients — bit-identical wherever evaluated.
    """
    centre = (lower + upper) / 2.0
    child_lowers = np.where(masks, centre, lower)
    child_uppers = np.where(masks, upper, centre)
    inside = child_lowers.sum(axis=1) < 1.0
    child_lowers = child_lowers[inside]
    child_uppers = child_uppers[inside]
    k = child_lowers.shape[0]
    if k == 0:  # pragma: no cover - a live leaf always keeps its lower corner
        return False
    min_vals = Apos @ child_lowers.T + Aneg @ child_uppers.T
    max_vals = Apos @ child_uppers.T + Aneg @ child_lowers.T
    b = btol[:, None]
    overlap_counts = (~((min_vals > b) | (max_vals <= b))).sum(axis=0)
    m = Apos.shape[0]
    split_cost = COST_CHILD_NODE * k + COST_ROW_CLASSIFY * m * k
    split_cost += COST_CHILD_DISCOUNT * float(
        sum(leaf_work(int(count)) for count in overlap_counts)
    )
    return leaf_work(m) > split_cost
