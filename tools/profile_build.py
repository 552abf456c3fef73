#!/usr/bin/env python
"""Per-phase wall-clock breakdown of quad-tree construction vs query work.

The cost-model split policy (``split_policy="cost"``, see
:func:`repro.quadtree.build.cost_should_split`) trades split-cascade work
against within-leaf funnel work.  Its constants are ratios of *measured*
phase costs, and this tool produces those measurements: for each profiled
workload it runs the full AA query once per policy and prints

* ``build`` — seconds inside quad-tree insertion and the splits the scan
  makes on demand (``time_quadtree_build``),
* ``skyline`` — seconds inside the BBS skyline passes,
* ``leaf`` — seconds inside within-leaf processing (scan + funnel),
* ``build%`` — the :attr:`~repro.stats.CostCounters.build_wall_fraction`
  headline ratio,
* the construction volume (``nodes``, ``splits``) and the funnel volume
  (``lp_calls``) the policy trades between.

Typical calibration loop::

    python tools/profile_build.py                  # default panel
    python tools/profile_build.py --dist IND --n 150 --d 4
    python tools/profile_build.py --policy cost --jobs 4 --repeat 3

Edit the ``COST_*`` constants in ``src/repro/quadtree/build.py``, re-run,
and keep the change only when the cost policy's ``lp_calls``/wall beat the
static policy's on the small-n panels *without* inflating ``nodes`` on the
large-n ones.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.maxrank import maxrank                  # noqa: E402
from repro.data.generators import generate              # noqa: E402
from repro.engine.executors import make_executor        # noqa: E402
from repro.experiments.harness import select_focal_records  # noqa: E402
from repro.experiments.reporting import format_table    # noqa: E402
from repro.index.rstar import RStarTree                 # noqa: E402
from repro.stats import CostCounters                    # noqa: E402

#: Default profiling panel: the committed quick/fig9 shapes (where the PR 3
#: threshold rebalance regressed small-n d=4) plus one larger-n point per
#: dimensionality so over-splitting at scale stays visible.
DEFAULT_PANEL = (
    ("IND", 150, 4),
    ("IND", 300, 4),
    ("IND", 300, 5),
    ("IND", 400, 3),
    ("ANTI", 600, 4),
)


def profile_one(
    distribution: str,
    n: int,
    d: int,
    policy: str,
    *,
    queries: int = 1,
    jobs: Optional[int] = None,
    repeat: int = 1,
    seed: int = 0,
) -> Dict[str, object]:
    """Run the workload once per ``repeat`` and keep the fastest wall."""
    dataset = generate(distribution, n, d, seed=seed)
    tree = RStarTree.build(dataset.records)
    focals = select_focal_records(dataset, queries, seed=seed)
    best_wall = float("inf")
    counters = CostCounters()
    executor = make_executor(jobs) if jobs else None
    try:
        for _ in range(max(1, repeat)):
            counters = CostCounters()
            options: Dict[str, object] = {"split_policy": policy}
            if executor is not None:
                options["executor"] = executor
            start = time.perf_counter()
            for focal in focals:
                maxrank(
                    dataset,
                    int(focal),
                    algorithm="aa",
                    tree=tree,
                    counters=counters,
                    **options,
                )
            best_wall = min(best_wall, time.perf_counter() - start)
    finally:
        if executor is not None:
            executor.close()
    build = counters.timer_seconds("quadtree_build")
    skyline = counters.timer_seconds("skyline")
    leaf = counters.timer_seconds("within_leaf")
    return {
        "workload": f"{distribution}/n={n}/d={d}",
        "policy": policy,
        "wall_s": round(best_wall, 4),
        "build_s": round(build, 4),
        "skyline_s": round(skyline, 4),
        "leaf_s": round(leaf, 4),
        "build%": round(100.0 * counters.build_wall_fraction, 1),
        "nodes": counters.nodes_created,
        "splits": counters.splits_performed,
        "lp": counters.lp_calls,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--dist", default=None,
                        help="distribution (IND/COR/ANTI); default: panel")
    parser.add_argument("--n", type=int, default=None, help="cardinality")
    parser.add_argument("--d", type=int, default=None, help="dimensionality")
    parser.add_argument("--queries", type=int, default=1,
                        help="queries per workload (default 1)")
    parser.add_argument("--policy", choices=("static", "cost", "both"),
                        default="both", help="split policy to profile")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="process-pool workers for construction + leaves")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repetitions per cell; fastest wall is kept")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if (args.dist is None) != (args.n is None) or (args.n is None) != (args.d is None):
        parser.error("--dist/--n/--d must be given together (or none, for the panel)")
    panel = (
        [(args.dist, args.n, args.d)] if args.dist is not None else list(DEFAULT_PANEL)
    )
    policies = ("static", "cost") if args.policy == "both" else (args.policy,)

    rows = []
    for distribution, n, d in panel:
        for policy in policies:
            rows.append(
                profile_one(
                    distribution, n, d, policy,
                    queries=args.queries, jobs=args.jobs,
                    repeat=args.repeat, seed=args.seed,
                )
            )
            print(".", end="", flush=True)
    print()
    print(format_table(rows, title="Quad-tree construction profile (per-phase wall)"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
