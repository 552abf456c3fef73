"""Figure 9 — effect of dimensionality ``d`` on AA and BA (IND data).

For ``d = 2`` the paper substitutes FCA for BA and the specialised 2-D AA for
AA; the driver does the same.  Expected shape: costs of both algorithms grow
with ``d`` (sharply for the CPU time, driven by the exploding ``|T|``), with
AA remaining far cheaper than BA at every dimensionality where BA finishes.
"""

from __future__ import annotations

import time

import numpy as np

from repro import generate
from repro.core import aa_maxrank
from repro.experiments import format_table
from repro.experiments.figures import run_fig9_dimensionality
from repro.experiments.harness import select_focal_records
from repro.index.rstar import RStarTree


def test_fig9_dimensionality(benchmark, scale):
    rows = benchmark.pedantic(
        lambda: run_fig9_dimensionality(scale, quiet=True), rounds=1, iterations=1
    )
    print()
    print(format_table(
        rows,
        ["label", "algorithm", "n", "d", "cpu_s", "io", "k_star", "regions"],
        title="Figure 9 — effect of dimensionality d (IND)",
    ))
    aa_like = [row for row in rows if row["algorithm"] in ("aa", "aa2d")]
    dims = sorted({row["d"] for row in aa_like})
    assert len(dims) >= 3
    # Shape check: |T| grows with dimensionality for the advanced approach.
    by_d = {row["d"]: row["regions"] for row in aa_like}
    assert by_d[dims[-1]] >= by_d[dims[0]]


def test_fig9_d3_engine_ab():
    """A/B of the d = 3 within-leaf paths: planar sweep vs generic.

    ``aa_maxrank(..., use_planar=False)`` is the generic reference.  The two
    paths must be bit-identical (same ``k*``, same regions, same
    representative points); only the candidate-examination volume — and on
    fat-leaf workloads the wall-clock — differs.  The printed table records
    the comparison; the assertions pin the equivalence on every run.
    """
    dataset = generate("IND", 400, 3, seed=0)
    tree = RStarTree.build(dataset.records)
    focals = select_focal_records(dataset, 2, seed=0)
    rows = []
    results = {}
    for path, use_planar in (("planar", True), ("generic", False)):
        start = time.perf_counter()
        results[path] = [
            aa_maxrank(dataset, focal, tau=2, tree=tree, use_planar=use_planar)
            for focal in focals
        ]
        rows.append({
            "path": path,
            "wall_s": time.perf_counter() - start,
            "k*": "/".join(str(r.k_star) for r in results[path]),
            "|T|": "/".join(str(r.region_count) for r in results[path]),
        })
    print()
    print(format_table(rows, title="Figure 9 — d = 3 planar/generic A/B (IND, tau=2)"))
    for planar, generic in zip(results["planar"], results["generic"]):
        assert planar.k_star == generic.k_star
        assert planar.region_count == generic.region_count
        for a, b in zip(planar.regions, generic.regions):
            assert np.array_equal(
                a.representative_query(), b.representative_query()
            )
