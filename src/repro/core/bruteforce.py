"""Brute-force MaxRank oracles used for validation.

Two independent ground-truth implementations keep the optimised algorithms
honest:

* :func:`maxrank_exact_small` follows Lemma 1 / Corollary 1 literally — it
  maps every incomparable record to a half-space and enumerates the complete
  arrangement with the reference enumerator of
  :mod:`repro.geometry.arrangement`.  Exponential in the number of
  incomparable records, so only usable on small inputs, but exact.
* :func:`minimum_order_by_sampling` samples many random permissible query
  vectors and reports the smallest order observed.  The sampled minimum is an
  upper bound on ``k*`` that converges to it quickly; the tests use it both
  as a sanity bound and (with dense sampling) as an equality check on small
  inputs.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..data.dataset import Dataset, random_permissible_vector
from ..errors import AlgorithmError
from ..geometry.arrangement import minimum_order_cells
from ..geometry.halfspace import halfspace_for_record
from ..geometry.polytope import ConvexPolytope
from ..geometry.halfspace import reduced_space_constraints
from ..skyline.dominance import partition_by_dominance
from ..stats import CostCounters
from ..topk.scoring import order_of
from .result import MaxRankRegion, MaxRankResult
from ._full_space import full_space_region

__all__ = ["maxrank_exact_small", "minimum_order_by_sampling"]


def minimum_order_by_sampling(
    dataset: Dataset,
    focal: Sequence[float] | np.ndarray | int,
    *,
    samples: int = 2000,
    seed: int = 0,
) -> int:
    """Smallest order of the focal record over ``samples`` random query vectors."""
    focal_vec = dataset.validate_focal(focal)
    rng = np.random.default_rng(seed)
    best = dataset.n + 1
    for _ in range(samples):
        query = random_permissible_vector(dataset.d, rng)
        best = min(best, order_of(dataset, focal_vec, query))
    return best


def maxrank_exact_small(
    dataset: Dataset,
    focal: Sequence[float] | np.ndarray | int,
    *,
    tau: int = 0,
    max_incomparable: int = 18,
) -> MaxRankResult:
    """Exact MaxRank by complete arrangement enumeration (small inputs only).

    Raises :class:`AlgorithmError` when the number of incomparable records
    exceeds ``max_incomparable`` — the enumeration is exponential and this
    oracle exists purely as a test reference.
    """
    if tau < 0:
        raise AlgorithmError(f"tau must be non-negative, got {tau}")
    start = time.perf_counter()
    focal_index = int(focal) if isinstance(focal, (int, np.integer)) else None
    focal_vec = dataset.validate_focal(focal)
    partition = partition_by_dominance(dataset, focal_vec, exclude_index=focal_index)
    dominators = partition.dominator_count
    reduced_dim = dataset.d - 1

    incomparable = partition.incomparable
    if incomparable.shape[0] > max_incomparable:
        raise AlgorithmError(
            f"{incomparable.shape[0]} incomparable records exceed the exact oracle's "
            f"limit of {max_incomparable}"
        )
    counters = CostCounters()
    if incomparable.shape[0] == 0:
        regions = [full_space_region(reduced_dim, dominators)]
        return MaxRankResult(
            k_star=dominators + 1,
            regions=regions,
            dominator_count=dominators,
            minimum_cell_order=0,
            tau=tau,
            algorithm="BF",
            counters=counters,
            cpu_seconds=time.perf_counter() - start,
            focal=focal_vec,
        )

    halfspaces = [
        halfspace_for_record(dataset.records[index], focal_vec, record_id=int(index))
        for index in incomparable
    ]
    best, cells = minimum_order_cells(halfspaces, slack=tau)
    base_constraints = reduced_space_constraints(reduced_dim)
    regions = []
    for cell in cells:
        constraints = list(base_constraints)
        for halfspace, bit in zip(halfspaces, cell.bits):
            constraints.append(halfspace if bit else halfspace.complement())
        geometry = ConvexPolytope(constraints, np.zeros(reduced_dim), np.ones(reduced_dim))
        outscored = tuple(
            sorted(h.record_id for h, bit in zip(halfspaces, cell.bits) if bit)
        )
        regions.append(
            MaxRankRegion(
                geometry=geometry,
                cell_order=cell.order,
                order=dominators + cell.order + 1,
                outscored_by=outscored,
            )
        )
    return MaxRankResult(
        k_star=dominators + best + 1,
        regions=regions,
        dominator_count=dominators,
        minimum_cell_order=best,
        tau=tau,
        algorithm="BF",
        counters=counters,
        cpu_seconds=time.perf_counter() - start,
        focal=focal_vec,
    )
