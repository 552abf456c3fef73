"""Helper for the degenerate case with no incomparable records.

When every record either dominates or is dominated by the focal record, the
arrangement of incomparable half-spaces is empty and the focal record attains
order ``|D+| + 1`` everywhere in the permissible query space.  Both BA and AA
report the whole space as the single MaxRank region in that case.
"""

from __future__ import annotations

import numpy as np

from ..geometry.halfspace import reduced_space_constraints
from ..geometry.polytope import ConvexPolytope
from .result import MaxRankRegion

__all__ = ["full_space_region"]


def full_space_region(reduced_dim: int, dominator_count: int) -> MaxRankRegion:
    """The entire permissible reduced query space as a single region."""
    geometry = ConvexPolytope(
        reduced_space_constraints(reduced_dim), np.zeros(reduced_dim), np.ones(reduced_dim)
    )
    return MaxRankRegion(
        geometry=geometry,
        cell_order=0,
        order=dominator_count + 1,
        outscored_by=(),
    )
