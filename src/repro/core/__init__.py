"""Core MaxRank algorithms: FCA, BA, AA, AA-2D, AA-3D, brute-force oracles and the facade."""

from .aa import aa_maxrank
from .aa2d import SortedHalflineArrangement, aa2d_maxrank
from .aa3d import aa3d_maxrank
from .accessor import DataAccessor
from .ba import ba_maxrank
from .bruteforce import maxrank_exact_small, minimum_order_by_sampling
from .cells import CellRecord, collect_cells, region_for_cell
from .fca import fca_maxrank
from .maxrank import ALGORITHMS, imaxrank, maxrank
from .result import MaxRankRegion, MaxRankResult

__all__ = [
    "maxrank",
    "imaxrank",
    "ALGORITHMS",
    "MaxRankRegion",
    "MaxRankResult",
    "fca_maxrank",
    "ba_maxrank",
    "aa_maxrank",
    "aa2d_maxrank",
    "aa3d_maxrank",
    "SortedHalflineArrangement",
    "maxrank_exact_small",
    "minimum_order_by_sampling",
    "DataAccessor",
    "CellRecord",
    "collect_cells",
    "region_for_cell",
]
