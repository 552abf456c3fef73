"""repro — a reproduction of "Maximum Rank Query" (Mouratidis, Zhang, Pang; VLDB 2015).

The package answers MaxRank and incremental MaxRank (iMaxRank) queries over a
multi-attribute dataset: given a focal record, it computes the best rank the
record can achieve under *any* linear preference vector, together with all
regions of the preference space where that rank is attained.

Quickstart
----------
>>> from repro import generate_independent, maxrank
>>> data = generate_independent(500, 3, seed=1)
>>> result = maxrank(data, focal=0)
>>> result.k_star, result.region_count                     # doctest: +SKIP
(42, 7)
>>> q = result.regions[0].representative_query()           # a concrete preference

Main entry points
-----------------
* :func:`repro.maxrank` / :func:`repro.imaxrank` — query facade.
* :class:`repro.MaxRankService` — the persistent serving layer: one warm
  R*-tree per dataset, LRU result caching, batched/parallel query
  execution and snapshot persistence (``python -m repro.service``).
* :class:`repro.Dataset` and the IND/COR/ANTI generators plus simulated real
  datasets (HOTEL, HOUSE, NBA, PITCH, BAT).
* ``repro.core`` — the individual algorithms (FCA, BA, AA, AA-2D, oracles).
* ``repro.experiments`` — drivers regenerating every table and figure of the
  paper's evaluation section.
"""

from .core.maxrank import ALGORITHMS, imaxrank, maxrank
from .core.result import MaxRankRegion, MaxRankResult
from .data.dataset import Dataset, random_permissible_vector, validate_query_vector
from .data.generators import (
    generate,
    generate_anticorrelated,
    generate_correlated,
    generate_independent,
)
from .data.realistic import REAL_DATASETS, load_real_dataset
from .engine.deadline import Deadline
from .errors import QueryTimeoutError, ReproError
from .index.rstar import RStarTree
from .service.core import MaxRankService
from .stats import CostCounters

__version__ = "1.0.0"

__all__ = [
    "maxrank",
    "imaxrank",
    "ALGORITHMS",
    "MaxRankResult",
    "MaxRankRegion",
    "Dataset",
    "validate_query_vector",
    "random_permissible_vector",
    "generate",
    "generate_independent",
    "generate_correlated",
    "generate_anticorrelated",
    "load_real_dataset",
    "REAL_DATASETS",
    "RStarTree",
    "MaxRankService",
    "CostCounters",
    "Deadline",
    "ReproError",
    "QueryTimeoutError",
    "__version__",
]
