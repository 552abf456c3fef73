"""repro.service — persistent, cache-aware MaxRank query serving.

The algorithms in :mod:`repro.core` are per-query, like the paper's
experiments: every call rebuilds all dataset-level state.  This package is
the serving layer on top of them — a :class:`MaxRankService` owns a dataset
for its lifetime, keeps the R*-tree and warm BBS traversal state across
queries, caches results in an LRU keyed by the full query identity, runs
batches through the execution engine's process pools (whole queries as work
units), and cold-starts from on-disk snapshots
(:func:`repro.index.diskio.save_snapshot`).  A :class:`DatasetRouter`
serves several such services at once behind one
:class:`AdmissionController`, which computes concurrent duplicate
queries once.

Quickstart
----------
>>> from repro import generate
>>> from repro.service import MaxRankService
>>> service = MaxRankService(generate("IND", 500, 3, seed=1))
>>> results = service.query_batch([3, 17, 3], tau=1)   # third answer is a hit
>>> service.save_snapshot("idx.rprs")                  # doctest: +SKIP
>>> warm = MaxRankService.from_snapshot("idx.rprs")    # doctest: +SKIP

Everything the service computes (or serves from an exact cache hit) is
bit-identical to standalone :func:`repro.maxrank` — same ``k*``, regions,
representative points and engine-invariant counters.  A thin CLI
(``python -m repro.service build | query | serve``) drives it end-to-end.
"""

from .admission import AdmissionController
from .batch import QueryTask
from .cache import QueryCache, query_key
from .core import MaxRankService, result_fingerprint
from .router import DatasetRouter
from .transport import ThreadedLineServer

__all__ = [
    "MaxRankService",
    "QueryCache",
    "QueryTask",
    "query_key",
    "result_fingerprint",
    "AdmissionController",
    "DatasetRouter",
    "ThreadedLineServer",
]
