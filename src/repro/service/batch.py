"""Whole-query work units scheduled through the execution engine.

The within-leaf engine (:mod:`repro.engine`) parallelises *inside* one
query.  A service batch has a second, coarser axis: the queries themselves
are independent, so ``MaxRankService.query_batch(..., jobs=N)`` wraps each
cache-missing query in a :class:`QueryTask` and hands the batch to the same
executors that schedule leaf tasks — same chunked dispatch, same
submission-order merge, hence the same determinism story (results come back
in task order regardless of worker scheduling).

Shipping a dataset and R*-tree to every task would drown the win in
pickling, so tasks reference the service's per-dataset state through a
module-level registry instead: the service registers ``(dataset, tree,
skyline cache)`` under a token *before* any pool exists, and the engine's
fork-based workers inherit the registry (and the warm state) at fork time.
A :class:`QueryTask` therefore pickles as a few scalars.  On a platform
without ``fork`` the lookup fails loudly (clear error, no silent fallback
to a rebuilt tree — a rebuilt tree could change simulated-I/O accounting).

Inside a worker the task forces the *serial* within-leaf path: the worker
is already one of N processes, and the serial scan is bit-identical to the
pooled one, so nesting pools would add cost without changing results.  It
also must not inherit a ``REPRO_JOBS`` pool object across the fork (a
forked copy of a parent's pool is not usable).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.maxrank import maxrank
from ..core.result import MaxRankResult
from ..data.dataset import Dataset
from ..engine.deadline import Deadline
from ..engine.executors import SerialExecutor
from ..errors import AlgorithmError
from ..index.rstar import RStarTree
from ..obs.trace import TraceContext, Tracer, worker_span
from ..skyline.bbs import SkylineCache
from ..stats import CostCounters

__all__ = ["QueryTask", "register_state", "unregister_state", "SharedQueryState"]


@dataclass(frozen=True)
class SharedQueryState:
    """The per-dataset state a batch's query tasks execute against."""

    dataset: Dataset
    tree: RStarTree
    skyline_cache: Optional[SkylineCache] = None


#: token -> shared state; populated in the service process, inherited by
#: fork-based workers.  Never mutated from workers.
_REGISTRY: Dict[int, SharedQueryState] = {}
_TOKENS = itertools.count(1)


def register_state(
    dataset: Dataset,
    tree: RStarTree,
    skyline_cache: Optional[SkylineCache] = None,
) -> int:
    """Register shared state and return its token (see module docstring)."""
    token = next(_TOKENS)
    _REGISTRY[token] = SharedQueryState(dataset, tree, skyline_cache)
    return token


def unregister_state(token: int) -> None:
    """Drop a registered state (idempotent)."""
    _REGISTRY.pop(token, None)


@dataclass(frozen=True)
class QueryTask:
    """One self-contained MaxRank query of a service batch.

    Attributes
    ----------
    token:
        Registry token of the owning service's shared state.
    focal_index / focal_vector:
        Exactly one is set: the focal record as a dataset index, or as
        explicit coordinates (the what-if case).
    tau, algorithm:
        The query parameters, exactly as the service façade received them.
    options:
        Frozen algorithm options (``split_threshold``, ``use_pairwise``, …)
        as a sorted tuple of pairs — hashable and picklable.
    deadline:
        Optional wall-clock budget shared by the whole batch.  Deadlines
        carry an *absolute* monotonic-clock expiry, so the pickled copy a
        forked worker receives expires at the same instant as the
        service's (``CLOCK_MONOTONIC`` is system-wide on one host).
    trace / trace_tag:
        Optional tracing: the batch span's :class:`TraceContext` plus
        this task's deterministic span-id suffix (submission position).
        A traced task anchors a worker-local :class:`Tracer` under its
        pre-allocated span id, so the engine-phase spans it emits nest
        correctly and never collide with another task's — whatever
        worker runs it.  The finished spans ride home inside the result
        counters, the same merge path as every other counter.
    """

    token: int
    focal_index: Optional[int] = None
    focal_vector: Optional[np.ndarray] = None
    tau: int = 0
    algorithm: str = "auto"
    options: Tuple[Tuple[str, object], ...] = field(default=())
    deadline: Optional[Deadline] = None
    trace: Optional[TraceContext] = None
    trace_tag: str = ""

    def run(self) -> MaxRankResult:
        """Execute the query against the registered shared state.

        Called by :func:`repro.engine.tasks.execute_task` — in the service
        process for serial batches, in a forked worker for ``jobs >= 2``.
        The within-leaf engine is pinned to the serial executor (see module
        docstring); results are bit-identical either way.
        """
        state = _REGISTRY.get(self.token)
        if state is None:
            raise AlgorithmError(
                "service query task found no registered dataset state "
                f"(token {self.token}); whole-query parallelism requires "
                "fork-based worker processes that inherit the service's "
                "registry — run the batch with jobs=None on this platform"
            )
        focal = self.focal_index if self.focal_index is not None else self.focal_vector
        counters = CostCounters()
        counters.cache_misses += 1
        tracer = None
        span_start = 0.0
        if self.trace is not None:
            # Anchor a worker-local tracer under this task's pre-allocated
            # span id: engine-phase spans nest under it with worker-local
            # ordinals that cannot collide across tasks.
            span_start = time.perf_counter()
            parent = self.trace.parent_id
            anchor_id = f"{parent}.{self.trace_tag}" if parent else self.trace_tag
            tracer = Tracer(anchor=TraceContext(self.trace.trace_id, anchor_id))
            counters._tracer = tracer
        options = dict(self.options)
        name = self.algorithm.lower()
        if name in ("aa", "aa3d", "ba") or (
            name == "auto" and state.dataset.d >= 3
        ):
            # Pin the within-leaf engine to the serial path: this process is
            # already one of N batch workers, and a REPRO_JOBS pool object
            # inherited across the fork would not be usable anyway.
            options.setdefault("executor", SerialExecutor())
        try:
            return maxrank(
                state.dataset,
                focal,
                algorithm=self.algorithm,
                tau=self.tau,
                tree=state.tree,
                counters=counters,
                skyline_cache=state.skyline_cache,
                deadline=self.deadline,
                **options,
            )
        finally:
            if tracer is not None:
                counters._tracer = None
                counters.record_span(worker_span(
                    self.trace,
                    self.trace_tag,
                    "query_task",
                    span_start,
                    time.perf_counter(),
                ))
                for record in tracer.records():
                    counters.record_span(record)
