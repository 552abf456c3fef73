"""The persistent, cache-aware MaxRank query service.

Standalone :func:`repro.maxrank` is shaped like the paper's experiments: one
query, all dataset-level state (R*-tree, BBS passes) built from scratch and
thrown away.  :class:`MaxRankService` is the serving-layer shape: it owns a
dataset for its lifetime and amortises everything that does not depend on
the focal record across the queries it answers —

* the **R*-tree** is built once (or loaded from a snapshot; see
  :func:`repro.index.diskio.save_snapshot`) and shared by every query;
* the **BBS skyline passes** share a warm
  :class:`~repro.skyline.bbs.SkylineCache`, so per-query dominance passes
  stop recomputing the traversal keys the first query already paid for;
* **results** land in an LRU :class:`~repro.service.cache.QueryCache`, so
  repeated queries are answered without touching the algorithms at all, and
  (opt-in) lower-``tau`` queries are derived from cached superset answers;
* **batches** (:meth:`MaxRankService.query_batch`) run their cache-missing
  queries through the execution engine's executors — whole queries as work
  units — with deterministic submission-order merge;
* the dataset is **mutable** (:meth:`MaxRankService.insert` /
  :meth:`MaxRankService.delete`): the R*-tree is maintained incrementally,
  only the warm skyline keys of structurally touched pages are dropped, and
  cached answers survive a mutation whenever their provenance scope proves
  the touched record cannot affect them (see :mod:`repro.service.cache`).

Identity contract
-----------------
Every answer the service computes or serves from an exact cache hit is
**bit-identical** to a standalone ``maxrank()`` call with the same
parameters: same ``k*``, same regions (including representative-point
bytes), same engine-invariant cost counters.  Service-layer counters
(``cache_hits``, ``cache_misses``, ``skyline_reused``) are additional keys,
zero in standalone runs.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.maxrank import ALGORITHMS, maxrank
from ..core.result import MaxRankResult
from ..data.dataset import Dataset
from ..engine.deadline import Deadline
from ..engine.executors import LeafTaskExecutor, make_executor
from ..errors import AlgorithmError, QueryTimeoutError, SnapshotError
from ..index.diskio import load_snapshot, save_snapshot
from ..index.rstar import RStarTree
from ..obs.log import get_logger
from ..obs.trace import Tracer
from ..skyline.bbs import SkylineCache
from ..stats import CostCounters
from .batch import QueryTask, register_state, unregister_state
from .cache import QueryCache, query_key

__all__ = ["MaxRankService", "result_fingerprint", "validate_tau"]

logger = get_logger("repro.service")

Focal = Union[int, Sequence[float], np.ndarray]


def validate_tau(tau) -> int:
    """Return ``tau`` if it is a non-negative integer; raise otherwise.

    Strict on purpose: ``bool`` and floats (``1.7``, ``1.0``) are rejected
    rather than coerced, so a malformed request is never answered as a
    different ``tau``.
    """
    if isinstance(tau, bool) or not isinstance(tau, (int, np.integer)):
        raise AlgorithmError(f"tau must be a non-negative integer, got {tau!r}")
    if tau < 0:
        raise AlgorithmError(f"tau must be non-negative, got {tau}")
    return tau


def result_fingerprint(result: MaxRankResult):
    """Bit-exact identity of a result: ``k*`` plus every region's order,
    outscored set and representative-query bytes, in canonical order.

    Two results with equal fingerprints are interchangeable answers down to
    the representative preference vectors.  Used by the differential tests
    and the CLI's ``--verify-standalone`` smoke mode.
    """
    return (
        result.k_star,
        result.dominator_count,
        result.minimum_cell_order,
        sorted(
            (
                region.cell_order,
                tuple(region.outscored_by),
                region.representative_query().tobytes(),
            )
            for region in result.regions
        ),
    )


class _ReadWriteGate:
    """Many concurrent readers (queries) or one exclusive writer (mutation).

    The serving front answers queries from multiple transport threads, but a
    mutation swaps the dataset, maintains the R*-tree in place and sweeps
    the caches — none of which may interleave with an in-flight query.  The
    gate gives queries shared access and mutations exclusive access.  Read
    acquisition is reentrant per thread (``query_batch`` calls ``query`` on
    its serial path), tracked in a thread-local depth counter.  Writers are
    preferred: a waiting writer blocks *new* top-level readers, so a tight
    query loop cannot starve a mutation by keeping the reader count forever
    nonzero (cache hits are fast enough that overlapping readers otherwise
    never drain).  Nested re-entry by a thread already holding a read lease
    never blocks — blocking it behind the waiting writer would deadlock,
    since the writer is waiting for that very lease to release.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self._local = threading.local()

    @contextmanager
    def read(self):
        depth = getattr(self._local, "depth", 0)
        if depth == 0:
            with self._cond:
                while self._writer_active or self._writers_waiting:
                    self._cond.wait()
                self._readers += 1
        self._local.depth = depth + 1
        try:
            yield
        finally:
            self._local.depth -= 1
            if self._local.depth == 0:
                with self._cond:
                    self._readers -= 1
                    if self._readers == 0:
                        self._cond.notify_all()

    @contextmanager
    def write(self):
        if getattr(self._local, "depth", 0):
            raise AlgorithmError(
                "cannot mutate the service from inside one of its own queries"
            )
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
                self._cond.notify_all()  # readers held back by the wait
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class MaxRankService:
    """A long-lived MaxRank query service over one dataset.

    Parameters
    ----------
    dataset:
        The dataset to own.  The R*-tree is built immediately (unless
        supplied), so construction cost is the cold-start cost.
    tree:
        Optional pre-built R*-tree over ``dataset.records`` (record ids must
        be row indices, as produced by :meth:`RStarTree.build`).
    algorithm:
        Default applied to every query (overridable per call); the usual
        :func:`repro.maxrank` values.
    cache_size:
        LRU result-cache capacity (``0`` disables result caching).
    name:
        Optional service label (defaults to the dataset name).

    Use as a context manager (or call :meth:`close`) to release the batch
    process pools and the shared-state registration.

    Thread-safety contract
    ----------------------
    The service is safe to share across threads.  Queries take *shared*
    access (any number run concurrently; the caches and the aggregate
    counters serialise on an internal mutex, so ``stats()`` totals stay
    exact) while :meth:`insert` / :meth:`delete` take *exclusive* access —
    a mutation waits for in-flight queries to drain and blocks new ones
    until the dataset swap, tree maintenance and cache sweeps are complete.
    The mutex is never held while a result is computed.  A cache miss of
    :meth:`query` computes under the service's compute lock, so the shard
    computes one miss at a time — concurrent computations of one process
    would only contend for the GIL — while cache hits never take it and
    other shards compute alongside.  The compute lock is never held while
    taking the gate or the mutex.  Coalescing concurrent *duplicate*
    queries is the admission layer's job (:mod:`repro.service.admission`).
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        tree: Optional[RStarTree] = None,
        algorithm: str = "auto",
        cache_size: int = 256,
        name: Optional[str] = None,
    ) -> None:
        self.dataset = dataset
        self.algorithm = algorithm
        self.name = name or dataset.name
        build_start = time.perf_counter()
        self.tree = tree if tree is not None else RStarTree.build(dataset.records)
        self.tree_build_seconds = (
            time.perf_counter() - build_start if tree is None else 0.0
        )
        self.skyline_cache = SkylineCache(self.tree)
        self.cache = QueryCache(cache_size)
        #: Aggregate counters over every query the service answered
        #: (computed queries merge their full cost; cache hits charge only
        #: ``cache_hits``).
        self.counters = CostCounters()
        self.queries_served = 0
        self.queries_computed = 0
        self.batches_served = 0
        #: queries cancelled by their wall-clock budget
        self.query_timeouts = 0
        #: set by from_snapshot when a broken snapshot was rebuilt from data
        self.snapshot_fallback = False
        self.snapshot_error: Optional[str] = None
        self.inserts = 0
        self.deletes = 0
        self._token = register_state(dataset, self.tree, self.skyline_cache)
        self._executors: Dict[int, LeafTaskExecutor] = {}
        self._closed = False
        #: Serialises counter/cache bookkeeping (never held during compute).
        self._mutex = threading.RLock()
        #: Queries shared / mutations exclusive (see the class docstring).
        self._gate = _ReadWriteGate()
        #: One cache miss of ``query`` computes at a time (never held while
        #: taking ``_gate`` or ``_mutex``).
        self._compute_lock = threading.Lock()

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def from_snapshot(
        cls,
        path: Union[str, Path],
        *,
        fallback_dataset: Optional[Dataset] = None,
        strict: bool = False,
        **kwargs,
    ) -> "MaxRankService":
        """Cold-start a service from a snapshot file (no STR rebuild).

        The snapshot (see :func:`repro.index.diskio.load_snapshot`) restores
        the record matrix, the dataset identity (name, attribute names) and
        a node-for-node identical R*-tree, so a service loaded from disk
        answers every query byte-identically to the service that saved it.

        Parameters
        ----------
        fallback_dataset:
            Optional dataset to rebuild from when the snapshot is missing
            or corrupt (:class:`~repro.errors.SnapshotError`).  The
            degraded cold-start pays the full R*-tree build but keeps the
            service *up*; the event is logged and surfaced through
            ``stats()`` (``snapshot_fallback`` / ``snapshot_error``).
            Answers are identical either way — the tree is rebuilt over the
            same records.
        strict:
            ``True`` re-raises the :class:`~repro.errors.SnapshotError`
            even when a fallback dataset is available (opt out of graceful
            degradation, e.g. in CI where a corrupt snapshot is a bug).
        """
        try:
            payload = load_snapshot(path)
        except SnapshotError as exc:
            if strict or fallback_dataset is None:
                raise
            logger.warning(
                "snapshot unusable; rebuilding from fallback dataset",
                extra={
                    "event": "snapshot_fallback",
                    "snapshot": str(path),
                    "error": str(exc),
                    "dataset": fallback_dataset.name,
                },
            )
            service = cls(fallback_dataset, **kwargs)
            service.snapshot_fallback = True
            service.snapshot_error = str(exc)
            return service
        metadata = payload.metadata
        dataset = Dataset(
            payload.records,
            attribute_names=metadata.get("attribute_names"),
            name=str(metadata.get("dataset_name", "dataset")),
        )
        service = cls(dataset, tree=payload.tree, **kwargs)
        return service

    def save_snapshot(self, path: Union[str, Path]) -> None:
        """Persist the record matrix and built R*-tree to ``path``."""
        metadata: Dict[str, object] = {"dataset_name": self.dataset.name}
        if self.dataset.attribute_names is not None:
            metadata["attribute_names"] = list(self.dataset.attribute_names)
        save_snapshot(path, self.tree, self.dataset.records, metadata=metadata)

    def close(self) -> None:
        """Release process pools and the shared-state registration (idempotent)."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            unregister_state(self._token)
            executors = list(self._executors.values())
            self._executors.clear()
        for executor in executors:
            executor.close()

    def __enter__(self) -> "MaxRankService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return self.dataset.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MaxRankService(name={self.name!r}, n={self.dataset.n}, "
            f"d={self.dataset.d}, cached={len(self.cache)}, "
            f"served={self.queries_served})"
        )

    # -------------------------------------------------------------- queries
    def _validate_request(self, focal: Focal, tau: int, algorithm: str) -> None:
        """Reject malformed requests before any cache-key or tree work.

        Raises a :class:`~repro.errors.ReproError` subclass for NaN /
        infinite / wrong-dimensional focal vectors, out-of-range focal
        indices, negative or non-integral ``tau`` and unknown algorithm
        names, so service callers (and the JSON-lines ``serve`` loop) get a
        structured, catchable error instead of a deep traceback from the
        middle of a tree descent.
        """
        self.dataset.validate_focal(focal)
        validate_tau(tau)
        if algorithm not in ALGORITHMS:
            raise AlgorithmError(
                f"unknown algorithm {algorithm!r}; choose one of {ALGORITHMS}"
            )

    @staticmethod
    def _coerce_deadline(timeout) -> Optional[Deadline]:
        if timeout is None:
            return None
        if isinstance(timeout, Deadline):
            return timeout
        return Deadline.after(float(timeout))

    def _compute(
        self,
        focal: Focal,
        tau: int,
        algorithm: str,
        options: Dict[str, object],
        jobs: Optional[int] = None,
        deadline: Optional[Deadline] = None,
        tracer: Optional[Tracer] = None,
    ) -> MaxRankResult:
        counters = CostCounters()
        counters.cache_misses += 1
        handle = None
        if tracer is not None:
            # The tracer rides the counters into the engine: timer sections
            # and leaf/build tasks emit spans against it, and worker-side
            # span deltas come back inside the counters merge.
            handle = tracer.begin("compute")
            counters._tracer = tracer
        try:
            result = maxrank(
                self.dataset,
                focal,
                algorithm=algorithm,
                tau=tau,
                tree=self.tree,
                counters=counters,
                jobs=jobs,
                skyline_cache=self.skyline_cache,
                deadline=deadline,
                **options,
            )
        finally:
            if tracer is not None:
                tracer.finish(handle)
                counters._tracer = None
                # Keep spans out of the service aggregate counters: they
                # belong to this trace, not to ``self.counters``.
                tracer.absorb(counters.drain_spans())
        return result

    def query(
        self,
        focal: Focal,
        *,
        tau: int = 0,
        algorithm: Optional[str] = None,
        use_cache: bool = True,
        jobs: Optional[int] = None,
        timeout: Optional[Union[float, Deadline]] = None,
        tracer: Optional[Tracer] = None,
        **options,
    ) -> MaxRankResult:
        """Answer one MaxRank / iMaxRank query against the owned dataset.

        Identical semantics to :func:`repro.maxrank` with the service's
        dataset and warm state; ``jobs`` parallelises *within* the query
        (leaf tasks).  Cached answers are returned as stored — treat results
        as read-only, as two calls may share region objects.

        ``timeout`` is a wall-clock budget in seconds (or a prebuilt
        :class:`~repro.engine.Deadline`); expiry raises
        :class:`~repro.errors.QueryTimeoutError`, whose partial counters
        are still merged into the service aggregates.  The budget is *not*
        part of the cache key — a cached answer is served regardless of
        the timeout, and a computed answer is cached for timeout-free
        callers too (the answer does not depend on the budget).

        ``tracer`` (optional, see :mod:`repro.obs.trace`) records a span
        tree for the query — service, engine phases, worker tasks — and
        never affects the answer, the counters or the cache key.
        """
        if self._closed:
            raise AlgorithmError("the service is closed")
        algorithm = algorithm or self.algorithm
        self._validate_request(focal, tau, algorithm)
        deadline = self._coerce_deadline(timeout)
        key = query_key(focal, tau, algorithm, options)
        handle = tracer.begin("service.query") if tracer is not None else None
        cache_hit = False
        try:
            with self._gate.read():
                with self._mutex:
                    self.queries_served += 1
                    if use_cache:
                        cached = self.cache.get(key)
                        if cached is not None:
                            self.counters.cache_hits += 1
                            cache_hit = True
                            return cached
                try:
                    with self._compute_lock:
                        result = self._compute(
                            focal, tau, algorithm, options,
                            jobs=jobs, deadline=deadline, tracer=tracer,
                        )
                except QueryTimeoutError as exc:
                    with self._mutex:
                        self.query_timeouts += 1
                        if exc.counters is not None:
                            self.counters += exc.counters
                    raise
                with self._mutex:
                    self.queries_computed += 1
                    self.counters += result.counters
                    if use_cache:
                        self.cache.put(key, result)
                return result
        finally:
            if handle is not None:
                tracer.finish(handle, cache_hit=cache_hit)

    def query_batch(
        self,
        focals: Sequence[Focal],
        *,
        tau: int = 0,
        algorithm: Optional[str] = None,
        jobs: Optional[int] = None,
        use_cache: bool = True,
        timeout: Optional[Union[float, Deadline]] = None,
        tracer: Optional[Tracer] = None,
        **options,
    ) -> List[MaxRankResult]:
        """Answer a batch of queries, amortising and (optionally) parallelising.

        Duplicate focal records within the batch are always computed once —
        even with ``use_cache=False``, which only bypasses the *persistent*
        result cache, not the batch-local dedup.  Cached answers (from this
        batch, earlier batches or single queries) are served without
        computation.  With ``jobs >= 2`` the cache-missing queries run as
        whole-query tasks on the execution engine's process pool — results
        are merged in submission order and are bit-identical to a serial
        batch, which in turn is bit-identical to standalone ``maxrank()``
        calls.

        ``timeout`` is one shared wall-clock budget for the *whole batch*
        (seconds or a :class:`~repro.engine.Deadline`): every query checks
        the same deadline, so a batch is cancelled as a unit rather than
        letting each member burn a full budget in sequence.

        Returns one result per input focal, in input order.
        """
        if self._closed:
            raise AlgorithmError("the service is closed")
        algorithm = algorithm or self.algorithm
        for focal in focals:
            self._validate_request(focal, tau, algorithm)
        deadline = self._coerce_deadline(timeout)
        with self._gate.read():
            with self._mutex:
                self.batches_served += 1

            if jobs is None or jobs <= 1:
                # Same dedup semantics as the parallel path: occurrences
                # beyond the first of a key are served from the batch-local
                # map.
                local: Dict[object, MaxRankResult] = {}
                ordered: List[MaxRankResult] = []
                for focal in focals:
                    key = query_key(focal, tau, algorithm, options)
                    if key in local:
                        with self._mutex:
                            self.queries_served += 1
                            if use_cache:
                                self.counters.cache_hits += 1
                        ordered.append(local[key])
                        continue
                    result = self.query(
                        focal,
                        tau=tau,
                        algorithm=algorithm,
                        use_cache=use_cache,
                        timeout=deadline,
                        tracer=tracer,
                        **options,
                    )
                    local[key] = result
                    ordered.append(result)
                return ordered

            # Whole-query parallelism: dedupe, serve hits, schedule misses.
            keys = [query_key(focal, tau, algorithm, options) for focal in focals]
            results: Dict[object, MaxRankResult] = {}
            pending: List[Focal] = []
            pending_keys: List[object] = []
            with self._mutex:
                for focal, key in zip(focals, keys):
                    if key in results or key in pending_keys:
                        continue
                    cached = self.cache.get(key) if use_cache else None
                    if cached is not None:
                        self.counters.cache_hits += 1
                        results[key] = cached
                    else:
                        pending.append(focal)
                        pending_keys.append(key)

            if pending:
                frozen_options = tuple(sorted(options.items()))
                # Traced batches: each task carries a TraceContext under one
                # batch span; its tag (submission position) makes the
                # worker-minted span ids schedule-independent.
                batch_handle = None
                batch_trace = None
                if tracer is not None:
                    batch_handle = tracer.begin("service.batch")
                    batch_trace = tracer.context()
                tasks = [
                    self._make_task(
                        focal, tau, algorithm, frozen_options,
                        deadline, trace=batch_trace, trace_tag=f"Q{index}",
                    )
                    for index, focal in enumerate(pending)
                ]
                with self._mutex:
                    executor = self._executors.get(jobs)
                    if executor is None:
                        executor = make_executor(jobs)
                        self._executors[jobs] = executor
                try:
                    task_results = executor.run(tasks)
                except QueryTimeoutError as exc:
                    with self._mutex:
                        self.query_timeouts += 1
                        if exc.counters is not None:
                            if tracer is not None:
                                tracer.absorb(exc.counters.drain_spans())
                            self.counters += exc.counters
                    raise
                finally:
                    if batch_handle is not None:
                        tracer.finish(batch_handle, tasks=len(tasks))
                    # Attribute crash-recovery events of this batch (worker
                    # retries, serial degradation) to the service
                    # aggregates, whether the batch finished or timed out.
                    with self._mutex:
                        for name, value in executor.drain_events().items():
                            setattr(
                                self.counters,
                                name,
                                getattr(self.counters, name) + value,
                            )
                with self._mutex:
                    for key, result in zip(pending_keys, task_results):
                        self.queries_computed += 1
                        if tracer is not None:
                            # Spans belong to the trace, not the aggregate.
                            tracer.absorb(result.counters.drain_spans())
                        self.counters += result.counters
                        if use_cache:
                            self.cache.put(key, result)
                        results[key] = result

            with self._mutex:
                self.queries_served += len(keys)
                # Occurrences beyond the first of each key are served from
                # the batch-local result map; with caching on, the aggregate
                # counters report that amortisation as cache hits (matching
                # the serial path).  With use_cache=False nothing is
                # attributed to the cache.
                if use_cache:
                    self.counters.cache_hits += len(keys) - len(results)
            return [results[key] for key in keys]

    def _make_task(
        self,
        focal: Focal,
        tau: int,
        algorithm: str,
        frozen_options,
        deadline: Optional[Deadline] = None,
        trace=None,
        trace_tag: str = "",
    ) -> QueryTask:
        if isinstance(focal, (int, np.integer)):
            return QueryTask(
                self._token,
                focal_index=int(focal),
                tau=tau,
                algorithm=algorithm,
                options=frozen_options,
                deadline=deadline,
                trace=trace,
                trace_tag=trace_tag,
            )
        return QueryTask(
            self._token,
            focal_vector=np.asarray(focal, dtype=float).ravel(),
            tau=tau,
            algorithm=algorithm,
            options=frozen_options,
            deadline=deadline,
            trace=trace,
            trace_tag=trace_tag,
        )

    # ------------------------------------------------------------- mutations
    def _replace_dataset(self, records: np.ndarray) -> None:
        """Swap in a mutated record matrix and refresh every shared handle.

        The batch-worker registry and any live process pools hold (or have
        forked with) the *old* dataset object; both must be refreshed or a
        subsequent ``jobs >= 2`` batch would silently answer against the
        pre-mutation records.
        """
        self.dataset = Dataset(
            records,
            attribute_names=(
                list(self.dataset.attribute_names)
                if self.dataset.attribute_names is not None
                else None
            ),
            name=self.dataset.name,
        )
        unregister_state(self._token)
        self._token = register_state(self.dataset, self.tree, self.skyline_cache)
        for executor in self._executors.values():
            executor.close()
        self._executors.clear()

    def insert(self, record: Sequence[float] | np.ndarray) -> int:
        """Insert ``record`` into the owned dataset; returns its record id.

        Incremental end to end: the R*-tree absorbs the new leaf entry in
        place, the warm skyline keys of the touched pages (and only those)
        are dropped, and cached answers survive whenever the new record
        provably cannot change them (see
        :meth:`repro.service.cache.QueryCache.invalidate_for_insert`).
        After the call the service is indistinguishable from one freshly
        built over the mutated dataset: every answer it returns — computed
        or served from a retained cache entry — is bit-identical to that
        oracle's.
        """
        if self._closed:
            raise AlgorithmError("the service is closed")
        point = np.asarray(record, dtype=float).ravel()
        if point.shape[0] != self.dataset.d:
            raise AlgorithmError(
                f"record has {point.shape[0]} attributes, dataset has {self.dataset.d}"
            )
        if not np.all(np.isfinite(point)):
            raise AlgorithmError("record attributes must be finite numbers")
        with self._gate.write():
            records_before = self.dataset.records
            self.cache.invalidate_for_insert(records_before, point)
            new_id = self.dataset.n
            self.tree.insert(point, new_id)
            self.skyline_cache.invalidate_pages(self.tree.drain_dirty_pages())
            self._replace_dataset(
                np.vstack([records_before, point[np.newaxis, :]])
            )
            self.inserts += 1
            return new_id

    def delete(self, record_id: int) -> np.ndarray:
        """Delete record ``record_id``; returns the removed point.

        Record ids are dataset row indices, so every id above ``record_id``
        shifts down by one — in the dataset, in the R*-tree leaf entries and
        in the keys and region labels of retained cache entries.  Cache
        invalidation runs against the *pre-delete* matrix (provenance scopes
        align with old row indices); the R*-tree removes the leaf entry and
        condenses under-full nodes in place.  The bit-identity contract of
        :meth:`insert` holds here too.
        """
        if self._closed:
            raise AlgorithmError("the service is closed")
        if isinstance(record_id, bool) or not isinstance(record_id, (int, np.integer)):
            raise AlgorithmError(f"record_id must be an integer, got {record_id!r}")
        record_id = int(record_id)
        with self._gate.write():
            if not 0 <= record_id < self.dataset.n:
                raise AlgorithmError(
                    f"record_id {record_id} out of range [0, {self.dataset.n})"
                )
            if self.dataset.n <= 1:
                raise AlgorithmError("cannot delete the last record of a dataset")
            records_before = self.dataset.records
            point = records_before[record_id].copy()
            self.cache.invalidate_for_delete(records_before, record_id, point)
            self.tree.delete(point, record_id)
            self.tree.renumber_after_delete(record_id)
            self.skyline_cache.invalidate_pages(self.tree.drain_dirty_pages())
            self._replace_dataset(np.delete(records_before, record_id, axis=0))
            self.deletes += 1
            return point

    # ---------------------------------------------------------------- stats
    def stats(self) -> Dict[str, object]:
        """Service-level statistics (cache behaviour, amortisation, sizes).

        Taken under the bookkeeping mutex, so the snapshot is consistent
        even while other threads are mid-query.
        """
        with self._mutex:
            return self._stats_locked()

    def _stats_locked(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "n": self.dataset.n,
            "d": self.dataset.d,
            "queries_served": self.queries_served,
            "queries_computed": self.queries_computed,
            "batches_served": self.batches_served,
            "cache_hits": self.counters.cache_hits,
            "cache_misses": self.counters.cache_misses,
            "cache_evictions": self.cache.evictions,
            "cache_entries": len(self.cache),
            "inserts": self.inserts,
            "deletes": self.deletes,
            "invalidated": self.cache.invalidated,
            "retained": self.cache.retained,
            "skyline_reused": self.counters.skyline_reused,
            "skyline_nodes_warm": len(self.skyline_cache),
            "nodes_created": self.counters.nodes_created,
            "splits_performed": self.counters.splits_performed,
            "build_tasks": self.counters.build_tasks,
            "build_wall_fraction": round(self.counters.build_wall_fraction, 6),
            "tree_build_seconds": round(self.tree_build_seconds, 6),
            "query_timeouts": self.query_timeouts,
            "deadline_checks": self.counters.deadline_checks,
            "worker_retries": self.counters.worker_retries,
            "degraded_batches": self.counters.degraded_batches,
            "snapshot_fallback": self.snapshot_fallback,
            "snapshot_error": self.snapshot_error,
        }
