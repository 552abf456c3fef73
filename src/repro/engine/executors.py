"""Pluggable executors scheduling :class:`~repro.engine.tasks.LeafTask` units.

The scheduler (:func:`repro.core.cells.collect_cells`) batches the leaf
tasks of one priority level and hands the batch to an executor; the
executor returns one :class:`~repro.engine.tasks.LeafTaskResult` per task,
**in task order** — that ordering is the whole determinism story of the
parallel path, so every executor must preserve it regardless of completion
order.

Executor contract
-----------------
* ``run(tasks)`` returns ``[result_for(t) for t in tasks]`` — same length,
  same order; each result must be exactly what
  :func:`~repro.engine.tasks.execute_task` produces for that task
  (:func:`~repro.engine.tasks.execute_leaf_task` for leaf tasks, the
  task's own ``run()`` for other work units such as the service layer's
  whole-query tasks).
* ``close()`` releases any resources; calling ``run`` afterwards is an
  error for pooled executors.  ``close`` is idempotent and executors are
  context managers, so a pool is torn down even when ``run()`` raises.
* ``drain_events()`` returns (and clears) the robustness events — worker
  retries, serial degradations — accumulated since the last drain, for the
  caller to fold into its :class:`~repro.stats.CostCounters`.

Two implementations, running the same self-contained tasks:

* :class:`SerialExecutor` — the default; tasks run one after another in
  the calling process.
* :class:`ProcessPoolExecutor` — ``jobs`` worker processes with chunked
  dispatch; results come back in task order.

Either way every task returns its own counters and the scheduler merges
them, so funnel reports stay exact.

Fault tolerance
---------------
The pool executor survives worker death: when a dispatch round ends with a
``BrokenProcessPool``, the broken pool is discarded, a fresh one is built,
and every chunk that did not deliver a result is re-submitted — with capped
exponential backoff, up to ``max_retries`` rounds; past the budget the
remaining chunks *degrade* to in-process serial execution (or raise
:class:`~repro.errors.RetryExhaustedError` when degradation is disabled).
Because results are merged strictly by chunk index, a batch completed via
any mixture of retries and degradation is bit-identical to a serial run.
Ordinary task exceptions are *not* retried — the serial path would raise
them too, so retrying would change semantics, not mask flakiness.

``REPRO_JOBS=N`` (N ≥ 2) in the environment forces a shared process pool on
every query that does not pass an explicit executor — this is how CI runs
the whole tier-1 suite through the pool.
"""

from __future__ import annotations

import atexit
import math
import os
import signal
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import AlgorithmError, RetryExhaustedError
from ..testing import faults
from .tasks import LeafTask, LeafTaskResult, execute_task

__all__ = [
    "LeafTaskExecutor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "make_executor",
    "resolve_executor",
]

#: Target number of dispatch chunks per worker: small enough to amortise
#: pickling, large enough that one straggler chunk cannot serialise the
#: whole level.
_CHUNKS_PER_WORKER = 4

#: Ceiling on the exponential crash-retry backoff (seconds): a repeatedly
#: dying pool should fail (or degrade) fast, not stall the query.
_MAX_BACKOFF_S = 0.5

#: How often a pool worker checks that the process that forked it is alive.
_PARENT_POLL_S = 1.0


class LeafTaskExecutor:
    """Base class fixing the executor contract (see module docstring)."""

    #: Worker processes the executor runs tasks on (1: the calling process).
    jobs: int = 1

    def run(self, tasks: Sequence[LeafTask]) -> List[LeafTaskResult]:
        """Execute ``tasks`` and return their results in task order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (idempotent)."""

    def drain_events(self) -> Dict[str, int]:
        """Robustness events since the last drain (empty for in-process
        executors — nothing can crash)."""
        return {}

    def __enter__(self) -> "LeafTaskExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(LeafTaskExecutor):
    """Default execution: each task runs in the calling process, in order."""

    def run(self, tasks: Sequence[LeafTask]) -> List[LeafTaskResult]:
        return [execute_task(task) for task in tasks]


def _init_worker(parent_pid: int) -> None:
    """Pool worker initializer: die with the parent, not with its handlers.

    A forked worker inherits the parent's signal handlers (``serve``
    installs a draining SIGTERM handler) and its stdout/stderr, so a
    worker outliving a SIGKILLed parent would ignore SIGTERM and hold the
    parent's pipes open.  Reset both signals to their defaults, and exit
    once the parent is gone: a daemon thread polls ``os.getppid()``
    (``PR_SET_PDEATHSIG`` would fire when the *forking thread* exits,
    and that can be any connection thread of a server).
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)

    def watch_parent() -> None:
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch_parent, name="parent-watch", daemon=True).start()


def _execute_chunk(payload) -> List[LeafTaskResult]:
    """Worker entry point: apply the chunk's fault directive (test-only,
    ``None`` outside the chaos suite), then run the tasks sequentially."""
    tasks, directive = payload
    faults.apply_chunk_directive(directive)
    return [execute_task(task) for task in tasks]


class ProcessPoolExecutor(LeafTaskExecutor):
    """Execute leaf tasks on a pool of ``jobs`` worker processes.

    Tasks are dispatched in contiguous chunks (about
    ``jobs * _CHUNKS_PER_WORKER`` chunks per batch) to amortise pickling;
    chunk results are concatenated in submission order, so the merged
    result list is independent of worker scheduling.  The pool is created
    lazily on first use and torn down by :meth:`close` (registered with
    ``atexit`` as a backstop, so an abandoned executor cannot leak worker
    processes past interpreter exit).

    One executor may be shared by many threads (the ``REPRO_JOBS`` pool
    serves every shard of a server): pooled ``run()`` calls are serialised
    per executor, so the pool is built, discarded and rebuilt by one
    caller at a time.

    Worker death (``BrokenProcessPool``) is survived: see the module
    docstring's *Fault tolerance* section.  :attr:`worker_retries` and
    :attr:`degraded_batches` tally the recoveries over the executor's
    lifetime; :meth:`drain_events` hands the same tallies to the scheduler
    incrementally for per-query cost accounting.

    Parameters
    ----------
    jobs:
        Number of worker processes (≥ 1).  ``jobs=1`` degenerates to
        in-process execution of the self-contained path.
    max_retries:
        Crash-retry rounds per ``run()`` batch before degradation (each
        round rebuilds the pool and re-submits every unfinished chunk).
    retry_backoff:
        Base sleep before the first retry round; doubles per round, capped
        at ``0.5`` s.
    degrade_to_serial:
        After ``max_retries`` crashed rounds, finish the unfinished chunks
        in-process (``True``, default) or raise
        :class:`~repro.errors.RetryExhaustedError` (``False``).
    """

    def __init__(
        self,
        jobs: int,
        *,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        degrade_to_serial: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.degrade_to_serial = bool(degrade_to_serial)
        #: lifetime tallies (never reset; drain_events reports increments)
        self.worker_retries = 0
        self.degraded_batches = 0
        self._pending_events: Dict[str, int] = {}
        self._events_lock = threading.Lock()
        #: serialises pooled ``run()`` calls (pool lifecycle included)
        self._run_lock = threading.Lock()
        self._pool = None
        self._closed = False
        self._atexit_registered = False

    def _ensure_pool(self):
        if self._closed:
            raise RuntimeError("executor is closed")
        if self._pool is None:
            import concurrent.futures
            import multiprocessing

            # Prefer fork: workers inherit the imported modules, so task
            # dispatch does not pay a per-worker import of numpy/repro.
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = multiprocessing.get_context()
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context,
                initializer=_init_worker, initargs=(os.getpid(),),
            )
            if not self._atexit_registered:
                # Backstop only: normal lifecycles close() explicitly (the
                # facade's try/finally, the service, context managers).
                atexit.register(self.close)
                self._atexit_registered = True
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken pool without waiting on its corpse."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _record_event(self, name: str) -> None:
        with self._events_lock:
            setattr(self, name, getattr(self, name) + 1)
            self._pending_events[name] = self._pending_events.get(name, 0) + 1

    def drain_events(self) -> Dict[str, int]:
        with self._events_lock:
            events, self._pending_events = self._pending_events, {}
        return events

    def run(self, tasks: Sequence[LeafTask]) -> List[LeafTaskResult]:
        tasks = list(tasks)
        if not tasks:
            return []
        if self._closed:
            raise RuntimeError("executor is closed")
        if self.jobs == 1 or len(tasks) == 1:
            # One worker (or one task) gains nothing from IPC; the
            # self-contained path is identical either way.
            return [execute_task(task) for task in tasks]
        with self._run_lock:
            return self._run_pooled(tasks)

    def _run_pooled(self, tasks: List[LeafTask]) -> List[LeafTaskResult]:
        chunk_count = min(len(tasks), self.jobs * _CHUNKS_PER_WORKER)
        size = math.ceil(len(tasks) / chunk_count)
        chunks = [tasks[i: i + size] for i in range(0, len(tasks), size)]
        chunk_results: List[Optional[List[LeafTaskResult]]] = [None] * len(chunks)
        pending = list(range(len(chunks)))
        attempt = 0
        while pending:
            crash = self._dispatch_round(chunks, chunk_results, pending)
            if crash is None:
                break
            pending = [i for i in pending if chunk_results[i] is None]
            if attempt >= self.max_retries:
                if not self.degrade_to_serial:
                    raise RetryExhaustedError(
                        f"pool workers kept dying: {len(pending)} chunk(s) "
                        f"unfinished after {attempt + 1} crashed round(s) "
                        f"({crash})"
                    ) from crash
                # Last resort: finish the unfinished chunks in-process.
                # Same tasks, same order, no directive — bit-identical to
                # what a healthy worker would have produced.
                self._record_event("degraded_batches")
                for index in pending:
                    chunk_results[index] = [
                        execute_task(task) for task in chunks[index]
                    ]
                break
            attempt += 1
            self._record_event("worker_retries")
            time.sleep(min(self.retry_backoff * (2 ** (attempt - 1)), _MAX_BACKOFF_S))
        results: List[LeafTaskResult] = []
        for chunk_result in chunk_results:
            results.extend(chunk_result)
        return results

    def _dispatch_round(
        self,
        chunks: List[List[LeafTask]],
        chunk_results: List[Optional[List[LeafTaskResult]]],
        pending: List[int],
    ) -> Optional[BaseException]:
        """Submit ``pending`` chunks and collect what completes.

        Returns ``None`` on a clean round, or the ``BrokenProcessPool``
        when some worker died (partial results are kept in
        ``chunk_results``; the caller retries the rest).  Ordinary task
        exceptions propagate — after cancelling the round's other futures —
        because the serial path would raise them identically.
        """
        from concurrent.futures.process import BrokenProcessPool

        plan = faults.active_plan()
        futures: List[Tuple[int, object]] = []
        try:
            pool = self._ensure_pool()
            for index in pending:
                directive = plan.arm_chunk(index) if plan is not None else None
                futures.append(
                    (index, pool.submit(_execute_chunk, (chunks[index], directive)))
                )
        except BrokenProcessPool as exc:
            self._discard_pool()
            self._collect_round(futures, chunk_results)
            return exc
        crash = self._collect_round(futures, chunk_results)
        if crash is not None:
            self._discard_pool()
        return crash

    @staticmethod
    def _collect_round(futures, chunk_results) -> Optional[BaseException]:
        from concurrent.futures.process import BrokenProcessPool

        crash: Optional[BaseException] = None
        failure: Optional[BaseException] = None
        for index, future in futures:
            if failure is not None:
                future.cancel()
                continue
            try:
                chunk_results[index] = future.result()
            except BrokenProcessPool as exc:
                crash = crash or exc
            except Exception as exc:  # deterministic task error: no retry
                failure = exc
        if failure is not None:
            raise failure
        return crash

    def close(self) -> None:
        """Shut the pool down (idempotent; safe to call twice)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


def make_executor(jobs: Optional[int]) -> Optional[LeafTaskExecutor]:
    """Executor for a ``jobs=`` request: ``None``/1 → serial, ≥2 → pool.

    Raises
    ------
    AlgorithmError
        For ``jobs < 1`` — a zero or negative worker count is a caller bug,
        not a request for the serial path (pass ``None`` or ``1`` for that).
    """
    if jobs is None:
        return None
    jobs = int(jobs)
    if jobs < 1:
        raise AlgorithmError(
            f"jobs must be a positive worker count (or None for serial), "
            f"got {jobs}"
        )
    if jobs == 1:
        return None
    return ProcessPoolExecutor(jobs)


_env_executor: Optional[LeafTaskExecutor] = None
_env_checked = False
_env_lock = threading.Lock()


def _executor_from_env() -> Optional[LeafTaskExecutor]:
    """Shared executor forced by ``REPRO_JOBS`` (cached; ``None`` if unset).

    The cache latch is only set after a *successful* parse, so a malformed
    ``REPRO_JOBS`` raises on every query instead of degrading to a silent
    serial run after the first error.
    """
    global _env_executor, _env_checked
    if _env_checked:
        return _env_executor
    with _env_lock:  # racing first queries must build one shared pool
        if not _env_checked:
            value = os.environ.get("REPRO_JOBS", "").strip().lower()
            executor: Optional[LeafTaskExecutor] = None
            if value:
                try:
                    jobs = int(value)
                except ValueError:
                    raise ValueError(
                        f"REPRO_JOBS must be an integer, got {value!r}"
                    ) from None
                if jobs >= 2:
                    executor = ProcessPoolExecutor(jobs)
            _env_executor = executor
            _env_checked = True
    return _env_executor


def resolve_executor(
    executor: Optional[LeafTaskExecutor],
) -> Optional[LeafTaskExecutor]:
    """Resolve the executor for one query.

    An explicit executor wins; otherwise the ``REPRO_JOBS`` environment
    override applies; otherwise ``None`` (the scheduler's built-in serial
    path, equivalent to :class:`SerialExecutor`).
    """
    if executor is not None:
        return executor
    return _executor_from_env()
