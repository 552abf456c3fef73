"""Admission control for concurrent MaxRank traffic: single-flight + waves.

A threaded transport hands the serving front many simultaneous requests.
Letting each transport thread call :meth:`MaxRankService.query` directly
would be correct (the service is thread-safe) but wasteful under the two
load shapes that actually occur:

* **Duplicate hot keys.**  Interactive what-if traffic is skewed: many
  clients ask about the *same* focal record at the same time.  The result
  cache only helps the requests that arrive after the first computation
  finishes; everything that arrives *while* it runs would recompute the
  identical answer.  The admission layer makes concurrent duplicates
  **single-flight**: the first request computes, the rest park on the same
  flight and receive the very same result object (counted in
  ``coalesced``).
* **Concurrent distinct keys.**  Distinct concurrent requests are coalesced
  into **waves** executed through :meth:`MaxRankService.query_batch`
  (optionally with whole-query process parallelism, ``jobs=N``), so the
  batch path's dedup/merge machinery — not N independent locks — absorbs
  the concurrency.  When more requests are pending than one wave admits,
  the pending queue is shuffled with a seeded RNG before slicing — the
  MRV-style randomized split (Faria & Pereira, SIGMOD 2023): hotspot load
  is spread across physical units at random instead of letting arrival
  order serialise one hot focal's followers behind each other, so a skewed
  workload cannot pin every wave to the same key while distinct cold keys
  starve.

Answers are untouched on the way through: a flight's result is exactly what
``query_batch`` returned, and ``query_batch`` is bit-identical to
standalone :func:`repro.maxrank` — the admission layer only decides *when*
and *together with whom* a computation runs, never *what* it computes.

Wave leadership is cooperative: the first thread to find no wave running
becomes the leader, briefly holds the door open (``wave_window_s``) so
concurrent arrivals join its wave, executes the batch, distributes the
results and hands leadership to whoever is waiting next.  There is no
background dispatcher thread to manage or leak.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..errors import AlgorithmError
from .cache import query_key
from .core import validate_tau

__all__ = ["AdmissionController"]


class _Flight:
    """One admitted query: parameters in, shared (result | error) out."""

    __slots__ = (
        "key", "service", "focal", "tau", "algorithm", "options",
        "timeout", "use_cache", "done", "result", "error", "cache_hit",
        "tracer", "ctx",
    )

    def __init__(self, key, service, focal, tau, algorithm, options,
                 timeout, use_cache, tracer=None, ctx=None):
        self.key = key
        self.service = service
        self.focal = focal
        self.tau = tau
        self.algorithm = algorithm
        self.options = options
        self.timeout = timeout
        self.use_cache = use_cache
        self.done = False
        self.result = None
        self.error: Optional[BaseException] = None
        self.cache_hit = False
        #: optional tracing of the request that opened this flight: the
        #: tracer itself plus the submit span's context, so the wave
        #: leader (a different thread) can parent its spans correctly
        self.tracer = tracer
        self.ctx = ctx


class AdmissionController:
    """Coalesces concurrent requests into single flights and batch waves.

    Parameters
    ----------
    wave_size:
        Maximum distinct queries per wave (one ``query_batch`` call).
    wave_window_s:
        How long a freshly elected wave leader keeps the wave open for
        concurrent arrivals before executing it.  Zero disables the wait
        (every wave departs immediately with whatever is pending).
    jobs:
        Whole-query process parallelism passed to ``query_batch`` for each
        wave (``None`` = serial batch execution).
    seed:
        Seed of the RNG used for the randomized hot-key spread; fixed by
        default so tests and benchmarks see a reproducible shuffle
        sequence.

    One controller guards one routing slot (see
    :class:`repro.service.router.DatasetRouter`); requests for every
    dataset of that slot flow through the same pending queue, and a wave
    may mix datasets — it is grouped per service before execution.
    """

    def __init__(
        self,
        *,
        wave_size: int = 16,
        wave_window_s: float = 0.002,
        jobs: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if wave_size < 1:
            raise AlgorithmError(f"wave_size must be >= 1, got {wave_size}")
        if wave_window_s < 0:
            raise AlgorithmError(
                f"wave_window_s must be >= 0, got {wave_window_s}"
            )
        self.wave_size = int(wave_size)
        self.wave_window_s = float(wave_window_s)
        self.jobs = jobs
        self._rng = random.Random(seed)
        self._cond = threading.Condition()
        self._flights: Dict[object, _Flight] = {}
        self._pending: List[_Flight] = []
        self._wave_active = False
        #: requests admitted (including coalesced duplicates)
        self.admitted = 0
        #: concurrent duplicates that attached to an existing flight
        self.coalesced = 0
        #: waves executed / total distinct jobs they carried
        self.waves = 0
        self.wave_jobs = 0
        #: randomized hot-key spreads (pending exceeded one wave)
        self.spread_shuffles = 0

    # ------------------------------------------------------------------ API
    def submit(
        self,
        service,
        dataset_id: str,
        focal,
        *,
        tau: int = 0,
        algorithm: Optional[str] = None,
        timeout: Optional[float] = None,
        use_cache: bool = True,
        tracer=None,
        **options,
    ):
        """Admit one query; block until its flight lands; return the result.

        Exceptions raised by the computation (validation errors, timeouts,
        worker crashes) propagate to *every* request coalesced onto the
        failing flight.

        ``tracer`` (optional, see :mod:`repro.obs.trace`) records the
        admission spans of this request.  It is deliberately *not* part
        of the flight key, and a traced request coalescing onto an
        untraced flight still records its own submit span — the trace
        then shows the wait without the computation, which is exactly
        what happened from that request's point of view.
        """
        # A loose tau (1.7, True) must not key onto a valid flight's answer.
        validate_tau(tau)
        algorithm = algorithm or service.algorithm
        key = (dataset_id, query_key(focal, tau, algorithm, options))
        handle = (
            tracer.begin("admission.submit") if tracer is not None else None
        )
        coalesced = False
        try:
            with self._cond:
                self.admitted += 1
                flight = self._flights.get(key)
                if flight is not None:
                    self.coalesced += 1
                    coalesced = True
                else:
                    flight = _Flight(
                        key, service, focal, tau, algorithm,
                        dict(options), timeout, use_cache,
                        tracer=tracer,
                        ctx=tracer.context() if tracer is not None else None,
                    )
                    self._flights[key] = flight
                    self._pending.append(flight)
                    self._cond.notify_all()
            return self._await(flight)
        finally:
            if handle is not None:
                tracer.finish(handle, coalesced=coalesced)

    def stats(self) -> Dict[str, int]:
        """Admission counters (see the attribute docs)."""
        with self._cond:
            return {
                "admitted": self.admitted,
                "coalesced": self.coalesced,
                "waves": self.waves,
                "wave_jobs": self.wave_jobs,
                "spread_shuffles": self.spread_shuffles,
                "in_flight": len(self._flights),
            }

    # ------------------------------------------------------------ mechanics
    def _await(self, flight: _Flight):
        """Wait for ``flight`` to land, leading waves whenever one is idle.

        Every parked thread is a potential leader: if no wave is running
        and work is pending, the first to notice takes leadership, so
        progress never depends on a dedicated dispatcher being scheduled.
        """
        while True:
            wave: Optional[List[_Flight]] = None
            with self._cond:
                while True:
                    if flight.done:
                        if flight.error is not None:
                            raise flight.error
                        return flight.result, flight.cache_hit
                    if self._pending and not self._wave_active:
                        self._wave_active = True
                        wave = self._collect_wave_locked()
                        break
                    self._cond.wait(0.05)
            # Leader path: execute outside the lock, then re-park.
            try:
                self._run_wave(wave)
            finally:
                with self._cond:
                    self._wave_active = False
                    self._cond.notify_all()

    def _collect_wave_locked(self) -> List[_Flight]:
        """Hold the wave open briefly, then slice one wave off the queue."""
        if self.wave_window_s > 0:
            door_closes = time.monotonic() + self.wave_window_s
            while len(self._pending) < self.wave_size:
                remaining = door_closes - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
        if len(self._pending) > self.wave_size:
            # MRV-style randomized spread: shuffle before slicing so a hot
            # key's backlog does not monopolise consecutive waves.
            self._rng.shuffle(self._pending)
            self.spread_shuffles += 1
        wave = self._pending[: self.wave_size]
        del self._pending[: self.wave_size]
        self.waves += 1
        self.wave_jobs += len(wave)
        return wave

    def _run_wave(self, wave: List[_Flight]) -> None:
        """Execute one wave as per-service ``query_batch`` calls.

        Jobs are grouped by (service, query parameters): each group is one
        batch, so its answers are bit-identical to standalone computation
        by the batch path's existing contract.  A failing group fails only
        its own flights.
        """
        groups: Dict[Tuple, List[_Flight]] = {}
        for job in wave:
            group = (
                id(job.service), job.tau, job.algorithm,
                tuple(sorted(job.options.items())), job.timeout,
                job.use_cache,
                # A traced flight gets its own batch: the tracer threads
                # through query_batch, and mixing traced and untraced
                # flights would attribute the whole group's spans to one
                # request's trace.  id(None) groups untraced flights as
                # before.
                id(job.tracer),
            )
            groups.setdefault(group, []).append(job)
        for jobs in groups.values():
            service = jobs[0].service
            lead = jobs[0]
            wave_handle = None
            if lead.tracer is not None:
                # The leader runs on some waiter's thread; parent the wave
                # span explicitly under the opening request's submit span.
                wave_handle = lead.tracer.begin(
                    "admission.wave", parent=lead.ctx
                )
            try:
                # Probe which keys are already cached *before* the batch so
                # every answer can report hit/computed truthfully.
                hits = [
                    lead.use_cache and job.key[1] in service.cache
                    for job in jobs
                ]
                results = service.query_batch(
                    [job.focal for job in jobs],
                    tau=lead.tau,
                    algorithm=lead.algorithm,
                    jobs=self.jobs,
                    use_cache=lead.use_cache,
                    timeout=lead.timeout,
                    tracer=lead.tracer,
                    **lead.options,
                )
            except BaseException as exc:  # propagate to every waiter
                self._land(jobs, error=exc)
            else:
                for job, result, hit in zip(jobs, results, hits):
                    job.result = result
                    job.cache_hit = bool(hit)
                self._land(jobs)
            finally:
                if wave_handle is not None:
                    lead.tracer.finish(wave_handle, wave_jobs=len(jobs))

    def _land(self, jobs: List[_Flight], error: Optional[BaseException] = None) -> None:
        with self._cond:
            for job in jobs:
                job.error = error
                job.done = True
                self._flights.pop(job.key, None)
            self._cond.notify_all()
