"""Single-flight admission for concurrent MaxRank traffic.

MaxRank is answered one focal record at a time, and no step of AA/BA shares
work between distinct focals, so the one saving a server can make without
changing an answer is to compute a concurrent *duplicate* once.  Interactive
what-if traffic is skewed: many clients ask about the same focal record at
the same time, and the result cache only helps the requests that arrive
after the first computation finishes.

The admission layer closes that gap.  The first request for a key opens a
**flight** and calls :meth:`MaxRankService.query` on its own thread; every
request for the same key that arrives while the flight is open parks on it
and receives the very same result object — or sees the very same error —
and is counted in ``coalesced``.  Distinct keys never wait for each other
here: a cache hit returns at once, and misses of one shard queue on that
shard's compute lock (see :class:`~repro.service.core.MaxRankService`).

Answers are untouched on the way through: a flight's result is exactly what
``query`` returned, which is bit-identical to standalone
:func:`repro.maxrank`.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from .cache import query_key
from .core import validate_tau

__all__ = ["AdmissionController"]


class _Flight:
    """One computation in progress: shared (result | error) out."""

    __slots__ = ("landed", "result", "cache_hit", "error")

    def __init__(self) -> None:
        self.landed = threading.Event()
        self.result = None
        self.cache_hit = False
        self.error: Optional[BaseException] = None


class AdmissionController:
    """Coalesces concurrent duplicate requests into single flights.

    One controller fronts every shard of a
    :class:`~repro.service.router.DatasetRouter`; flights are keyed by
    ``(dataset id, query key)``, so equal queries on different shards
    never share one.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[object, _Flight] = {}
        #: requests admitted (including coalesced duplicates)
        self.admitted = 0
        #: concurrent duplicates that attached to an existing flight
        self.coalesced = 0

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
        """Admit one query; return ``(result, cache_hit)`` once its flight lands.

        Exceptions raised by the computation (validation errors, timeouts,
        worker crashes) propagate to *every* request coalesced onto the
        failing flight.

        ``tracer`` (optional, see :mod:`repro.obs.trace`) records the
        admission span of this request.  It is deliberately *not* part of
        the flight key: a traced request coalescing onto an untraced
        flight records the wait without the computation, which is exactly
        what happened from that request's point of view.
        """
        # A loose tau (1.7, True) must not key onto a valid flight's answer.
        validate_tau(tau)
        algorithm = algorithm or service.algorithm
        key = (dataset_id, query_key(focal, tau, algorithm, options))
        handle = (
            tracer.begin("admission.submit") if tracer is not None else None
        )
        with self._lock:
            self.admitted += 1
            flight = self._flights.get(key)
            opens = flight is None
            if opens:
                flight = self._flights[key] = _Flight()
            else:
                self.coalesced += 1
        try:
            if opens:
                try:
                    # Probed before the query so the answer reports whether
                    # it came from the shard's result cache.
                    flight.cache_hit = use_cache and key[1] in service.cache
                    flight.result = service.query(
                        focal, tau=tau, algorithm=algorithm, timeout=timeout,
                        use_cache=use_cache, tracer=tracer, **options,
                    )
                except BaseException as exc:  # shared with every waiter
                    flight.error = exc
                finally:
                    with self._lock:
                        del self._flights[key]
                    flight.landed.set()
            else:
                flight.landed.wait()
            if flight.error is not None:
                raise flight.error
            return flight.result, flight.cache_hit
        finally:
            if handle is not None:
                tracer.finish(handle, coalesced=not opens)

    def stats(self) -> Dict[str, int]:
        """Admission counters (see the attribute docs)."""
        with self._lock:
            return {
                "admitted": self.admitted,
                "coalesced": self.coalesced,
                "in_flight": len(self._flights),
            }
