"""Multi-dataset routing: one serving process, several datasets.

One serving process fronts several datasets ("shards").  The router owns
the shard table — ``dataset id -> snapshot path`` (or a prebuilt
:class:`~repro.service.core.MaxRankService`) — and one
:class:`~repro.service.admission.AdmissionController` in front of every
shard.  Services cold-start lazily: the first request for a dataset pays
the snapshot load, under a per-dataset lock so concurrent first requests
load it exactly once.

Mutations bypass admission: ``insert``/``delete`` go straight to the
owning service, whose reader-writer gate already serialises them against
that shard's in-flight queries.  Other shards are untouched — per-shard
isolation is structural, not scheduled.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional, Tuple, Union

from ..errors import AlgorithmError
from .admission import AdmissionController
from .core import MaxRankService

__all__ = ["DatasetRouter"]


ShardSource = Union[str, "MaxRankService"]


class DatasetRouter:
    """Routes requests for many datasets through one admission controller.

    Parameters
    ----------
    shards:
        ``dataset id -> snapshot path`` (lazy cold-start via
        :meth:`MaxRankService.from_snapshot`) or ``dataset id -> service``
        (adopted as-is; the router closes it with the rest).
    service_options:
        Extra keyword arguments for ``from_snapshot`` cold-starts
        (``cache_size=…``, ``algorithm=…``, …).

    Thread safety: every public method may be called from any transport
    thread.  The router's own bookkeeping is mutex-protected; query
    execution and snapshot loading happen outside the mutex.
    """

    def __init__(
        self,
        shards: Mapping[str, ShardSource],
        *,
        service_options: Optional[Dict[str, object]] = None,
    ) -> None:
        if not shards:
            raise AlgorithmError("the router needs at least one shard")
        self._shards: Dict[str, ShardSource] = dict(shards)
        self._admission = AdmissionController()
        self._service_options = dict(service_options or {})
        self._services: Dict[str, MaxRankService] = {}
        self._loads: Dict[str, threading.Lock] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: lazy snapshot loads performed
        self.cold_starts = 0
        #: queries routed (before admission coalescing)
        self.routed = 0
        for dataset_id, source in self._shards.items():
            if isinstance(source, MaxRankService):
                self._services[dataset_id] = source

    # ------------------------------------------------------------------ API
    def __enter__(self) -> "DatasetRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def dataset_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._shards))

    def service(self, dataset_id: str) -> MaxRankService:
        """The shard's service, cold-starting it from its snapshot once.

        Concurrent first requests for the same dataset block on one
        per-dataset lock: exactly one thread loads, the rest adopt its
        service.  Loads for *different* datasets proceed in parallel.
        """
        with self._lock:
            if self._closed:
                raise AlgorithmError("the router is closed")
            service = self._services.get(dataset_id)
            if service is not None:
                return service
            self._check_known(dataset_id)
            load_lock = self._loads.setdefault(dataset_id, threading.Lock())
        with load_lock:
            with self._lock:
                service = self._services.get(dataset_id)
                if service is not None:
                    return service
            source = self._shards[dataset_id]
            service = MaxRankService.from_snapshot(
                source, **self._service_options
            )
            with self._lock:
                self._services[dataset_id] = service
                self.cold_starts += 1
            return service

    def query(
        self,
        dataset_id: str,
        focal,
        **params,
    ):
        """Route one query through the admission controller.

        Returns ``(result, cache_hit)`` — the result bit-identical to a
        standalone computation, and whether the flight that answered it
        was served from the shard's result cache.
        """
        service = self.service(dataset_id)
        with self._lock:
            self.routed += 1
        return self._admission.submit(service, dataset_id, focal, **params)

    def insert(self, dataset_id: str, record) -> int:
        """Insert into one shard; other shards are structurally unaffected."""
        return self.service(dataset_id).insert(record)

    def delete(self, dataset_id: str, record_id: int):
        """Delete from one shard; other shards are structurally unaffected."""
        return self.service(dataset_id).delete(record_id)

    def stats(self) -> Dict[str, object]:
        """Router and admission counters, and per-loaded-shard service stats."""
        with self._lock:
            loaded = dict(self._services)
            out: Dict[str, object] = {
                "datasets": list(self.dataset_ids),
                "loaded": sorted(loaded),
                "cold_starts": self.cold_starts,
                "routed": self.routed,
            }
        out.update(self._admission.stats())
        out["services"] = {
            dataset_id: service.stats() for dataset_id, service in loaded.items()
        }
        return out

    def close(self) -> None:
        """Close every loaded service (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            services = list(self._services.values())
            self._services.clear()
        for service in services:
            service.close()

    # ------------------------------------------------------------- internal
    def _check_known(self, dataset_id: str) -> None:
        if dataset_id not in self._shards:
            known = ", ".join(sorted(self._shards))
            raise AlgorithmError(
                f"unknown dataset {dataset_id!r}; this router serves: {known}"
            )
