"""Multi-dataset routing: consistent hashing over admission slots.

One serving process fronts several datasets ("shards").  The router owns
the mapping in three layers:

* **Shard table** — ``dataset id -> snapshot path`` (or a prebuilt
  :class:`~repro.service.core.MaxRankService`).  Services cold-start
  lazily: the first request for a dataset pays the snapshot load, under a
  per-dataset lock so concurrent first requests load it exactly once.
* **Consistent-hash ring** — dataset ids hash onto a fixed set of
  *admission slots* via a ring with virtual nodes.  Adding or removing a
  slot remaps only the datasets that hashed to it; everything else keeps
  its slot, so warm admission queues (and their counters) survive a
  resize.  The ring is deterministic across processes and Python runs —
  it hashes with BLAKE2b, not the seeded builtin ``hash``.
* **Admission slots** — one :class:`~repro.service.admission.AdmissionController`
  per slot.  Datasets sharing a slot share one wave queue (their requests
  can ride the same wave; execution is still grouped per service), while
  datasets on different slots never contend on admission at all.

Mutations bypass admission: ``insert``/``delete`` go straight to the
owning service, whose reader-writer gate already serialises them against
that shard's in-flight queries.  Other shards are untouched — per-shard
isolation is structural, not scheduled.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..errors import AlgorithmError
from .admission import AdmissionController
from .core import MaxRankService

__all__ = ["ConsistentHashRing", "DatasetRouter"]


def _ring_hash(data: str) -> int:
    """Position on the ring: stable across runs, processes and platforms."""
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """A consistent-hash ring with virtual nodes.

    Each slot is placed at ``vnodes`` pseudo-random ring positions; a key
    maps to the first slot position at or after its own hash (wrapping).
    Virtual nodes keep the key distribution even with few slots, and
    consistent hashing keeps it *stable*: removing a slot reassigns only
    the keys that slot owned, adding one steals only the keys it now owns.
    """

    def __init__(self, slots: Iterable[str] = (), *, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise AlgorithmError(f"vnodes must be >= 1, got {vnodes}")
        self._vnodes = int(vnodes)
        self._points: List[Tuple[int, str]] = []
        self._slots: Dict[str, None] = {}
        for slot in slots:
            self.add_slot(slot)

    @property
    def slots(self) -> Tuple[str, ...]:
        """The member slots, in insertion order."""
        return tuple(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def add_slot(self, name: str) -> None:
        if name in self._slots:
            raise AlgorithmError(f"slot {name!r} is already on the ring")
        self._slots[name] = None
        for vnode in range(self._vnodes):
            bisect.insort(self._points, (_ring_hash(f"{name}#{vnode}"), name))

    def remove_slot(self, name: str) -> None:
        if name not in self._slots:
            raise AlgorithmError(f"slot {name!r} is not on the ring")
        del self._slots[name]
        self._points = [point for point in self._points if point[1] != name]

    def slot_for(self, key: str) -> str:
        """The slot owning ``key`` (first ring point at/after its hash)."""
        if not self._points:
            raise AlgorithmError("the ring has no slots")
        index = bisect.bisect_left(self._points, (_ring_hash(key), ""))
        if index == len(self._points):
            index = 0  # wrap past the highest point to the ring's start
        return self._points[index][1]


ShardSource = Union[str, "MaxRankService"]


class DatasetRouter:
    """Routes requests for many datasets onto sharded admission slots.

    Parameters
    ----------
    shards:
        ``dataset id -> snapshot path`` (lazy cold-start via
        :meth:`MaxRankService.from_snapshot`) or ``dataset id -> service``
        (adopted as-is; the router closes it with the rest).
    slots:
        Number of admission slots on the ring (default 2).
    vnodes:
        Virtual nodes per slot.
    wave_size / wave_window_s / jobs / seed:
        Forwarded to each slot's :class:`AdmissionController`.
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
        slots: int = 2,
        vnodes: int = 64,
        wave_size: int = 16,
        wave_window_s: float = 0.002,
        jobs: Optional[int] = None,
        seed: int = 0,
        service_options: Optional[Dict[str, object]] = None,
    ) -> None:
        if not shards:
            raise AlgorithmError("the router needs at least one shard")
        if slots < 1:
            raise AlgorithmError(f"slots must be >= 1, got {slots}")
        self._shards: Dict[str, ShardSource] = dict(shards)
        self._ring = ConsistentHashRing(
            (f"slot-{i}" for i in range(slots)), vnodes=vnodes
        )
        self._admissions: Dict[str, AdmissionController] = {
            name: AdmissionController(
                wave_size=wave_size,
                wave_window_s=wave_window_s,
                jobs=jobs,
                seed=seed + index,
            )
            for index, name in enumerate(self._ring.slots)
        }
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

    @property
    def slots(self) -> Tuple[str, ...]:
        """The admission slots on the ring, in order."""
        return self._ring.slots

    def slot_for(self, dataset_id: str) -> str:
        """The admission slot serving ``dataset_id``."""
        self._check_known(dataset_id)
        return self._ring.slot_for(dataset_id)

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
        """Route one query through its slot's admission controller.

        Returns ``(result, cache_hit)`` — the result bit-identical to a
        standalone computation, and whether it was served from the shard's
        result cache (pre-wave probe) or coalesced onto another request's
        flight.
        """
        service = self.service(dataset_id)
        admission = self._admissions[self._ring.slot_for(dataset_id)]
        with self._lock:
            self.routed += 1
        return admission.submit(service, dataset_id, focal, **params)

    def insert(self, dataset_id: str, record) -> int:
        """Insert into one shard; other shards are structurally unaffected."""
        return self.service(dataset_id).insert(record)

    def delete(self, dataset_id: str, record_id: int):
        """Delete from one shard; other shards are structurally unaffected."""
        return self.service(dataset_id).delete(record_id)

    def stats(self) -> Dict[str, object]:
        """Router, per-slot admission, and per-loaded-shard service stats."""
        with self._lock:
            loaded = dict(self._services)
            datasets = {
                dataset_id: self._ring.slot_for(dataset_id)
                for dataset_id in self._shards
            }
            out: Dict[str, object] = {
                "datasets": datasets,
                "loaded": sorted(loaded),
                "cold_starts": self.cold_starts,
                "routed": self.routed,
            }
        out["slots"] = {
            name: admission.stats()
            for name, admission in self._admissions.items()
        }
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
