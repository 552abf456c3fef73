"""LRU result cache of the MaxRank service layer.

The cache maps a fully resolved query identity — focal record, iMaxRank
slack ``tau``, algorithm and any algorithm options — to the
:class:`~repro.core.result.MaxRankResult` a previous computation produced.
Hits return the stored result object unchanged, so a cached answer is
trivially bit-identical to the original computation.

Scoped mutation invalidation
----------------------------
When the owning service inserts or deletes a record ``r``, a cached answer
for focal ``f`` survives only if the mutation provably cannot change *any
byte* of it (the provenance-scoping pattern: derive, per cached answer, the
data region that could affect it and skip the rest).  Three cases:

* ``f`` weakly dominates ``r`` (duplicates included): ``r`` is not
  incomparable to ``f`` and contributes net zero to the dominator count, so
  it never participates in the computation at all → **retain**.
* ``r`` strictly dominates ``f``: the dominator count (hence ``k*``)
  changes → **evict**.
* ``r`` is incomparable to ``f``: retain only if some record ``d`` that is
  itself incomparable to ``f``, strictly dominates ``r`` and was *never
  materialised* by the cached computation
  (:attr:`~repro.core.result.MaxRankResult.materialised_ids`) exists.  BBS
  accepts records in decreasing coordinate-sum order and ``d`` — or an
  active member transitively dominating it — is on the progressive skyline
  whenever ``r`` would be checked, so ``r`` can never surface, the same
  half-spaces are expanded in the same order, and the reported regions and
  every dataset-derived counter are byte-identical with or without ``r``.

Answers without a provenance scope (``materialised_ids is None`` — BA, FCA,
the oracles) take the full-flush fallback: any mutation evicts them.

Thread safety
-------------
Every public entry point — lookups, insertions, the mutation-invalidation
sweeps and the length/containment probes — serialises on one internal
:class:`threading.Lock`, so the LRU order, the bounded size and the
hit/miss/eviction tallies stay exact under concurrent callers (an unlocked
``OrderedDict`` corrupts under racing ``move_to_end``/``popitem``).  The
lock is held only for dict bookkeeping, never while computing a result, so
it is invisible to single-threaded users.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..core.result import MaxRankRegion, MaxRankResult
from ..errors import AlgorithmError

__all__ = ["QueryCache", "query_key"]

#: Cache key: (focal identity, tau, algorithm, frozen options).
CacheKey = Tuple[Hashable, int, str, Tuple[Tuple[str, Hashable], ...]]


def _focal_identity(focal) -> Hashable:
    """Hashable identity of a focal argument (index vs. explicit vector).

    An index and the coordinates of the same record are deliberately
    *distinct* identities: equality of derived answers would hold, but the
    cache only ever serves results whose inputs were equal as given.
    """
    if isinstance(focal, (int, np.integer)) and not isinstance(focal, bool):
        return ("idx", int(focal))
    vector = np.asarray(focal, dtype=float).ravel()
    return ("vec", vector.tobytes())


def query_key(
    focal,
    tau: int,
    algorithm: str,
    options: Optional[Dict[str, object]] = None,
) -> CacheKey:
    """Build the cache key of one query.

    ``options`` are the algorithm tuning knobs (``split_threshold``,
    ``use_pairwise``, …); anything that can change the reported regions must
    be part of the key.  Executor/parallelism settings are *not* keyed —
    results are bit-identical across executors, which is exactly why a
    result computed at ``jobs=4`` may serve a later serial query.
    """
    frozen: List[Tuple[str, Hashable]] = []
    for name in sorted(options or {}):
        value = options[name]
        if isinstance(value, (list, np.ndarray)):
            value = tuple(np.asarray(value).ravel().tolist())
        frozen.append((name, value))
    return (_focal_identity(focal), int(tau), algorithm, tuple(frozen))


def _mutation_leaves_result_intact(
    records: np.ndarray,
    result: MaxRankResult,
    point: np.ndarray,
    exclude_index: Optional[int] = None,
) -> bool:
    """True when touching ``point`` provably cannot change ``result``.

    Implements the three-way scoped-invalidation predicate of the module
    docstring.  ``records`` is the *pre-mutation* record matrix (its row
    indices align with the cached answer's ``materialised_ids``);
    ``exclude_index`` is the deleted row for delete mutations (a record
    cannot witness its own removal).
    """
    focal = result.focal
    materialised = result.materialised_ids
    if focal is None or materialised is None:
        return False  # no provenance scope: full-flush fallback
    if point.shape[0] != focal.shape[0]:
        return False
    if (focal >= point).all():
        return True   # dominated by / duplicate of the focal record
    if (point >= focal).all() and (point > focal).any():
        return False  # dominates the focal record: k* changes
    # Incomparable: look for a never-materialised incomparable dominator.
    geq = (records >= focal).all(axis=1)
    leq = (records <= focal).all(axis=1)
    witnesses = ~(geq | leq)
    witnesses &= (records >= point).all(axis=1) & (records > point).any(axis=1)
    if exclude_index is not None:
        witnesses[exclude_index] = False
    if materialised and witnesses.any():
        for record_id in materialised:
            if record_id < witnesses.shape[0]:
                witnesses[record_id] = False
    return bool(witnesses.any())


def _shift_ids_after_delete(result: MaxRankResult, removed_id: int) -> MaxRankResult:
    """Re-label record ids above ``removed_id`` in a retained cached answer.

    Record ids are dataset row indices, so deleting row ``j`` shifts every
    later id down by one.  A retained answer never references the removed
    record itself (retention implies it was never materialised), so the
    shift is a pure re-labelling: geometry, orders and representative
    points are byte-identical.  Returns a *new* result (results already
    handed to callers are never mutated).
    """
    regions = [
        MaxRankRegion(
            geometry=region.geometry,
            cell_order=region.cell_order,
            order=region.order,
            outscored_by=tuple(
                rid - 1 if rid > removed_id else rid for rid in region.outscored_by
            ),
        )
        for region in result.regions
    ]
    materialised = result.materialised_ids
    if materialised is not None:
        materialised = frozenset(
            rid - 1 if rid > removed_id else rid for rid in materialised
        )
    return MaxRankResult(
        k_star=result.k_star,
        regions=regions,
        dominator_count=result.dominator_count,
        minimum_cell_order=result.minimum_cell_order,
        tau=result.tau,
        algorithm=result.algorithm,
        counters=result.counters,
        cpu_seconds=result.cpu_seconds,
        focal=result.focal,
        materialised_ids=materialised,
    )


class QueryCache:
    """Bounded LRU cache of MaxRank results.

    Parameters
    ----------
    maxsize:
        Maximum number of cached results; the least recently used entry is
        evicted first.  ``0`` disables caching (every lookup misses).
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 0:
            raise AlgorithmError(f"cache maxsize must be >= 0, got {maxsize}")
        self.maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, MaxRankResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: entries evicted / kept by scoped mutation invalidation
        self.invalidated = 0
        self.retained = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: CacheKey) -> Optional[MaxRankResult]:
        """Look up a result; ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
            return None

    def put(self, key: CacheKey, result: MaxRankResult) -> None:
        """Insert (or refresh) a result, evicting the LRU entry when full."""
        if self.maxsize == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = result
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every cached result (hit/miss statistics are kept)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------- mutation invalidation
    def invalidate_for_insert(
        self, records_before: np.ndarray, point: np.ndarray
    ) -> Tuple[int, int]:
        """Scoped eviction for the insertion of ``point``.

        ``records_before`` is the record matrix *before* the insertion (the
        matrix the cached answers were computed against).  Returns the
        ``(invalidated, retained)`` pair for this mutation and accumulates
        both counters.
        """
        point = np.asarray(point, dtype=float).ravel()
        with self._lock:
            survivors: "OrderedDict[CacheKey, MaxRankResult]" = OrderedDict()
            dropped = 0
            for key, result in self._entries.items():
                if _mutation_leaves_result_intact(records_before, result, point):
                    survivors[key] = result
                else:
                    dropped += 1
            self._entries = survivors
            self.invalidated += dropped
            self.retained += len(survivors)
            return dropped, len(survivors)

    def invalidate_for_delete(
        self, records_before: np.ndarray, removed_id: int, point: np.ndarray
    ) -> Tuple[int, int]:
        """Scoped eviction for the deletion of record ``removed_id``.

        Must run *before* the dataset is renumbered (``records_before`` row
        indices align with the cached provenance scopes).  Answers whose
        focal is the removed record are always evicted; every surviving
        entry is re-keyed and re-labelled for the post-delete id space (row
        indices above ``removed_id`` shift down by one).  Returns the
        ``(invalidated, retained)`` pair and accumulates both counters.
        """
        point = np.asarray(point, dtype=float).ravel()
        removed_id = int(removed_id)
        with self._lock:
            survivors: "OrderedDict[CacheKey, MaxRankResult]" = OrderedDict()
            dropped = 0
            for key, result in self._entries.items():
                identity = key[0]
                if identity[0] == "idx" and identity[1] == removed_id:
                    dropped += 1  # the focal record itself is gone
                    continue
                if not _mutation_leaves_result_intact(
                    records_before, result, point, exclude_index=removed_id
                ):
                    dropped += 1
                    continue
                if identity[0] == "idx" and identity[1] > removed_id:
                    key = (("idx", identity[1] - 1),) + key[1:]
                survivors[key] = _shift_ids_after_delete(result, removed_id)
            self._entries = survivors
            self.invalidated += dropped
            self.retained += len(survivors)
            return dropped, len(survivors)
