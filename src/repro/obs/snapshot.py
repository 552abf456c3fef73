"""One coherent serving snapshot across every layer's stat dict.

The serving front has three independently owned stat surfaces — transport
(``connections_accepted``/``requests_handled``), the router with its
admission controller (``cold_starts``/``routed``/``admitted``/
``coalesced``…) and per-shard service (``queries_served``/cache
counters…).  Without one consolidation point, reading "how is the server
doing" means stitching them together by hand, and each call site would
stitch differently (the serve bench, the shutdown summary,
``{"cmd": "stats"}`` clients).

:func:`serving_snapshot` is the single consolidation point: a flat dict
whose totals are sums of the layer-owned counters, plus the per-shard
breakdown.  The serve loop's ``{"cmd": "metrics"}`` verb, the metrics
collector feeding the Prometheus endpoint, the obs smoke and the serve
benchmark gates all read this one function, so they can never drift
against each other.  The raw layered ``{"cmd": "stats"}`` view remains
available for callers that want the unconsolidated form.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Router and admission entries copied into the consolidated snapshot.
ROUTER_KEYS = (
    "datasets", "loaded", "cold_starts", "routed",
    "admitted", "coalesced", "in_flight",
)

#: Per-shard service counters summed into the consolidated totals.
SERVICE_KEYS = (
    "queries_served", "queries_computed", "batches_served",
    "cache_hits", "cache_misses", "cache_evictions",
    "cache_entries", "query_timeouts",
    "inserts", "deletes", "worker_retries", "degraded_batches",
)


def serving_snapshot(router, server=None) -> Dict[str, object]:
    """Consolidate router + admission + service (+ transport) stats.

    Parameters
    ----------
    router:
        A :class:`~repro.service.router.DatasetRouter`.
    server:
        Optional :class:`~repro.service.transport.ThreadedLineServer`;
        when given, its lifetime counters join the snapshot.

    Returns a flat dict: consolidated totals at the top level and the
    per-shard service stats under ``"shards"`` (keyed by dataset id).
    Values are exact sums of the layer counters — the same numbers the
    layers report individually, never re-derived.
    """
    stats = router.stats()
    services: Dict[str, dict] = stats["services"]
    out: Dict[str, object] = {key: stats[key] for key in ROUTER_KEYS}
    for key in SERVICE_KEYS:
        out[key] = sum(shard.get(key, 0) for shard in services.values())
    if server is not None:
        out["connections"] = server.connections_accepted
        out["requests"] = server.requests_handled
    out["shards"] = services
    return out


def install_serving_collector(registry, router, server=None,
                              extra: Optional[dict] = None) -> None:
    """Mirror the consolidated snapshot into registry gauges at scrape time.

    Layer hot paths keep owning their counters; this pull-style collector
    copies the consolidated totals into ``repro_serving_*`` gauges (and
    per-shard ``repro_shard_*`` gauges) whenever the registry is read, so
    the Prometheus endpoint and ``{"cmd": "metrics"}`` expose the same
    numbers as :func:`serving_snapshot` with zero steady-state cost.
    """

    def collect(reg) -> None:
        snap = serving_snapshot(router, server)
        for key, value in snap.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                reg.gauge(f"repro_serving_{key}").set(value)
        for dataset_id, shard in snap["shards"].items():
            for key in ("queries_served", "queries_computed", "cache_hits",
                        "cache_misses", "cache_evictions", "cache_entries"):
                reg.gauge(f"repro_shard_{key}", shard=dataset_id).set(
                    shard.get(key, 0)
                )
        if extra:
            for key, value in extra.items():
                reg.gauge(key).set(value)

    registry.add_collector(collect)
