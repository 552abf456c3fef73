"""The observability stack: tracing, metrics, logging, serving snapshot.

The contracts under test, in the order the tentpole states them:

* **Determinism** — histogram merges and span-tree exports are exact and
  independent of merge/absorb order (the same discipline as
  ``CostCounters.merge``).
* **Picklability** — span records and contexts cross the fork boundary
  inside counter deltas; the counters drop their tracer on pickle but
  keep the recorded spans.
* **Bit-identity neutrality** — a traced run changes no fingerprint and
  no non-time counter versus an untraced one (the full differential
  matrix lives in ``test_differential.py``; this file covers the span
  side channels directly).
* **Exposition** — Prometheus text rendering, the ``trace`` / ``metrics``
  serve verbs, the JSON log formatter, and the trace_view renderer.
"""

from __future__ import annotations

import importlib.util
import io
import json
import logging
import pickle
import random
import sys
from pathlib import Path

import pytest

from repro import CostCounters, generate, maxrank
from repro.core.aa import aa_maxrank
from repro.engine import ProcessPoolExecutor, SerialExecutor
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanRecord,
    TraceContext,
    Tracer,
    get_logger,
    maybe_span,
)
from repro.obs.log import JsonLineFormatter, TextLineFormatter, configure
from repro.obs.metrics import DEFAULT_BUCKETS
from repro.obs.snapshot import install_serving_collector, serving_snapshot
from repro.obs.trace import worker_span

REPO = Path(__file__).resolve().parent.parent


def _load_trace_view():
    spec = importlib.util.spec_from_file_location(
        "trace_view", REPO / "tools" / "trace_view.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------- metrics


class TestHistogram:
    def test_observe_bucketing_is_inclusive_upper_edge(self):
        h = Histogram(bounds=(0.1, 1.0))
        for value in (0.05, 0.1, 0.5, 1.0, 3.0):
            h.observe(value)
        assert h.count == 5
        assert h.buckets() == [(0.1, 2), (1.0, 4), (float("inf"), 5)]

    def test_merge_any_order_is_identical(self, rng):
        values = list(rng.uniform(0.0001, 12.0, size=200))
        chunks = [values[i::5] for i in range(5)]

        def merged(order):
            total = Histogram()
            for index in order:
                part = Histogram()
                for value in chunks[index]:
                    part.observe(value)
                total.merge(part)
            return total

        orders = [list(p) for p in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0],
                                    [2, 0, 4, 1, 3])]
        dumps = [merged(order).as_dict() for order in orders]
        assert dumps[0] == dumps[1] == dumps[2]
        assert dumps[0]["count"] == len(values)

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError, match="different bounds"):
            Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram(bounds=(1.0, 0.5))


class TestRegistry:
    def test_get_or_create_and_kind_clash(self):
        registry = MetricsRegistry()
        c = registry.counter("requests", "total requests", shard="a")
        c.inc(3)
        assert registry.counter("requests", shard="a").value == 3
        assert registry.counter("requests", shard="b").value == 0
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("requests", shard="a")

    def test_snapshot_and_prometheus_render(self):
        registry = MetricsRegistry()
        registry.counter("reqs", "requests", shard="a").inc(2)
        registry.gauge("depth").set(7)
        registry.histogram("lat", "latency", shard="a").observe(0.003)
        snap = registry.snapshot()
        assert snap['reqs{shard="a"}'] == 2
        assert snap["depth"] == 7
        assert snap['lat{shard="a"}']["count"] == 1
        text = registry.render_prometheus()
        assert "# HELP reqs requests" in text
        assert "# TYPE lat histogram" in text
        assert 'reqs{shard="a"} 2' in text
        assert 'lat_bucket{shard="a",le="+Inf"} 1' in text
        assert 'lat_count{shard="a"} 1' in text

    def test_collectors_run_before_snapshot(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda reg: reg.gauge("pulled").set(11))
        assert registry.snapshot()["pulled"] == 11

    def test_default_buckets_are_sorted_and_fixed(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS
        assert Counter.kind == "counter" and Gauge.kind == "gauge"


# ---------------------------------------------------------------- tracing


class TestTracer:
    def test_hierarchical_ids_and_nesting(self):
        tracer = Tracer(trace_id="t0")
        with tracer.span("root"):
            with tracer.span("child"):
                pass
            with tracer.span("child"):
                pass
        ids = [(r.span_id, r.parent_id, r.name) for r in tracer.records()]
        assert ids == [("1", None, "root"), ("1.1", "1", "child"),
                       ("1.2", "1", "child")]

    def test_sort_key_orders_numerically(self):
        mk = lambda sid: SpanRecord("t", sid, None, "s", 0.0, 1.0)
        ids = ["1.10", "1.9", "1.2.L7w2", "1.2", "2"]
        ordered = sorted((mk(i) for i in ids), key=SpanRecord.sort_key)
        assert [r.span_id for r in ordered] == [
            "1.2", "1.2.L7w2", "1.9", "1.10", "2"
        ]

    def test_absorb_any_order_exports_identically(self):
        def build(order):
            tracer = Tracer(trace_id="t0")
            with tracer.span("root"):
                ctx = tracer.context()
            workers = [
                worker_span(ctx, f"L{seq}w1", "leaf_task", 1.0 + seq, 2.0 + seq)
                for seq in range(6)
            ]
            shuffled = list(workers)
            random.Random(order).shuffle(shuffled)
            for record in shuffled:
                tracer.absorb([record])
            return tracer.export()

        exports = [build(order) for order in (0, 1, 2)]
        # The worker spans carry fixed synthetic times; only the locally
        # recorded root span has real (run-varying) wall-clock times, so
        # compare its structure and the worker spans in full.
        shape = lambda export: [
            (s["id"], s["parent"], s["name"]) for s in export["spans"]
        ]
        workers = lambda export: [s for s in export["spans"]
                                  if s["name"] == "leaf_task"]
        assert shape(exports[0]) == shape(exports[1]) == shape(exports[2])
        assert workers(exports[0]) == workers(exports[1]) == workers(exports[2])
        assert [s["id"] for s in exports[0]["spans"]] == [
            "1", "1.L0w1", "1.L1w1", "1.L2w1", "1.L3w1", "1.L4w1", "1.L5w1"
        ]

    def test_explicit_parent_crosses_threads_logically(self):
        tracer = Tracer(trace_id="t0")
        handle = tracer.begin("request")
        ctx = tracer.context()
        tracer.finish(handle)
        # Another thread would pass the context explicitly.
        handoff = tracer.begin("handoff", parent=ctx)
        tracer.finish(handoff)
        records = {r.name: r for r in tracer.records()}
        assert records["handoff"].parent_id == records["request"].span_id

    def test_anchored_tracer_mints_under_anchor(self):
        tracer = Tracer(anchor=TraceContext("t9", "1.3.Q2"))
        with tracer.span("skyline"):
            pass
        (record,) = tracer.records()
        assert record.trace_id == "t9"
        assert record.span_id == "1.3.Q2.1"
        assert record.parent_id == "1.3.Q2"

    def test_maybe_span_none_is_noop(self):
        with maybe_span(None, "anything") as handle:
            assert handle is None

    def test_export_times_are_relative(self):
        tracer = Tracer(trace_id="t0")
        with tracer.span("a", answer=42):
            pass
        export = tracer.export()
        (span,) = export["spans"]
        assert span["start_s"] == 0.0
        assert span["elapsed_s"] >= 0.0
        assert span["meta"] == {"answer": 42}


class TestPickling:
    def test_span_record_and_context_round_trip(self):
        record = SpanRecord("t1", "1.2.L7w2", "1.2", "leaf_task",
                            3.5, 4.25, meta={"weight": 2})
        assert pickle.loads(pickle.dumps(record)) == record
        ctx = TraceContext("t1", "1.2")
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_counters_pickle_drops_tracer_keeps_spans(self):
        counters = CostCounters()
        counters._tracer = Tracer()
        counters.record_span(SpanRecord("t", "1", None, "s", 0.0, 1.0))
        clone = pickle.loads(pickle.dumps(counters))
        assert clone._tracer is None
        assert len(clone._spans) == 1

    def test_spans_ride_the_counter_merge_path(self):
        a, b = CostCounters(), CostCounters()
        a.record_span(SpanRecord("t", "1", None, "x", 0.0, 1.0))
        b.record_span(SpanRecord("t", "2", None, "y", 1.0, 2.0))
        a.merge(b)
        assert [r.span_id for r in a.drain_spans()] == ["1", "2"]
        assert a.drain_spans() == []

    def test_spans_are_excluded_from_counter_dicts_and_equality(self):
        a, b = CostCounters(), CostCounters()
        a.record_span(SpanRecord("t", "1", None, "x", 0.0, 1.0))
        assert a == b
        assert not any(k.startswith("_") for k in a.as_dict())


class TestTracedEngineRun:
    """The timer hook: spans from a real run, identical across replays."""

    def _traced(self, dataset, focal):
        tracer = Tracer(trace_id="fixed")
        counters = CostCounters()
        counters._tracer = tracer
        with tracer.span("request"):
            result = maxrank(dataset, focal, tau=1, counters=counters)
        counters._tracer = None
        tracer.absorb(counters.drain_spans())
        return result, counters, tracer

    def test_engine_phases_traced_and_replay_identical(self, small_3d):
        result_a, counters_a, tracer_a = self._traced(small_3d, 7)
        result_b, counters_b, tracer_b = self._traced(small_3d, 7)
        names = {r.name for r in tracer_a.records()}
        assert {"request", "skyline", "quadtree_build", "within_leaf"} <= names
        shape = lambda t: [(s["id"], s["parent"], s["name"])
                           for s in t.export()["spans"]]
        assert shape(tracer_a) == shape(tracer_b)
        strip = lambda d: {k: v for k, v in d.items()
                           if not k.startswith("time_")}
        assert strip(counters_a.as_dict()) == strip(counters_b.as_dict())
        assert result_a.k_star == result_b.k_star

    def test_serial_and_pool_traces_have_the_same_spans(self):
        """Both executors run the same leaf tasks, so a traced serial AA
        query records the same span tree — ``leaf_task`` spans included —
        as the same query on a process pool."""
        dataset = generate("IND", 150, 4, seed=3)

        def spans(executor):
            tracer = Tracer(trace_id="fixed")
            counters = CostCounters()
            counters._tracer = tracer
            with tracer.span("request"):
                aa_maxrank(dataset, 5, counters=counters, executor=executor)
            counters._tracer = None
            tracer.absorb(counters.drain_spans())
            return [(s["id"], s["name"]) for s in tracer.export()["spans"]]

        serial = spans(SerialExecutor())
        with ProcessPoolExecutor(2) as pool:
            pooled = spans(pool)
        assert any(name == "leaf_task" for _, name in serial)
        assert serial == pooled


# ---------------------------------------------------------------- logging


class TestStructuredLog:
    def test_json_formatter_extras_and_order(self):
        buf = io.StringIO()
        handler = logging.StreamHandler(buf)
        handler.setFormatter(JsonLineFormatter())
        logger = get_logger("repro.test.json")
        logger.addHandler(handler)
        try:
            logger.warning("slow query", extra={"event": "slow_query",
                                                "elapsed_s": 0.5})
        finally:
            logger.removeHandler(handler)
        record = json.loads(buf.getvalue())
        assert list(record)[:4] == ["ts", "level", "logger", "message"]
        assert record["level"] == "warning"
        assert record["logger"] == "repro.test.json"
        assert record["event"] == "slow_query"
        assert record["elapsed_s"] == 0.5

    def test_text_formatter_renders_extras(self):
        buf = io.StringIO()
        handler = logging.StreamHandler(buf)
        handler.setFormatter(TextLineFormatter())
        logger = get_logger("repro.test.text")
        logger.addHandler(handler)
        try:
            logger.warning("drift", extra={"shard": "alpha"})
        finally:
            logger.removeHandler(handler)
        line = buf.getvalue()
        assert "repro.test.text: drift" in line
        assert 'shard="alpha"' in line

    def test_get_logger_prefixes_and_library_is_quiet(self):
        assert get_logger("service").name == "repro.service"
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)

    def test_configure_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unknown log format"):
            configure(fmt="yaml", stream=io.StringIO())


# ------------------------------------------------------- serving snapshot


class _FakeServer:
    connections_accepted = 3
    requests_handled = 40


class _FakeRouter:
    """Stat shapes copied from DatasetRouter.stats() (see test_router)."""

    def stats(self):
        return {
            "datasets": ["alpha", "beta"], "loaded": ["alpha", "beta"],
            "cold_starts": 2, "routed": 9,
            "admitted": 9, "coalesced": 1, "in_flight": 1,
            "services": {
                "alpha": {"queries_served": 5, "queries_computed": 3,
                          "cache_hits": 2, "cache_misses": 3,
                          "cache_evictions": 0, "cache_entries": 3},
                "beta": {"queries_served": 4, "queries_computed": 4,
                         "cache_hits": 0, "cache_misses": 4,
                         "cache_evictions": 1, "cache_entries": 3},
            },
        }


class TestServingSnapshot:
    def test_totals_are_exact_sums_of_layer_counters(self):
        snap = serving_snapshot(_FakeRouter(), _FakeServer())
        assert snap["admitted"] == 9
        assert snap["coalesced"] == 1
        assert snap["in_flight"] == 1
        assert snap["queries_served"] == 9
        assert snap["cache_hits"] == 2
        assert snap["connections"] == 3
        assert snap["requests"] == 40
        assert set(snap["shards"]) == {"alpha", "beta"}

    def test_without_server_omits_transport_keys(self):
        snap = serving_snapshot(_FakeRouter())
        assert "connections" not in snap and "requests" not in snap

    def test_collector_mirrors_snapshot_into_gauges(self):
        registry = MetricsRegistry()
        install_serving_collector(registry, _FakeRouter(), _FakeServer(),
                                  extra={"repro_build_info": 1})
        snap = registry.snapshot()
        assert snap["repro_serving_coalesced"] == 1
        assert snap["repro_serving_requests"] == 40
        assert snap['repro_shard_cache_hits{shard="alpha"}'] == 2
        assert snap["repro_build_info"] == 1


# ------------------------------------------------------------ serve verbs


class TestServeVerbs:
    @pytest.fixture
    def backend(self):
        from repro.service.cli import _RouterBackend
        from repro.service.core import MaxRankService
        from repro.service.router import DatasetRouter

        service = MaxRankService(generate("IND", 80, 3, seed=17))
        with DatasetRouter({"ind": service}) as router:
            yield _RouterBackend(router)

    def test_trace_verb_returns_answer_plus_span_tree(self, backend):
        from repro.service.cli import _handle_request

        plain, _ = _handle_request(backend, {"focal": 5, "tau": 1})
        assert "trace" not in plain
        traced, _ = _handle_request(
            backend, {"cmd": "trace", "focal": 9, "tau": 1}
        )
        assert traced["k_star"] >= 1
        names = {span["name"] for span in traced["trace"]["spans"]}
        assert {"request", "admission.submit", "service.query", "compute",
                "skyline"} <= names

    def test_metrics_verb_is_one_coherent_snapshot(self, backend):
        from repro.service.cli import _handle_request

        _handle_request(backend, {"focal": 5, "tau": 1})
        _handle_request(backend, {"focal": 5, "tau": 1})
        answer, _ = _handle_request(backend, {"cmd": "metrics"})
        assert answer["serving"]["queries_served"] == 2
        assert answer["serving"]["cache_hits"] == 1
        shard = "ind"
        assert answer["metrics"][
            f'repro_requests_total{{shard="{shard}"}}'] == 2
        assert answer["metrics"][
            f'repro_query_latency_seconds{{shard="{shard}"}}']["count"] == 2

    def test_slow_threshold_traces_and_logs_every_query(self):
        from repro.service.cli import (
            _handle_request, _RouterBackend, _ServeObservability,
        )
        from repro.service.core import MaxRankService
        from repro.service.router import DatasetRouter

        buf = io.StringIO()
        handler = logging.StreamHandler(buf)
        handler.setFormatter(JsonLineFormatter())
        logger = get_logger("repro.serve")
        logger.addHandler(handler)
        try:
            service = MaxRankService(generate("IND", 80, 3, seed=17))
            with DatasetRouter({"ind": service}) as router:
                obs = _ServeObservability(slow_threshold=0.0)
                backend = _RouterBackend(router, None, obs)
                payload, _ = _handle_request(backend, {"focal": 5, "tau": 1})
                assert "trace" not in payload  # plain answer stays plain
        finally:
            logger.removeHandler(handler)
        record = json.loads(buf.getvalue())
        assert record["event"] == "slow_query"
        assert record["trace"]["spans"]
        assert obs.slow_queries == 1


# -------------------------------------------------------------- trace_view


class TestTraceView:
    def test_renders_tree_with_self_times(self):
        trace_view = _load_trace_view()
        trace = {
            "trace_id": "t0",
            "spans": [
                {"id": "1", "parent": None, "name": "request",
                 "start_s": 0.0, "elapsed_s": 0.010},
                {"id": "1.1", "parent": "1", "name": "compute",
                 "start_s": 0.001, "elapsed_s": 0.008,
                 "meta": {"cache_hit": False}},
                {"id": "1.10", "parent": "1", "name": "tail",
                 "start_s": 0.009, "elapsed_s": 0.001},
                {"id": "1.9", "parent": "1", "name": "mid",
                 "start_s": 0.009, "elapsed_s": 0.0},
            ],
        }
        out = io.StringIO()
        trace_view.render(trace, out=out)
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("trace t0 — 4 spans")
        assert lines[1].lstrip().startswith("request")
        # children sorted numerically: 1.1, then 1.9 before 1.10
        assert [l.strip().split()[0] for l in lines[2:]] == [
            "compute", "mid", "tail"
        ]
        # self = 10ms - (8 + 0 + 1)ms = 1ms
        assert "self     1.000ms" in lines[1]
        assert "[cache_hit=False]" in lines[2]

    def test_accepts_wrapped_shapes_and_rejects_garbage(self):
        trace_view = _load_trace_view()
        inner = {"trace_id": "t", "spans": []}
        assert trace_view._extract_spans({"trace": inner}) == inner
        assert trace_view._extract_spans(inner) == inner
        with pytest.raises(ValueError, match="no span list"):
            trace_view._extract_spans({"k_star": 3})
