"""Command-line front end of the MaxRank service.

Three subcommands drive the service end-to-end (``python -m repro.service``):

``build``
    Generate (or load) a dataset, build the R*-tree once and persist the
    snapshot — the expensive cold-start paid ahead of serving time::

        python -m repro.service build --dist IND --n 400 --d 3 --out idx.rprs
        python -m repro.service build --real NBA --sample 200 --out nba.rprs

``query``
    Load a snapshot and answer a batch of queries (explicit focal indices,
    or a reproducible auto-selected batch with ``--batch``), optionally in
    parallel (``--jobs``) and optionally re-checking every unique answer
    against a from-scratch standalone ``maxrank()`` run
    (``--verify-standalone``, the CI smoke gate)::

        python -m repro.service query --snapshot idx.rprs --focal 3 --focal 17
        python -m repro.service query --snapshot idx.rprs --batch 16 --jobs 2 \
            --tau 1 --verify-standalone

``insert`` / ``delete``
    Mutate a snapshot in place (or into ``--out``): load, apply one
    incremental insert / delete (R*-tree maintained in place, no rebuild)
    and re-save, reporting the new size and the scoped cache-invalidation
    outcome as JSON::

        python -m repro.service insert --snapshot idx.rprs --record 0.4 0.2 0.7
        python -m repro.service delete --snapshot idx.rprs --record-id 17

``serve``
    A long-running loop reading JSON queries from stdin, one per line
    (``{"focal": 5, "tau": 1}`` or ``{"focal": [0.4, 0.3, 0.3]}``), writing
    JSON answers to stdout — the minimal shape of a network service without
    binding the library to any transport.  Mutation requests ride the same
    loop: ``{"cmd": "insert", "record": [0.4, 0.2, 0.7]}`` and
    ``{"cmd": "delete", "record_id": 17}`` mutate the served dataset
    between queries and answer with the new size plus the scoped
    cache-invalidation counters::

        printf '{"focal": 5}\n{"focal": 5}\n' | \
            python -m repro.service serve --snapshot idx.rprs

    With ``--listen HOST:PORT`` the same protocol is served over TCP to
    many concurrent clients: requests route through a consistent-hash
    sharded front (``--shard NAME=PATH``, repeatable; requests address a
    shard with ``{"dataset": "name", ...}``) and an admission layer that
    coalesces duplicate in-flight queries (single-flight) and batches
    distinct concurrent ones into ``query_batch`` waves::

        python -m repro.service serve --listen 127.0.0.1:7117 \
            --shard nba=nba.rprs --shard hotel=hotel.rprs

    Introspection verbs ride the same loop in both modes:
    ``{"cmd": "stats"}`` returns the raw per-layer counters,
    ``{"cmd": "metrics"}`` one consolidated serving snapshot plus the
    metrics registry, and ``{"cmd": "trace"}`` answers the query *and*
    attaches its complete span tree (render with ``tools/trace_view.py``).
    ``--metrics-port`` additionally exposes the registry in Prometheus
    text format over HTTP (``GET /metrics``), and
    ``--slow-query-threshold S`` traces every query, dumping the span
    tree of any that take ``>= S`` seconds as one structured log line.

Failure contract (see ``docs/ARCHITECTURE.md``, *Failure model*): every
command exits non-zero with a one-line ``error: {"code": ..., "message":
...}`` diagnostic on stderr — exit code 3 for a query that exceeded its
``--timeout`` budget, 2 for any other :class:`~repro.errors.ReproError`.
``serve`` isolates requests: a malformed or failing request answers
``{"error": {"code": ..., "message": ...}}`` on its own line and the loop
keeps serving; SIGTERM / SIGINT drain gracefully (finish the in-flight
request, emit a ``{"shutdown": ...}`` line, exit 0).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import selectors
import signal
import sys
import threading
import time
from typing import List, Optional

import numpy as np

from ..core.maxrank import maxrank
from ..data.generators import generate
from ..data.realistic import load_real_dataset
from ..errors import (
    AlgorithmError,
    InvalidRecordError,
    QueryTimeoutError,
    ReproError,
    SnapshotError,
    WorkerCrashError,
)
from ..obs import MetricsRegistry, Tracer, configure_logging, get_logger
from ..obs.snapshot import install_serving_collector, serving_snapshot
from ..stats import CostCounters
from .core import MaxRankService, result_fingerprint, validate_tau

__all__ = ["main", "error_code"]


def error_code(exc: BaseException) -> str:
    """Stable machine-readable code for an error (CLI + serve contract).

    ``timeout`` — deadline expiry; ``snapshot`` — unreadable / corrupt
    snapshot; ``worker_crash`` — crash recovery exhausted its retries;
    ``bad_request`` — malformed input (validation, JSON shape, unknown
    names); ``internal`` — any other library error.
    """
    if isinstance(exc, QueryTimeoutError):
        return "timeout"
    if isinstance(exc, SnapshotError):
        return "snapshot"
    if isinstance(exc, WorkerCrashError):
        return "worker_crash"
    if isinstance(exc, (InvalidRecordError, AlgorithmError,
                        KeyError, ValueError, TypeError)):
        return "bad_request"
    return "internal"


def _error_payload(exc: BaseException) -> dict:
    message = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return {"code": error_code(exc), "message": message}


def _build(args: argparse.Namespace) -> int:
    if args.real:
        dataset = load_real_dataset(args.real, n=args.sample, seed=args.seed)
    else:
        dataset = generate(args.dist, args.n, args.d, seed=args.seed)
    start = time.perf_counter()
    service = MaxRankService(dataset)
    service.save_snapshot(args.out)
    elapsed = time.perf_counter() - start
    print(
        f"built {dataset.name} (n={dataset.n}, d={dataset.d}) and wrote "
        f"snapshot to {args.out} in {elapsed:.2f}s "
        f"(tree build {service.tree_build_seconds:.2f}s)"
    )
    service.close()
    return 0


def _select_focals(service: MaxRankService, args: argparse.Namespace) -> List[int]:
    if args.focal:
        return [int(f) for f in args.focal]
    from ..experiments.harness import select_focal_records

    unique = args.unique or max(1, args.batch // 2)
    picks = select_focal_records(service.dataset, unique, seed=args.seed)
    # Cycle the unique picks to the requested batch size so the batch
    # exercises the result cache the way repeated user traffic would.
    return [picks[i % len(picks)] for i in range(args.batch)]


def _query(args: argparse.Namespace) -> int:
    with MaxRankService.from_snapshot(args.snapshot, cache_size=args.cache_size) as service:
        focals = _select_focals(service, args)
        start = time.perf_counter()
        results = service.query_batch(
            focals, tau=args.tau, jobs=args.jobs, timeout=args.timeout
        )
        wall = time.perf_counter() - start
        rows = []
        for focal, result in zip(focals, results):
            rows.append(
                {
                    "focal": int(focal),
                    "k_star": result.k_star,
                    "regions": result.region_count,
                    "dominators": result.dominator_count,
                    "tau": result.tau,
                }
            )
        stats = service.stats()
        if args.json:
            print(json.dumps({"queries": rows, "wall_s": wall, "stats": stats}))
        else:
            for row in rows:
                print(
                    f"focal={row['focal']:>6}  k*={row['k_star']:>5}  "
                    f"|T|={row['regions']:>4}  dominators={row['dominators']}"
                )
            print(
                f"batch of {len(focals)} in {wall:.3f}s — computed "
                f"{stats['queries_computed']}, cache hits {stats['cache_hits']}, "
                f"skyline reuse {stats['skyline_reused']}"
            )
        if args.verify_standalone:
            return _verify_standalone(service, focals, results, args)
    return 0


def _verify_standalone(
    service: MaxRankService,
    focals: List[int],
    results,
    args: argparse.Namespace,
) -> int:
    """Re-run every unique query standalone (fresh tree) and compare bit-exactly."""
    checked = {}
    failures = 0
    for focal, served in zip(focals, results):
        if focal in checked:
            reference = checked[focal]
        else:
            counters = CostCounters()
            reference = maxrank(
                service.dataset, int(focal), tau=args.tau, counters=counters
            )
            checked[focal] = reference
        if result_fingerprint(served) != result_fingerprint(reference):
            print(f"MISMATCH: focal {focal} differs from standalone maxrank()",
                  file=sys.stderr)
            failures += 1
    label = "jobs=%s" % (args.jobs or 1)
    if failures:
        print(f"verify-standalone: {failures} mismatches ({label})", file=sys.stderr)
        return 1
    print(
        f"verify-standalone: all {len(checked)} unique queries bit-identical "
        f"to standalone maxrank() ({label}, batch {len(focals)})"
    )
    return 0


def _mutation_summary(service: MaxRankService, action: str, detail: dict) -> dict:
    """JSON summary shared by the mutate subcommands and serve requests."""
    summary = {action: True, "n": service.dataset.n}
    summary.update(detail)
    summary["invalidated"] = service.cache.invalidated
    summary["retained"] = service.cache.retained
    return summary


def _insert(args: argparse.Namespace) -> int:
    with MaxRankService.from_snapshot(args.snapshot) as service:
        new_id = service.insert(np.asarray(args.record, dtype=float))
        service.save_snapshot(args.out or args.snapshot)
        print(json.dumps(_mutation_summary(service, "inserted", {"record_id": new_id})))
    return 0


def _delete(args: argparse.Namespace) -> int:
    with MaxRankService.from_snapshot(args.snapshot) as service:
        point = service.delete(args.record_id)
        service.save_snapshot(args.out or args.snapshot)
        print(json.dumps(_mutation_summary(
            service, "deleted",
            {"record_id": args.record_id,
             "record": [round(float(v), 9) for v in point]},
        )))
    return 0


def _answer_payload(result, cache_hit: bool) -> dict:
    """The JSON answer of one query (shared by stdin and TCP serving)."""
    return {
        "k_star": result.k_star,
        "regions": result.region_count,
        "dominators": result.dominator_count,
        "tau": result.tau,
        "cache_hit": bool(cache_hit),
        "representative": [
            round(float(w), 9)
            for w in result.regions[0].representative_query()
        ]
        if result.regions
        else None,
    }


def _parse_focal(request: dict):
    focal = request["focal"]
    if isinstance(focal, list):
        focal = np.asarray(focal, dtype=float)
    return focal


def _parse_tau(request: dict) -> int:
    """The request's ``tau``, validated as given: never coerced by ``int()``."""
    return validate_tau(request.get("tau", 0))


class _ServeObservability:
    """Per-serve-loop observability: the metrics registry + slow-query log.

    One instance per serve loop, shared by the backend, the error paths
    and the optional Prometheus HTTP endpoint.  Every answered query
    observes one sample of the per-shard latency histogram; when a slow
    threshold is set, every query runs traced so a slow one can dump its
    complete span tree as a single structured log line.
    """

    def __init__(self, slow_threshold: Optional[float] = None):
        self.registry = MetricsRegistry()
        self.slow_threshold = slow_threshold
        self.logger = get_logger("repro.serve")
        self.slow_queries = 0
        self._lock = threading.Lock()

    def observe_query(self, shard: str, elapsed: float) -> None:
        self.registry.counter(
            "repro_requests_total",
            "Queries answered, by shard", shard=shard,
        ).inc()
        self.registry.histogram(
            "repro_query_latency_seconds",
            "Wall-clock latency of answered queries, by shard", shard=shard,
        ).observe(elapsed)

    def observe_error(self, code: str) -> None:
        self.registry.counter(
            "repro_request_errors_total",
            "Requests answered with a structured error, by code", code=code,
        ).inc()

    def maybe_log_slow(self, tracer: Tracer, elapsed: float,
                       request: dict, shard: str) -> None:
        if self.slow_threshold is None or elapsed < self.slow_threshold:
            return
        with self._lock:
            self.slow_queries += 1
        self.logger.warning(
            "slow query",
            extra={
                "event": "slow_query",
                "shard": shard,
                "elapsed_s": round(elapsed, 6),
                "threshold_s": self.slow_threshold,
                "request": {k: v for k, v in request.items() if k != "cmd"},
                "trace": tracer.export(),
            },
        )


def _start_metrics_http(registry: MetricsRegistry, port: int):
    """Expose ``registry`` on ``GET /metrics`` (Prometheus text format).

    Binds loopback only — metrics are host-local introspection, not part
    of the serving protocol.  Returns the started server; its kernel-
    picked port (``--metrics-port 0``) is in ``server_address``.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - http.server API
            if self.path.rstrip("/") not in ("", "/metrics"):
                self.send_error(404)
                return
            body = registry.render_prometheus().encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format, *args):  # scrapes are not log-worthy
            pass

    server = ThreadingHTTPServer(("127.0.0.1", port), Handler)
    threading.Thread(
        target=server.serve_forever, name="metrics-http", daemon=True
    ).start()
    return server


class _ObservedBackend:
    """The query/trace/metrics surface shared by both serve backends.

    Subclasses implement ``_query(request, tracer) -> (payload, shard)``
    and ``_serving_view()``; this base adds the wall-clock timing, the
    per-shard latency metrics, the slow-query log, and the ``trace`` /
    ``metrics`` protocol verbs on top.
    """

    obs: _ServeObservability

    def query(self, request: dict) -> dict:
        return self._observed(request, want_trace=False)

    def trace(self, request: dict) -> dict:
        """Answer the query and attach its complete span tree."""
        return self._observed(request, want_trace=True)

    def metrics(self, request: dict) -> dict:
        """One coherent snapshot: consolidated stats + the registry."""
        return {
            "serving": self._serving_view(),
            "metrics": self.obs.registry.snapshot(),
            "slow_queries": self.obs.slow_queries,
        }

    def _observed(self, request: dict, want_trace: bool) -> dict:
        obs = self.obs
        traced = want_trace or obs.slow_threshold is not None
        tracer = Tracer() if traced else None
        start = time.perf_counter()
        if tracer is not None:
            handle = tracer.begin("request")
            try:
                payload, shard = self._query(request, tracer)
            finally:
                tracer.finish(handle)
        else:
            payload, shard = self._query(request, None)
        elapsed = time.perf_counter() - start
        obs.observe_query(shard, elapsed)
        if tracer is not None:
            obs.maybe_log_slow(tracer, elapsed, request, shard)
        if want_trace:
            payload["trace"] = tracer.export()
        return payload


class _ServiceBackend(_ObservedBackend):
    """Serve-protocol backend over one :class:`MaxRankService` (stdin mode)."""

    def __init__(self, service: MaxRankService, default_timeout: Optional[float],
                 obs: Optional[_ServeObservability] = None):
        self.service = service
        self.default_timeout = default_timeout
        self.obs = obs if obs is not None else _ServeObservability()
        self.served = 0

    def _query(self, request: dict, tracer: Optional[Tracer]) -> tuple:
        hits_before = self.service.cache.hits
        result = self.service.query(
            _parse_focal(request),
            tau=_parse_tau(request),
            timeout=request.get("timeout", self.default_timeout),
            tracer=tracer,
        )
        self.served += 1
        payload = _answer_payload(result, self.service.cache.hits > hits_before)
        return payload, self.service.dataset.name

    def _serving_view(self) -> dict:
        return self.service.stats()

    def insert(self, request: dict) -> dict:
        new_id = self.service.insert(np.asarray(request["record"], dtype=float))
        return _mutation_summary(self.service, "inserted", {"record_id": new_id})

    def delete(self, request: dict) -> dict:
        record_id = request["record_id"]
        self.service.delete(record_id)
        return _mutation_summary(
            self.service, "deleted", {"record_id": int(record_id)}
        )

    def stats(self, request: dict) -> dict:
        return self.service.stats()


class _RouterBackend(_ObservedBackend):
    """Serve-protocol backend over a :class:`DatasetRouter` (network mode).

    Identical request schema plus an optional ``"dataset"`` field naming
    the shard; it may be omitted when the router serves exactly one.
    """

    def __init__(self, router, default_timeout: Optional[float],
                 obs: Optional[_ServeObservability] = None):
        self.router = router
        self.default_timeout = default_timeout
        self.obs = obs if obs is not None else _ServeObservability()
        #: transport server, attached by ``_serve_listen`` once bound, so
        #: the consolidated snapshot can include connection totals
        self.server = None
        self.served = 0
        self._served_lock = threading.Lock()

    def _dataset(self, request: dict) -> str:
        dataset = request.get("dataset")
        if dataset is not None:
            return str(dataset)
        ids = self.router.dataset_ids
        if len(ids) == 1:
            return ids[0]
        raise ValueError(
            "request must name a dataset "
            f"(\"dataset\": ...); this server has: {', '.join(ids)}"
        )

    def _query(self, request: dict, tracer: Optional[Tracer]) -> tuple:
        dataset = self._dataset(request)
        result, cache_hit = self.router.query(
            dataset,
            _parse_focal(request),
            tau=_parse_tau(request),
            timeout=request.get("timeout", self.default_timeout),
            tracer=tracer,
        )
        with self._served_lock:
            self.served += 1
        return _answer_payload(result, cache_hit), dataset

    def _serving_view(self) -> dict:
        return serving_snapshot(self.router, self.server)

    def insert(self, request: dict) -> dict:
        dataset = self._dataset(request)
        new_id = self.router.insert(
            dataset, np.asarray(request["record"], dtype=float)
        )
        return _mutation_summary(
            self.router.service(dataset), "inserted",
            {"dataset": dataset, "record_id": new_id},
        )

    def delete(self, request: dict) -> dict:
        dataset = self._dataset(request)
        record_id = request["record_id"]
        self.router.delete(dataset, record_id)
        return _mutation_summary(
            self.router.service(dataset), "deleted",
            {"dataset": dataset, "record_id": int(record_id)},
        )

    def stats(self, request: dict) -> dict:
        return self.router.stats()


def _handle_request(backend, request) -> tuple:
    """Dispatch one parsed request; returns ``(payload or None, quit)``."""
    if not isinstance(request, dict):
        raise ValueError(
            "request must be a JSON object, e.g. {\"focal\": 5}"
        )
    cmd = request.get("cmd")
    if cmd == "stats":
        return backend.stats(request), False
    if cmd == "metrics":
        return backend.metrics(request), False
    if cmd == "trace":
        return backend.trace(request), False
    if cmd == "quit":
        return None, True
    if cmd == "insert":
        return backend.insert(request), False
    if cmd == "delete":
        return backend.delete(request), False
    return backend.query(request), False


def _request_lines(should_stop):
    """Yield stdin lines, polling so a drain signal is honoured promptly.

    A plain ``for line in sys.stdin`` blocks in a buffered read that a
    signal handler cannot interrupt (PEP 475 restarts it), so a SIGTERM
    would only take effect at the *next* request.  When stdin has a real
    file descriptor we poll it with a selector and do our own line
    splitting; otherwise (in-process tests feeding a ``StringIO``) we fall
    back to plain iteration with a per-line stop check.
    """
    try:
        fd = sys.stdin.fileno()
    except (AttributeError, OSError, ValueError, io.UnsupportedOperation):
        for line in sys.stdin:
            if should_stop():
                return
            yield line
        return
    sel = selectors.DefaultSelector()
    sel.register(fd, selectors.EVENT_READ)
    buffer = b""
    try:
        while not should_stop():
            if not sel.select(0.2):
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                if buffer.strip():
                    yield buffer.decode("utf-8", "replace")
                return
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                yield line.decode("utf-8", "replace")
                if should_stop():
                    return
    finally:
        sel.close()


def _serve_stdin(args: argparse.Namespace) -> int:
    draining = {"flag": False, "signal": None}

    def _drain(signum, frame):
        draining["flag"] = True
        draining["signal"] = signal.Signals(signum).name

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _drain)
        except (ValueError, OSError):  # not the main thread / unsupported
            pass

    obs = _ServeObservability(args.slow_query_threshold)
    metrics_server = None
    if args.metrics_port is not None:
        metrics_server = _start_metrics_http(obs.registry, args.metrics_port)
    try:
        with MaxRankService.from_snapshot(
            args.snapshot, cache_size=args.cache_size
        ) as service:
            backend = _ServiceBackend(service, args.timeout, obs)
            meta = {
                "ready": True,
                "dataset": service.dataset.name,
                "n": service.dataset.n,
                "d": service.dataset.d,
            }
            if metrics_server is not None:
                meta["metrics_port"] = metrics_server.server_address[1]
            print(json.dumps(meta), flush=True)
            for line in _request_lines(lambda: draining["flag"]):
                line = line.strip()
                if not line:
                    continue
                # Request isolation: any failure answers a structured error
                # on the request's own line and the loop keeps serving.
                try:
                    payload, quit_ = _handle_request(backend, json.loads(line))
                    if quit_:
                        break
                    print(json.dumps(payload), flush=True)
                except (ReproError, KeyError, ValueError, TypeError) as exc:
                    payload = _error_payload(exc)
                    obs.observe_error(payload["code"])
                    print(json.dumps({"error": payload}), flush=True)
            shutdown = {
                "shutdown": True,
                "reason": draining["signal"] or "eof",
                "queries_answered": backend.served,
            }
            print(json.dumps(shutdown), flush=True)
    finally:
        if metrics_server is not None:
            metrics_server.shutdown()
            metrics_server.server_close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


def _parse_shards(args: argparse.Namespace) -> dict:
    """Build the ``dataset id -> snapshot path`` table from the CLI flags."""
    from pathlib import Path

    shards = {}
    if args.snapshot:
        shards[Path(args.snapshot).stem] = args.snapshot
    for spec in args.shard or ():
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise AlgorithmError(
                f"invalid --shard {spec!r}; expected NAME=SNAPSHOT_PATH"
            )
        if name in shards:
            raise AlgorithmError(f"duplicate shard name {name!r}")
        shards[name] = path
    if not shards:
        raise AlgorithmError("serve --listen needs --snapshot or --shard")
    return shards


def _serve_listen(args: argparse.Namespace) -> int:
    """The network front: transport -> router -> admission -> services."""
    from .router import DatasetRouter
    from .transport import ThreadedLineServer, parse_hostport

    host, port = parse_hostport(args.listen)
    shards = _parse_shards(args)
    with DatasetRouter(
        shards,
        slots=args.slots,
        wave_size=args.wave_size,
        wave_window_s=args.wave_window,
        jobs=args.jobs,
        service_options={"cache_size": args.cache_size},
    ) as router:
        obs = _ServeObservability(args.slow_query_threshold)
        backend = _RouterBackend(router, args.timeout, obs)

        def handler(line: str):
            payload, quit_ = _handle_request(backend, json.loads(line))
            return (None if payload is None else json.dumps(payload)), quit_

        def greeting() -> str:
            return json.dumps({
                "ready": True,
                "datasets": list(router.dataset_ids),
                "slots": args.slots,
            })

        def farewell(reason: str):
            return json.dumps({
                "shutdown": True,
                "reason": reason,
                "queries_answered": backend.served,
            })

        def on_error(exc: BaseException) -> str:
            payload = _error_payload(exc)
            obs.observe_error(payload["code"])
            return json.dumps({"error": payload})

        server = ThreadedLineServer(
            host, port, handler,
            greeting=greeting, farewell=farewell, on_error=on_error,
        )
        backend.server = server
        install_serving_collector(obs.registry, router, server)
        metrics_server = None
        if args.metrics_port is not None:
            metrics_server = _start_metrics_http(obs.registry, args.metrics_port)

        def _drain(signum, frame):
            server.shutdown(signal.Signals(signum).name)

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, _drain)
            except (ValueError, OSError):  # not the main thread / unsupported
                pass
        try:
            # The bound address on stdout lets a parent process (tests, the
            # CI smoke) learn the kernel-picked port when --listen used :0.
            listening = {
                "listening": list(server.address),
                "datasets": list(router.dataset_ids),
            }
            if metrics_server is not None:
                listening["metrics_port"] = metrics_server.server_address[1]
            print(json.dumps(listening), flush=True)
            server.serve_forever()
        finally:
            if metrics_server is not None:
                metrics_server.shutdown()
                metrics_server.server_close()
            for signum, handler_ in previous.items():
                signal.signal(signum, handler_)
        print(json.dumps({
            "shutdown": True,
            "reason": server.drain_reason,
            "connections": server.connections_accepted,
            "requests": server.requests_handled,
            "queries_answered": backend.served,
            "slow_queries": obs.slow_queries,
        }), flush=True)
    return 0


def _serve(args: argparse.Namespace) -> int:
    if args.listen:
        return _serve_listen(args)
    if args.shard:
        raise AlgorithmError("--shard requires --listen (stdin mode serves "
                            "exactly the --snapshot dataset)")
    if not args.snapshot:
        raise AlgorithmError("serve needs --snapshot (or --listen with --shard)")
    return _serve_stdin(args)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=__doc__.split("\n", 1)[0],
    )
    parser.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="stderr log verbosity (default warning; library "
                             "use stays quiet — only the CLI configures "
                             "logging)")
    parser.add_argument("--log-format", default="json",
                        choices=("json", "text"),
                        help="log line format (default json)")
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="build a dataset snapshot")
    build.add_argument("--dist", default="IND", choices=("IND", "COR", "ANTI"),
                       help="synthetic distribution (default IND)")
    build.add_argument("--n", type=int, default=400, help="records (default 400)")
    build.add_argument("--d", type=int, default=3, help="attributes (default 3)")
    build.add_argument("--real", default=None, metavar="NAME",
                       help="use a simulated real dataset (NBA, HOTEL, ...) "
                            "instead of a synthetic one")
    build.add_argument("--sample", type=int, default=None, metavar="N",
                       help="sample size for --real datasets")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--out", required=True, help="snapshot output path")
    build.set_defaults(handler=_build)

    query = commands.add_parser("query", help="answer a batch from a snapshot")
    query.add_argument("--snapshot", required=True)
    query.add_argument("--focal", action="append", type=int, metavar="IDX",
                       help="explicit focal record index (repeatable)")
    query.add_argument("--batch", type=int, default=16,
                       help="auto-selected batch size when no --focal is given "
                            "(default 16)")
    query.add_argument("--unique", type=int, default=None,
                       help="unique focals in the auto batch (default batch/2, "
                            "so the batch exercises the result cache)")
    query.add_argument("--tau", type=int, default=0)
    query.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="whole-query process parallelism for the batch")
    query.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="wall-clock budget in seconds shared by the whole "
                            "batch (expiry exits 3 with a structured error)")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--cache-size", type=int, default=256)
    query.add_argument("--json", action="store_true", help="machine-readable output")
    query.add_argument("--verify-standalone", action="store_true",
                       help="re-run every unique query standalone and require "
                            "bit-identical answers (CI smoke gate)")
    query.set_defaults(handler=_query)

    insert = commands.add_parser("insert", help="insert one record into a snapshot")
    insert.add_argument("--snapshot", required=True)
    insert.add_argument("--record", required=True, type=float, nargs="+",
                        metavar="V", help="attribute values of the new record")
    insert.add_argument("--out", default=None,
                        help="output snapshot path (default: overwrite --snapshot)")
    insert.set_defaults(handler=_insert)

    delete = commands.add_parser("delete", help="delete one record from a snapshot")
    delete.add_argument("--snapshot", required=True)
    delete.add_argument("--record-id", required=True, type=int, metavar="IDX",
                        help="row index of the record to delete (later ids "
                             "shift down by one)")
    delete.add_argument("--out", default=None,
                        help="output snapshot path (default: overwrite --snapshot)")
    delete.set_defaults(handler=_delete)

    serve = commands.add_parser(
        "serve", help="serve JSON queries from stdin or over TCP (--listen)"
    )
    serve.add_argument("--snapshot", default=None,
                       help="snapshot to serve (stdin mode: required; with "
                            "--listen it becomes a shard named after the file)")
    serve.add_argument("--cache-size", type=int, default=256)
    serve.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="default per-request wall-clock budget in seconds "
                            "(a request's own \"timeout\" field overrides it)")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="serve newline-delimited JSON over TCP instead of "
                            "stdin (port 0 = kernel-picked, reported on stdout)")
    serve.add_argument("--shard", action="append", metavar="NAME=PATH",
                       help="add a dataset shard served from PATH under the id "
                            "NAME (repeatable; requires --listen); requests "
                            "pick a shard with their \"dataset\" field")
    serve.add_argument("--slots", type=int, default=2,
                       help="admission slots on the consistent-hash ring "
                            "(default 2)")
    serve.add_argument("--wave-size", type=int, default=16,
                       help="max distinct queries batched per admission wave "
                            "(default 16)")
    serve.add_argument("--wave-window", type=float, default=0.002, metavar="S",
                       help="how long a wave leader holds the wave open for "
                            "concurrent arrivals (default 0.002s)")
    serve.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="whole-query process parallelism per wave")
    serve.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                       help="expose the metrics registry in Prometheus text "
                            "format on http://127.0.0.1:PORT/metrics "
                            "(0 = kernel-picked, reported in the ready line)")
    serve.add_argument("--slow-query-threshold", type=float, default=None,
                       metavar="S",
                       help="trace every query and log the full span tree of "
                            "any that take >= S seconds (one structured log "
                            "line per slow query)")
    serve.set_defaults(handler=_serve)

    args = parser.parse_args(argv)
    configure_logging(level=args.log_level, fmt=args.log_format)
    try:
        return args.handler(args)
    except QueryTimeoutError as exc:
        print(f"error: {json.dumps(_error_payload(exc))}", file=sys.stderr)
        return 3
    except ReproError as exc:
        print(f"error: {json.dumps(_error_payload(exc))}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
