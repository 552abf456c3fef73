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
    A long-running server of one newline-delimited JSON protocol: a
    ``{"ready": ...}`` greeting, then one JSON answer per request line
    (``{"focal": 5, "tau": 1}`` or ``{"focal": [0.4, 0.3, 0.3]}``), then a
    ``{"shutdown": ...}`` farewell.  Without ``--listen`` the protocol runs
    as one connection over stdin/stdout::

        printf '{"focal": 5}\n{"focal": 5}\n' | \
            python -m repro.service serve --snapshot idx.rprs

    With ``--listen HOST:PORT`` the same protocol is served over TCP, one
    connection per concurrent client::

        python -m repro.service serve --listen 127.0.0.1:7117 \
            --shard nba=nba.rprs --shard hotel=hotel.rprs

    Both modes run the same backend.  Requests route to their shard
    (``--snapshot`` and ``--shard NAME=PATH``, repeatable; a request names
    its shard with ``{"dataset": "name", ...}`` unless only one is served)
    through an admission layer that computes concurrent duplicate queries
    once (single-flight); each request is answered on its connection's
    thread, and a shard computes one cache miss at a time.  Every shard is
    loaded before the greeting.  Mutation requests ride the same protocol:
    ``{"cmd": "insert", "record": [0.4, 0.2, 0.7]}`` and
    ``{"cmd": "delete", "record_id": 17}`` mutate a shard between queries
    and answer with the new size plus the scoped cache-invalidation
    counters.  Introspection verbs too: ``{"cmd": "stats"}`` returns the
    raw per-layer counters, ``{"cmd": "metrics"}`` one consolidated
    serving snapshot plus the metrics registry, and ``{"cmd": "trace"}``
    answers the query *and* attaches its complete span tree (render with
    ``tools/trace_view.py``).  ``--metrics-port`` additionally exposes the
    registry in Prometheus text format over HTTP (``GET /metrics``), and
    ``--slow-query-threshold S`` traces every query, dumping the span
    tree of any that take ``>= S`` seconds as one structured log line.

Failure contract (see ``docs/ARCHITECTURE.md``, *Failure model*): every
command exits non-zero with a one-line ``error: {"code": ..., "message":
...}`` diagnostic on stderr — exit code 3 for a query that exceeded its
``--timeout`` budget, 2 for any other :class:`~repro.errors.ReproError`.
``serve`` isolates requests: a malformed or failing request answers
``{"error": {"code": ..., "message": ...}}`` on its own line and the loop
keeps serving; SIGTERM / SIGINT drain gracefully (finish the requests
already received, send every connection its ``{"shutdown": ...}``
farewell, exit 0).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import select
import signal
import socket
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
    """The JSON answer of one served query."""
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


def _is_number(value) -> bool:
    """A JSON number: ``int`` or ``float``, never ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_float(value) -> float:
    """A JSON number as a float; an integer beyond the float range reads as
    ±inf, exactly as the same number written as a float (``1e400``) does."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _number_list(value, field: str) -> np.ndarray:
    """A flat list of JSON numbers as a float vector.

    Strict on purpose, like ``tau``: a bool, a string or a nested list is
    rejected rather than read as a coordinate (``true`` is not 1.0 and
    ``"0.4"`` is not 0.4).
    """
    if not isinstance(value, list) or not all(_is_number(v) for v in value):
        raise ValueError(f"{field} must be a flat list of numbers")
    return np.array([_as_float(v) for v in value], dtype=float)


def _parse_focal(request: dict):
    """The request's focal: a record index or a flat list of coordinates."""
    focal = request["focal"]
    if isinstance(focal, int) and not isinstance(focal, bool):
        return focal
    if isinstance(focal, list):
        return _number_list(focal, "focal")
    raise ValueError(
        "focal must be a record index or a flat list of numbers, "
        f"got a JSON {type(focal).__name__}"
    )


def _parse_tau(request: dict) -> int:
    """The request's ``tau``, validated as given: never coerced by ``int()``."""
    return validate_tau(request.get("tau", 0))


def _parse_timeout(request: dict, default: Optional[float]) -> Optional[float]:
    """The request's ``timeout`` in seconds: a JSON number, or ``null`` for
    no budget; without the field the server's ``--timeout`` applies."""
    if "timeout" not in request:
        return default
    timeout = request["timeout"]
    if timeout is None:
        return None
    if not _is_number(timeout):
        raise ValueError(
            f"timeout must be a number of seconds, got a JSON {type(timeout).__name__}"
        )
    return _as_float(timeout)


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


class _RouterBackend:
    """The serve protocol over a :class:`DatasetRouter`: one per process.

    Every connection shares it — the one stdin connection, or every TCP
    client.  A request may name its shard with a ``"dataset"`` field; it
    may omit it when the router serves exactly one.  On top of the verbs
    sit the wall-clock timing, the per-shard latency metrics and the
    slow-query log, and :meth:`handle_line` / :meth:`error_line` /
    :meth:`greeting` / :meth:`farewell` are the callables of the line
    protocol (:class:`~repro.service.transport.LineProtocol`).
    """

    def __init__(self, router, default_timeout: Optional[float] = None,
                 obs: Optional[_ServeObservability] = None):
        self.router = router
        self.default_timeout = default_timeout
        self.obs = obs if obs is not None else _ServeObservability()
        #: the line protocol serving this backend, attached by ``_serve``
        #: once built, so the consolidated snapshot includes its totals
        self.server = None
        #: the Prometheus port, attached by ``_serve`` for the greeting
        self.metrics_port: Optional[int] = None
        self.served = 0
        self._served_lock = threading.Lock()

    # -------------------------------------------------------- line protocol
    def handle_line(self, line: str) -> tuple:
        """One request line in; ``(reply line or None, quit)`` out."""
        try:
            request = json.loads(line)
        except RecursionError:
            raise ValueError("request nests too deeply") from None
        payload, quit_ = _handle_request(self, request)
        return (None if payload is None else json.dumps(payload)), quit_

    def error_line(self, exc: BaseException) -> str:
        """The reply line of a failed request (request isolation)."""
        payload = _error_payload(exc)
        self.obs.observe_error(payload["code"])
        return json.dumps({"error": payload})

    def greeting(self) -> str:
        meta = {
            "ready": True,
            "datasets": list(self.router.dataset_ids),
        }
        if self.metrics_port is not None:
            meta["metrics_port"] = self.metrics_port
        return json.dumps(meta)

    def farewell(self, reason: str) -> str:
        return json.dumps({
            "shutdown": True,
            "reason": reason,
            "queries_answered": self.served,
        })

    # ---------------------------------------------------------------- verbs
    def query(self, request: dict) -> dict:
        return self._observed(request, want_trace=False)

    def trace(self, request: dict) -> dict:
        """Answer the query and attach its complete span tree."""
        return self._observed(request, want_trace=True)

    def metrics(self, request: dict) -> dict:
        """One coherent snapshot: consolidated stats + the registry."""
        return {
            "serving": serving_snapshot(self.router, self.server),
            "metrics": self.obs.registry.snapshot(),
            "slow_queries": self.obs.slow_queries,
        }

    def stats(self, request: dict) -> dict:
        return self.router.stats()

    def insert(self, request: dict) -> dict:
        dataset = self._dataset(request)
        new_id = self.router.insert(
            dataset, _number_list(request["record"], "record")
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

    # ------------------------------------------------------------- internal
    def _dataset(self, request: dict) -> str:
        dataset = request.get("dataset")
        if isinstance(dataset, str):
            return dataset
        if dataset is not None:
            raise ValueError(
                f"dataset must be a shard name, got a JSON {type(dataset).__name__}"
            )
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
            timeout=_parse_timeout(request, self.default_timeout),
            tracer=tracer,
        )
        with self._served_lock:
            self.served += 1
        return _answer_payload(result, cache_hit), dataset

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


#: Verbs a request may name in its ``"cmd"`` field; without one it is a query.
_VERBS = ("stats", "metrics", "trace", "quit", "insert", "delete")


def _handle_request(backend, request) -> tuple:
    """Dispatch one parsed request; returns ``(payload or None, quit)``."""
    if not isinstance(request, dict):
        raise ValueError(
            "request must be a JSON object, e.g. {\"focal\": 5}"
        )
    cmd = request.get("cmd")
    if cmd is None:
        return backend.query(request), False
    if cmd not in _VERBS:
        raise ValueError(f"unknown cmd; choose one of {', '.join(_VERBS)}")
    if cmd == "quit":
        return None, True
    return getattr(backend, cmd)(request), False


class _StdioConnection:
    """stdin/stdout as one connection of the line protocol.

    ``recv`` polls stdin with ``select`` — which works on pipes, ttys and
    regular files alike — so a drain signal is honoured within one poll
    instead of waiting in a read that PEP 475 restarts.  A stdin without a
    file descriptor (in-process tests feeding a ``StringIO``) is read one
    line per ``recv``.
    """

    POLL_S = 0.2

    def __init__(self, stdin, stdout) -> None:
        self._stdin = stdin
        self._stdout = stdout
        try:
            self._fd: Optional[int] = stdin.fileno()
        except (AttributeError, OSError, ValueError, io.UnsupportedOperation):
            self._fd = None

    def recv(self, size: int) -> bytes:
        if self._fd is None:
            return self._stdin.readline().encode("utf-8")
        if not select.select([self._fd], [], [], self.POLL_S)[0]:
            raise socket.timeout
        return os.read(self._fd, size)

    def sendall(self, data: bytes) -> None:
        self._stdout.write(data.decode("utf-8"))
        self._stdout.flush()


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
        raise AlgorithmError("serve needs --snapshot or --shard")
    return shards


def _serve(args: argparse.Namespace) -> int:
    """One serve loop: line protocol -> router -> admission -> services.

    With ``--listen`` the accept loop runs the line protocol once per TCP
    client; without it the protocol runs once, on this thread, over
    stdin/stdout.
    """
    from .router import DatasetRouter
    from .transport import LineProtocol, ThreadedLineServer, parse_hostport

    address = parse_hostport(args.listen) if args.listen else None
    with DatasetRouter(
        _parse_shards(args), service_options={"cache_size": args.cache_size},
    ) as router:
        # Load every shard before the first line: a missing or corrupt
        # snapshot exits 2 (code "snapshot") before anything is served.
        for dataset_id in router.dataset_ids:
            router.service(dataset_id)
        obs = _ServeObservability(args.slow_query_threshold)
        backend = _RouterBackend(router, args.timeout, obs)
        protocol = dict(
            greeting=backend.greeting, farewell=backend.farewell,
            on_error=backend.error_line,
        )
        if address is not None:
            server = ThreadedLineServer(*address, backend.handle_line, **protocol)
        else:
            server = LineProtocol(backend.handle_line, **protocol)
        backend.server = server
        install_serving_collector(obs.registry, router, server)
        metrics_server = None
        if args.metrics_port is not None:
            metrics_server = _start_metrics_http(obs.registry, args.metrics_port)
            backend.metrics_port = metrics_server.server_address[1]

        def _drain(signum, frame):
            server.shutdown(signal.Signals(signum).name)

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, _drain)
            except (ValueError, OSError):  # not the main thread / unsupported
                pass
        try:
            if address is None:
                server.serve_connection(_StdioConnection(sys.stdin, sys.stdout))
            else:
                # The bound address on stdout lets a parent process (tests,
                # the CI smoke) learn the kernel-picked port of --listen :0.
                listening = {
                    "listening": list(server.address),
                    "datasets": list(router.dataset_ids),
                }
                if backend.metrics_port is not None:
                    listening["metrics_port"] = backend.metrics_port
                print(json.dumps(listening), flush=True)
                server.serve_forever()
        finally:
            if metrics_server is not None:
                metrics_server.shutdown()
                metrics_server.server_close()
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        if address is not None:
            print(json.dumps({
                "shutdown": True,
                "reason": server.drain_reason,
                "connections": server.connections_accepted,
                "requests": server.requests_handled,
                "queries_answered": backend.served,
                "slow_queries": obs.slow_queries,
            }), flush=True)
    return 0


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
                       help="snapshot to serve, as a shard named after the "
                            "file")
    serve.add_argument("--cache-size", type=int, default=256)
    serve.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="default per-request wall-clock budget in seconds "
                            "(a request's own \"timeout\" field overrides it)")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="serve newline-delimited JSON over TCP instead of "
                            "stdin (port 0 = kernel-picked, reported on stdout)")
    serve.add_argument("--shard", action="append", metavar="NAME=PATH",
                       help="add a dataset shard served from PATH under the id "
                            "NAME (repeatable); requests pick a shard with "
                            "their \"dataset\" field")
    serve.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                       help="expose the metrics registry in Prometheus text "
                            "format on http://127.0.0.1:PORT/metrics "
                            "(0 = kernel-picked, reported in the greeting)")
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
