"""Span tracing with deterministic ids and picklable worker deltas.

A trace is a tree of timed spans covering one request end to end:
transport -> admission -> service -> engine phases, including work done
inside forked pool workers.  The design constraints, in order:

* **Zero cost when disabled.**  Tracing is off whenever the tracer
  reference is ``None``; every instrumented site guards on a single
  ``is None`` attribute check and touches nothing else.
* **Bit-identity neutral when enabled.**  Spans never influence the
  computation — they ride in side channels (``CostCounters._spans``)
  that are excluded from counter dicts, equality and fingerprints.
* **Deterministic, merge-order-independent output.**  Span ids are
  hierarchical ordinals ("1", "1.2", "1.2.3") allocated under a lock on
  the owning tracer; spans produced *inside* workers derive their ids
  from task identity (e.g. ``"1.3.L7w2"``), so absorbing worker deltas
  in any order yields the same canonical tree after the final sort.
* **Picklable.**  ``SpanRecord`` and ``TraceContext`` are plain-data
  and cross the process boundary inside task/result objects, the same
  merge path ``CostCounters`` already uses.

Clocks are ``time.perf_counter()`` — monotonic and the same clock the
``CostCounters.timer`` sections use, so span and timer durations agree.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

_TRACE_SEQ = itertools.count(1)


def _new_trace_id() -> str:
    return f"t{os.getpid():x}-{next(_TRACE_SEQ):x}"


@dataclass
class SpanRecord:
    """One finished span.  Plain data: picklable, comparable, mergeable."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: float
    meta: Optional[dict] = None

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    def sort_key(self) -> Tuple:
        """Canonical ordering: hierarchical id, numeric parts numerically."""
        return tuple(
            (0, int(part)) if part.isdigit() else (1, part)
            for part in self.span_id.split(".")
        )


@dataclass(frozen=True)
class TraceContext:
    """The portable handle shipped into tasks: trace id + parent span id.

    Workers cannot call back into the parent's ``Tracer``; they mint
    span ids deterministically under ``parent_id`` from task identity
    instead, and the records ride home inside the task result.
    """

    trace_id: str
    parent_id: str


class _SpanHandle:
    __slots__ = ("span_id", "parent_id", "name", "start", "thread")

    def __init__(self, span_id, parent_id, name, start, thread):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.thread = thread


class Tracer:
    """Collects spans for one trace; safe to share across threads.

    Span parentage follows a per-thread stack: ``begin`` without an
    explicit parent nests under the calling thread's innermost open
    span.  Handing work to another thread or another process (engine
    tasks) crosses stacks, so those sites pass an
    explicit ``parent=`` — either a span handle's id or a
    ``TraceContext`` — which anchors the new span and pushes it onto
    the *calling* thread's stack.
    """

    def __init__(self, trace_id: Optional[str] = None,
                 anchor: Optional[TraceContext] = None):
        if anchor is not None and trace_id is None:
            trace_id = anchor.trace_id
        self.trace_id = trace_id if trace_id is not None else _new_trace_id()
        self._anchor = anchor.parent_id if anchor is not None else ""
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._children: Dict[str, int] = {}
        self._local = threading.local()

    # -- span lifecycle ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: Optional[object] = None) -> _SpanHandle:
        stack = self._stack()
        if parent is None:
            parent_id = stack[-1].span_id if stack else self._anchor
        elif isinstance(parent, TraceContext):
            parent_id = parent.parent_id
        elif isinstance(parent, _SpanHandle):
            parent_id = parent.span_id
        else:
            parent_id = str(parent)
        with self._lock:
            ordinal = self._children.get(parent_id, 0) + 1
            self._children[parent_id] = ordinal
        span_id = f"{parent_id}.{ordinal}" if parent_id else str(ordinal)
        handle = _SpanHandle(span_id, parent_id, name, time.perf_counter(),
                             threading.get_ident())
        stack.append(handle)
        return handle

    def finish(self, handle: _SpanHandle, **meta) -> SpanRecord:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is handle:
            stack.pop()
        elif handle in stack:  # pragma: no cover - defensive unwinding
            stack.remove(handle)
        record = SpanRecord(
            trace_id=self.trace_id,
            span_id=handle.span_id,
            parent_id=handle.parent_id or None,
            name=handle.name,
            start=handle.start,
            end=end,
            meta=meta or None,
        )
        with self._lock:
            self._records.append(record)
        return record

    @contextmanager
    def span(self, name: str, parent: Optional[object] = None, **meta):
        handle = self.begin(name, parent=parent)
        try:
            yield handle
        finally:
            self.finish(handle, **meta)

    def context(self) -> TraceContext:
        """A portable context anchored at the current innermost span."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else self._anchor
        return TraceContext(trace_id=self.trace_id, parent_id=parent_id)

    # -- merging and export --------------------------------------------

    def absorb(self, records: Iterable[SpanRecord]) -> None:
        """Fold worker-side span deltas into this trace (any order)."""
        records = list(records)
        if not records:
            return
        with self._lock:
            self._records.extend(records)

    def records(self) -> List[SpanRecord]:
        with self._lock:
            return sorted(self._records, key=SpanRecord.sort_key)

    def export(self) -> dict:
        """Canonical JSON-ready form; times are relative to trace start.

        Deterministic given the same set of records regardless of the
        order they were recorded or absorbed in.
        """
        records = self.records()
        t0 = min((r.start for r in records), default=0.0)
        spans = []
        for r in records:
            span = {
                "id": r.span_id,
                "parent": r.parent_id,
                "name": r.name,
                "start_s": r.start - t0,
                "elapsed_s": r.elapsed,
            }
            if r.meta:
                span["meta"] = r.meta
            spans.append(span)
        return {"trace_id": self.trace_id, "spans": spans}


@contextmanager
def maybe_span(tracer: Optional[Tracer], name: str,
               parent: Optional[object] = None, **meta):
    """``tracer.span(...)`` when tracing is on; a no-op when it is off."""
    if tracer is None:
        yield None
        return
    with tracer.span(name, parent=parent, **meta) as handle:
        yield handle


def worker_span(ctx: TraceContext, suffix: str, name: str,
                start: float, end: float,
                meta: Optional[dict] = None) -> SpanRecord:
    """Mint a span inside a worker from task identity.

    ``suffix`` must be unique under ``ctx.parent_id`` and derived from
    the task itself (not from arrival order), so replaying the same
    work in any schedule produces identical ids.
    """
    parent = ctx.parent_id
    span_id = f"{parent}.{suffix}" if parent else suffix
    return SpanRecord(
        trace_id=ctx.trace_id,
        span_id=span_id,
        parent_id=parent or None,
        name=name,
        start=start,
        end=end,
        meta=meta,
    )
