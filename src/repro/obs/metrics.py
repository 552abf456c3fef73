"""A small metrics registry: counters, gauges, fixed-bucket histograms.

The registry mirrors the Prometheus data model — named metrics with
label sets — but is dependency-free and tuned for this repo's gating
style: histogram bucket bounds are fixed at construction, so merging
worker-side deltas is exact integer addition and any merge order
produces identical output (the same discipline ``CostCounters.merge``
follows for work counters).

Exposition comes in two shapes: ``render_prometheus()`` emits the text
format for a ``GET /metrics`` scrape, ``snapshot()`` a JSON-ready dict
for the ``{"cmd": "metrics"}`` serve verb and the bench gates.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Tuple

# Deterministic defaults spanning 0.5 ms .. 10 s — wide enough for both
# cache hits and cold planar queries.  Changing these bounds changes the
# exposition, so treat them as part of the gate surface.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_suffix(key: LabelKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value

    def merge(self, other: "Counter") -> None:
        self.inc(other.value)


class Gauge:
    """A value that can go up and down (or be set from a collector)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount=1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount=1) -> None:
        self.inc(-amount)

    @property
    def value(self):
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with exact, order-independent merges.

    ``bounds`` are the inclusive upper edges of each bucket; one
    overflow (+Inf) bucket is implicit.  Counts are integers, so merges
    commute exactly; the running sum is a float and only used for the
    Prometheus ``_sum`` series.
    """

    kind = "histogram"

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if tuple(sorted(bounds)) != tuple(bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._lock = threading.Lock()
        self._counts: List[int] = [0] * (len(self.bounds) + 1)
        self._sum = 0.0

    def observe(self, value: float) -> None:
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{other.bounds} != {self.bounds}"
            )
        with other._lock:
            counts = list(other._counts)
            total = other._sum
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._sum += total

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def buckets(self) -> List[Tuple[float, int]]:
        """Cumulative (upper-bound, count) pairs, +Inf last."""
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, c in zip(self.bounds, counts):
            running += c
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                ("+Inf" if bound == float("inf") else repr(bound)): n
                for bound, n in self.buckets()
            },
        }


class MetricsRegistry:
    """Get-or-create registry of named, labelled metrics.

    Collector callbacks registered with ``add_collector`` run right
    before every ``snapshot()``/``render_prometheus()``, which is how
    layer-owned stats (router admission, service caches, transport totals)
    are pulled into gauges without putting a registry call on their hot
    paths.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelKey], object] = {}
        self._help: Dict[str, str] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    def _get(self, cls, name: str, help: str, labels: dict, **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(**kwargs)
                self._metrics[key] = metric
                if help or name not in self._help:
                    self._help[name] = help
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        return self._get(Histogram, name, help, labels, bounds=buckets)

    def add_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        with self._lock:
            self._collectors.append(fn)

    def _collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            fn(self)

    def _sorted_items(self):
        with self._lock:
            items = list(self._metrics.items())
        return sorted(items, key=lambda kv: (kv[0][0], kv[0][1]))

    def snapshot(self) -> dict:
        """JSON-ready view of every metric (collectors run first)."""
        self._collect()
        out: Dict[str, object] = {}
        for (name, key), metric in self._sorted_items():
            label = name + _label_suffix(key)
            if isinstance(metric, Histogram):
                out[label] = metric.as_dict()
            else:
                out[label] = metric.value
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        self._collect()
        lines: List[str] = []
        seen_header = set()
        for (name, key), metric in self._sorted_items():
            if name not in seen_header:
                seen_header.add(name)
                help_text = self._help.get(name, "")
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                for bound, count in metric.buckets():
                    le = "+Inf" if bound == float("inf") else repr(bound)
                    suffix = _label_suffix(key, (("le", le),))
                    lines.append(f"{name}_bucket{suffix} {count}")
                lines.append(f"{name}_sum{_label_suffix(key)} {metric.sum}")
                lines.append(f"{name}_count{_label_suffix(key)} {metric.count}")
            else:
                lines.append(f"{name}{_label_suffix(key)} {metric.value}")
        return "\n".join(lines) + "\n"
