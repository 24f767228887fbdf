"""The hierarchical metrics registry.

Every observable quantity in the simulation lives in one
:class:`MetricsRegistry` per :class:`~repro.runtime.Cluster`, keyed by a
dotted name (``node0.nic.mcache.hits``).  Components never see the whole
registry; they receive a :class:`MetricsScope` — a prefixed view — and
register *relative* names into it, so the same component code produces
``node0.nic.mcache.hits`` on node 0 and ``node7.nic.mcache.hits`` on
node 7 without knowing where it was mounted.

Three metric kinds:

* :class:`Counter` — a monotonically non-decreasing count (hits, packets,
  evictions).
* :class:`Gauge` — a point-in-time level (queue depth, occupancy) with a
  built-in high-water-mark helper (:meth:`Gauge.track_max`).
* :class:`Histogram` — a fixed-bucket distribution (latencies).  Buckets
  are upper bounds chosen at registration.

Counters and gauges may be *function-sourced* (``fn=...``): the value is
pulled from the component's own attribute at read time, so instrumenting
existing code never duplicates bookkeeping on the hot path.

A snapshot is a plain read of the registry: no callback runs at
snapshot time, so a metric whose value lives in component state is
registered function-sourced.

This module is dependency-free on purpose: ``repro.engine`` and every
layer above it may import it without cycles.
"""

from __future__ import annotations

import bisect
import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Default fixed buckets for latency histograms, in nanoseconds.  The
#: range spans a single bus word (~hundreds of ns at Table 1 speeds) up
#: to multi-page DMA trains; the last implicit bucket is +inf.
DEFAULT_LATENCY_BUCKETS_NS: Tuple[float, ...] = (
    250.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0,
    16_000.0, 32_000.0, 64_000.0, 128_000.0, 256_000.0, 1_000_000.0,
)


class MetricError(ValueError):
    """Misuse of the metrics registry: a bad name, a kind conflict, or a
    write to a function-sourced metric."""


@functools.lru_cache(maxsize=32)
def _bucket_table(buckets: Tuple[float, ...]
                  ) -> Optional[Tuple[Tuple[float, ...], Tuple[str, ...]]]:
    """``(bounds, labels)`` of a bucket sequence, or None when its bounds
    are not strictly increasing: the float bounds, and each bucket's
    snapshot label (``+inf`` last).  Memoized, so histograms registered
    with the same buckets validate them once and share both tuples."""
    bounds = tuple(float(b) for b in buckets)
    if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        return None
    return bounds, tuple(f"{b:g}" for b in bounds) + ("+inf",)


class Counter:
    """A monotonically non-decreasing count.

    Either *stored* (incremented via :meth:`inc`) or *function-sourced*
    (``fn`` pulls the value from existing component state; :meth:`inc`
    is then an error — there is exactly one writer per metric).
    """

    __slots__ = ("name", "_value", "_fn")
    kind = "counter"

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._value = 0
        self._fn = fn

    @property
    def value(self) -> float:
        """Current count."""
        return self._fn() if self._fn is not None else self._value

    def inc(self, by: float = 1) -> None:
        """Add ``by`` (>= 0) to a stored counter.

        The common case — a stored counter bumped by a non-negative
        amount from instrumentation on the simulator's hot path — takes
        the first branch and returns; the error checks only run on the
        way to raising.
        """
        if self._fn is None and by >= 0:
            self._value += by
            return
        if self._fn is not None:
            raise MetricError(f"counter {self.name!r} is function-sourced")
        raise MetricError(f"counter {self.name!r} decremented by {by}")


class Gauge:
    """A point-in-time level, or a high-water mark (:meth:`track_max`)."""

    __slots__ = ("name", "_value", "_fn")
    kind = "gauge"

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._value = 0.0
        self._fn = fn

    @property
    def value(self) -> float:
        """Current level."""
        return self._fn() if self._fn is not None else self._value

    def set(self, value: float) -> None:
        """Overwrite the level of a stored gauge."""
        if self._fn is not None:
            raise MetricError(f"gauge {self.name!r} is function-sourced")
        self._value = value

    def track_max(self, value: float) -> None:
        """High-water-mark update: keep the max of all observed levels."""
        if self._fn is not None:
            raise MetricError(f"gauge {self.name!r} is function-sourced")
        if value > self._value:
            self._value = value


class Histogram:
    """A fixed-bucket distribution (latency histograms).

    ``buckets`` are strictly increasing upper bounds; an observation
    lands in the first bucket whose bound is >= the value, or in the
    implicit +inf overflow bucket.  Tracks count and sum so means are
    recoverable without the raw stream.
    """

    __slots__ = ("name", "bounds", "_labels", "counts", "count", "sum")
    kind = "histogram"

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_NS):
        table = _bucket_table(tuple(buckets))
        if table is None:
            raise MetricError(
                f"histogram {name!r} buckets must be strictly increasing")
        self.bounds, self._labels = table
        self.name = name
        self.counts = [0] * (len(self.bounds) + 1)  # + overflow bucket
        self.count = 0
        self.sum = 0.0

    @property
    def value(self) -> Dict[str, Any]:
        """Snapshot form: count, sum and per-bucket counts."""
        return {"count": self.count, "sum": self.sum,
                "buckets": dict(zip(self._labels, self.counts))}

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value


Metric = Any  # Counter | Gauge | Histogram (kept loose for 3.8 compat)


def _join(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


class MetricsRegistry:
    """The per-cluster store of every metric, keyed by dotted name."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- registration (get-or-create) ------------------------------------------
    def _register(self, name: str, cls, arg) -> Metric:
        """Get ``name``, or create it as ``cls(name, arg)``."""
        metric = self._metrics.get(name)
        if metric is None:
            if not name or name[0] == "." or name[-1] == ".":
                raise MetricError(f"bad metric name {name!r}")
            metric = self._metrics[name] = cls(name, arg)
        elif metric.__class__ is not cls:
            raise MetricError(f"{name!r} already registered as a "
                              f"{metric.kind}, not a {cls.kind}")
        return metric

    def counter(self, name: str,
                fn: Optional[Callable[[], float]] = None) -> Counter:
        """Get or create the counter ``name``."""
        return self._register(name, Counter, fn)

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._register(name, Gauge, fn)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_NS
                  ) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._register(name, Histogram, buckets)

    def scope(self, prefix: str) -> "MetricsScope":
        """A view of this registry under ``prefix`` (may be empty)."""
        return MetricsScope(self, prefix)

    # -- access -----------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self, prefix: str = "") -> List[str]:
        """Sorted registered names, optionally under a dotted prefix."""
        if not prefix:
            return sorted(self._metrics)
        dotted = prefix + "."
        return sorted(n for n in self._metrics
                      if n == prefix or n.startswith(dotted))

    # -- export -----------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Flat ``{dotted name: value}`` snapshot.

        Counter/gauge values are numbers; histogram values are
        ``{"count", "sum", "buckets"}`` dicts.  The result is plain data,
        safe to mutate and to ``json.dumps``.
        """
        metrics = self._metrics
        return {name: metrics[name].value for name in sorted(metrics)}


class MetricsScope:
    """A prefixed view of a :class:`MetricsRegistry`.

    Components receive a scope and register relative names; nesting
    scopes concatenates prefixes with dots.  A scope constructed with an
    empty prefix is a transparent passthrough, which is what a component
    gets when instantiated standalone (tests, examples) — it then owns a
    private registry and its metrics are simply unprefixed.
    """

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str = ""):
        if prefix.startswith(".") or prefix.endswith("."):
            raise MetricError(f"bad scope prefix {prefix!r}")
        self.registry = registry
        self.prefix = prefix

    def counter(self, name: str,
                fn: Optional[Callable[[], float]] = None) -> Counter:
        """Get or create ``<prefix>.<name>`` as a counter."""
        return self.registry._register(_join(self.prefix, name), Counter, fn)

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        """Get or create ``<prefix>.<name>`` as a gauge."""
        return self.registry._register(_join(self.prefix, name), Gauge, fn)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_NS
                  ) -> Histogram:
        """Get or create ``<prefix>.<name>`` as a histogram."""
        return self.registry._register(_join(self.prefix, name), Histogram,
                                       buckets)

    def scope(self, sub: str) -> "MetricsScope":
        """A nested scope: ``<prefix>.<sub>``."""
        return MetricsScope(self.registry, _join(self.prefix, sub))


def private_scope() -> MetricsScope:
    """A scope over a fresh private registry — the default a component
    falls back to when no cluster registry was threaded through, so
    instrumentation code never branches on "is observability on"."""
    return MetricsRegistry().scope("")
