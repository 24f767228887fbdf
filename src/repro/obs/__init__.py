"""Unified observability: the metrics registry and span tracing.

Everything the simulator knows about itself at run time flows through
this package:

* :class:`MetricsRegistry` / :class:`MetricsScope` — hierarchical
  counters, gauges and fixed-bucket histograms under dotted names
  (``node0.nic.mcache.hits``).  One registry per
  :class:`~repro.runtime.Cluster` (``cluster.metrics``); components get
  prefixed scopes.
* :class:`SpanTracer` — enter/exit interval tracing layered on the
  engine's bounded :class:`~repro.engine.Tracer`, feeding always-on
  latency histograms.
* :mod:`repro.obs.export` helpers — JSON documents and the per-node
  table behind ``python -m repro.harness metrics``.

The full metric catalog and usage guide is ``docs/observability.md``.
"""

from .export import (
    DEFAULT_TABLE_COLUMNS,
    aggregate_nodes,
    format_node_table,
    node_ids,
    per_node_rows,
    snapshot_to_json,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    MetricsScope,
    private_scope,
)
from .spans import SpanHandle, SpanTracer

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_NS",
    "DEFAULT_TABLE_COLUMNS",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "MetricsScope",
    "SpanHandle",
    "SpanTracer",
    "aggregate_nodes",
    "format_node_table",
    "node_ids",
    "per_node_rows",
    "private_scope",
    "snapshot_to_json",
]
