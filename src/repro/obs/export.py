"""Turning metrics snapshots into artifacts: JSON documents and tables.

A *snapshot* here is what :meth:`MetricsRegistry.snapshot` returns — a
flat ``{dotted name: value}`` dict.  These helpers never touch live
registries, so they work equally on a snapshot captured in
:class:`~repro.engine.RunStats.metrics` long after the cluster is gone.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

_NODE_RE = re.compile(r"^node(\d+)\.")

#: The per-node columns ``repro.harness metrics`` prints, as
#: ``(column header, relative metric name)`` pairs.  Missing metrics
#: (e.g. Message Cache counters on the standard interface) render as 0.
DEFAULT_TABLE_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("mc.hits", "nic.mcache.hits"),
    ("mc.miss", "nic.mcache.misses"),
    ("mc.evict", "nic.mcache.evictions"),
    ("mc.snoop", "nic.mcache.snoop_updates"),
    ("adc.poll", "nic.adc.poll_receives"),
    ("adc.intr", "nic.adc.interrupt_receives"),
    ("pf.match", "nic.pathfinder.matches"),
    ("aih.disp", "nic.aih.dispatches"),
    ("bus.snoopw", "bus.snooped_writeback_words"),
    ("tx.pkts", "nic.tx.packets_sent"),
    ("rx.pkts", "nic.rx.packets_received"),
)


def node_ids(snapshot: Dict[str, Any]) -> List[int]:
    """The node indices present in a snapshot, sorted."""
    ids = set()
    for name in snapshot:
        m = _NODE_RE.match(name)
        if m:
            ids.add(int(m.group(1)))
    return sorted(ids)


def _scalar(value: Any) -> float:
    """Numeric view of a snapshot value (histograms shrink to count)."""
    if isinstance(value, dict):
        return float(value.get("count", 0))
    return float(value)


def per_node_rows(
    snapshot: Dict[str, Any],
    columns: Sequence[Tuple[str, str]] = DEFAULT_TABLE_COLUMNS,
) -> List[List[float]]:
    """One row of column values per node (0.0 for absent metrics)."""
    rows = []
    for nid in node_ids(snapshot):
        prefix = f"node{nid}."
        rows.append([_scalar(snapshot.get(prefix + rel, 0))
                     for _header, rel in columns])
    return rows


def format_node_table(
    snapshot: Dict[str, Any],
    columns: Sequence[Tuple[str, str]] = DEFAULT_TABLE_COLUMNS,
    title: str = "per-node metrics",
) -> str:
    """Render the per-node metric table as aligned text."""
    ids = node_ids(snapshot)
    if not ids:
        return f"{title}: no per-node metrics in snapshot"
    headers = ["node"] + [h for h, _rel in columns]
    rows = [[f"node{nid}"] + [_format_cell(v) for v in row]
            for nid, row in zip(ids, per_node_rows(snapshot, columns))]
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              for i in range(len(headers))]
    lines = [title,
             "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return f"{v:.1f}"


def aggregate_nodes(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Sum every numeric per-node metric across nodes.

    Returns ``{relative name: total}`` — e.g. the cluster-wide Message
    Cache hit count is ``aggregate_nodes(s)["nic.mcache.hits"]``.
    Histogram values aggregate by observation count; gauges (high-water
    marks) are summed too, so treat aggregated gauge values as an upper
    bound on any instant's cluster-wide level, not an observed one.
    """
    totals: Dict[str, float] = {}
    for name, value in snapshot.items():
        m = _NODE_RE.match(name)
        if not m:
            continue
        rel = name[m.end():]
        totals[rel] = totals.get(rel, 0.0) + _scalar(value)
    return totals


def snapshot_to_json(snapshot: Dict[str, Any], indent: int = 2,
                     meta: Optional[Dict[str, Any]] = None) -> str:
    """One snapshot as a JSON document (optionally with run metadata)."""
    doc: Dict[str, Any] = {"kind": "metrics"}
    if meta:
        doc["meta"] = dict(meta)
    doc["metrics"] = snapshot
    return json.dumps(doc, indent=indent, sort_keys=False)
