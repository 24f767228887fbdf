"""Per-layer attribution: host self-time from a profile, simulated work from
``RunStats.metrics``.

A layer is the ``repro`` subpackage that defines a function, plus
``numpy`` and ``other`` (stdlib, generated code, the benchmark itself).
Builtins such as ``heappush`` or ``generator.send`` have no file; their
self-time and calls go to the layer of the function that called them,
using each caller's per-callee entries.  Builtins named after numpy count
as numpy.

The profile is read from ``cProfile.Profile.getstats()``, keyed by code
object, not from ``pstats``: pstats keys functions by (file, line, name)
and so merges every dataclass-generated ``__init__`` into one entry, whose
count then depends on which one it kept.
"""

from __future__ import annotations

import cProfile
import re
from pathlib import PurePath
from typing import Dict, Iterable, Optional

LAYERS = ("engine", "dsm", "memory", "core", "network", "runtime",
          "collectives", "faults", "obs", "params", "apps", "numpy", "other")


def layer_of_file(path: str) -> str:
    """The layer that owns source file ``path``."""
    parts = PurePath(path.replace("\\", "/")).parts
    if "numpy" in parts:
        return "numpy"
    tops = [i for i, p in enumerate(parts[:-1]) if p == "repro"]
    if tops:
        layer = parts[tops[-1] + 1]
        layer = layer[:-3] if layer.endswith(".py") else layer
        if layer in LAYERS:
            return layer
    return "other"


def _layer_of(code) -> Optional[str]:
    """A profiled function's layer; None for a builtin that its callers
    take.  cProfile names a builtin by a string instead of a code object."""
    if isinstance(code, str):
        return "numpy" if "numpy" in code else None
    return layer_of_file(code.co_filename)


def attribute(entries: Iterable) -> Dict[str, Dict[str, float]]:
    """Self-time (s) and calls per layer from ``Profile.getstats()``.

    Each entry has ``code``, ``callcount``, ``inlinetime`` (self-time) and
    ``calls``, the per-callee subentries with the same fields.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    for entry in entries:
        layer = _layer_of(entry.code)
        if layer is not None:
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount
        for sub in entry.calls or ():
            if _layer_of(sub.code) is None:
                owner = layer or "other"  # a builtin called by a builtin
                self_s[owner] += sub.inlinetime
                calls[owner] += sub.callcount
    return {"self_s": self_s, "calls": calls}


def profile(fn):
    """Run ``fn()`` under cProfile; returns ``(fn's value, attribution)``."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        value = fn()
    finally:
        prof.disable()
    return value, attribute(prof.getstats())


def _node_sum(metrics: Dict[str, object], suffix: str) -> float:
    pattern = re.compile(r"node\d+\." + re.escape(suffix) + "$")
    return float(sum(v for k, v in metrics.items() if pattern.match(k)))


def work_counters(stats) -> Dict[str, float]:
    """Simulated work per layer, summed over nodes.  Exact and repeatable:
    a change that claims only speed must leave every one unchanged."""
    m, c = stats.metrics, stats.counters
    return {
        "engine.events": float(m["engine.events_processed"]),
        "engine.queue_hwm": float(m["engine.event_queue_hwm"]),
        "core.packets_sent": _node_sum(m, "nic.tx.packets_sent"),
        "core.mcache_hit_ratio": stats.network_cache_hit_ratio,
        "core.mc_transmit_lookups": float(c["mc_transmit_lookups"]),
        "core.aih_dispatches": _node_sum(m, "nic.aih.dispatches"),
        "core.aih_swap_ins": _node_sum(m, "nic.aih.swap_ins"),
        "core.retransmits": _node_sum(m, "nic.reliab.retransmits"),
        "core.dup_drops": _node_sum(m, "nic.reliab.dup_drops"),
        "network.crossings": float(m["net.crossings"]),
        "network.hol_blocks": float(m["net.hol_blocks"]),
        "network.link_waits": float(m["net.link_waits"]),
        "network.cells_dropped": _node_sum(m, "faults.cells_dropped"),
        "dsm.faults": float(c["dsm_faults"]),
        "dsm.page_fetches": float(c["dsm_page_fetches"]),
        "dsm.diff_fetches": float(c["dsm_diff_fetches"]),
        "dsm.twins": float(c["dsm_twins"]),
        "memory.dma_bytes": _node_sum(m, "bus.dma_bytes"),
        "memory.bus_busy_ns": _node_sum(m, "bus.utilization_ns"),
        "runtime.rdv_chunks": _node_sum(m, "runtime.rdv_chunks"),
        "collectives.ops_completed": _node_sum(m, "coll.ops_completed"),
    }
