#!/usr/bin/env python
"""Docs-consistency check: the metric catalogs are not allowed to lie.

Extracts every backticked dotted metric name between the
``<!-- metric-catalog:start -->`` / ``<!-- metric-catalog:end -->``
markers in docs/observability.md, docs/runtime.md and docs/network.md
(the ``runtime.*`` and ``net.*`` scopes are cataloged next to their
subsystems), smoke-runs the simulator in-process (a CNI cluster, a
standard cluster, two messaging microbenchmarks and one run per fabric
topology — the union exercises every subsystem), and fails if

* any documented name was never registered (stale docs), or
* any registered name is missing from the catalog (undocumented
  instrumentation).

Per-node names compare with the node index normalized to ``node0`` —
the catalog documents the exemplar, the run registers all nodes.

Run directly (``python tools/check_docs_metrics.py``) or via pytest
(tests/test_docs_consistency.py).
"""

from __future__ import annotations

import os
import re
import sys
from typing import Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC_PATH = os.path.join(REPO_ROOT, "docs", "observability.md")
RUNTIME_DOC_PATH = os.path.join(REPO_ROOT, "docs", "runtime.md")
NETWORK_DOC_PATH = os.path.join(REPO_ROOT, "docs", "network.md")
#: Every docs page carrying a marker-delimited metric catalog.
CATALOG_DOCS = (DOC_PATH, RUNTIME_DOC_PATH, NETWORK_DOC_PATH)
START = "<!-- metric-catalog:start -->"
END = "<!-- metric-catalog:end -->"

#: A dotted lower_snake_case path inside backticks; excludes Python
#: attribute references (``RunStats.metrics`` has uppercase) and
#: placeholders (``node<i>.faults`` has angle brackets).
_NAME_RE = re.compile(r"`[^`]*`")
_DOTTED_RE = re.compile(r"\b[a-z0-9_]+(?:\.[a-z0-9_]+)+\b")
_NODE_RE = re.compile(r"^node\d+\.")


def documented_names(doc_path: str = DOC_PATH) -> Set[str]:
    """Metric names promised by the catalog section of the docs."""
    with open(doc_path) as fh:
        text = fh.read()
    try:
        catalog = text.split(START, 1)[1].split(END, 1)[0]
    except IndexError:
        raise SystemExit(
            f"{doc_path}: metric-catalog markers missing or unbalanced")
    names: Set[str] = set()
    for span in _NAME_RE.findall(catalog):
        if "*" in span:
            continue  # a namespace prefix (`node0.nic.mcache.*`), not a metric
        names.update(_DOTTED_RE.findall(span))
    return {_NODE_RE.sub("node0.", n) for n in names}


def all_documented_names() -> Set[str]:
    """Union of every catalog-bearing docs page."""
    names: Set[str] = set()
    for doc in CATALOG_DOCS:
        names.update(documented_names(doc))
    return names


def registered_names() -> Set[str]:
    """Union of metric names a smoke-run of the simulator registers."""
    from repro.apps import JacobiConfig, PingPongConfig, run_jacobi, \
        run_pingpong
    from repro.harness.experiments import one_way_latency_ns
    from repro.harness.export import GLOBAL_METRICS_LOG
    from repro.params import SimParams

    names: Set[str] = set()
    cfg = JacobiConfig(n=48, iterations=4)
    for interface in ("cni", "standard"):
        stats, _ = run_jacobi(
            SimParams().replace(num_processors=2), interface, cfg)
        names.update(stats.metrics)
    # One rendezvous-sized ping-pong so the runtime.* scope is exercised,
    # not merely registered.
    stats, _ = run_pingpong(
        SimParams().replace(num_processors=2), "cni",
        PingPongConfig(rounds=2, message_bytes=8192))
    names.update(stats.metrics)
    GLOBAL_METRICS_LOG.clear()
    one_way_latency_ns(1024, "cni", SimParams())
    names.update(GLOBAL_METRICS_LOG.entries[-1]["metrics"])
    GLOBAL_METRICS_LOG.clear()
    # One run per multi-hop fabric so the net.* scope is exercised on
    # every topology family (the runs above cover the default banyan).
    tiny = JacobiConfig(n=16, iterations=1)
    for topology, nprocs in (("fattree:k=4", 4), ("torus:2x2:adaptive", 4)):
        stats, _ = run_jacobi(
            SimParams().replace(num_processors=nprocs, topology=topology),
            "cni", tiny)
        names.update(stats.metrics)
    return {_NODE_RE.sub("node0.", n) for n in names}


def check() -> Tuple[Set[str], Set[str]]:
    """Returns (documented-but-never-registered, registered-but-undocumented)."""
    documented = all_documented_names()
    registered = registered_names()
    stale = documented - registered
    undocumented = registered - documented
    return stale, undocumented


def main() -> int:
    stale, undocumented = check()
    if stale:
        print("documented but never registered by the smoke run:")
        for name in sorted(stale):
            print(f"  {name}")
    if undocumented:
        print("registered but missing from the docs metric catalogs "
              "(docs/observability.md, docs/runtime.md, docs/network.md):")
        for name in sorted(undocumented):
            print(f"  {name}")
    if stale or undocumented:
        return 1
    print(f"ok: {len(all_documented_names())} documented metric names all "
          f"registered; no undocumented instrumentation")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    raise SystemExit(main())
