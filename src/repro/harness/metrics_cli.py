"""``python -m repro.harness metrics`` — the per-node metrics table.

Runs one representative workload and prints the observability layer's
per-node counters (Message Cache, ADC rings, PATHFINDER, AIH, bus), plus
cluster-wide aggregates.  This is the quick way to eyeball where cycles
and traffic go without setting up a full experiment::

    python -m repro.harness metrics                       # jacobi, cni, 4 procs
    python -m repro.harness metrics --app water --nprocs 8
    python -m repro.harness metrics --interface standard
    python -m repro.harness metrics --json out/metrics.json
    python -m repro.harness metrics --topology torus:2x2     # net.* fabric view

See docs/observability.md for what each column (and every exported
metric) means.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional

from ..obs import aggregate_nodes, format_node_table, snapshot_to_json
from ..params import SimParams

#: Cluster-wide summary lines printed under the table, as
#: (label, relative per-node metric) pairs summed across nodes.
SUMMARY_ROWS = (
    ("message cache hits", "nic.mcache.hits"),
    ("message cache misses", "nic.mcache.misses"),
    ("pathfinder matches", "nic.pathfinder.matches"),
    ("aih dispatches", "nic.aih.dispatches"),
    ("bus snooped writeback words", "bus.snooped_writeback_words"),
    ("bus DMA transfers", "bus.dma_transfers"),
)


def _take(argv: List[str], name: str) -> Optional[str]:
    if name in argv:
        i = argv.index(name)
        if i + 1 >= len(argv):
            raise SystemExit(f"{name} needs an argument")
        value = argv[i + 1]
        del argv[i:i + 2]
        return value
    return None


def run_metrics_workload(app: str, interface: str, nprocs: int, scale,
                         topology: str = SimParams.topology):
    """Run the representative workload; returns its RunStats."""
    from ..apps import run
    from .runner import _chol14

    configs = {
        "jacobi": lambda: scale.jacobi_small,
        "water": lambda: scale.water_small,
        "cholesky": lambda: _chol14(scale),
    }
    if app not in configs:
        raise SystemExit(f"unknown app {app!r} (jacobi, water or cholesky)")
    # One validated replace: the node count must be checked against the
    # requested fabric, not the default one.
    params = SimParams().replace(num_processors=nprocs, topology=topology)
    return run(app, params, interface, configs[app]())[0]


def metrics_main(argv: List[str], scale) -> int:
    """Entry point for the ``metrics`` subcommand."""
    if "-h" in argv or "--help" in argv:
        print(__doc__)
        return 0
    argv = list(argv)
    app = _take(argv, "--app") or "jacobi"
    interface = _take(argv, "--interface") or "cni"
    nprocs_arg = _take(argv, "--nprocs") or "4"
    try:
        nprocs = int(nprocs_arg)
        if nprocs < 1:
            raise ValueError("must be >= 1")
    except ValueError as exc:
        print(f"--nprocs: {nprocs_arg!r}: {exc}", file=sys.stderr)
        return 2
    json_path = _take(argv, "--json")
    topology = _take(argv, "--topology") or SimParams.topology
    from ..network.spec import parse_topology

    try:
        parse_topology(topology)
    except ValueError as exc:
        print(f"--topology: {exc}", file=sys.stderr)
        return 2
    if argv:
        print(f"unrecognized arguments: {' '.join(argv)}",
              file=sys.stderr)
        return 2
    if interface not in ("cni", "standard"):
        print(f"--interface: {interface!r} must be 'cni' or 'standard'",
              file=sys.stderr)
        return 2

    try:
        stats = run_metrics_workload(app, interface, nprocs, scale,
                                     topology=topology)
    except ValueError as exc:
        print(f"--topology: {exc}", file=sys.stderr)
        return 2
    snapshot = stats.metrics
    title = (f"per-node metrics — {app}, {interface} interface, "
             f"{nprocs} processors ({scale.name} scale)")
    print(format_node_table(snapshot, title=title))
    totals = aggregate_nodes(snapshot)
    print("\ncluster totals:")
    for label, rel in SUMMARY_ROWS:
        print(f"  {label:<30} {totals.get(rel, 0.0):>12g}")

    if json_path:
        directory = os.path.dirname(json_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        meta = {"app": app, "interface": interface, "nprocs": nprocs,
                "scale": scale.name, "topology": topology}
        with open(json_path, "w") as fh:
            fh.write(snapshot_to_json(snapshot, meta=meta))
        print(f"\nwrote {json_path}")
    return 0


if __name__ == "__main__":
    from .runner import main

    sys.exit(main(["metrics"] + sys.argv[1:]))
