"""Experiment registry + command line driver.

Every table and figure of the paper has an id here (``fig2`` ... ``fig14``,
``table1`` ... ``table5``).  Each runs at one of two scales:

* ``quick`` — shrunken workloads with the same structure (default; this
  is what the paper-shape suite under ``benchmarks/`` runs);
* ``paper`` — the paper's workload sizes and processor counts (set
  ``REPRO_FULL=1`` or pass ``--full``; hours of simulation).

Usage::

    python -m repro.harness fig2 fig14 table5
    python -m repro.harness all
    REPRO_FULL=1 python -m repro.harness fig4
    python -m repro.harness fig4 --jobs 8               # parallel sweep points
    python -m repro.harness all --jobs 1                # serial (debugging)
    python -m repro.harness all --svg out/ --csv out/   # export files too
    python -m repro.harness all --metrics out/          # + metrics JSON per exp
    python -m repro.harness metrics --app water         # per-node metric table
    python -m repro.harness faults                      # loss-rate sweep
    python -m repro.harness collectives                 # NIC vs host steps
    python -m repro.harness fig2 --fault-plan 'seed=7;cell_loss(rate=0.01)'
    python -m repro.harness fig2 --topology torus:4x4        # pick a fabric

``--jobs N`` fans an experiment's independent simulation runs across N
worker processes (default: all cores; results are bit-identical at any
N — see docs/parallel_runs.md).  ``--fault-plan SPEC`` injects faults
into any experiment (and enables the reliable transport so runs survive
them); see :func:`repro.faults.parse_fault_plan` for the grammar.
``--topology SPEC`` selects the fabric every run is wired to
(``banyan:32``, ``fattree:k=4``, ``torus:4x4x4[:adaptive]`` — see
docs/network.md).

Experiment text output is also appended to
``results/<scale>_scale_results.txt`` (gitignored), the artifact
``repro.harness.compare`` reads to regenerate EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..apps import (
    CholeskyConfig,
    JacobiConfig,
    WaterConfig,
    bcsstk14_like,
    bcsstk15_like,
)
from ..params import SimParams
from .experiments import (
    collective_latency_experiment,
    failures_experiment,
    fault_sweep_experiment,
    latency_microbenchmark,
    message_cache_size_experiment,
    messaging_experiment,
    overhead_table_experiment,
    page_size_experiment,
    speedup_experiment,
    table1_parameters,
    unrestricted_cell_experiment,
)
from .report import format_series, format_table
from .results import SeriesResult, TableResult

Result = Union[SeriesResult, TableResult]


@dataclass(frozen=True)
class Scale:
    """Workload sizing for one run of the harness."""

    name: str
    jacobi_small: JacobiConfig
    jacobi_medium: JacobiConfig
    jacobi_large: JacobiConfig
    water_small: WaterConfig
    water_medium: WaterConfig
    water_large: WaterConfig
    cholesky_scale14: float
    cholesky_scale15: float
    supernode: int
    procs: Sequence[int]
    nprocs_fixed: int
    page_sizes: Sequence[int]
    mcache_sizes: Sequence[int]
    message_sizes: Sequence[int]
    loss_rates: Sequence[float]
    coll_rounds: int = 8
    #: Sizes for the messaging-runtime latency sweep; straddle
    #: ``SimParams.rendezvous_threshold`` so the knee is visible.
    messaging_sizes: Sequence[int] = (256, 1024, 2048, 4096, 6144, 8192,
                                      12288)
    messaging_rounds: int = 6


QUICK = Scale(
    name="quick",
    jacobi_small=JacobiConfig(n=64, iterations=5),
    jacobi_medium=JacobiConfig(n=96, iterations=5),
    jacobi_large=JacobiConfig(n=128, iterations=5),
    water_small=WaterConfig(n_molecules=27, steps=2),
    water_medium=WaterConfig(n_molecules=48, steps=2),
    water_large=WaterConfig(n_molecules=64, steps=2),
    cholesky_scale14=0.06,
    cholesky_scale15=0.05,
    supernode=4,
    procs=(1, 2, 4, 8),
    nprocs_fixed=4,
    page_sizes=(1024, 2048, 4096, 8192),
    mcache_sizes=(8192, 16384, 32768, 65536, 131072, 262144),
    message_sizes=(0, 512, 1024, 2048, 3072, 4096),
    loss_rates=(0.0, 0.002, 0.01),
    coll_rounds=6,
    messaging_sizes=(256, 1024, 2048, 4096, 6144, 8192, 12288),
    messaging_rounds=4,
)

PAPER = Scale(
    name="paper",
    jacobi_small=JacobiConfig(n=128, iterations=20),
    jacobi_medium=JacobiConfig(n=256, iterations=20),
    jacobi_large=JacobiConfig(n=1024, iterations=20),
    water_small=WaterConfig(n_molecules=64, steps=2),
    water_medium=WaterConfig(n_molecules=216, steps=2),
    water_large=WaterConfig(n_molecules=343, steps=2),
    cholesky_scale14=1.0,
    cholesky_scale15=1.0,
    supernode=16,
    procs=(1, 2, 4, 8, 16, 32),
    nprocs_fixed=8,
    page_sizes=(1024, 2048, 4096, 8192, 16384),
    mcache_sizes=(8192, 32768, 131072, 262144, 524288, 1048576),
    message_sizes=(0, 512, 1024, 2048, 3072, 4096),
    loss_rates=(0.0, 0.001, 0.005, 0.01, 0.02),
    coll_rounds=24,
    messaging_sizes=(256, 512, 1024, 2048, 4096, 6144, 8192, 12288,
                     16384),
    messaging_rounds=12,
)


def active_scale() -> Scale:
    """QUICK unless ``REPRO_FULL=1`` asks for the paper's sizes."""
    return PAPER if os.environ.get("REPRO_FULL") == "1" else QUICK


def _chol14(scale: Scale) -> CholeskyConfig:
    return CholeskyConfig(matrix=bcsstk14_like(scale=scale.cholesky_scale14),
                          supernode=scale.supernode)


def _chol15(scale: Scale) -> CholeskyConfig:
    return CholeskyConfig(matrix=bcsstk15_like(scale=scale.cholesky_scale15),
                          supernode=scale.supernode)


# ------------------------------------------------------------- experiments --

def exp_table1(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Table 1: simulation parameters."""
    return table1_parameters()


def exp_fig2(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Figure 2: Jacobi speedup + hit ratio, small matrix."""
    return speedup_experiment("jacobi", scale.jacobi_small, scale.procs,
                              base_params=base, name="fig2-jacobi-small")


def exp_fig3(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Figure 3: Jacobi, medium matrix."""
    return speedup_experiment("jacobi", scale.jacobi_medium, scale.procs,
                              base_params=base, name="fig3-jacobi-medium")


def exp_fig4(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Figure 4: Jacobi, large matrix."""
    return speedup_experiment("jacobi", scale.jacobi_large, scale.procs,
                              base_params=base, name="fig4-jacobi-large")


def exp_fig5(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Figure 5: Jacobi page-size sensitivity."""
    return page_size_experiment("jacobi", scale.jacobi_large,
                                scale.page_sizes, scale.nprocs_fixed,
                                base_params=base, name="fig5-jacobi-pagesize")


def exp_table2(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Table 2: Jacobi overhead breakdown."""
    return overhead_table_experiment("jacobi", scale.jacobi_large,
                                     scale.nprocs_fixed,
                                     base_params=base, name="table2-jacobi-overhead")


def exp_fig6(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Figure 6: Water speedup, small input."""
    return speedup_experiment("water", scale.water_small, scale.procs,
                              base_params=base, name="fig6-water-small")


def exp_fig7(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Figure 7: Water, medium input."""
    return speedup_experiment("water", scale.water_medium, scale.procs,
                              base_params=base, name="fig7-water-medium")


def exp_fig8(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Figure 8: Water, large input."""
    return speedup_experiment("water", scale.water_large, scale.procs,
                              base_params=base, name="fig8-water-large")


def exp_fig9(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Figure 9: Water page-size sensitivity."""
    return page_size_experiment("water", scale.water_medium,
                                scale.page_sizes, scale.nprocs_fixed,
                                base_params=base, name="fig9-water-pagesize")


def exp_table3(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Table 3: Water overhead breakdown."""
    return overhead_table_experiment("water", scale.water_medium,
                                     scale.nprocs_fixed,
                                     base_params=base, name="table3-water-overhead")


def exp_fig10(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Figure 10: Cholesky speedup, bcsstk14."""
    return speedup_experiment("cholesky", _chol14(scale), scale.procs,
                              base_params=base, name="fig10-cholesky-bcsstk14")


def exp_fig11(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Figure 11: Cholesky speedup, bcsstk15."""
    return speedup_experiment("cholesky", _chol15(scale), scale.procs,
                              base_params=base, name="fig11-cholesky-bcsstk15")


def exp_fig12(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Figure 12: Cholesky page-size sensitivity."""
    return page_size_experiment("cholesky", _chol14(scale),
                                scale.page_sizes, scale.nprocs_fixed,
                                base_params=base, name="fig12-cholesky-pagesize")


def exp_table4(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Table 4: Cholesky overhead breakdown."""
    return overhead_table_experiment("cholesky", _chol14(scale),
                                     scale.nprocs_fixed,
                                     base_params=base, name="table4-cholesky-overhead")


def exp_fig13(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Figure 13: hit ratio vs Message Cache size, three apps.

    Jacobi runs the small matrix: the paper observes that "a slight
    increase of the Message Cache beyond 32KB brings the network cache
    hit ratio to its optimal limit ... because of the quantity and
    nature of the shared data", which pins the boundary working set near
    32 KB — the 128x128 case (the 1024x1024 grid's boundary set is
    ~64 KB and stays capacity-limited, visible in Figure 4's ratios).
    """
    return message_cache_size_experiment(
        {
            "jacobi": scale.jacobi_small,
            "water": scale.water_medium,
            "cholesky": _chol14(scale),
        },
        scale.mcache_sizes,
        scale.nprocs_fixed,
        base_params=base,
    )


def exp_fig14(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Figure 14: node-to-node latency microbenchmark."""
    return latency_microbenchmark(scale.message_sizes, base_params=base)


def exp_table5(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Table 5: unrestricted-cell-size improvement."""
    return unrestricted_cell_experiment(
        {
            "jacobi": scale.jacobi_large,
            "water": scale.water_large,
            "cholesky": _chol14(scale),
        },
        scale.nprocs_fixed,
        base_params=base,
    )


def exp_faults(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Robustness extension: Jacobi under a seeded cell-loss sweep with
    the reliable transport on, both interfaces (completion time, goodput
    and retransmissions vs loss rate)."""
    return fault_sweep_experiment("jacobi", scale.jacobi_small,
                                  scale.loss_rates,
                                  nprocs=min(scale.nprocs_fixed, 4),
                                  base_params=base, name="faults-jacobi")


def exp_collectives(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Collectives extension: barrier/all-reduce latency vs processor
    count, steps on the NI processor vs on the host (docs/collectives.md)."""
    return collective_latency_experiment(scale.procs,
                                         rounds=scale.coll_rounds,
                                         base_params=base,
                                         name="collectives-latency")


def exp_messaging(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Messaging-runtime extension: ping-pong latency vs size with the
    eager/rendezvous knee, plus the remote_read Message-Cache check
    (docs/runtime.md)."""
    return messaging_experiment(scale.messaging_sizes,
                                rounds=scale.messaging_rounds,
                                base_params=base,
                                name="messaging-latency")


def exp_failures(scale: Scale, base: Optional[SimParams] = None) -> Result:
    """Crash-stop fault-tolerance extension: representative workloads
    under crash / link-outage / loss plans, every run terminating with
    success or a typed error (docs/reliability.md)."""
    return failures_experiment(nprocs=min(scale.nprocs_fixed, 4),
                               base_params=base, name="failures")


EXPERIMENTS: Dict[str, Callable[..., Result]] = {
    "table1": exp_table1,
    "fig2": exp_fig2,
    "fig3": exp_fig3,
    "fig4": exp_fig4,
    "fig5": exp_fig5,
    "table2": exp_table2,
    "fig6": exp_fig6,
    "fig7": exp_fig7,
    "fig8": exp_fig8,
    "fig9": exp_fig9,
    "table3": exp_table3,
    "fig10": exp_fig10,
    "fig11": exp_fig11,
    "fig12": exp_fig12,
    "table4": exp_table4,
    "fig13": exp_fig13,
    "fig14": exp_fig14,
    "table5": exp_table5,
    "faults": exp_faults,
    "collectives": exp_collectives,
    "messaging": exp_messaging,
    "failures": exp_failures,
}


def run_experiment(exp_id: str, scale: Scale = None,
                   base_params: Optional[SimParams] = None) -> Result:
    """Run one experiment by id.  ``base_params`` overrides the default
    Table 1 configuration (the ``--fault-plan`` CLI path builds a base
    with a fault plan and the reliable transport enabled)."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; choose from "
            f"{sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[exp_id](scale or active_scale(), base_params)


#: The runner's options, as its unknown-option message lists them.
_OPTIONS = ("--full", "--jobs N", "--metrics DIR", "--results DIR",
            "--svg DIR", "--csv DIR", "--fault-plan SPEC", "--topology SPEC",
            "--deadline-ns NS", "--heartbeat-ns NS", "-h/--help")


def _take_option(argv: List[str], name: str) -> Optional[str]:
    if name in argv:
        i = argv.index(name)
        if i + 1 >= len(argv):
            raise SystemExit(f"{name} needs a value")
        value = argv[i + 1]
        del argv[i:i + 2]
        return value
    return None


def main(argv: List[str] = None) -> int:
    """CLI entry point.  Its ``--jobs`` default holds for this call only:
    the caller's is restored on every path out."""
    from .parallel import default_jobs, set_default_jobs

    previous = default_jobs()
    try:
        return _cli(argv)
    finally:
        set_default_jobs(previous)


def _cli(argv: Optional[List[str]]) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    full = "--full" in argv
    argv = [a for a in argv if a != "--full"]
    svg_dir = _take_option(argv, "--svg")
    csv_dir = _take_option(argv, "--csv")
    metrics_dir = _take_option(argv, "--metrics")
    fault_spec = _take_option(argv, "--fault-plan")
    jobs_arg = _take_option(argv, "--jobs")
    deadline_arg = _take_option(argv, "--deadline-ns")
    heartbeat_arg = _take_option(argv, "--heartbeat-ns")
    topology_arg = _take_option(argv, "--topology")
    results_dir = _take_option(argv, "--results") or "results"
    from .parallel import set_default_jobs

    try:
        jobs = set_default_jobs(int(jobs_arg) if jobs_arg is not None
                                else None)
    except ValueError as exc:
        print(f"--jobs: {exc}", file=sys.stderr)
        return 1
    base_params = None
    if fault_spec:
        from ..faults import parse_fault_plan

        try:
            plan = parse_fault_plan(fault_spec)
        except ValueError as exc:
            print(f"--fault-plan: {exc}", file=sys.stderr)
            return 1
        base_params = SimParams().replace(fault_plan=plan,
                                          reliable_transport=True)
        print(f"fault plan: {base_params.fault_plan.describe()} "
              f"(reliable transport on)")
    if deadline_arg:
        try:
            deadline_ns = float(deadline_arg)
        except ValueError:
            print(f"--deadline-ns: {deadline_arg!r} is not a number",
                  file=sys.stderr)
            return 1
        base_params = (base_params or SimParams()).replace(
            op_deadline_ns=deadline_ns)
        print(f"operation deadline: {deadline_ns:.0f} ns")
    if heartbeat_arg:
        try:
            heartbeat_ns = float(heartbeat_arg)
        except ValueError:
            print(f"--heartbeat-ns: {heartbeat_arg!r} is not a number",
                  file=sys.stderr)
            return 1
        base_params = (base_params or SimParams()).replace(
            heartbeat_interval_ns=heartbeat_ns)
        print(f"heartbeat interval: {heartbeat_ns:.0f} ns")
    if topology_arg:
        from ..network.spec import parse_topology

        try:
            spec = parse_topology(topology_arg)
            base = base_params or SimParams()
            # Experiments set num_processors per point, so clamp the
            # base to the fabric's capacity here; a point that asks for
            # more nodes than the fabric attaches still fails its own
            # validation with the "does not fit" message.
            base_params = base.replace(
                topology=topology_arg,
                num_processors=min(base.num_processors, spec.capacity))
        except ValueError as exc:
            print(f"--topology: {exc}", file=sys.stderr)
            return 1
        print(f"fabric topology: {spec.canonical()} "
              f"({spec.capacity} attachment points)")
    scale = PAPER if (full or os.environ.get("REPRO_FULL") == "1") else QUICK
    if argv[:1] == ["metrics"]:
        from .metrics_cli import metrics_main

        # The metrics subcommand builds its own params from --nprocs;
        # hand the already-validated spec through rather than binding
        # it to this driver's base_params.
        extra = ["--topology", topology_arg] if topology_arg else []
        return metrics_main(argv[1:] + extra, scale)
    if not argv or "-h" in argv or "--help" in argv:
        print(__doc__)
        print("experiments:", " ".join(sorted(EXPERIMENTS)))
        return 0 if argv else 2
    options = [a for a in argv if a.startswith("-")]
    if options:
        print(f"unknown option {options[0]} (options: {', '.join(_OPTIONS)})",
              file=sys.stderr)
        return 2
    ids = sorted(EXPERIMENTS) if argv == ["all"] else argv
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {' '.join(unknown)} "
              f"(choose from {' '.join(sorted(EXPERIMENTS))})",
              file=sys.stderr)
        return 2
    if jobs > 1:
        print(f"parallel executor: --jobs {jobs}")
    results_path = os.path.join(results_dir,
                                f"{scale.name}_scale_results.txt")
    os.makedirs(results_dir, exist_ok=True)
    with open(results_path, "w"):
        pass  # one invocation == one results file; re-runs start fresh
    for exp_id in ids:
        from .export import GLOBAL_METRICS_LOG

        GLOBAL_METRICS_LOG.clear()
        result = run_experiment(exp_id, scale, base_params)
        if isinstance(result, SeriesResult):
            text = format_series(result)
        else:
            text = format_table(result)
        print(text)
        with open(results_path, "a") as fh:
            fh.write(text + "\n\n")
        if svg_dir and isinstance(result, SeriesResult):
            from .svgplot import render_series_svg

            os.makedirs(svg_dir, exist_ok=True)
            path = os.path.join(svg_dir, f"{exp_id}.svg")
            with open(path, "w") as fh:
                fh.write(render_series_svg(result))
            print(f"   wrote {path}")
        if csv_dir:
            from .export import to_csv

            os.makedirs(csv_dir, exist_ok=True)
            path = os.path.join(csv_dir, f"{exp_id}.csv")
            with open(path, "w") as fh:
                fh.write(to_csv(result))
            print(f"   wrote {path}")
        if metrics_dir:
            os.makedirs(metrics_dir, exist_ok=True)
            path = os.path.join(metrics_dir, f"{exp_id}.metrics.json")
            with open(path, "w") as fh:
                fh.write(GLOBAL_METRICS_LOG.to_json(name=exp_id))
            print(f"   wrote {path} ({len(GLOBAL_METRICS_LOG)} runs)")
        print()
    print(f"wrote {results_path}")
    return 0
