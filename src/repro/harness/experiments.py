"""One function per table/figure of the paper's evaluation (Section 3).

Every function takes explicit workload parameters whose defaults are the
*paper's* configuration; the benchmark suite passes scaled-down values so
a full regeneration stays laptop-sized (set ``REPRO_FULL=1`` to run the
paper-sized sweeps; EXPERIMENTS.md records the verdicts at both scales).

Speedups are computed the way the paper computes them: execution time on
one processor of the *same* cluster type divided by execution time on P
processors.

Every grid-shaped experiment builds its runs as
:class:`~repro.harness.parallel.RunSpec` lists and executes them through
:func:`~repro.harness.parallel.run_map`, so they fan out across worker
processes under ``--jobs N`` while producing bit-identical results (see
docs/parallel_runs.md).  ``run_map`` dispatches onto one process-wide
*warm* pool, so a session regenerating many small sweeps back to back
(``all`` at quick scale) pays worker spawn and interpreter import once,
not once per experiment.  A spec's ``app`` string is resolved by the
workload registry (:func:`repro.apps.run`), so experiment code never
names a ``run_*`` function directly — any registered workload is
sweepable.  The two microbenchmarks
(:func:`latency_microbenchmark`, :func:`bandwidth_microbenchmark`) stay
in-process: their kernels are ad-hoc closures over a marks dict, which
is exactly the non-picklable shape the executor refuses.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..engine import RunStats
from ..faults import CellLoss, FaultPlan
from ..obs import aggregate_nodes
from ..params import SimParams
from ..runtime import Cluster, MessagingService
from .export import GLOBAL_METRICS_LOG
from .parallel import RunSpec, run_map
from .results import SeriesResult, TableResult

DEFAULT_PROCS = (1, 2, 4, 8, 16, 32)


def speedup_experiment(
    app: str,
    workload,
    procs: Sequence[int] = DEFAULT_PROCS,
    base_params: Optional[SimParams] = None,
    name: str = "",
    jobs: Optional[int] = None,
) -> SeriesResult:
    """Figures 2-4, 6-8, 10-11: speedup + network cache hit ratio vs
    processor count, CNI and standard."""
    base = base_params or SimParams()
    result = SeriesResult(
        name=name or f"{app}-speedup",
        x_label="processors",
        xs=[float(p) for p in procs],
    )
    specs = [RunSpec(app, base.replace(num_processors=1), iface, workload)
             for iface in ("cni", "standard")]
    specs += [RunSpec(app, base.replace(num_processors=int(p)), iface,
                      workload)
              for p in procs for iface in ("cni", "standard")]
    runs = run_map(specs, jobs=jobs)
    t1: Dict[str, float] = {
        "cni": runs[0].elapsed_ns, "standard": runs[1].elapsed_ns,
    }
    for spec, stats in zip(specs[2:], runs[2:]):
        iface = spec.interface
        result.add_point(f"{iface}_speedup", t1[iface] / stats.elapsed_ns)
        if iface == "cni":
            result.add_point(
                "network_cache_hit_ratio",
                100.0 * stats.network_cache_hit_ratio,
            )
    result.validate()
    return result


def page_size_experiment(
    app: str,
    workload,
    page_sizes: Sequence[int],
    nprocs: int = 8,
    base_params: Optional[SimParams] = None,
    name: str = "",
    jobs: Optional[int] = None,
) -> SeriesResult:
    """Figures 5, 9, 12: speedup sensitivity to shared page size.

    Speedup at each page size is against the one-processor run *at that
    page size* (the paper's axes are speedup vs page size at 8 procs).
    """
    base = base_params or SimParams()
    result = SeriesResult(
        name=name or f"{app}-pagesize",
        x_label="page_size_bytes",
        xs=[float(s) for s in page_sizes],
    )
    specs = []
    for size in page_sizes:
        for iface in ("cni", "standard"):
            sized = base.replace(page_size_bytes=int(size))
            specs.append(RunSpec(app, sized.replace(num_processors=1),
                                 iface, workload))
            specs.append(RunSpec(app, sized.replace(num_processors=nprocs),
                                 iface, workload))
    runs = run_map(specs, jobs=jobs)
    for spec, t1_stats, tp_stats in zip(specs[::2], runs[::2], runs[1::2]):
        result.add_point(f"{spec.interface}_speedup",
                         t1_stats.elapsed_ns / tp_stats.elapsed_ns)
    result.validate()
    return result


def overhead_table_experiment(
    app: str,
    workload,
    nprocs: int = 8,
    base_params: Optional[SimParams] = None,
    name: str = "",
    jobs: Optional[int] = None,
) -> TableResult:
    """Tables 2-4: synch overhead / synch delay / computation / total,
    in CPU cycles summed over the processors, CNI vs standard."""
    base = base_params or SimParams()
    result = TableResult(
        name=name or f"{app}-overhead",
        columns=["time_cni_cycles", "time_standard_cycles"],
    )
    params = base.replace(num_processors=nprocs)
    specs = [RunSpec(app, params, iface, workload)
             for iface in ("cni", "standard")]
    runs = run_map(specs, jobs=jobs)
    tables = {spec.interface: stats.overhead_table(params.cpu_freq_hz)
              for spec, stats in zip(specs, runs)}
    for row in ("synch_overhead", "synch_delay", "computation", "total"):
        result.add_row(row, [tables["cni"][row], tables["standard"][row]])
    return result


def message_cache_size_experiment(
    workloads: Dict[str, object],
    cache_sizes: Sequence[int],
    nprocs: int = 8,
    base_params: Optional[SimParams] = None,
    jobs: Optional[int] = None,
) -> SeriesResult:
    """Figure 13: network cache hit ratio vs Message Cache size for the
    8-processor versions of the three applications."""
    base = base_params or SimParams()
    result = SeriesResult(
        name="mcache-size",
        x_label="message_cache_bytes",
        xs=[float(s) for s in cache_sizes],
    )
    specs = [
        RunSpec(app, base.replace(num_processors=nprocs,
                                  message_cache_bytes=int(size)),
                "cni", workload)
        for size in cache_sizes for app, workload in workloads.items()
    ]
    runs = run_map(specs, jobs=jobs)
    for spec, stats in zip(specs, runs):
        result.add_point(spec.app, 100.0 * stats.network_cache_hit_ratio)
    result.validate()
    return result


def latency_microbenchmark(
    message_sizes: Sequence[int],
    base_params: Optional[SimParams] = None,
) -> SeriesResult:
    """Figure 14: best-case node-to-node latency vs message size.

    The paper assumes a 100% network cache hit ratio for the CNI curve,
    so the measurement warms the Message Cache with one send and times
    the second, unmodified send from initiation to delivery at the
    receiving application.
    """
    base = base_params or SimParams()
    result = SeriesResult(
        name="latency-microbench",
        x_label="message_bytes",
        xs=[float(s) for s in message_sizes],
    )
    for size in message_sizes:
        for iface in ("cni", "standard"):
            result.add_point(
                f"{iface}_latency_us",
                one_way_latency_ns(int(size), iface, base) / 1000.0,
            )
    result.validate()
    return result


def one_way_latency_ns(size: int, interface: str, base: SimParams) -> float:
    """Measure one warmed node-to-node message latency."""
    params = base.replace(num_processors=2, dsm_address_space_pages=16)
    cluster = Cluster(params, interface=interface)
    marks = {}
    buffer_bytes = max(4096, 1 << (size - 1).bit_length()) if size else 4096

    def kernel(ctx):
        svc = MessagingService(ctx, buffer_bytes=buffer_bytes)
        if ctx.rank == 0:
            yield from svc.touch_send_buffer(max(size, 8))
            yield from svc.send(1, size)     # warm the Message Cache
            yield from ctx.barrier()
            marks["t0"] = ctx.sim.now
            yield from svc.send(1, size)     # the measured send
        else:
            yield from svc.recv()
            yield from ctx.barrier()
            yield from svc.recv()
            marks["t1"] = ctx.sim.now

    cluster.run(kernel)
    GLOBAL_METRICS_LOG.record("latency_microbench", interface, 2,
                              cluster.metrics.snapshot(),
                              message_bytes=size)
    return marks["t1"] - marks["t0"]


def bandwidth_microbenchmark(
    message_sizes: Sequence[int],
    messages_per_burst: int = 32,
    base_params: Optional[SimParams] = None,
) -> SeriesResult:
    """Extension (not a paper figure): application-to-application
    bandwidth vs message size.

    The work the paper builds on (OSIRIS, [4]) chased *bandwidth*; the
    CNI chases latency without giving bandwidth up.  A sender streams a
    burst of same-buffer messages; bandwidth is payload bytes over the
    time until the last message reaches the receiving application.
    """
    base = base_params or SimParams()
    result = SeriesResult(
        name="bandwidth-microbench",
        x_label="message_bytes",
        xs=[float(s) for s in message_sizes],
    )
    for size in message_sizes:
        for iface in ("cni", "standard"):
            mbps = _burst_bandwidth_mbps(
                int(size), messages_per_burst, iface, base
            )
            result.add_point(f"{iface}_mbps", mbps)
    result.validate()
    return result


def _burst_bandwidth_mbps(size: int, count: int, interface: str,
                          base: SimParams) -> float:
    params = base.replace(num_processors=2, dsm_address_space_pages=16)
    cluster = Cluster(params, interface=interface)
    marks = {}
    buffer_bytes = max(4096, 1 << (max(size, 1) - 1).bit_length())

    def kernel(ctx):
        svc = MessagingService(ctx, n_recv_buffers=count + 2,
                               buffer_bytes=buffer_bytes)
        if ctx.rank == 0:
            yield from svc.touch_send_buffer(max(size, 8))
            marks["t0"] = ctx.sim.now
            for _ in range(count):
                yield from svc.send(1, size)
        else:
            for _ in range(count):
                yield from svc.recv()
            marks["t1"] = ctx.sim.now

    cluster.run(kernel)
    seconds = (marks["t1"] - marks["t0"]) / 1e9
    return (size * count * 8) / seconds / 1e6 if seconds > 0 else 0.0


def unrestricted_cell_experiment(
    workloads: Dict[str, object],
    nprocs: int = 8,
    base_params: Optional[SimParams] = None,
    jobs: Optional[int] = None,
) -> TableResult:
    """Table 5: % execution-time improvement for the CNI cluster when
    the ATM's 53-byte cell becomes unlimited (no SAR overhead)."""
    base = base_params or SimParams()
    result = TableResult(
        name="unrestricted-cell",
        columns=["pct_improvement"],
    )
    params = base.replace(num_processors=nprocs)
    specs = []
    for app, workload in workloads.items():
        specs.append(RunSpec(app, params, "cni", workload))
        specs.append(RunSpec(app, params.replace(unrestricted_cell_size=True),
                             "cni", workload))
    runs = run_map(specs, jobs=jobs)
    for spec, with_cells, no_cells in zip(specs[::2], runs[::2], runs[1::2]):
        pct = 100.0 * (1.0 - no_cells.elapsed_ns / with_cells.elapsed_ns)
        result.add_row(spec.app, [pct])
    return result


def fault_sweep_experiment(
    app: str,
    workload,
    loss_rates: Sequence[float],
    nprocs: int = 4,
    seed: int = 90,
    base_params: Optional[SimParams] = None,
    name: str = "",
    jobs: Optional[int] = None,
) -> SeriesResult:
    """Robustness extension (not a paper figure): completion time,
    goodput and retransmission work vs seeded cell-loss rate, with the
    reliable transport carrying the workload on both interfaces.

    Goodput counts only payload bytes delivered to dispatch after
    duplicate suppression (``nic.rx.payload_bytes``), so retransmitted
    copies do not inflate it.
    """
    base = base_params or SimParams()
    result = SeriesResult(
        name=name or f"{app}-faults",
        x_label="cell_loss_rate",
        xs=[float(r) for r in loss_rates],
    )
    specs = []
    for rate in loss_rates:
        plan = (FaultPlan(seed=seed, schedules=(CellLoss(rate=float(rate)),))
                if rate > 0 else base.fault_plan)
        params = base.replace(num_processors=nprocs,
                              reliable_transport=True,
                              fault_plan=plan)
        for iface in ("cni", "standard"):
            specs.append(RunSpec(app, params, iface, workload,
                                 meta=(("cell_loss_rate", float(rate)),)))
    runs = run_map(specs, jobs=jobs)
    for spec, stats in zip(specs, runs):
        iface = spec.interface
        agg = aggregate_nodes(stats.metrics)
        payload = agg.get("nic.rx.payload_bytes", 0.0)
        seconds = stats.elapsed_ns / 1e9
        result.add_point(f"{iface}_completion_ms", stats.elapsed_ns / 1e6)
        result.add_point(
            f"{iface}_goodput_mbps",
            payload * 8 / seconds / 1e6 if seconds > 0 else 0.0)
        result.add_point(f"{iface}_retransmits",
                         agg.get("nic.reliab.retransmits", 0.0))
    result.validate()
    return result


def failures_experiment(
    nprocs: int = 4,
    seed: int = 97,
    base_params: Optional[SimParams] = None,
    name: str = "",
    jobs: Optional[int] = None,
) -> TableResult:
    """Crash-stop fault tolerance demonstration (docs/reliability.md):
    representative workloads under crash / link-outage / cell-loss
    plans, with deadlines and the heartbeat detector armed.  Every run
    must terminate — success or a *typed* error — and the table reports
    which; a hang would surface as a ``StuckError`` aborting the
    experiment.  The ``chaos`` section of ``tools/outcomes.py`` is the
    exhaustive sweep over every registered workload, fabric family and
    fault plan; this is the harness-sized sample.
    """
    from ..apps import JacobiConfig
    from ..collectives import CollBenchConfig
    from ..faults import LinkDown, NodeCrash
    from .parallel import RunFailure

    base = base_params or SimParams()
    base = base.replace(
        num_processors=nprocs,
        reliable_transport=True,
        op_deadline_ns=50_000_000.0,
        heartbeat_interval_ns=500_000.0,
        heartbeat_miss_budget=4,
        runtime_send_retries=1,
    )
    plans = [
        ("clean", None),
        ("crash", FaultPlan(seed=seed, schedules=(
            NodeCrash(node=nprocs - 1, at_ns=200_000.0),))),
        ("linkdown", FaultPlan(seed=seed, schedules=(
            LinkDown(src=0, dst=1, from_ns=0.0, to_ns=400_000.0),))),
        ("loss", FaultPlan(seed=seed, schedules=(
            CellLoss(rate=0.005),))),
    ]
    workloads = [
        ("jacobi", JacobiConfig(n=32, iterations=2)),
        ("collbench", CollBenchConfig(op="allreduce", rounds=4,
                                      compute_cycles=500)),
    ]
    result = TableResult(
        name=name or "failures",
        columns=["ok", "typed_error", "elapsed_ms"],
    )
    specs = []
    labels = []
    for app, workload in workloads:
        for plan_name, plan in plans:
            specs.append(RunSpec(app, base.replace(fault_plan=plan),
                                 "cni", workload,
                                 meta=(("fault_plan", plan_name),)))
            labels.append(f"{app}/{plan_name}")
    # The successful runs are recorded (a failed one has no metrics).
    runs = run_map(specs, jobs=jobs, on_error="record")
    errors = []
    for label, outcome in zip(labels, runs):
        if isinstance(outcome, RunFailure):
            result.add_row(label, [0.0, 1.0, 0.0])
            errors.append(f"{label}: {outcome.error_type}")
        else:
            result.add_row(label, [1.0, 0.0, outcome.elapsed_ns / 1e6])
    result.notes = ("every run terminated (no hangs); typed errors: "
                    + ("; ".join(errors) if errors else "none"))
    return result


def _coll_mean_op_us(metrics: Dict[str, object], op: str) -> float:
    """Mean app-observed latency of one collective op, in microseconds,
    from the per-node ``node<i>.coll.<op>_ns`` histograms (summing count
    and sum across nodes; :func:`aggregate_nodes` would reduce a
    histogram to its count only)."""
    total = 0.0
    count = 0.0
    suffix = f".coll.{op}_ns"
    for mname, value in metrics.items():
        if mname.endswith(suffix) and isinstance(value, dict):
            total += float(value.get("sum", 0.0))
            count += float(value.get("count", 0))
    return total / count / 1e3 if count else 0.0


def collective_latency_experiment(
    procs: Sequence[int],
    rounds: int = 8,
    base_params: Optional[SimParams] = None,
    name: str = "",
    jobs: Optional[int] = None,
) -> SeriesResult:
    """Collectives extension (not a paper figure): mean barrier and
    all-reduce latency vs processor count, with the protocol steps on
    the NI processor (``nic_*`` rows: the CNI, whose AIHs run them)
    against the host CPU (``host_*`` rows: the standard interface).

    The NIC rows are *asserted* interrupt-free: the run fails if any
    ``coll.host_steps`` were counted, or if a multi-node run shows no
    AIH dispatches — the zero-host-interrupt claim is checked, not
    assumed.  See docs/collectives.md.
    """
    from ..collectives import CollBenchConfig

    base = base_params or SimParams()
    result = SeriesResult(
        name=name or "collectives-latency",
        x_label="processors",
        xs=[float(p) for p in procs],
    )
    specs = []
    for p in procs:
        params = base.replace(num_processors=int(p))
        for iface in ("cni", "standard"):
            # Where the steps run: the CNI's AIHs, the standard NI's host.
            engine = "nic" if iface == "cni" else "host"
            for op in ("barrier", "allreduce"):
                specs.append(RunSpec(
                    "collbench", params, iface,
                    CollBenchConfig(op=op, rounds=rounds),
                    meta=(("coll_engine", engine), ("coll_op", op)),
                ))
    runs = run_map(specs, jobs=jobs)
    for spec, stats in zip(specs, runs):
        meta = dict(spec.meta)
        engine, op = meta["coll_engine"], meta["coll_op"]
        result.add_point(f"{engine}_{op}_us",
                         _coll_mean_op_us(stats.metrics, op))
        if engine == "nic":
            agg = aggregate_nodes(stats.metrics)
            hosted = agg.get("coll.host_steps", 0.0)
            if hosted:
                raise AssertionError(
                    f"NIC-resident collectives took {hosted:.0f} host "
                    f"protocol steps ({spec.describe()})")
            if (spec.params.num_processors > 1
                    and agg.get("nic.aih.dispatches", 0.0) <= 0):
                raise AssertionError(
                    "NIC-resident collectives dispatched no AIH handlers "
                    f"({spec.describe()})")
    result.validate()
    result.notes = (f"{rounds} rounds/run; NIC rows asserted "
                    "interrupt-free on the collective path")
    return result


def _rtt_mean_one_way_us(stats: RunStats) -> float:
    """Mean one-way latency (µs) from rank 0's round-trip histogram."""
    hist = stats.metrics.get("node0.runtime.msg_rtt_ns")
    if not hist or not hist.get("count"):
        raise AssertionError("pingpong run recorded no msg_rtt_ns samples")
    return hist["sum"] / hist["count"] / 2.0 / 1000.0


def messaging_experiment(
    sizes: Sequence[int],
    rounds: int = 8,
    base_params: Optional[SimParams] = None,
    name: str = "",
    jobs: Optional[int] = None,
) -> SeriesResult:
    """Messaging-runtime extension (Figure-14 style, but user-to-user):
    one-way ping-pong latency vs message size on both interfaces, with
    the eager/rendezvous crossover at ``SimParams.rendezvous_threshold``
    (docs/runtime.md).

    Two claims are *asserted*, not just plotted: every run took the
    protocol its size dictates (eager at or below the threshold,
    rendezvous above — counted from ``runtime.eager_sends`` /
    ``runtime.rendezvous_sends``), and a one-sided ``remote_read`` arm
    shows a higher Message-Cache transmit hit ratio on the CNI than on
    the standard interface (where the ratio is necessarily zero — there
    is no cache to hit).
    """
    from ..apps import PingPongConfig

    base = base_params or SimParams()
    base = base.replace(num_processors=2)
    result = SeriesResult(
        name=name or "messaging-latency",
        x_label="message_bytes",
        xs=[float(s) for s in sizes],
    )
    specs = [
        RunSpec("pingpong", base, iface,
                PingPongConfig(rounds=rounds, message_bytes=int(size)),
                meta=(("arm", "msg"), ("message_bytes", int(size))))
        for size in sizes for iface in ("cni", "standard")
    ]
    read_bytes = min(4096, max(int(s) for s in sizes))
    specs += [
        RunSpec("pingpong", base, iface,
                PingPongConfig(rounds=rounds, message_bytes=read_bytes,
                               mode="read"),
                meta=(("arm", "read"),))
        for iface in ("cni", "standard")
    ]
    runs = run_map(specs, jobs=jobs)
    read_ratio: Dict[str, float] = {}
    for spec, stats in zip(specs, runs):
        arm = dict(spec.meta)["arm"]
        if arm == "read":
            read_ratio[spec.interface] = stats.network_cache_hit_ratio
            continue
        size = dict(spec.meta)["message_bytes"]
        result.add_point(f"{spec.interface}_latency_us",
                         _rtt_mean_one_way_us(stats))
        agg = aggregate_nodes(stats.metrics)
        eager = agg.get("runtime.eager_sends", 0.0)
        rdv = agg.get("runtime.rendezvous_sends", 0.0)
        want_eager = size <= spec.params.rendezvous_threshold
        # Both directions of every round go through the size-dispatched
        # path, so the counts are all-or-nothing.
        if want_eager and (eager != 2 * rounds or rdv != 0):
            raise AssertionError(
                f"{size}B ≤ threshold but counted eager={eager:.0f} "
                f"rendezvous={rdv:.0f} ({spec.describe()})")
        if not want_eager and (rdv != 2 * rounds or eager != 0):
            raise AssertionError(
                f"{size}B > threshold but counted eager={eager:.0f} "
                f"rendezvous={rdv:.0f} ({spec.describe()})")
    if read_ratio["cni"] <= read_ratio["standard"]:
        raise AssertionError(
            f"remote_read Message-Cache hit ratio not better on CNI: "
            f"cni={read_ratio['cni']:.3f} vs "
            f"standard={read_ratio['standard']:.3f}")
    result.validate()
    result.notes = (
        f"{rounds} rounds/run at threshold "
        f"{base.rendezvous_threshold}B; remote_read mcache hit ratio "
        f"cni={read_ratio['cni']:.3f} vs standard="
        f"{read_ratio['standard']:.3f}")
    return result


def table1_parameters() -> TableResult:
    """Table 1: the simulation parameters actually in force."""
    p = SimParams()
    result = TableResult(name="simulation-parameters", columns=["value"])
    rows = [
        ("cpu_frequency_mhz", p.cpu_freq_hz / 1e6),
        ("l1_access_cycles", p.l1_access_cycles),
        ("l1_size_kb", p.l1_size_bytes / 1024),
        ("l2_access_cycles", p.l2_access_cycles),
        ("l2_size_kb", p.l2_size_bytes / 1024),
        ("memory_latency_cycles", p.memory_latency_cycles),
        ("bus_acquisition_cycles", p.bus_acquisition_cycles),
        ("bus_cycles_per_word", p.bus_cycles_per_word),
        ("bus_frequency_mhz", p.bus_freq_hz / 1e6),
        ("switch_latency_ns", p.switch_latency_ns),
        ("ni_frequency_mhz", p.ni_freq_hz / 1e6),
        ("wire_latency_ns", p.wire_latency_ns),
        ("interrupt_latency_us", p.interrupt_latency_ns / 1000),
        ("message_cache_kb", p.message_cache_bytes / 1024),
    ]
    for label, value in rows:
        result.add_row(label, [float(value)])
    return result
