"""Experiment harness: one entry per table/figure of the paper.

``python -m repro.harness fig2`` regenerates Figure 2's data; see
:mod:`repro.harness.runner` for the registry and scales.
"""

from .experiments import (
    bandwidth_microbenchmark,
    collective_latency_experiment,
    failures_experiment,
    fault_sweep_experiment,
    latency_microbenchmark,
    message_cache_size_experiment,
    one_way_latency_ns,
    overhead_table_experiment,
    page_size_experiment,
    speedup_experiment,
    table1_parameters,
    unrestricted_cell_experiment,
)
from .export import GLOBAL_METRICS_LOG, MetricsLog, to_csv, to_json, write_result
from .parallel import (
    RunFailure,
    RunSpec,
    default_jobs,
    effective_cores,
    execute_run,
    pool_size,
    run_map,
    set_default_jobs,
    shutdown_pool,
)
from .report import ascii_plot, format_series, format_table
from .svgplot import render_series_svg
from .sweeps import sweep_param
from .results import SeriesResult, TableResult
from .runner import EXPERIMENTS, PAPER, QUICK, Scale, active_scale, run_experiment

__all__ = [
    "EXPERIMENTS",
    "GLOBAL_METRICS_LOG",
    "MetricsLog",
    "PAPER",
    "QUICK",
    "RunFailure",
    "RunSpec",
    "Scale",
    "SeriesResult",
    "TableResult",
    "active_scale",
    "ascii_plot",
    "bandwidth_microbenchmark",
    "collective_latency_experiment",
    "default_jobs",
    "effective_cores",
    "execute_run",
    "failures_experiment",
    "fault_sweep_experiment",
    "format_series",
    "format_table",
    "latency_microbenchmark",
    "message_cache_size_experiment",
    "one_way_latency_ns",
    "overhead_table_experiment",
    "page_size_experiment",
    "pool_size",
    "render_series_svg",
    "run_experiment",
    "run_map",
    "set_default_jobs",
    "shutdown_pool",
    "speedup_experiment",
    "sweep_param",
    "table1_parameters",
    "to_csv",
    "to_json",
    "unrestricted_cell_experiment",
    "write_result",
]
