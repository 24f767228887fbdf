"""repro — an execution-driven simulation reproduction of
"CNI: A High-Performance Network Interface for Workstation Clusters"
(Sarkar & Bailey, HPDC 1996).

Top-level convenience surface::

    from repro import JacobiConfig, SimParams, run

    stats, grid = run("jacobi", SimParams().replace(num_processors=8),
                      "cni", JacobiConfig(n=128, iterations=10))
    print(stats.network_cache_hit_ratio, stats.elapsed_ns)

``run`` dispatches through the workload registry
(:data:`repro.apps.WORKLOADS`); the stable names and the deprecation
policy are documented in docs/api.md.

Subpackages: :mod:`repro.engine` (discrete-event kernel),
:mod:`repro.memory` (caches/bus/MMU), :mod:`repro.network` (ATM fabric),
:mod:`repro.core` (the CNI and the baseline NIC), :mod:`repro.dsm`
(lazy release consistency), :mod:`repro.runtime` (cluster assembly),
:mod:`repro.apps` (benchmarks), :mod:`repro.faults` (deterministic
fault injection), :mod:`repro.harness` (the paper's tables and
figures).
"""

from .apps import (
    CholeskyConfig,
    HaloConfig,
    JacobiConfig,
    PingPongConfig,
    TransposeConfig,
    WaterConfig,
    run,
)
from .collectives import CollectiveError
from .core import DeliveryFailed
from .engine import Category, Counters, RunStats, TimeAccount
from .faults import FaultPlan
from .network import Topology, TopologyError
from .params import PAPER_PARAMS, SimParams, cni_params, standard_interface_params
from .runtime import Cluster, Context, MessagingService

__version__ = "1.21.0"

__all__ = [
    "Category",
    "CholeskyConfig",
    "Cluster",
    "CollectiveError",
    "Context",
    "Counters",
    "DeliveryFailed",
    "FaultPlan",
    "HaloConfig",
    "JacobiConfig",
    "MessagingService",
    "PAPER_PARAMS",
    "PingPongConfig",
    "RunStats",
    "SimParams",
    "TimeAccount",
    "Topology",
    "TopologyError",
    "TransposeConfig",
    "WaterConfig",
    "cni_params",
    "run",
    "standard_interface_params",
    "__version__",
]
