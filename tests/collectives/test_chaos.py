"""Chaos tests for collectives: all-reduce on a lossy fabric (``-m chaos``).

The collective bench kernel self-checks every all-reduce result, so a
run that completes proves the reliable transport delivered every
COLL_ARRIVE/COLL_RELEASE exactly once despite injected cell loss.
"""

import pytest

from repro.collectives import CollBenchConfig, run_collective_bench
from repro.faults import CellLoss, FaultPlan
from repro.obs import aggregate_nodes
from repro.params import SimParams

pytestmark = pytest.mark.chaos

LOSSY = FaultPlan(seed=11, schedules=(CellLoss(rate=0.02),))


def lossy_params(**over):
    return SimParams().replace(
        num_processors=3, reliable_transport=True, fault_plan=LOSSY, **over)


@pytest.mark.parametrize("interface,use_aih", [
    pytest.param("cni", True, id="nic-cni"),
    pytest.param("standard", True, id="host-standard"),
    pytest.param("cni", False, id="host-cni"),
])
def test_allreduce_survives_cell_loss(interface, use_aih):
    cfg = CollBenchConfig(op="allreduce", rounds=8, vector_len=4)
    stats, _ = run_collective_bench(lossy_params(use_aih=use_aih),
                                    interface, cfg)
    agg = aggregate_nodes(stats.metrics)
    assert agg["faults.cells_dropped"] > 0
    assert agg["nic.reliab.retransmits"] > 0
    # every round's sum was verified inside the kernel; all ops finished
    assert agg["coll.ops_completed"] == 3 * 8


def test_lossy_run_is_deterministic():
    cfg = CollBenchConfig(op="allreduce", rounds=6)
    first, _ = run_collective_bench(lossy_params(), "cni", cfg)
    second, _ = run_collective_bench(lossy_params(), "cni", cfg)
    assert first.digest() == second.digest()
