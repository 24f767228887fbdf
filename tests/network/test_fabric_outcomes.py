"""Golden outcomes on every fabric.

Each case pins a small run's ``RunStats.digest()`` and the fabric's
congestion counters, so a change to the timed fabric walk that moves a
single event shows up here: the DOR and the minimal-adaptive torus (the
adaptive path picks each hop from live queue state), the fat-tree and
the paper's banyan switch, clean and under cell loss (the lossy run
retransmits once).
"""

import pytest

from repro.apps import CollBenchConfig, PingPongConfig, TransposeConfig, run
from repro.faults import parse_fault_plan
from repro.params import SimParams


def fabric(topology, nprocs=16, **over):
    return SimParams().replace(num_processors=nprocs, topology=topology,
                               **over)


CASES = [
    pytest.param(
        "transpose", fabric("torus:4x4:adaptive"),
        TransposeConfig(rounds=2, block_bytes=4096),
        "f9e4e7efa27bfda5515e6a6c9222a4961ab9097d2d6f170a6d8e2fba18e1d933",
        {"net.crossings": 1088, "net.link_waits": 722,
         "net.hol_blocks": 264, "net.adaptive_detours": 114},
        id="transpose-torus4x4-adaptive"),
    pytest.param(
        "transpose", fabric("torus:4x4"),
        TransposeConfig(rounds=2, block_bytes=4096),
        "4e4847ae1efc296eedf47ea33318caab931ff7067e8b5f5eef4d9e429ac46ceb",
        {"net.crossings": 1088, "net.link_waits": 625,
         "net.hol_blocks": 300, "net.adaptive_detours": 0},
        id="transpose-torus4x4"),
    pytest.param(
        "collbench", fabric("fattree:k=4"),
        CollBenchConfig(op="allreduce", rounds=4),
        "370ee4b92e045ffceba2b0af8845c5560738e2fec76d8a4f1dc92d26cb61db36",
        {"net.crossings": 536, "net.link_waits": 45,
         "net.hol_blocks": 7, "net.adaptive_detours": 0},
        id="allreduce-fattree-k4"),
    pytest.param(
        "transpose", fabric("banyan:16"),
        TransposeConfig(rounds=2, block_bytes=4096),
        "66826c26b04df2a760c1d86b532b82202ccfef6f6974be15024d942c8cbdd668",
        {"net.crossings": 510, "net.link_waits": 462,
         "net.hol_blocks": 0, "net.adaptive_detours": 0},
        id="transpose-banyan16"),
    pytest.param(
        "pingpong", fabric(
            "banyan:8", nprocs=2, reliable_transport=True,
            fault_plan=parse_fault_plan("seed=3;cell_loss(rate=0.002)")),
        PingPongConfig(rounds=4, message_bytes=6000),
        "8043ccc533a08deb8ba4826aebdf14d82c8756193756fc32b21d951495dd6334",
        {"net.trains_delivered": 69, "net.crossings": 69,
         "net.link_waits": 9, "net.hol_blocks": 0},
        id="pingpong-banyan8-lossy"),
]


@pytest.mark.parametrize("app,params,config,digest,net", CASES)
def test_fabric_run_outcome_is_pinned(app, params, config, digest, net):
    stats, _ = run(app, params, "cni", config)
    assert {name: stats.metrics[name] for name in net} == net
    assert stats.digest() == digest
