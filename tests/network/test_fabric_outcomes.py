"""Golden outcomes on the multi-hop fabrics.

Each case pins a small run's ``RunStats.digest()`` and the fabric's
congestion counters, so a change to the timed fabric walk that moves a
single event shows up here: the DOR and the minimal-adaptive torus (the
adaptive path picks each hop from live queue state) and the fat-tree.
"""

import pytest

from repro.apps import CollBenchConfig, TransposeConfig, run
from repro.params import SimParams

CASES = [
    pytest.param(
        "transpose", "torus:4x4:adaptive",
        TransposeConfig(rounds=2, block_bytes=4096),
        "f9e4e7efa27bfda5515e6a6c9222a4961ab9097d2d6f170a6d8e2fba18e1d933",
        {"net.crossings": 1088, "net.link_waits": 722,
         "net.hol_blocks": 264, "net.adaptive_detours": 114},
        id="transpose-torus4x4-adaptive"),
    pytest.param(
        "transpose", "torus:4x4",
        TransposeConfig(rounds=2, block_bytes=4096),
        "4e4847ae1efc296eedf47ea33318caab931ff7067e8b5f5eef4d9e429ac46ceb",
        {"net.crossings": 1088, "net.link_waits": 625,
         "net.hol_blocks": 300, "net.adaptive_detours": 0},
        id="transpose-torus4x4"),
    pytest.param(
        "collbench", "fattree:k=4",
        CollBenchConfig(op="allreduce", rounds=4),
        "370ee4b92e045ffceba2b0af8845c5560738e2fec76d8a4f1dc92d26cb61db36",
        {"net.crossings": 536, "net.link_waits": 45,
         "net.hol_blocks": 7, "net.adaptive_detours": 0},
        id="allreduce-fattree-k4"),
]


@pytest.mark.parametrize("app,topology,config,digest,net", CASES)
def test_fabric_run_outcome_is_pinned(app, topology, config, digest, net):
    params = SimParams().replace(num_processors=16, topology=topology)
    stats, _ = run(app, params, "cni", config)
    assert {name: stats.metrics[name] for name in net} == net
    assert stats.digest() == digest
