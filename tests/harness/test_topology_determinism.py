"""Digest determinism on every fabric: a workload run on the default
banyan, a fat-tree or a torus must produce bit-identical
``RunStats.digest()`` values whether it executes in-process
(``--jobs 1``) or in a worker pool."""

import pytest

from repro.apps import CollBenchConfig, JacobiConfig
from repro.harness import RunSpec, parallel, pool_size, run_map, shutdown_pool
from repro.params import SimParams


@pytest.fixture(autouse=True)
def _four_cores(monkeypatch):
    """Exercise the real pool even on a 1-core host — the cpu-aware
    clamp would otherwise route jobs>1 inline (docs/parallel_runs.md)."""
    monkeypatch.setattr(parallel, "effective_cores", lambda: 4)


def topo_specs(topology, nprocs):
    params = SimParams().replace(num_processors=nprocs)
    if topology:
        params = params.replace(topology=topology)
    return [
        RunSpec("jacobi", params, iface,
                workload=JacobiConfig(n=32, iterations=2))
        for iface in ("cni", "standard")
    ] + [
        RunSpec("collbench", params, "cni",
                workload=CollBenchConfig(op="allreduce", rounds=2)),
    ]


@pytest.mark.parametrize("topology,nprocs", [
    ("", 4),  # the default fabric, SimParams() untouched
    ("fattree:k=4", 4),
    ("torus:2x2", 4),
    ("torus:2x2x2:adaptive", 8),
])
def test_jobs_1_and_jobs_2_digests_identical(topology, nprocs):
    specs = topo_specs(topology, nprocs)
    serial = run_map(specs, jobs=1, record=False)
    pooled = run_map(specs, jobs=2, record=False)
    assert [s.digest() for s in serial] == [s.digest() for s in pooled]
    assert [s.metrics for s in serial] == [s.metrics for s in pooled]


def test_net_metrics_survive_the_pool_round_trip():
    """Workers pickle RunStats back to the parent; the fabric counters
    must arrive intact, not just the digest.  Two specs, so that the
    pool runs them (one spec runs in-process)."""
    shutdown_pool()
    runs = run_map(topo_specs("torus:2x2", 4)[1:], jobs=2, record=False)
    assert pool_size() >= 2
    for stats in runs:
        assert stats.metrics["net.crossings"] > 0
        assert stats.metrics["net.link_hops"] >= \
            stats.metrics["net.crossings"]


def test_topologies_are_distinct_machines():
    """Same workload, three fabrics: three different digests (the
    topology is part of the simulated machine, not a view option)."""
    wl = JacobiConfig(n=32, iterations=2)

    def digest(topology):
        params = SimParams().replace(num_processors=4, topology=topology)
        spec = RunSpec("jacobi", params, "cni", wl)
        return run_map([spec], jobs=1, record=False)[0].digest()

    digests = {digest(t) for t in
               ("banyan:32", "fattree:k=4", "torus:2x2")}
    assert len(digests) == 3
