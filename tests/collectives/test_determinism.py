"""Platform equivalence and executor determinism for collectives.

The contract: steps on the NI processor and steps on the host produce
*identical collective results* (the combined values, not the timings),
and each platform's runs produce identical ``RunStats.digest()`` at any
``--jobs`` value.
"""

import pytest

from repro.collectives import CollBenchConfig, run_collective_bench
from repro.harness import RunSpec, run_map
from repro.harness.experiments import collective_latency_experiment
from repro.params import SimParams
from repro.runtime import Cluster

#: (interface, use_aih): the CNI, the standard NI and a CNI without AIH.
COMBOS = [("cni", True), ("standard", True), ("cni", False)]


def _params(nprocs, use_aih=True):
    return SimParams().replace(num_processors=nprocs, use_aih=use_aih,
                               dsm_address_space_pages=16)


def _collect_results(interface, use_aih, nprocs=3, rounds=3):
    """Every node's view of every collective result, keyed by round."""
    cluster = Cluster(_params(nprocs, use_aih), interface=interface)
    seen = {}

    def kernel(ctx):
        for r in range(rounds):
            yield from ctx.compute(400 * (1 + (ctx.rank + r) % 3))
            s = yield from ctx.allreduce([float(ctx.rank + r), 1.0])
            m = yield from ctx.allreduce(float(ctx.rank), op="max")
            b = yield from ctx.broadcast(s[0] if ctx.rank == 1 else None,
                                         root=1)
            seen[(ctx.rank, r)] = (s, m, b)
        yield from ctx.barrier()

    cluster.run(kernel)
    return seen


def test_engines_produce_identical_collective_results():
    results = [_collect_results(iface, aih) for iface, aih in COMBOS]
    assert results[0] == results[1] == results[2]
    # and every node agrees within a run
    for (rank, r), vals in results[0].items():
        assert vals == results[0][(0, r)]


@pytest.mark.parametrize("interface", [
    pytest.param("cni", id="nic-cni"),
    pytest.param("standard", id="host-standard"),
])
def test_digest_identical_at_any_jobs_value(interface):
    specs = [
        RunSpec("collbench", _params(p), interface,
                CollBenchConfig(op=op, rounds=3))
        for p in (1, 2, 4) for op in ("barrier", "allreduce")
    ]
    serial = run_map(specs, jobs=1, record=False)
    parallel = run_map(specs, jobs=2, record=False)
    assert [s.digest() for s in serial] == [s.digest() for s in parallel]


def test_repeated_runs_are_bit_identical():
    cfg = CollBenchConfig(op="allreduce", rounds=3)
    a = run_collective_bench(_params(3), "cni", cfg)[0]
    b = run_collective_bench(_params(3), "cni", cfg)[0]
    assert a.digest() == b.digest()
    assert a.elapsed_ns == b.elapsed_ns


def test_collectives_experiment_smoke():
    result = collective_latency_experiment((1, 2), rounds=2, jobs=1)
    assert result.xs == [1.0, 2.0]
    for curve in ("nic_barrier_us", "nic_allreduce_us",
                  "host_barrier_us", "host_allreduce_us"):
        ys = result.get(curve)
        assert len(ys) == 2
        assert all(y >= 0 for y in ys)
    # multi-node collectives cost real time, NIC strictly cheaper here
    assert 0 < result.get("nic_barrier_us")[1] \
        < result.get("host_barrier_us")[1]
