"""Tests for cluster assembly and run mechanics."""

import pytest

from repro.engine import SimulationError
from repro.params import SimParams
from repro.runtime import Cluster


def params(n=2):
    return SimParams().replace(num_processors=n, dsm_address_space_pages=16)


def test_bad_interface_rejected():
    with pytest.raises(ValueError):
        Cluster(params(), interface="myrinet")


def test_standard_interface_forces_features_off():
    cluster = Cluster(params(), interface="standard")
    assert not cluster.params.use_message_cache
    assert not cluster.params.use_aih


def test_cni_keeps_ablation_flags():
    p = params().replace(receive_caching=False)
    cluster = Cluster(p, interface="cni")
    assert not cluster.params.receive_caching
    assert cluster.params.use_message_cache  # untouched


def test_cluster_runs_once():
    cluster = Cluster(params(), interface="cni")

    def kernel(ctx):
        yield from ctx.compute(10)

    cluster.run(kernel)
    with pytest.raises(SimulationError):
        cluster.run(kernel)


def test_deadlock_reported_with_names():
    cluster = Cluster(params(), interface="cni")

    def kernel(ctx):
        if ctx.rank == 0:
            yield from ctx.barrier()  # rank 1 never arrives
        else:
            yield from ctx.compute(1)

    with pytest.raises(SimulationError, match="app0"):
        cluster.run(kernel)


def test_max_events_bounds_runaway():
    cluster = Cluster(params(), interface="cni")

    def kernel(ctx):
        while True:
            yield from ctx.compute(10)

    with pytest.raises(SimulationError):
        cluster.run(kernel, max_events=500)


def test_home_schemes():
    for scheme in ("round_robin", "block", "node0"):
        cluster = Cluster(params(), interface="cni", home_scheme=scheme)
        assert cluster.homes.scheme == scheme
    with pytest.raises(ValueError):
        Cluster(params(), interface="cni", home_scheme="chaotic")


def test_run_stats_shape():
    cluster = Cluster(params(3), interface="cni")

    def kernel(ctx):
        yield from ctx.compute(100)
        yield from ctx.barrier()

    stats = cluster.run(kernel)
    assert len(stats.per_processor) == 3
    assert stats.elapsed_ns > 0
    assert cluster.message_cache_hit_ratio() == stats.network_cache_hit_ratio


def test_dsm_channel_setup_cni():
    cluster = Cluster(params(), interface="cni")
    for node in cluster.nodes:
        assert node.dsm_channel_id == 1
        assert node.nic.pathfinder.pattern_count > 0
        assert node.nic.handlers.used_bytes > 0


def test_alloc_shared_exhaustion():
    cluster = Cluster(params(), interface="cni")
    with pytest.raises(MemoryError):
        cluster.alloc_shared((1024 * 1024,))  # 8 MB > 16 pages
