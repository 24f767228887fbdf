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
    assert not cluster.params.transmit_caching
    assert not cluster.params.receive_caching
    assert not cluster.params.use_aih


def test_cni_keeps_ablation_flags():
    p = params().replace(receive_caching=False)
    cluster = Cluster(p, interface="cni")
    assert not cluster.params.receive_caching
    assert cluster.params.transmit_caching  # untouched


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
    for scheme in ("round_robin", "block"):
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


def test_dsm_channel_setup_cni():
    cluster = Cluster(params(), interface="cni")
    for node in cluster.nodes:
        assert node.dsm_channel_id == 1
        assert node.nic.pathfinder.pattern_count > 0
        assert node.nic.handlers.used_bytes > 0


def test_boards_share_one_program_copy_on_write():
    """Every CNI board runs the cluster's one PATHFINDER program: 32
    patterns each, earliest-installed wins, and a handler installed on
    one board after setup programs that board alone."""
    from repro.core import AIH_TARGET
    from repro.network import Packet, PacketKind

    cluster = Cluster(params(3), interface="cni")
    pfs = [node.nic.pathfinder for node in cluster.nodes]
    assert [pf.pattern_count for pf in pfs] == [32] * len(pfs)
    late = Packet(kind=PacketKind.DSM_PROTOCOL, src_node=0, dst_node=1,
                  channel_id=1, handler_key=0x4242).header_bytes()
    cluster.nodes[1].nic.install_protocol_handler(
        0x4242, lambda packet, on_board: None, 1024)
    assert pfs[1].pattern_count == 34
    assert pfs[1].classify(late) == (AIH_TARGET, 0x4242)
    for i in (0, 2):
        assert pfs[i].pattern_count == 32
        assert pfs[i].classify(late) is None


def test_alloc_shared_exhaustion():
    cluster = Cluster(params(), interface="cni")
    with pytest.raises(MemoryError):
        cluster.alloc_shared((1024 * 1024,))  # 8 MB > 16 pages


def test_collectives_only_run_builds_no_cache_arrays():
    """A level's arrays exist from its first touch, and an all-reduce
    never touches memory: after a collbench run on a 16-node fat-tree
    every node's L1 and L2 still hold no tag or dirty array."""
    from repro.collectives import CollBenchConfig, collective_kernel

    p = params(16).replace(topology="fattree:k=4")
    cluster = Cluster(p, interface="cni")
    cfg = CollBenchConfig("allreduce", rounds=2)
    stats = cluster.run(lambda ctx: collective_kernel(ctx, cfg))
    assert all(stats.metrics[f"node{i}.coll.ops_completed"] == 2
               for i in range(16))
    for node in cluster.nodes:
        for level in (node.cache.l1, node.cache.l2):
            assert not {"tags", "dirty"} & vars(level).keys(), (
                node.node_id, level.name)
