"""Collective-engine unit/behaviour tests: op semantics on the model's
three platforms, where the protocol steps run, typed errors, and the
zero-host-interrupt claim."""

import pytest

from repro.collectives import (
    CollArrive,
    CollectiveEngine,
    CollectiveError,
    CollMsgType,
    combine,
    reduce_values,
    value_wire_bytes,
)
from repro.obs import aggregate_nodes
from repro.params import SimParams
from repro.runtime import Cluster

#: (interface, use_aih) of the platforms every behaviour test runs on,
#: named for where the collective steps run: the CNI's AIHs, the
#: standard NI's host, and the host of a CNI with AIH ablated away
#: (its board bounces every protocol packet to the host).
PLATFORMS = [
    pytest.param("cni", True, id="nic-cni"),
    pytest.param("standard", True, id="host-standard"),
    pytest.param("cni", False, id="host-cni"),
]


def make_cluster(nprocs=3, interface="cni", **over):
    params = SimParams().replace(
        num_processors=nprocs, dsm_address_space_pages=16, **over)
    return Cluster(params, interface=interface)


# ---------------------------------------------------------------- ops --

def test_combine_and_reduce_values():
    assert combine("sum", 2, 3) == 5
    assert combine("max", [1, 9], [5, 2]) == [5, 9]
    assert reduce_values("prod", {0: 2, 1: 3, 2: 4}) == 24
    assert reduce_values("min", {1: [4, 5], 0: [2, 9]}) == [2, 5]
    with pytest.raises(CollectiveError):
        combine("mean", 1, 2)
    with pytest.raises(CollectiveError):
        combine("sum", [1, 2], [1])
    with pytest.raises(CollectiveError):
        reduce_values("sum", {})
    assert value_wire_bytes(None) == 0
    assert value_wire_bytes(1.0) == 8
    assert value_wire_bytes([1, 2, 3]) == 24


# ------------------------------------------------------- op semantics --

@pytest.mark.parametrize("interface,use_aih", PLATFORMS)
def test_allreduce_every_node_gets_combined_value(interface, use_aih):
    cluster = make_cluster(3, interface, use_aih=use_aih)
    got = {}

    def kernel(ctx):
        result = yield from ctx.allreduce([float(ctx.rank), 1.0], op="sum")
        got[ctx.rank] = result

    cluster.run(kernel)
    assert got == {0: [3.0, 3.0], 1: [3.0, 3.0], 2: [3.0, 3.0]}


@pytest.mark.parametrize("interface,use_aih", PLATFORMS)
def test_reduce_only_root_gets_result(interface, use_aih):
    cluster = make_cluster(3, interface, use_aih=use_aih)
    got = {}

    def kernel(ctx):
        result = yield from ctx.reduce(ctx.rank + 1, op="prod", root=1)
        got[ctx.rank] = result
        yield from ctx.barrier()  # drain in-flight releases before exit

    cluster.run(kernel)
    assert got == {0: None, 1: 6, 2: None}


@pytest.mark.parametrize("interface,use_aih", PLATFORMS)
def test_broadcast_delivers_root_value(interface, use_aih):
    cluster = make_cluster(3, interface, use_aih=use_aih)
    got = {}

    def kernel(ctx):
        value = 42.0 if ctx.rank == 2 else None
        result = yield from ctx.broadcast(value, root=2)
        got[ctx.rank] = result

    cluster.run(kernel)
    assert got == {0: 42.0, 1: 42.0, 2: 42.0}


@pytest.mark.parametrize("interface,use_aih", PLATFORMS)
def test_multicast_hits_only_destinations(interface, use_aih):
    cluster = make_cluster(4, interface, use_aih=use_aih)
    got = {}

    def kernel(ctx):
        value = [7.0] if ctx.rank == 0 else None
        result = yield from ctx.multicast(value, dests=(1, 3), src=0)
        got[ctx.rank] = result
        yield from ctx.barrier()

    cluster.run(kernel)
    assert got == {0: [7.0], 1: [7.0], 2: None, 3: [7.0]}


@pytest.mark.parametrize("interface,use_aih", PLATFORMS)
def test_mixed_collectives_and_dsm_barriers_interleave(interface, use_aih):
    cluster = make_cluster(2, interface, use_aih=use_aih)
    got = {}

    def kernel(ctx):
        yield from ctx.barrier()
        s = yield from ctx.allreduce(ctx.rank + 1.0)
        b = yield from ctx.broadcast(s * 10 if ctx.rank == 0 else None,
                                     root=0)
        yield from ctx.barrier(1)
        m = yield from ctx.reduce(b, op="max", root=0)
        got[ctx.rank] = (s, b, m)
        yield from ctx.barrier()

    cluster.run(kernel)
    assert got == {0: (3.0, 30.0, 30.0), 1: (3.0, 30.0, None)}


# ------------------------------------------------------- typed errors --

def test_duplicate_arrival_raises_collective_error():
    coll = make_cluster(2).nodes[0].coll
    msg = CollArrive(0, "barrier", 0, 1, "sum", None, 0)
    coll._arrive_logic(msg)
    with pytest.raises(CollectiveError):
        coll._arrive_logic(CollArrive(0, "barrier", 0, 1, "sum", None, 0))


def test_unknown_participant_raises_collective_error():
    coll = make_cluster(2).nodes[0].coll
    with pytest.raises(CollectiveError):
        coll._arrive_logic(CollArrive(0, "barrier", 0, 5, "sum", None, 0))
    # CollectiveError subclasses ValueError: legacy handlers still catch.
    assert issubclass(CollectiveError, ValueError)


def test_mixed_op_episode_raises_collective_error():
    coll = make_cluster(3).nodes[0].coll
    coll._arrive_logic(CollArrive(0, "allreduce", 0, 1, "sum", 1.0, 8))
    with pytest.raises(CollectiveError):
        coll._arrive_logic(CollArrive(0, "allreduce", 0, 2, "max", 1.0, 8))


def test_unknown_reducer_rejected():
    cluster = make_cluster(2)

    def kernel(ctx):
        with pytest.raises(CollectiveError):
            yield from ctx.allreduce(1.0, op="median")
        yield from ctx.barrier()

    cluster.run(kernel)


# --------------------------------------------- zero host interrupts --

def barrier_kernel(rounds=4):
    def kernel(ctx):
        for r in range(rounds):
            yield from ctx.compute(500 * (1 + ctx.rank))
            yield from ctx.allreduce(float(ctx.rank))
            yield from ctx.barrier()
    return kernel


def test_nic_engine_runs_collectives_without_host_steps():
    cluster = make_cluster(4)
    stats = cluster.run(barrier_kernel())
    agg = aggregate_nodes(stats.metrics)
    assert agg["coll.host_steps"] == 0
    assert agg["coll.nic_steps"] > 0
    assert agg["nic.aih.dispatches"] > 0
    assert agg["coll.ops_completed"] == 4 * 8  # 4 nodes x (4+4) ops


def test_host_engine_takes_host_steps_on_standard_interface():
    cluster = make_cluster(4, interface="standard")
    stats = cluster.run(barrier_kernel())
    agg = aggregate_nodes(stats.metrics)
    assert agg["coll.nic_steps"] == 0
    assert agg["coll.host_steps"] > 0
    # the standard NIC interrupted the host for every protocol packet
    assert agg["nic.rx.host_interrupts"] >= agg["coll.host_steps"]


def test_host_engine_on_cni_bounces_to_host():
    """A CNI without AIH bounces every collective packet to its host:
    the board charges one interrupt and kernel trap, then the step costs
    the host its protocol cycles — each exactly once per packet."""
    cluster = make_cluster(4, use_aih=False)
    p = cluster.params
    stolen = []
    for node in cluster.nodes:
        def steal(ns, steal=node.steal_host_time):
            stolen.append(ns)
            steal(ns)
        node.steal_host_time = steal
    stats = cluster.run(barrier_kernel())
    agg = aggregate_nodes(stats.metrics)
    steps = agg["coll.host_steps"]
    assert agg["coll.nic_steps"] == 0 and steps > 0
    bounce = p.interrupt_latency_ns + p.cpu_cycles_ns(p.kernel_trap_cycles)
    step = p.cpu_cycles_ns(p.host_protocol_cycles)
    assert stolen.count(bounce) == steps
    assert stolen.count(step) == steps
    assert len(stolen) == 2 * steps


# ------------------------------------------------ where the steps run --

def test_engine_resolution_follows_platform():
    """One engine, three platforms: where a collective step runs is
    resolved from the board.  A CNI with AIH runs every inbound step on
    the NI processor; the standard NI and a CNI without AIH run every
    one on the host, with no AIH dispatch.  The packets are the same, so
    the step count is too."""
    steps = []
    for platform in PLATFORMS:
        interface, use_aih = platform.values
        stats = make_cluster(4, interface, use_aih=use_aih).run(
            barrier_kernel())
        agg = aggregate_nodes(stats.metrics)
        board, host = agg["coll.nic_steps"], agg["coll.host_steps"]
        dispatches = agg.get("nic.aih.dispatches", 0)
        if platform.id == "nic-cni":
            assert host == 0
            assert dispatches == board
            steps.append(board)
        else:
            assert board == 0 and dispatches == 0
            steps.append(host)
    assert steps[0] > 0 and steps == [steps[0]] * 3


def test_cluster_engines_match_selection():
    """Every platform builds the one engine per node, rooted at the
    barrier manager with the DSM engine as its consistency attachment.
    Only a CNI programs the collective message types as board handlers
    (with AIH ablated away the same patterns bounce to the host)."""
    for platform in PLATFORMS:
        interface, use_aih = platform.values
        cluster = make_cluster(3, interface, use_aih=use_aih)
        for node in cluster.nodes:
            coll = node.coll
            assert type(coll) is CollectiveEngine
            assert coll.node is node and coll.me == node.node_id
            assert coll.root == cluster.homes.barrier_manager
            assert coll.consistency is node.engine
            if interface == "cni":
                assert all(node.nic.handlers.installed(int(t))
                           for t in CollMsgType)
            else:
                assert not hasattr(node.nic, "handlers")
