"""Tests for the messaging runtime's protocol layer (docs/runtime.md):
eager/rendezvous dispatch, one-sided RDMA, edge cases, determinism."""

import pytest

from repro.apps import (
    HaloConfig,
    PingPongConfig,
    TransposeConfig,
    run_pingpong,
    run_transpose,
)
from repro.engine import SimulationError
from repro.faults import CellLoss, FaultPlan
from repro.harness import RunSpec, run_map
from repro.obs import aggregate_nodes
from repro.params import SimParams
from repro.runtime import Cluster, MessagingService


def make_cluster(iface, nprocs=2, **over):
    params = SimParams().replace(
        num_processors=nprocs, dsm_address_space_pages=16, **over
    )
    return Cluster(params, interface=iface)


# ------------------------------------------------------- protocol dispatch --

def _pingpong_counts(message_bytes, threshold, rounds=2):
    stats, _ = run_pingpong(
        SimParams().replace(num_processors=2,
                            rendezvous_threshold=threshold),
        "cni", PingPongConfig(rounds=rounds, message_bytes=message_bytes))
    agg = aggregate_nodes(stats.metrics)
    return agg["runtime.eager_sends"], agg["runtime.rendezvous_sends"]


def test_threshold_boundary_is_inclusive():
    """size == threshold is still eager; threshold + 1 goes rendezvous."""
    eager, rdv = _pingpong_counts(2048, threshold=2048)
    assert (eager, rdv) == (4, 0)
    eager, rdv = _pingpong_counts(2049, threshold=2048)
    assert (eager, rdv) == (0, 4)


def test_zero_threshold_forces_rendezvous():
    eager, rdv = _pingpong_counts(64, threshold=0)
    assert (eager, rdv) == (0, 4)


@pytest.mark.parametrize("iface", ["cni", "standard"])
def test_rendezvous_delivers_large_payload(iface):
    """A 12 KB message (3 chunks) arrives once, intact, in order."""
    cluster = make_cluster(iface)
    got = []

    def kernel(ctx):
        svc = MessagingService(ctx)
        if ctx.rank == 0:
            yield from svc.send(1, 12288, payload=("big", 1))
        else:
            desc = yield from svc.recv()
            got.append(desc)
        yield from ctx.barrier(0)

    stats = cluster.run(kernel)
    (desc,) = got
    assert desc.length == 12288
    assert desc.payload == ("big", 1)
    agg = aggregate_nodes(stats.metrics)
    assert agg["runtime.rendezvous_sends"] == 1
    assert agg["runtime.rts_sent"] == 1
    assert agg["runtime.cts_sent"] == 1
    assert agg["runtime.rdv_chunks"] == 3


def test_rendezvous_send_not_bounded_by_buffer_bytes():
    """Eager is capped by buffer_bytes; rendezvous is not."""
    cluster = make_cluster("cni")

    def kernel(ctx):
        svc = MessagingService(ctx, buffer_bytes=1024)
        if ctx.rank == 0:
            with pytest.raises(ValueError):
                yield from svc.send_eager(1, 2048)
            yield from svc.send(1, 65536)  # rendezvous: fine
        else:
            desc = yield from svc.recv()
            assert desc.length == 65536
        yield from ctx.barrier(0)

    cluster.run(kernel)


@pytest.mark.parametrize("iface,notice", [
    ("cni", "poll_receives"), ("standard", "interrupt_receives"),
])
def test_each_delivered_message_counts_once(iface, notice):
    """An eager and a 16 KB rendezvous ping-pong each count every
    delivered message once, in the interface's notification mode."""
    other = ({"poll_receives", "interrupt_receives"} - {notice}).pop()
    for nbytes in (2048, 16384):
        stats, _ = run_pingpong(
            SimParams().replace(num_processors=2), iface,
            PingPongConfig(rounds=3, message_bytes=nbytes))
        agg = aggregate_nodes(stats.metrics)
        assert agg[f"nic.adc.{notice}"] == 6, nbytes
        assert agg[f"nic.adc.{other}"] == 0, nbytes


# ---------------------------------------------------------------- buffering --

def test_long_eager_pingpong_completes():
    """More eager messages reach one CNI node than a channel's queue
    depth (256), and each is announced once."""
    stats, _ = run_pingpong(SimParams().replace(num_processors=2), "cni",
                            PingPongConfig(rounds=300, message_bytes=2048))
    agg = aggregate_nodes(stats.metrics)
    assert agg["runtime.eager_sends"] == 600
    assert agg["nic.adc.poll_receives"] == 600


def test_receive_buffer_exhaustion_drops_and_recovers():
    """With one posted buffer and a busy receiver, extra eager arrivals
    drop on the free queue (counted), and a recv re-posts the buffer."""
    cluster = make_cluster("cni")
    got = []

    def kernel(ctx):
        svc = MessagingService(ctx, n_recv_buffers=1, buffer_bytes=4096)
        if ctx.rank == 0:
            for i in range(3):
                yield from svc.send(1, 4096, payload=i)
            yield from ctx.compute(50_000_000)
            yield from svc.send(1, 4096, payload=3)
        else:
            yield from ctx.compute(5_000_000)
            desc = yield from svc.recv()
            got.append(desc.payload)
            desc = yield from svc.recv()
            got.append(desc.payload)

    stats = cluster.run(kernel)
    # First arrival took the only buffer; arrivals 2 and 3 found the
    # free queue empty and were dropped.
    assert stats.counters["nic_no_free_buffer"] == 2
    assert got == [0, 3]


def test_rendezvous_immune_to_free_queue_exhaustion():
    """Rendezvous data bypasses the free queue (engine-allocated landing
    buffer), so a busy receiver with one posted buffer loses nothing."""
    cluster = make_cluster("cni")
    got = []

    def kernel(ctx):
        svc = MessagingService(ctx, n_recv_buffers=1, buffer_bytes=4096)
        if ctx.rank == 0:
            for i in range(3):
                yield from svc.send(1, 8192, payload=i)
        else:
            yield from ctx.compute(5_000_000)
            for _ in range(3):
                desc = yield from svc.recv()
                got.append(desc.payload)
        yield from ctx.barrier(0)

    stats = cluster.run(kernel)
    assert got == [0, 1, 2]
    assert stats.counters["nic_no_free_buffer"] == 0


# -------------------------------------------------------------- reliability --

def test_unacked_sends_drain_under_loss():
    """With the reliable transport on and a lossy fabric, every node's
    retransmission window is empty once the run completes."""
    # Deterministic sparse loss: every 200th cell.  A random rate would
    # occasionally kill the same retransmitted train 10 times in a row
    # and trip DeliveryFailed; nth loss spreads drops across the run.
    plan = FaultPlan(seed=7, schedules=(CellLoss(nth=200),))
    cluster = make_cluster("cni", reliable_transport=True, fault_plan=plan)
    leftover = {}

    def kernel(ctx):
        svc = MessagingService(ctx)
        peer = 1 - ctx.rank
        for r in range(4):
            if ctx.rank == 0:
                yield from svc.send(peer, 6144, payload=r)
                desc = yield from svc.recv()
                assert desc.payload == r
            else:
                desc = yield from svc.recv()
                assert desc.payload == r
                yield from svc.send(peer, 6144, payload=r)
        yield from ctx.barrier(0)
        # Barrier traffic is reliable too; drain anything still in
        # flight before sampling.
        while svc.unacked_sends():
            yield from ctx.idle(1000)
        leftover[ctx.rank] = svc.unacked_sends()

    stats = cluster.run(kernel)
    assert leftover == {0: 0, 1: 0}
    # The plan actually did damage, or this test proves nothing.
    agg = aggregate_nodes(stats.metrics)
    assert agg["faults.cells_dropped"] > 0


# ------------------------------------------------------------------- RDMA --

def test_remote_read_and_write_round_trip():
    cluster = make_cluster("cni")
    seen = {}

    def kernel(ctx):
        svc = MessagingService(ctx)
        window = svc.expose(4096)
        yield from ctx.barrier(0)
        if ctx.rank == 0:
            got = yield from svc.remote_read(1, window, 4096)
            seen["read_bytes"] = got
            yield from svc.remote_write(1, window, 2048)
        yield from ctx.barrier(1)

    stats = cluster.run(kernel)
    assert seen["read_bytes"] == 4096
    agg = aggregate_nodes(stats.metrics)
    assert agg["runtime.remote_reads"] == 1
    assert agg["runtime.remote_writes"] == 1
    assert agg["runtime.rdma_bytes"] == 4096 + 2048


def test_remote_read_mcache_advantage_on_cni():
    """Repeated reads of an unmodified window: the CNI's reply path hits
    the target's Message Cache; the standard interface has no cache."""
    def hit_ratio(iface):
        stats, _ = run_pingpong(
            SimParams().replace(num_processors=2), iface,
            PingPongConfig(rounds=6, message_bytes=2048, mode="read"))
        lookups = stats.counters.get("mc_transmit_lookups")
        return (stats.counters.get("mc_transmit_hits") / lookups
                if lookups else 0.0)

    assert hit_ratio("cni") > hit_ratio("standard")
    assert hit_ratio("standard") == 0.0


def test_unregistered_window_faults_loudly():
    """A one-sided access outside any exposed window is a simulation
    error on the target, not a silent wild DMA."""
    cluster = make_cluster("cni")

    def kernel(ctx):
        svc = MessagingService(ctx)
        window = svc.expose(4096)
        yield from ctx.barrier(0)
        if ctx.rank == 0:
            # One byte past the end of the registered range.
            yield from svc.remote_read(1, window + 1, 4096)
        yield from ctx.barrier(1)

    with pytest.raises(SimulationError, match="remote_read"):
        cluster.run(kernel)


@pytest.mark.parametrize("topology,nprocs", [
    ("torus:2x2:adaptive", 4),
    ("torus:4x4:adaptive", 16),
])
def test_rendezvous_completes_when_last_chunk_overtakes(topology, nprocs):
    """Minimal-adaptive torus routing can deliver a stream's ``last``
    chunk before the ones ahead of it; the receiver completes the
    stream on its byte count and still hands the app its payload (the
    transpose kernel checks every block's sender and round)."""
    params = SimParams().replace(num_processors=nprocs, topology=topology)
    stats, _ = run_transpose(params, "cni",
                             TransposeConfig(rounds=6, block_bytes=8192))
    assert stats.elapsed_ns > 0


# ------------------------------------------------------------- determinism --

def test_messaging_workloads_digest_deterministic_across_jobs():
    base = SimParams().replace(num_processors=4)
    specs = [
        RunSpec("pingpong", base.replace(num_processors=2), "cni",
                PingPongConfig(rounds=3, message_bytes=6144)),
        RunSpec("halo", base, "cni", HaloConfig(iters=2, halo_bytes=1024)),
        RunSpec("transpose", base, "standard",
                TransposeConfig(rounds=1, block_bytes=8192)),
    ]
    serial = run_map(specs, jobs=1, record=False)
    parallel = run_map(specs, jobs=2, record=False)
    assert [s.digest() for s in serial] == [s.digest() for s in parallel]
