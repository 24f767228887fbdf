"""Unit + integration tests for the NIC-resident reliable transport."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeliveryFailed, ReliableTransport
from repro.engine import Simulator
from repro.faults import CellLoss, FaultPlan
from repro.network import Packet, PacketKind
from repro.obs import aggregate_nodes
from repro.params import SimParams
from repro.runtime import Cluster, MessagingService


def packet(src=0, dst=1, chan=3, seq=None, kind=PacketKind.DATA):
    return Packet(
        kind=kind, src_node=src, dst_node=dst, channel_id=chan,
        payload_bytes=256, rel_seq=seq,
    )


class StubNic:
    """Just enough NIC for the sender-side unit tests."""

    def __init__(self):
        self.requeued = []
        self.tx_queue = self

    def put(self, item):
        self.requeued.append(item)


def make_transport(**over):
    sim = Simulator()
    params = SimParams().replace(reliable_transport=True, **over)
    nic = StubNic()
    return sim, nic, ReliableTransport(sim, params, nic)


# -- sender side --------------------------------------------------------------

def test_disabled_transport_is_passthrough():
    sim = Simulator()
    rel = ReliableTransport(sim, SimParams(), StubNic())
    p = packet()
    rel.on_transmit(p)
    assert p.rel_seq is None and rel.outstanding() == 0
    assert rel.on_receive(p) == [p]


def test_transmit_assigns_per_connection_sequences():
    _, _, rel = make_transport()
    a, b = packet(dst=1), packet(dst=1)
    other = packet(dst=2)
    for p in (a, b, other):
        rel.on_transmit(p)
    assert (a.rel_seq, b.rel_seq) == (0, 1)
    assert other.rel_seq == 0  # independent connection
    assert rel.outstanding() == 3


def test_ack_cancels_timer_and_clears_pending():
    sim, _, rel = make_transport()
    p = packet()
    rel.on_transmit(p)
    rel.on_ack(rel.make_ack(p, node_id=1))
    assert rel.outstanding() == 0
    sim.run()  # no timeout may fire
    assert rel.timeouts == 0 and rel.retransmits == 0


def test_timeout_requeues_same_packet_with_backoff():
    sim, nic, rel = make_transport(
        reliab_timeout_ns=1000.0, reliab_backoff=2.0, reliab_max_attempts=3)
    p = packet()
    rel.on_transmit(p)
    sim.run(until=1500.0)
    assert nic.requeued == [p]  # the SAME object: mcache-hit on resend
    rel.on_transmit(p)  # NIC drains its queue -> transmit again
    # second timer is backed off: 2000 ns from the retransmission
    sim.run(until=3000.0)
    assert rel.retransmits == 1
    sim.run(until=4000.0)
    assert rel.retransmits == 2 and nic.requeued == [p, p]


def test_retry_budget_raises_delivery_failed():
    sim, _, rel = make_transport(
        reliab_timeout_ns=100.0, reliab_max_attempts=1)
    p = packet()
    rel.on_transmit(p)
    with pytest.raises(DeliveryFailed) as exc:
        sim.run()
    assert exc.value.packet is p
    assert exc.value.attempts == 1
    assert "node0->node1" in str(exc.value)
    assert rel.delivery_failures == 1


def test_late_ack_suppresses_queued_retransmission():
    sim, nic, rel = make_transport(reliab_timeout_ns=100.0)
    p = packet()
    rel.on_transmit(p)
    sim.run(until=150.0)           # timeout fired, packet re-queued
    rel.on_ack(rel.make_ack(p, 1))  # ack arrives before the NIC resends
    rel.on_transmit(p)             # NIC drains the queue anyway
    sim.run()
    assert rel.retransmits == 1    # no further timers were armed
    assert nic.requeued == [p]


# -- receiver side ------------------------------------------------------------

def test_in_order_delivery():
    _, _, rel = make_transport()
    a, b = packet(seq=0), packet(seq=1)
    assert rel.on_receive(a) == [a]
    assert rel.on_receive(b) == [b]


def test_duplicate_suppressed_but_ackable():
    _, _, rel = make_transport()
    a = packet(seq=0)
    rel.on_receive(a)
    assert rel.dup_drops == 0
    assert rel.on_receive(packet(seq=0)) == []
    assert rel.dup_drops == 1


def test_reorder_buffered_then_drained_in_order():
    _, _, rel = make_transport()
    s2, s0, s1 = packet(seq=2), packet(seq=0), packet(seq=1)
    assert rel.on_receive(s2) == []
    assert rel.on_receive(s0) == [s0]
    assert rel.on_receive(s1) == [s1, s2]
    assert rel.reorder_buffered == 1
    assert rel.dup_drops == 0
    # a copy of the buffered-then-delivered seq is now a duplicate
    assert rel.on_receive(packet(seq=2)) == []
    assert rel.dup_drops == 1


def test_streams_are_per_connection():
    _, _, rel = make_transport()
    a = packet(src=0, chan=3, seq=0)
    b = packet(src=1, chan=3, seq=0)
    c = packet(src=0, chan=4, seq=0)
    for p in (a, b, c):
        assert rel.on_receive(p) == [p]
    assert rel.dup_drops == 0


#: Three receive connections ``(src_node, channel_id)``: two share a
#: source, two share a channel, so a stream keyed on either alone mixes.
CONNECTIONS = ((0, 3), (1, 3), (0, 4))


@given(st.lists(st.tuples(st.sampled_from(CONNECTIONS), st.integers(0, 7)),
                max_size=40))
@settings(max_examples=200, deadline=None)
def test_receive_delivers_exactly_once_in_order(arrivals):
    # Any interleaving of arrivals, repeats included: per connection the
    # delivered sequence numbers are always 0..k-1, once each and in
    # order, where k is the longest prefix received so far; each
    # delivery is the first copy of its packet; exactly the repeats are
    # refused (nothing ready) and counted.
    _, _, rel = make_transport()
    first = {conn: {} for conn in CONNECTIONS}
    delivered = {conn: [] for conn in CONNECTIONS}
    repeats = 0
    for (src, chan), seq in arrivals:
        p = packet(src=src, chan=chan, seq=seq)
        received = first[(src, chan)]
        repeat = seq in received
        received.setdefault(seq, p)
        repeats += repeat
        drops = rel.dup_drops
        ready = rel.on_receive(p)
        assert rel.dup_drops - drops == repeat
        if repeat:
            assert ready == []
        for q in ready:
            delivered[(q.src_node, q.channel_id)].append(q)
        for conn in CONNECTIONS:
            k = 0
            while k in first[conn]:
                k += 1
            assert [q.rel_seq for q in delivered[conn]] == list(range(k))
            assert all(q is first[conn][q.rel_seq] for q in delivered[conn])
    assert rel.dup_drops == repeats


def test_make_ack_shape():
    _, _, rel = make_transport()
    ack = rel.make_ack(packet(src=0, dst=1, seq=5), node_id=1)
    assert ack.kind is PacketKind.ACK
    assert (ack.src_node, ack.dst_node) == (1, 0)
    assert ack.rel_seq == 5
    assert ack.payload_bytes == 0
    assert not ack.reliable  # acks are never themselves acked


# -- cluster integration ------------------------------------------------------

def send_recv_kernel(ctx):
    svc = MessagingService(ctx)
    if ctx.rank == 0:
        yield from svc.touch_send_buffer(1024)
        yield from svc.send(1, 1024)
        assert svc.unacked_sends() <= 1
    else:
        yield from svc.recv()


@pytest.mark.parametrize("interface", ["cni", "standard"])
def test_clean_run_acks_without_retransmits(interface):
    params = SimParams().replace(
        num_processors=2, reliable_transport=True, dsm_address_space_pages=16)
    cluster = Cluster(params, interface=interface)
    stats = cluster.run(send_recv_kernel)
    agg = aggregate_nodes(stats.metrics)
    assert agg["nic.reliab.acks_received"] >= 1
    assert agg["nic.reliab.retransmits"] == 0
    assert agg["nic.reliab.dup_drops"] == 0
    for node in cluster.nodes:
        assert node.nic.reliab.outstanding() == 0


@pytest.mark.parametrize("interface", ["cni", "standard"])
def test_windowed_total_loss_recovers_by_retransmission(interface):
    # Everything sent in the first 100 us dies; the ~500 us retransmit
    # goes through and the receive completes exactly once.
    plan = FaultPlan(seed=5, schedules=(
        CellLoss(rate=1.0, from_ns=0, to_ns=100_000),))
    params = SimParams().replace(
        num_processors=2, reliable_transport=True, fault_plan=plan,
        dsm_address_space_pages=16)
    cluster = Cluster(params, interface=interface)
    stats = cluster.run(send_recv_kernel)
    agg = aggregate_nodes(stats.metrics)
    assert agg["nic.reliab.retransmits"] >= 1
    assert agg["faults.cells_dropped"] >= 1
    for node in cluster.nodes:
        assert node.nic.reliab.outstanding() == 0


def test_lost_ack_causes_duplicate_suppression():
    # Data (0 -> 1) flows clean; the 1 -> 0 ack path is dead early on, so
    # node 0 retransmits and node 1 must suppress the duplicate.
    plan = FaultPlan(seed=9, schedules=(
        CellLoss(rate=1.0, src=1, dst=0, from_ns=0, to_ns=600_000),))
    params = SimParams().replace(
        num_processors=2, reliable_transport=True, fault_plan=plan,
        dsm_address_space_pages=16)
    cluster = Cluster(params, interface="cni")
    stats = cluster.run(send_recv_kernel)
    agg = aggregate_nodes(stats.metrics)
    assert agg["nic.reliab.retransmits"] >= 1
    assert agg["nic.reliab.dup_drops"] >= 1


def test_total_loss_raises_delivery_failed_from_cluster_run():
    plan = FaultPlan(seed=3, schedules=(CellLoss(rate=1.0),))
    params = SimParams().replace(
        num_processors=2, reliable_transport=True, fault_plan=plan,
        reliab_max_attempts=3, dsm_address_space_pages=16)
    cluster = Cluster(params, interface="cni")
    with pytest.raises(DeliveryFailed) as exc:
        cluster.run(send_recv_kernel)
    assert exc.value.attempts == 3
