"""Fat-tree fabric: up/down routing, path uniqueness, congestion."""

import pytest

from repro.engine import Simulator
from repro.network import (
    HEADER_BYTES,
    CellTrain,
    FatTreeTopology,
    Network,
    Packet,
    PacketKind,
    TopologyError,
    build_topology,
    parse_topology,
)
from repro.params import SimParams


def make_topo(k=4, nprocs=None):
    sim = Simulator()
    params = SimParams().replace(
        num_processors=nprocs or (k ** 3 // 4),
        topology=f"fattree:k={k}")
    net = Network(sim, params)
    return sim, params, net.topology, net


def train(params, src, dst, size=400):
    p = Packet(kind=PacketKind.DATA, src_node=src, dst_node=dst,
               channel_id=1, payload_bytes=size)
    return CellTrain(p, params.cells_for_packet(p.wire_bytes))


def test_network_builds_fattree():
    _sim, _params, topo, _net = make_topo(k=4)
    assert isinstance(topo, FatTreeTopology)
    assert topo.capacity == 16
    assert topo.describe() == "fattree:k=4"


def test_route_hop_counts_by_distance():
    _sim, _params, topo, _net = make_topo(k=4)
    # same edge switch (hosts 0,1 share edge 0 of pod 0): 2 host links
    assert len(topo.route(0, 1)) == 2
    # same pod, different edge: up to an agg and back down
    assert len(topo.route(0, 2)) == 4
    # different pods: edge -> agg -> core -> agg -> edge
    assert len(topo.route(0, 15)) == 6


def test_route_deterministic_and_unique_per_pair():
    _sim, _params, topo, _net = make_topo(k=4)
    for src in range(16):
        for dst in range(16):
            if src == dst:
                continue
            assert topo.route(src, dst) == topo.route(src, dst)


def test_down_path_is_destination_rooted():
    """Up/down uniqueness: once a train reaches the core, the way down
    to a given destination is the same no matter where it came from."""
    _sim, _params, topo, _net = make_topo(k=4)
    dst = 13
    suffixes = set()
    for src in range(16):
        if src == dst or src // 4 == dst // 4:
            continue  # inter-pod routes only (they transit a core)
        path = topo.route(src, dst)
        # core link + agg->edge + edge->host: the destination-rooted tail
        suffixes.add(tuple(path[-3:]))
    assert len(suffixes) == 1


def test_every_pair_delivers():
    sim, params, _topo, net = make_topo(k=2)  # 2 hosts, minimal tree
    net.send_train(train(params, 0, 1))
    sim.run()
    ok, t = net.rx_queues[1].try_get()
    assert ok and t.n_cells >= 1


def test_inter_pod_costs_more_than_same_edge():
    _sim, params, topo, _net = make_topo(k=4)
    wire_bytes = 448

    def timed(src, dst):
        sim = Simulator()
        p = SimParams().replace(num_processors=16, topology="fattree:k=4")
        net = Network(sim, p)
        out = []

        def proc():
            yield from net.transfer_and_wait(train(p, src, dst))
            out.append(sim.now)

        sim.spawn(proc(), "p")
        sim.run()
        return out[0]

    assert timed(0, 15) > timed(0, 1)


def test_output_queue_congestion_serializes():
    """Two trains converging on one host link queue FIFO: the second
    finishes one serialization later than the first."""
    sim, params, topo, net = make_topo(k=4)
    done = []

    def proc(tag, src, dst):
        yield from net.transfer_and_wait(train(params, src, dst))
        done.append((tag, sim.now))

    # hosts 4 and 5 sit under one edge switch and both target host 6 in
    # the next edge over: their host up-links run in parallel, then both
    # need the same edge->agg link at the same instant
    sim.spawn(proc("a", 4, 6), "a")
    sim.spawn(proc("b", 5, 6), "b")
    sim.run()
    assert topo.link_waits >= 1
    times = dict(done)
    assert times["a"] != times["b"]
    shared = topo.links["p1.e0.up.a0"]
    wire_bytes = train(params, 4, 6).packet.wire_bytes
    # the loser trails by exactly the winner's hold on the shared link:
    # propagation + serialization (FIFO output queueing, nothing else)
    gap = abs(times["a"] - times["b"])
    assert gap == pytest.approx(
        shared.latency_ns + shared.serialize_ns(wire_bytes))


def test_head_of_line_blocking_at_an_input_port():
    """C (5->6) takes the edge->agg link p1.e0.up.a0.  A (4->6) then
    waits for it while holding edge1.0's input port from host4.up, so B
    (4->5) queues behind A although its own output, host5.down, is
    free."""
    sim, params, topo, net = make_topo(k=4)
    arrived = {}

    def proc(tag, src, dst):
        yield from net.transfer_and_wait(train(params, src, dst))
        arrived[tag] = sim.now

    for tag, src, dst in (("C", 5, 6), ("A", 4, 6), ("B", 4, 5)):
        sim.spawn(proc(tag, src, dst), tag)
    sim.run()
    assert topo.hol_blocks == 1
    # B behind A on host4.up, A behind C on p1.e0.up.a0
    assert topo.link_waits == 2
    ser = topo.links["host4.up"].serialize_ns(
        train(params, 4, 5).packet.wire_bytes)
    # B leaves the input port when C's hold on p1.e0.up.a0 ends:
    # wire + crossing + propagation + two serializations; then its own
    # serialization on host5.down and the ejection wire
    assert arrived["B"] == 950.0 + 3 * ser


def test_rate_override_slows_only_its_link():
    sim = Simulator()
    params = SimParams().replace(num_processors=16, topology="fattree:k=4")
    net = Network(sim, params)
    # The network walks whatever fabric it holds: here one built with a
    # half-rate injection link.
    topo = net.topology = build_topology(sim, params, rate_overrides={
        "host0.up": params.link_rate_bps / 2})
    wire_bytes = 448
    t = train(params, 0, 1, size=wire_bytes - HEADER_BYTES)
    base = params.train_wire_time_ns(wire_bytes)
    assert topo.links["host0.up"].serialize_ns(wire_bytes) == 2 * base
    assert topo.links["host1.down"].serialize_ns(wire_bytes) == base
    sim.run_process(net.transfer_and_wait(t))
    # two host wires, a half-rate injection link, one edge crossing and
    # a full-rate ejection link
    assert sim.now == 2 * params.wire_latency_ns + 500.0 + 3 * base


def test_capacity_enforced():
    with pytest.raises(ValueError, match="does not fit"):
        SimParams().replace(num_processors=3, topology="fattree:k=2")
    sim = Simulator()
    spec = parse_topology("fattree:k=2")
    params = SimParams().replace(num_processors=2)
    topo = FatTreeTopology(sim, params, spec)
    with pytest.raises(TopologyError, match="attachment points"):
        topo.check_nodes(3)


def test_net_metrics_count_traffic():
    sim, params, topo, net = make_topo(k=4)
    net.send_train(train(params, 0, 15))
    sim.run()
    assert topo.crossings == 5   # edge, agg, core, agg, edge
    assert topo.link_hops == 6
