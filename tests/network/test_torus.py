"""Torus fabric: dimension-order routing, wraparound, adaptive escape."""

import pytest

from repro.engine import Simulator
from repro.network import (
    CellTrain,
    Network,
    Packet,
    PacketKind,
    TorusTopology,
)
from repro.params import SimParams


def make_net(spec="torus:4x4", nprocs=None):
    sim = Simulator()
    from repro.network import parse_topology

    cap = parse_topology(spec).capacity
    params = SimParams().replace(num_processors=nprocs or cap,
                                 topology=spec)
    net = Network(sim, params)
    return sim, params, net.topology, net


def train(params, src, dst, size=400):
    p = Packet(kind=PacketKind.DATA, src_node=src, dst_node=dst,
               channel_id=1, payload_bytes=size)
    return CellTrain(p, params.cells_for_packet(p.wire_bytes))


def test_network_builds_torus():
    _sim, _params, topo, _net = make_net("torus:4x4x4")
    assert isinstance(topo, TorusTopology)
    assert topo.capacity == 64
    assert topo.dims == (4, 4, 4)
    assert topo.describe() == "torus:4x4x4"


def test_coords_round_trip():
    _sim, _params, topo, _net = make_net("torus:4x4x4")
    for n in range(64):
        assert topo._node(topo._coords(n)) == n


def test_dor_route_is_minimal():
    _sim, _params, topo, _net = make_net("torus:4x4")
    # node 0=(0,0) to node 10=(2,2): 2 x-steps then 2 y-steps
    path = topo.route(0, 10)
    assert len(path) == 4
    # dimension order: all d0 moves strictly before any d1 move
    dims = [name.split(".")[1][1] for name in path]
    assert dims == sorted(dims)


def test_dor_takes_shorter_wrap_direction():
    _sim, _params, topo, _net = make_net("torus:4x4")
    # (0,0) -> (3,0) is one hop backwards around the ring, not three
    path = topo.route(0, 3)
    assert path == ["n0.d0-"]
    # ties (distance 2 on a 4-ring) break positive, deterministically
    path = topo.route(0, 2)
    assert path == ["n0.d0+", "n1.d0+"]


def test_route_hop_count_matches_manhattan_distance():
    _sim, _params, topo, _net = make_net("torus:4x4x4")

    def ring_dist(a, b, size):
        fwd = (b - a) % size
        return min(fwd, size - fwd)

    for src in (0, 17, 42):
        for dst in (5, 33, 63):
            if src == dst:
                continue
            sc, dc = topo._coords(src), topo._coords(dst)
            expect = sum(ring_dist(a, b, s)
                         for a, b, s in zip(sc, dc, topo.dims))
            assert len(topo.route(src, dst)) == expect


def test_delivery_and_hop_timing():
    sim, params, topo, net = make_net("torus:2x2")
    done = []

    def proc():
        yield from net.transfer_and_wait(train(params, 0, 1))
        done.append(sim.now)

    sim.spawn(proc(), "p")
    sim.run()
    # single hop: 2 host wires + router crossing + link wire + serialize
    assert done[0] == pytest.approx(
        3 * params.wire_latency_ns + params.switch_latency_ns
        + params.train_wire_time_ns(train(params, 0, 1).packet.wire_bytes))
    assert topo.crossings == 1
    assert topo.link_hops == 1


def test_adaptive_routes_around_blocked_link():
    """DOR insists on the x-first link even when it is held; adaptive
    detours through the free y-dimension and arrives sooner."""

    def run_once(spec):
        sim, params, topo, net = make_net(spec)
        # Park a hog on node 0's x+ link for a long time.
        hog_link = topo.links["n0.d0+"]

        def hog():
            assert not hog_link.busy
            hog_link.busy = True
            yield 1_000_000.0
            # Free it as the walk does: hand it to the first waiter.
            if hog_link.waiters:
                hog_link.waiters.popleft().trigger()
            else:
                hog_link.busy = False

        arrival = []

        def sender():
            yield 10.0  # let the hog grab the link first
            yield from net.transfer_and_wait(train(params, 0, 5))
            arrival.append(sim.now)

        sim.spawn(hog(), "hog")
        sim.spawn(sender(), "sender")
        sim.run()
        return arrival[0], topo

    # 0=(0,0) -> 5=(1,1) on a 4x4 torus: one x-step and one y-step.
    t_dor, topo_dor = run_once("torus:4x4")
    t_adaptive, topo_adaptive = run_once("torus:4x4:adaptive")
    # DOR sat out the hog's million-ns hold; adaptive went y-first.
    assert t_dor > 1_000_000.0
    assert t_adaptive < 1_000_000.0
    assert topo_adaptive.adaptive_detours >= 1
    assert topo_dor.adaptive_detours == 0
    assert topo_dor.link_waits >= 1


def test_adaptive_matches_dor_on_idle_fabric():
    """With nothing queued, adaptive's tie-break IS dimension order, so
    both modes deliver at identical times (same digest guarantee)."""

    def run_once(spec):
        sim, params, _topo, net = make_net(spec)
        out = []

        def proc():
            yield from net.transfer_and_wait(train(params, 3, 12))
            out.append(sim.now)

        sim.spawn(proc(), "p")
        sim.run()
        return out[0]

    assert run_once("torus:4x4") == run_once("torus:4x4:adaptive")


def test_capacity_enforced():
    with pytest.raises(ValueError, match="does not fit"):
        SimParams().replace(num_processors=5, topology="torus:2x2")


def test_degenerate_dimension_has_no_links():
    _sim, _params, topo, _net = make_net("torus:4x1")
    assert topo.capacity == 4
    assert all(".d1" not in name for name in topo.links)
    assert topo.route(0, 2) == ["n0.d0+", "n1.d0+"]
