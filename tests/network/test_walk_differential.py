"""Differential test of the fabric walk.

``Network``'s transfer body runs a train's host wires and hops in one
generator frame and takes and frees each input port and output link
inline.  The reference below is the two-frame walk it replaced:
``_transfer`` delegating to ``Topology.transit`` with ``yield from``,
links and input ports as engine ``Resource`` s taken with
``try_acquire`` and freed with ``release``.  Both run the same trains,
launched close together so they queue on links and input ports, and
must agree exactly: every delivery time as a float, the arrival order
at each rx queue, and the ``net.*`` counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Resource, Simulator
from repro.network import (
    CellTrain,
    Network,
    Packet,
    PacketKind,
    build_topology,
    parse_topology,
)
from repro.params import SimParams

SPECS = ("banyan:8", "fattree:k=4", "torus:4x4", "torus:4x4:adaptive")
COUNTERS = ("crossings", "link_hops", "link_waits", "hol_blocks",
            "adaptive_detours")


class ReferenceWalk:
    """The two-frame walk, on a fabric of ``Resource`` s.

    The fabric object supplies only its static data: routes, link
    latencies and rates, and the torus's coordinate arithmetic."""

    def __init__(self, sim, params):
        self.sim = sim
        self.params = params
        self.fabric = build_topology(sim, params)
        self.res = {name: Resource(sim, f"link:{name}")
                    for name in self.fabric.links}
        self.in_ports = {}
        self.paths = {}
        self.wire_ns = {}
        self.deliveries = []
        for name in COUNTERS:
            setattr(self, name, 0)

    def _hop(self, switch, arrived_on, link):
        if switch is None:
            return False, None, link
        if arrived_on is None:
            return True, None, link
        key = (switch, arrived_on)
        port = self.in_ports.get(key)
        if port is None:
            port = self.in_ports[key] = Resource(
                self.sim, f"in:{switch}<{arrived_on}")
        return True, port, link

    def _path(self, src, dst):
        fabric = self.fabric
        if getattr(fabric, "routing", None) == "adaptive":
            return self._adaptive_path(src, dst)
        path = self.paths.get((src, dst))
        if path is None:
            hops, arrived = [], None
            for switch, name in fabric._hops(src, dst):
                hops.append(self._hop(switch, arrived, name))
                arrived = name
            path = self.paths[(src, dst)] = tuple(hops)
        return path

    def _pick_move(self, here, moves):
        best_i, best_load = 0, None
        for i, (dim, sign, _steps) in enumerate(moves):
            res = self.res[self.fabric._link_name(here, dim, sign)]
            load = res.queue_length + (1 if res.busy else 0)
            if best_load is None or load < best_load:
                best_i, best_load = i, load
        return best_i, moves[best_i]

    def _adaptive_path(self, src, dst):
        fabric = self.fabric
        moves = [list(m) for m in fabric._deltas(src, dst)]
        here, arrived = src, None
        while moves:
            i = 0
            if len(moves) > 1:
                i, _ = self._pick_move(here, [tuple(m) for m in moves])
                if i != 0:
                    self.adaptive_detours += 1
            dim, sign, _ = moves[i]
            name = fabric._link_name(here, dim, sign)
            yield self._hop(f"rt{here}", arrived, name)
            arrived = name
            here = fabric._neighbor(here, dim, sign)
            moves[i][2] -= 1
            if moves[i][2] == 0:
                del moves[i]

    def transit(self, src, dst, wire_bytes):
        switch_ns = self.params.switch_latency_ns
        base_ns = self.wire_ns.get(wire_bytes)
        if base_ns is None:
            base_ns = self.wire_ns[wire_bytes] = \
                self.params.train_wire_time_ns(wire_bytes)
        for crosses, in_port, name in self._path(src, dst):
            link = self.fabric.links[name]
            if crosses:
                yield switch_ns
                self.crossings += 1
            if in_port is not None and not in_port.try_acquire():
                self.hol_blocks += 1
                yield from in_port.acquire()
            res = self.res[name]
            if not res.try_acquire():
                self.link_waits += 1
                yield from res.acquire()
            if in_port is not None:
                in_port.release()
            try:
                if link.latency_ns:
                    yield link.latency_ns
                yield base_ns * link.scale
            finally:
                res.release()
            self.link_hops += 1

    def transfer(self, train):
        p = train.packet
        yield self.params.wire_latency_ns
        yield from self.transit(p.src_node, p.dst_node, p.wire_bytes)
        yield self.params.wire_latency_ns
        self.deliveries.append((p.dst_node, self.sim.now, p.packet_id))

    def send_train(self, train):
        self.sim.spawn(self.transfer(train), f"xfer-{train.packet.packet_id}")


class Recorder:
    """An rx queue that logs each delivery's destination, time and
    packet."""

    def __init__(self, sim, node, log):
        self.sim, self.node, self.log = sim, node, log

    def put(self, train):
        self.log.append((self.node, self.sim.now, train.packet.packet_id))


def launch(sim, send, trains):
    """One process per train: sleep to its launch time, then send it."""
    def launcher(at, train):
        yield at
        send(train)
    for at, train in trains:
        sim.spawn(launcher(at, train), "launch")


def run_both(spec, plan):
    params = SimParams().replace(
        num_processors=parse_topology(spec).capacity, topology=spec)
    trains = []
    for at, src, dst, payload in plan:
        p = Packet(kind=PacketKind.DATA, src_node=src, dst_node=dst,
                   channel_id=1, payload_bytes=payload)
        trains.append((at, CellTrain(p, params.cells_for_packet(
            p.wire_bytes))))

    sim = Simulator()
    net = Network(sim, params)
    got = []
    net.rx_queues = [Recorder(sim, i, got)
                     for i in range(params.num_processors)]
    launch(sim, net.send_train, trains)
    sim.run()

    ref_sim = Simulator()
    ref = ReferenceWalk(ref_sim, params)
    launch(ref_sim, ref.send_train, trains)
    ref_sim.run()
    return net, got, ref


@st.composite
def train_plans(draw, nodes):
    """Up to 24 trains ``(launch ns, src, dst, payload bytes)``, launched
    within a few microseconds of each other (ties included) so they
    queue on links and input ports."""
    plan = []
    for _ in range(draw(st.integers(1, 24))):
        src = draw(st.integers(0, nodes - 1))
        dst = draw(st.integers(0, nodes - 2))
        plan.append((draw(st.integers(0, 30)) * 150.0, src,
                     dst + (dst >= src), draw(st.integers(0, 2048))))
    return plan


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_walk_matches_the_two_frame_reference(spec, data):
    nodes = parse_topology(spec).capacity
    net, got, ref = run_both(spec, data.draw(train_plans(nodes)))
    # Every train delivered at the same instant, exactly, and in the
    # same order at each rx queue.
    assert got == ref.deliveries
    topo = net.topology
    assert [getattr(topo, c) for c in COUNTERS] == \
        [getattr(ref, c) for c in COUNTERS]
    assert net.trains_delivered == len(got)


def test_reference_sees_contention():
    """The differential is not vacuous: converging trains queue on
    links and input ports, and the adaptive torus detours."""
    burst = [(0.0, src, 6, 1024) for src in (4, 5, 4, 5, 0, 12)]
    burst += [(0.0, 4, 5, 64), (150.0, 5, 7, 2048)]
    net, got, ref = run_both("fattree:k=4", burst)
    assert got == ref.deliveries
    assert net.topology.link_waits > 0 and net.topology.hol_blocks > 0
    # 0 -> 1 holds node 0's x+ link when the two 0 -> 5 trains pick
    # their first hop, so both go y-first.
    hog = [(0.0, 0, 1, 2048), (600.0, 0, 5, 2048), (600.0, 0, 5, 64)]
    net, got, ref = run_both("torus:4x4:adaptive", hog)
    assert got == ref.deliveries
    assert net.topology.adaptive_detours > 0
