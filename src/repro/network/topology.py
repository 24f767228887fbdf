"""Cluster interconnect: nodes wired to a pluggable fabric topology.

``SimParams.topology`` selects the fabric (``banyan:32``,
``fattree:k=4``, ``torus:4x4x4`` — the grammar in
:mod:`repro.network.spec`); the default, ``banyan:32``, is the paper's
single banyan switch.  Timing model
for a packet of ``n`` cells from node *s* to node *d* on the default
fabric (cut-through everywhere, so serialization is charged exactly
once, at the switch output port where many-to-one contention physically
queues):

    wire (150 ns)  ->  switch cut-through (500 ns)
                   ->  output-port serialization (n x 681.7 ns, FIFO)
                   ->  wire (150 ns)  ->  destination NIC rx queue

The middle leg is the fabric walk every topology shares
(:mod:`repro.network.fabrics`): the banyan's path is one crossing onto
the destination's output port, and multi-hop fabrics walk several hops
(per-link rates, FIFO output queueing, input-port head-of-line
blocking).  A train runs in one generator frame, the transfer body
here: the first host wire, the walk, the second host wire, the fault
step and delivery.  Its process starts at the end of the first host
wire, and of the first switch crossing where no input port is
contended there, and holds each link with one wake.  The walk takes
and frees each hop's input port and output link inline (the fabric's
:class:`~repro.network.fabrics.Server` flags and waiter queues); only
a busy one makes the train wait.

The sending NIC's transmit processor is itself a serial simulated
process, which provides source-side serialization of back-to-back sends
from one node (DESIGN.md documents this approximation).
"""

from __future__ import annotations

from typing import Dict, Generator, List

from ..engine import Event, Mailbox, Simulator
from ..params import SimParams
from .cell import CellTrain, Packet
from .fabrics import Route, Topology, build_topology


class Network:
    """The cluster fabric: delivery of cell trains between NICs."""

    def __init__(self, sim: Simulator, params: SimParams):
        self.sim = sim
        self.params = params
        #: The routed fabric (:mod:`repro.network.fabrics`); construction
        #: validates the spec and that every node has an attachment point.
        self.topology: Topology = build_topology(sim, params)
        #: One inbound mailbox of :class:`CellTrain` per node (the NIC's
        #: receive processor drains it).
        self.rx_queues: List[Mailbox] = [
            Mailbox(sim, f"rx{i}") for i in range(params.num_processors)
        ]
        self.trains_delivered = 0
        #: A train's base-rate serialization time, by wire bytes.
        self._wire_ns: Dict[int, float] = {}
        #: Runtime fault evaluator (repro.faults); None on a clean fabric.
        self.active_faults = (
            params.fault_plan.activate(params.num_processors)
            if params.fault_plan is not None else None
        )

    # -- fault injection ------------------------------------------------------
    def fault_cells_dropped(self, node: int) -> int:
        """Cells the fault plan dropped en route to ``node``."""
        f = self.active_faults
        return f.cells_dropped[node] if f is not None else 0

    def fault_cells_corrupted(self, node: int) -> int:
        """Cells the fault plan corrupted en route to ``node``."""
        f = self.active_faults
        return f.cells_corrupted[node] if f is not None else 0

    def _fault_delays(self, faults, p: Packet) -> Generator:
        """Arrival-side fault delays: a stalled destination (NicStall)
        holds the packet, then a degraded endpoint (NodeSlow) stretches
        the transfer by the slowdown of its NI processors.  The slowdown
        is read after the stall has elapsed.  Entered only when the plan
        has a NicStall or NodeSlow."""
        stall = faults.stall_ns(p.dst_node, self.sim.now)
        if stall > 0:
            yield stall
        slow = max(faults.slow_factor(p.src_node, self.sim.now),
                   faults.slow_factor(p.dst_node, self.sim.now))
        if slow > 1.0:
            yield (slow - 1.0) * self.params.train_wire_time_ns(p.wire_bytes)
        return None

    def send_train(self, train: CellTrain) -> None:
        """Launch a train asynchronously (fire-and-forget from the NIC):
        its process starts once the first delays of its route (the
        first host wire, and the first switch crossing where it takes
        no input port) have run."""
        p = train.packet
        route = self.topology._route(p.src_node, p.dst_node)
        self.sim.spawn(self._transfer(train, route), "xfer", after=route[0])

    def _transfer(self, train: CellTrain, route: Route) -> Generator:
        """The one transfer body, from the end of the route's first
        delays: the fabric walk, host wire, the arrival-side fault step
        and delivery, in one frame.  Delivery puts the train, damaged or
        not; the receiving NIC's integrity check drops a damaged one.

        Each hop of the walk crosses its switch (cut-through latency),
        contends for the input port it arrived on (head-of-line
        blocking), takes its output link (FIFO output queueing), frees
        the input port, and holds the link for propagation plus
        serialization, in one wake.  A free port or link is taken by
        setting its ``busy`` flag; a busy one is queued for with an
        event.  Freeing one hands it to its first waiter, FIFO, or
        clears the flag.
        """
        _start, hops, crossings, link_hops = route
        p = train.packet
        params = self.params
        topo = self.topology
        switch_ns = params.switch_latency_ns
        base_ns = self._wire_ns.get(p.wire_bytes)
        if base_ns is None:
            base_ns = self._wire_ns[p.wire_bytes] = \
                params.train_wire_time_ns(p.wire_bytes)
        if hops is None:
            hops = topo._path(p.src_node, p.dst_node)
        for crosses, port, link in hops:
            if crosses:
                yield switch_ns
            if port is not None:
                if port.busy:
                    topo.hol_blocks += 1
                    ev = Event(self.sim)
                    port.waiters.append(ev)
                    yield ev
                else:
                    port.busy = True
            if link.busy:
                topo.link_waits += 1
                ev = Event(self.sim)
                link.waiters.append(ev)
                yield ev
            else:
                link.busy = True
            if port is not None:
                if port.waiters:
                    port.waiters.popleft().trigger()
                else:
                    port.busy = False
            try:
                if link.latency_ns:
                    yield link.latency_ns, base_ns * link.scale
                else:
                    yield base_ns * link.scale
            finally:
                if link.waiters:
                    link.waiters.popleft().trigger()
                else:
                    link.busy = False
        topo.crossings += crossings
        topo.link_hops += link_hops
        yield params.wire_latency_ns
        faults = self.active_faults
        if faults is not None:
            if faults.has_delays:
                yield from self._fault_delays(faults, p)
            lost, corrupted = faults.train_faults(train, self.sim.now)
            if lost or corrupted:
                train = CellTrain(p, train.n_cells, lost_cells=lost,
                                  corrupted_cells=corrupted)
        self.trains_delivered += 1
        self.rx_queues[p.dst_node].put(train)
        return None

    def transfer_and_wait(self, train: CellTrain) -> Generator:
        """Coroutine form of :meth:`send_train`: returns once the train
        is delivered (the fabric tests' timing probe)."""
        p = train.packet
        route = self.topology._route(p.src_node, p.dst_node)
        yield route[0]
        yield from self._transfer(train, route)
        return None

    def min_transit_ns(self, wire_bytes: int) -> float:
        """Uncontended best-case fabric latency for ``wire_bytes``
        (nearest node pair on multi-hop fabrics)."""
        return (
            2 * self.params.wire_latency_ns
            + self.topology.min_transit_ns(wire_bytes)
        )

    def register_metrics(self, scope) -> None:
        """Register the ``net.*`` catalog (docs/network.md) on ``scope``:
        delivery totals here plus the fabric's congestion counters."""
        scope.counter("trains_delivered", fn=lambda: self.trains_delivered)
        self.topology.register_metrics(scope)
