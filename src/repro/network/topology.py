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

The middle leg is :meth:`Topology.transit`, the one timed walk every
fabric shares (:mod:`repro.network.fabrics`): the banyan's path is one
crossing onto the destination's output port, and multi-hop fabrics walk
several hops (per-link rates, FIFO output queueing, input-port
head-of-line blocking).  The two host wires stay here, in the one
transfer body every train runs.

The sending NIC's transmit processor is itself a serial simulated
process, which provides source-side serialization of back-to-back sends
from one node (DESIGN.md documents this approximation).
"""

from __future__ import annotations

from typing import Generator, List

from ..engine import Mailbox, Simulator
from ..params import SimParams
from .cell import CellTrain, Packet
from .fabrics import Topology, build_topology


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
        """Launch a train asynchronously (fire-and-forget from the NIC)."""
        self.sim.spawn(self._transfer(train), f"xfer-{train.packet.packet_id}")

    def _transfer(self, train: CellTrain) -> Generator:
        """The one transfer body: host wire, fabric walk, host wire and
        the arrival-side fault delays.  Delivery puts the train, damaged
        or not; the receiving NIC's integrity check drops a damaged one."""
        p = train.packet
        if p.dst_node == p.src_node:
            raise ValueError("loopback traffic never enters the fabric")
        yield self.params.wire_latency_ns
        yield from self.topology.transit(
            p.src_node, p.dst_node, train.n_cells, p.wire_bytes
        )
        yield self.params.wire_latency_ns
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
        """Coroutine form of :meth:`send_train` (microbenchmarks)."""
        yield from self._transfer(train)
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
