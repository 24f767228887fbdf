"""Shared machinery for the two simulated network interfaces.

Both boards (the CNI and the "standard networking interface" baseline of
Section 3) share the physical substrate: a transmit processor draining a
queue of send descriptors, SAR to/from the ATM fabric, and a receive
processor draining the node's inbound cell trains.  They differ in
exactly the three mechanisms the paper adds — Message Cache, Application
Device Channels with PATHFINDER demux, Application Interrupt Handlers —
which live in the subclasses.

Host-side interaction contract (implemented by :class:`HostHooks`, which
the runtime node provides):

* ``steal_host_time(ns)`` — asynchronous work executed on the
  host CPU (interrupt handlers, kernel dispatch, host protocol code);
  inflates the application thread's execution and is accounted as synch
  overhead.
* ``deliver_to_app(desc)`` — put a receive descriptor in the host's
  inbox (the application's receive queue) and wake a waiting thread.

Inbound protocol packets reach one consumer: the handler entered for
their key in the board's handler table (:attr:`protocol_handlers`,
filled by :meth:`install_protocol_handler` or at cluster setup).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Protocol, Sequence, Tuple

from ..engine import Counters, Mailbox, Simulator
from ..memory import MemoryBus
from ..network import Network, Packet, PacketKind, Segmenter
from ..obs import MetricsScope, private_scope
from ..params import SimParams
from .adc import ReceiveDescriptor, TransmitDescriptor
from .aih import HandlerError, HandlerFn
from .detector import FailureDetector
from .reliability import ReliableTransport


class HostHooks(Protocol):
    """What the NIC needs from its host workstation (the runtime node)."""

    def steal_host_time(self, ns: float) -> None:
        """Charge asynchronous host-CPU work (see module docstring)."""

    def deliver_to_app(self, desc: ReceiveDescriptor) -> None:
        """Deposit an inbound descriptor and wake the application."""

#: Payloads at or below this many bytes travel inside the descriptor /
#: protocol message itself (programmed I/O, or a kernel copy on the
#: standard interface), with no DMA staging.  Both boards share it, for
#: comparability.
PIO_THRESHOLD_BYTES = 64

# Bound once: a member read off its enum class is a descriptor call.
_DATA, _DSM_PROTOCOL, _DSM_PAGE, _ACK, _HEARTBEAT = (
    PacketKind.DATA, PacketKind.DSM_PROTOCOL, PacketKind.DSM_PAGE,
    PacketKind.ACK, PacketKind.HEARTBEAT)


class NetworkInterface:
    """Base class: transmit/receive processors and SAR."""

    #: Whether the host notices a delivered descriptor by an interrupt
    #: (the standard interface) or by polling (the CNI's hybrid scheme,
    #: Section 2.1).
    rx_by_interrupt: bool

    def __init__(
        self,
        sim: Simulator,
        params: SimParams,
        node_id: int,
        network: Network,
        bus: MemoryBus,
        counters: Counters,
        hooks: HostHooks,
        metrics: Optional[MetricsScope] = None,
    ):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.network = network
        self.bus = bus
        self.counters = counters
        self.hooks = hooks
        self.metrics = metrics if metrics is not None else private_scope()
        self.segmenter = Segmenter(params)
        self.tx_queue: Mailbox = Mailbox(sim, f"nic{node_id}-tx")
        #: Fixed NI-processor work per packet (header build or parse,
        #: queue manipulation), charged on each side of the wire.
        self._packet_ns = params.ni_cycles_ns(params.ni_packet_overhead_cycles)
        #: The board's handler table: handler key -> the handler that
        #: consumes inbound protocol packets carrying that key.
        self.protocol_handlers: Dict[int, HandlerFn] = {}
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_dropped = 0
        self.payload_bytes_received = 0
        #: NI-resident reliable delivery (no-op when the parameter is
        #: off; always constructed so its counters exist).
        self.reliab = ReliableTransport(sim, params, self,
                                        metrics=self.metrics.scope("reliab"))
        #: NI-resident heartbeat failure detector (inert unless
        #: ``heartbeat_interval_ns`` is set; always constructed so its
        #: counters exist).
        self.detector = FailureDetector(
            sim, params, self, len(network.rx_queues),
            metrics=self.metrics.scope("detector"))
        #: Fail-stopped by a NodeCrash (see on_crash).
        self.crashed = False
        self.metrics.counter("tx.packets_sent", fn=lambda: self.packets_sent)
        self.metrics.counter("rx.packets_received",
                             fn=lambda: self.packets_received)
        self.metrics.counter("rx.packets_dropped",
                             fn=lambda: self.packets_dropped)
        self.metrics.counter("rx.payload_bytes",
                             fn=lambda: self.payload_bytes_received)
        # Hybrid notification split (Section 2.1): descriptors the host
        # notices by polling vs. by an interrupt.  Both boards register
        # both counts; each counts its deliveries in its own.
        poll_rx = self.metrics.counter("adc.poll_receives")
        intr_rx = self.metrics.counter("adc.interrupt_receives")
        self._m_delivered = intr_rx if self.rx_by_interrupt else poll_rx
        self._tx_proc = sim.spawn(self._transmit_loop(), f"nic{node_id}-txp")
        self._rx_proc = sim.spawn(self._receive_loop(), f"nic{node_id}-rxp")

    # -- wiring ---------------------------------------------------------------
    def install_protocol_handler(
        self, key: int, fn: HandlerFn, code_size: int,
        kinds: Tuple[PacketKind, ...] = (_DSM_PROTOCOL, _DSM_PAGE),
    ) -> float:
        """Enter ``fn`` in the handler table for protocol packets carrying
        handler key ``key``; returns the swap-in time.

        The standard interface has no handler memory and no classifier
        to program (``code_size`` and ``kinds`` matter only on the CNI,
        which overrides this): its host runs ``fn`` behind the receive
        interrupt, and installing costs nothing.
        """
        if key in self.protocol_handlers:
            raise HandlerError(f"handler key {key} already installed")
        self.protocol_handlers[key] = fn
        return 0.0

    # -- crash-stop -----------------------------------------------------------
    def on_crash(self) -> None:
        """Fail-stop this board (a :class:`~repro.faults.NodeCrash` hit).

        The reliable transport stops arming timers and cancels the
        pending ones (a dead node retransmits nothing), and the failure
        detector's tick is cancelled so the dead node falls silent and
        the event queue can drain.  The fabric drops the board's in-flight
        traffic separately (``ActiveFaultPlan.node_dead``)."""
        self.crashed = True
        self.reliab.fail_stop()
        self.detector.stop()

    # -- host-side send API -----------------------------------------------------
    def host_send(self, desc: TransmitDescriptor) -> Generator:
        """Generator run *by the application thread* to initiate a send.

        Subclasses charge the host-side cost of getting the descriptor to
        the board (user-level ADC stores vs. a kernel trap); the board
        then works asynchronously.  Returns the host-side cost in ns so
        the caller can attribute it.
        """
        raise NotImplementedError

    def host_send_cost_ns(self) -> float:
        """Host cycles burned per send on this interface, in ns."""
        raise NotImplementedError

    # -- board-side send API ------------------------------------------------------
    def board_send(self, packet: Packet) -> None:
        """Queue a board-originated packet (AIH replies) for transmit."""
        self.tx_queue.put(packet)

    # -- transmit processor ----------------------------------------------------------
    def _transmit_loop(self) -> Generator:
        tx = self.tx_queue
        while True:
            found, item = tx.try_get()
            if not found:
                item = yield from tx.get()
            if isinstance(item, TransmitDescriptor):
                packet = self._packet_from_descriptor(item)
                yield from self._transmit_one(packet)
                if item.completion is not None:
                    item.completion.trigger()
            else:
                yield from self._transmit_one(item)

    def _packet_from_descriptor(self, desc: TransmitDescriptor) -> Packet:
        kind = desc.kind
        if kind is None:
            if desc.handler_key:
                kind = _DSM_PAGE if desc.vaddr is not None else _DSM_PROTOCOL
            else:
                kind = _DATA
        elif kind.__class__ is not PacketKind:
            kind = PacketKind(kind)
        return Packet(
            kind=kind,
            src_node=self.node_id,
            dst_node=desc.dst_node,
            channel_id=desc.channel_id,
            handler_key=desc.handler_key,
            payload_bytes=desc.length,
            payload=desc.payload,
            cacheable=desc.cacheable,
            src_vaddr=desc.vaddr,
            reliable=desc.reliable,
        )

    def _transmit_one(self, packet: Packet) -> Generator:
        """Common transmit path; data staging is the subclass hook.

        The per-packet work comes first, then staging, then the per-cell
        segmentation work; with nothing to stage the two NI-processor
        charges run back to back, in one wake."""
        # Segmentation prices the train's cells on the NI processor.
        train = self.segmenter.make_train(packet)
        sar_ns = self.segmenter.sar_time_ns(train.n_cells)
        # Stage the payload into board memory (DMA unless cached), unless
        # it rides in the descriptor (PIO) or board-resident protocol
        # code built the packet.  A reliable retransmission re-enters
        # here with the same packet object, so an unmodified buffer hits
        # the Message Cache.
        if (packet.src_vaddr is not None
                and packet.payload_bytes > PIO_THRESHOLD_BYTES):
            yield self._packet_ns
            staged_from_host = yield from self._stage_payload(packet)
            yield sar_ns
        else:
            staged_from_host = False
            yield self._packet_ns, sar_ns
        kind = packet.kind
        if kind is not _ACK and kind is not _HEARTBEAT:
            # NI-internal acks and heartbeats stay out of the paper's
            # hit-ratio metric.
            self._count_transmit(staged_from_host)
        self._note_sent(packet)
        self.network.send_train(train)
        return None

    def _note_sent(self, packet: Packet) -> None:
        """Count a departure and hand it to the reliable transport."""
        kind = packet.kind
        if kind is not _ACK and kind is not _HEARTBEAT:
            self.packets_sent += 1
            self.counters.inc("nic_packets_sent")
        self.reliab.on_transmit(packet)

    def _stage_payload(self, packet: Packet) -> Generator:
        """Move an outgoing payload from host memory to the board.

        The baseline always DMAs; the CNI consults the Message Cache.
        Returns True when a host-memory DMA was needed.
        """
        raise NotImplementedError

    def _count_transmit(self, staged_from_host: bool) -> None:
        """Maintain the paper's per-transmission hit-ratio counters.

        Section 3: "the ratio of the number of times a message to be
        transmitted is found in the Message Cache to the number of total
        message transmissions in the CNI ... cluster.  This term does
        not apply to the standard ... cluster" — hence the base class
        counts nothing; the CNI overrides this.
        """

    # -- receive processor --------------------------------------------------------------
    def _receive_loop(self) -> Generator:
        rx = self.network.rx_queues[self.node_id]
        while True:
            found, train = rx.try_get()
            if not found:
                train = yield from rx.get()
            # Reassembly: per-cell work, then the per-packet work, on the
            # NI processor in one wake; then the AAL5 length/CRC check,
            # which a lost or damaged cell fails.
            yield self.segmenter.sar_time_ns(train.n_cells), self._packet_ns
            if not train.intact:
                self.packets_dropped += 1
                self.counters.inc("nic_packets_dropped")
                continue
            for p in self._accept_packet(train.packet):
                self.packets_received += 1
                self.counters.inc("nic_packets_received")
                self.payload_bytes_received += p.payload_bytes
                yield from self._dispatch_receive(p)

    def _accept_packet(self, packet: Packet) -> Sequence[Packet]:
        """Reliability layer between reassembly and dispatch: consume
        acks and heartbeats, ack tracked packets, suppress duplicates,
        resequence.  Returns the packets ready to dispatch, in order."""
        kind = packet.kind
        if kind is _HEARTBEAT:
            # Liveness cells die on the board, like acks.
            self.detector.on_heartbeat(packet.src_node)
            return ()
        if self.detector.enabled:
            # Any arrival proves the sender alive; the guard keeps the
            # detector-off hot path at one attribute test.
            self.detector.note_alive(packet.src_node)
        if kind is _ACK:
            self.reliab.on_ack(packet)
            return ()
        if self.reliab.tracks(packet) or packet.rel_seq is not None:
            # Ack every arrival — including duplicates, whose earlier
            # ack is exactly what may have been lost.
            self.board_send(self.reliab.make_ack(packet, self.node_id))
        # A suppressed duplicate comes back with nothing ready.
        return self.reliab.on_receive(packet)

    def _dispatch_receive(self, packet: Packet) -> Generator:
        """Demultiplex an inbound packet (the paths differ entirely)."""
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------------
    def deliver(self, desc: ReceiveDescriptor) -> None:
        """Announce a received message to the host: count how the host
        notices it, then put it in the host's inbox."""
        self._m_delivered.inc()
        self.hooks.deliver_to_app(desc)

    def _receive_descriptor(self, packet: Packet) -> ReceiveDescriptor:
        return ReceiveDescriptor(
            src_node=packet.src_node,
            vaddr=packet.dst_vaddr,
            length=packet.payload_bytes,
            handler_key=packet.handler_key,
            payload=packet.payload,
        )
