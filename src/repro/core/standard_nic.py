"""The "standard networking interface" baseline of Section 3.

By the paper's definition this is an interface "which does not have
Application Device Channels, Message Caches and support for Application
Interrupt Handlers" — otherwise the hardware and software are identical
to the CNI cluster.  Concretely:

* **Send**: every send traps into the kernel (protection is re-verified
  per operation) and the payload is always DMAed from host memory to the
  board — there is no buffer map to hit.
* **Receive**: the board "rel[ies] purely on host interrupts to transfer
  data and control"; each packet interrupts the host, the kernel
  dispatches it, and classification happens in *software* with the
  instruction-cache behaviour the paper measured on ATOMIC (cold
  classifier code most of the time, since the handler shares the I-cache
  with application protocol code).
* **Protocol**: the DSM consistency protocol runs on the host CPU,
  stealing application cycles for every remote request served.

When ``reliable_transport`` is on, acknowledgements and retransmissions
are still handled by the board firmware (the base-class transport) and
raise no host interrupts — reliability is a NIC property on both
interfaces; only the *data* delivery economics differ.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..engine import Counters, Simulator
from ..network import Network, Packet, PacketKind
from ..memory import MemoryBus
from ..obs import MetricsScope
from ..params import SimParams
from .adc import TransmitDescriptor
from .nic_base import PIO_THRESHOLD_BYTES, HostHooks, NetworkInterface

_PROTOCOL_KINDS = frozenset((PacketKind.DSM_PROTOCOL, PacketKind.DSM_PAGE,
                             PacketKind.COLLECTIVE, PacketKind.RUNTIME))


class StandardInterface(NetworkInterface):
    """Interrupt-driven, kernel-mediated baseline NIC."""

    rx_by_interrupt = True

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
        super().__init__(sim, params, node_id, network, bus, counters, hooks,
                         metrics=metrics)
        self.interrupts_raised = 0
        self._classifier_warm = False
        self.metrics.counter("rx.host_interrupts",
                             fn=lambda: self.interrupts_raised)

    # -- host send path -----------------------------------------------------------
    def host_send_cost_ns(self) -> float:
        """Kernel trap + per-send verification on the critical path."""
        return self.params.cpu_cycles_ns(self.params.kernel_trap_cycles)

    def host_send(self, desc: TransmitDescriptor) -> Generator:
        """Application-thread send through the kernel."""
        yield self.host_send_cost_ns()
        self.tx_queue.put(desc)
        return None

    # -- transmit staging -----------------------------------------------------------
    def _stage_payload(self, packet: Packet) -> Generator:
        """No Message Cache: buffer sends always DMA from host memory."""
        yield from self.bus.dma(packet.payload_bytes)
        return True

    # -- receive dispatch ---------------------------------------------------------------
    def _dispatch_receive(self, packet: Packet) -> Generator:
        """Interrupt the host for every arriving packet (Section 2.1:
        'the OSIRIS boards rely purely on host interrupts')."""
        self.interrupts_raised += 1
        self.counters.inc("host_interrupts")
        yield self.params.interrupt_latency_ns

        # Kernel dispatch + software packet classification on the host.
        classify_cycles = (
            self.params.sw_classify_cycles_hot
            if self._classifier_warm
            else self.params.sw_classify_cycles_cold
        )
        # The paper's ATOMIC measurement: the classifier's I-cache lines
        # are usually displaced by application/protocol code between
        # packets, so back-to-back packets classify warm but isolated
        # arrivals classify cold.  Model: warm only for an immediately
        # following packet, reset once the queue drains.
        self._classifier_warm = len(self.network.rx_queues[self.node_id]) > 0

        host_ns = self.params.cpu_cycles_ns(
            self.params.kernel_trap_cycles + classify_cycles
        )
        self.hooks.steal_host_time(self.params.interrupt_latency_ns + host_ns)
        yield host_ns

        if packet.kind in _PROTOCOL_KINDS:
            handler = self.protocol_handlers.get(packet.handler_key)
            if handler is None:
                self.packets_dropped += 1
                return
            # The protocol step executes on the host CPU.
            yield from handler(packet, False)
        else:
            yield from self._deliver_data(packet)
        return None

    def _deliver_data(self, packet: Packet) -> Generator:
        """Copy data to the application's buffer via kernel and wake it."""
        if packet.payload_bytes > PIO_THRESHOLD_BYTES:
            yield from self.bus.dma(packet.payload_bytes)
        self.deliver(self._receive_descriptor(packet))
        return None

    # -- receive wake economics ---------------------------------------------------------
    def rx_wake_overhead_ns(self) -> float:
        """Additional cost to hand control back to a blocked application
        thread once the host has processed the packet: return-from-kernel
        and a scheduler pass.  (The interrupt and kernel dispatch were
        already charged per-packet in the receive path.)"""
        return self.params.cpu_cycles_ns(self.params.kernel_trap_cycles)
