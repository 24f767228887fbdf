"""The CNI board: ADC + PATHFINDER + Message Cache + AIH, composed.

Send path (Section 2.1/2.2): the application stores a descriptor into
its Application Device Channel (a handful of user-level stores, no
kernel); the transmit processor consults the buffer map and transmits
straight from a cached buffer on a hit, DMAing from host memory only on
a miss (inserting the buffer if the cacheable bit is set).

Receive path: the PATHFINDER classifies the packet in hardware; protocol
packets transfer control into the handler installed for their key, an
Application Interrupt Handler on the NI processor (no host interrupt);
application data is DMAed to a buffer from the channel's free queue and
announced once to the host, which learns about it by *polling* (the
hybrid scheme of Section 2.1).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from ..engine import Counters, Simulator
from ..memory import BoardTLB, MemoryBus
from ..network import Network, Packet, PacketKind
from ..obs import MetricsScope, private_scope
from ..params import SimParams
from .adc import ChannelManager, DeviceChannel, TransmitDescriptor
from .aih import HandlerFn, HandlerRegistry
from .message_cache import MessageCache
from .nic_base import PIO_THRESHOLD_BYTES, HostHooks, NetworkInterface
from .pathfinder import Pathfinder, Pattern, PatternElement

#: Classification targets produced by the patterns we program.
AIH_TARGET = "aih"
CHANNEL_TARGET = "chan"


def channel_pattern(channel_id: int) -> Pattern:
    """The PATHFINDER pattern that demuxes a channel's DATA packets."""
    return Pattern(
        elements=(
            # header byte 0: kind == DATA
            PatternElement(offset=0, length=1, mask=0xFF,
                           value=int(PacketKind.DATA)),
            # header bytes 6-7: channel id
            PatternElement(offset=6, length=2, mask=0xFFFF,
                           value=channel_id),
        ),
        target=(CHANNEL_TARGET, channel_id),
    )


def handler_patterns(key: int, kinds: Sequence[PacketKind]
                     ) -> List[Pattern]:
    """The patterns that activate AIH ``key``: one per packet kind."""
    return [
        Pattern(
            elements=(
                PatternElement(offset=0, length=1, mask=0xFF,
                               value=int(kind)),
                # header bytes 8-9: handler key
                PatternElement(offset=8, length=2, mask=0xFFFF,
                               value=key),
            ),
            target=(AIH_TARGET, key),
        )
        for kind in kinds
    ]


class CNIInterface(NetworkInterface):
    """The cluster network interface of the paper."""

    rx_by_interrupt = False

    def __init__(
        self,
        sim: Simulator,
        params: SimParams,
        node_id: int,
        network: Network,
        bus: MemoryBus,
        counters: Counters,
        hooks: HostHooks,
        tlb: BoardTLB,
        metrics: Optional[MetricsScope] = None,
    ):
        self.tlb = tlb
        m = metrics if metrics is not None else private_scope()
        self.message_cache = MessageCache(params, tlb, counters,
                                          metrics=m.scope("mcache"))
        self.pathfinder = Pathfinder(metrics=m.scope("pathfinder"))
        self.handlers = HandlerRegistry(params, metrics=m.scope("aih"))
        self._dispatch_ns = self.handlers.dispatch_time_ns()
        #: PATHFINDER classification, then AIH dispatch: one wake.
        self._aih_ns = (params.pathfinder_classify_ns, self._dispatch_ns)
        self.channel_manager = ChannelManager()
        super().__init__(sim, params, node_id, network, bus, counters, hooks,
                         metrics=m)
        adc = m.scope("adc")
        chans = self.channel_manager.channels
        # Aggregates over open channels' free queues and protection checks.
        adc.gauge("free_depth_hwm", fn=lambda: max(
            (ch.free.depth_hwm for ch in chans.values()), default=0))
        adc.counter("ring_full_rejections", fn=lambda: sum(
            ch.free.full_rejections for ch in chans.values()))
        adc.counter("protection_faults", fn=lambda: sum(
            ch.protection_faults for ch in chans.values()))
        #: Where snooped write frames go: absorbed into cached buffers,
        #: or (ablation) invalidating them.
        self._snoop_sink = (self.message_cache.snoop if params.snoop_enabled
                            else self.message_cache.snoop_disabled_writeback)
        bus.add_snooper(self._snoop)

    # -- setup -------------------------------------------------------------------
    def open_channel(self, owner_app: int,
                     channel_id: Optional[int] = None) -> DeviceChannel:
        """Kernel connection setup: allocate a queue triplet and program
        the PATHFINDER to demux DATA packets for it.  ``channel_id`` is
        agreed between the connection's endpoints (the sender stamps it
        into the header; this board's PATHFINDER matches it)."""
        ch = self.channel_manager.open_channel(owner_app, channel_id=channel_id)
        self.pathfinder.install(channel_pattern(ch.channel_id))
        return ch

    def install_protocol_handler(
        self, key: int, fn: HandlerFn, code_size: int,
        kinds: Tuple[PacketKind, ...] = (PacketKind.DSM_PROTOCOL,
                                         PacketKind.DSM_PAGE),
    ) -> float:
        """Swap AIH object code in, enter ``fn`` in the handler table and
        program its activation patterns.

        A packet of any of ``kinds`` with this handler key activates the
        handler (Section 2.3: the PATHFINDER 'programs ... to activate
        the object code on a match of a specified pattern').  The DSM
        protocol's control and page-carrying packets share a handler;
        collective and messaging-runtime traffic each travel under one
        kind of their own.  Returns the swap-in time (connection-setup
        cost).
        """
        swap_ns = self.handlers.install(key, code_size)
        super().install_protocol_handler(key, fn, code_size, kinds)
        for pattern in handler_patterns(key, kinds):
            self.pathfinder.install(pattern)
        return swap_ns

    # -- host send path ------------------------------------------------------------
    def host_send_cost_ns(self) -> float:
        """User-level enqueue: a few stores onto the ADC transmit ring."""
        return self.params.cpu_cycles_ns(self.params.adc_enqueue_cycles)

    def host_send(self, desc: TransmitDescriptor) -> Generator:
        """Application-thread send: the channel's protection check, the
        user-level stores, then the descriptor is on the transmit queue."""
        self.channel_manager.get(desc.channel_id).post_transmit(desc)
        yield self.host_send_cost_ns()
        self.tx_queue.put(desc)
        return None

    # -- transmit staging ------------------------------------------------------------
    def _stage_payload(self, packet: Packet) -> Generator:
        """Message-Cache transmit caching (Section 2.2, Transmit Caching).

        Returns True when any host-memory DMA was needed — i.e. the
        message was *not* found on the board.
        """
        page_size = self.params.page_size_bytes
        first = packet.src_vaddr // page_size
        last = (packet.src_vaddr + packet.payload_bytes - 1) // page_size
        mc = self.message_cache
        use_mc = self.params.transmit_caching
        staged = False
        for vpage in range(first, last + 1):
            if use_mc and mc.lookup_transmit(vpage):
                continue  # transmit straight from the cached buffer
            staged = True
            lo = max(packet.src_vaddr, vpage * page_size)
            hi = min(packet.src_vaddr + packet.payload_bytes,
                     (vpage + 1) * page_size)
            yield from self.bus.dma(hi - lo)
            self.counters.inc("mc_transmit_dma_bytes", hi - lo)
            if use_mc and packet.cacheable:
                mc.insert(vpage)
        return staged

    def _count_transmit(self, staged_from_host: bool) -> None:
        """Section 3's network cache hit ratio, per message transmission:
        a transmission whose bytes were already on the board (cached
        buffer hit, or a board-built protocol message) is a hit; one
        that had to DMA from host memory is a miss."""
        self.counters.inc("mc_transmit_lookups")
        if not staged_from_host:
            self.counters.inc("mc_transmit_hits")

    # -- receive dispatch ---------------------------------------------------------------
    def _dispatch_receive(self, packet: Packet) -> Generator:
        # The PATHFINDER runs the program installed at connection setup,
        # so classifying as its time starts gives the target it would
        # give when that time ends; an AIH activation then charges the
        # classification and the dispatch in one wake.
        target = self.pathfinder.classify(packet.header_bytes())
        if target is not None and target[0] == AIH_TARGET:
            # An activation pattern exists only for a key whose handler
            # is in the table (install_protocol_handler, cluster setup).
            key = target[1]
            handler = self.protocol_handlers[key]
            if self.params.use_aih:
                yield self._aih_ns
                # count the control transfer; the handler charges its
                # own work on the NI clock.
                self.handlers.dispatch(key)
                yield from handler(packet, True)
                return None
            # No AIH support (ablation): the board must interrupt the
            # host and the protocol runs there (the standard NI's
            # receive economics).
            yield self.params.pathfinder_classify_ns
            yield self.params.interrupt_latency_ns
            host_ns = self.params.cpu_cycles_ns(self.params.kernel_trap_cycles)
            self.hooks.steal_host_time(self.params.interrupt_latency_ns
                                       + host_ns)
            yield host_ns
            yield from handler(packet, False)
            return None
        yield self.params.pathfinder_classify_ns
        if target is None:
            self.packets_dropped += 1
            self.counters.inc("nic_classify_misses")
            return None
        yield from self._deliver_data(packet, target[1])
        return None

    def _deliver_data(self, packet: Packet, channel_id: int) -> Generator:
        """Application data: DMA into a buffer from the channel's free
        queue and announce it to the host, which polls."""
        ch = self.channel_manager.get(channel_id)
        buf = ch.free.pop()
        if buf is None:
            # No posted receive buffer: the board has nowhere to put the
            # data; drop (the messaging library always pre-posts).
            self.packets_dropped += 1
            self.counters.inc("nic_no_free_buffer")
            return
        vaddr, length = buf
        if packet.payload_bytes > length:
            self.packets_dropped += 1
            self.counters.inc("nic_buffer_too_small")
            return
        if packet.payload_bytes > PIO_THRESHOLD_BYTES:
            yield from self.bus.dma(packet.payload_bytes)
        packet.dst_vaddr = vaddr
        self.deliver(self._receive_descriptor(packet))
        return None

    # -- snooping --------------------------------------------------------------------
    def _snoop(self, node_id: int, vpages: Sequence[int]) -> None:
        """Consistency snooping: bus write traffic updates cached buffers.

        The bus carries physical addresses; we translate the written
        pages through the host MMU mirror (RTLB) inside the Message
        Cache.  ``vpages`` arrive as the distinct virtual pages the
        write traffic reached, so we first recover the physical frames
        the bus would have shown, one per page.  With snooping disabled
        (ablation) the same frames invalidate the board's stale copies.
        """
        frames = []
        for vp in vpages:
            try:
                frames.append(self.tlb.host.translate_v2p(vp))
            except KeyError:
                continue
        if frames:
            self._snoop_sink(frames)

    # -- receive wake economics ----------------------------------------------------------
    def rx_wake_overhead_ns(self) -> float:
        """Host-side cost+latency of noticing an arrival: the polling
        half of the hybrid scheme (the host is expecting traffic while a
        thread is blocked on a remote operation)."""
        return (
            self.params.poll_interval_ns / 2
            + self.params.cpu_cycles_ns(self.params.poll_check_cycles)
        )
