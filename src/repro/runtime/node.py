"""One simulated workstation: CPU + caches + bus + MMU + NIC + DSM engine.

The node is the "platform" surface both the NIC (:class:`HostHooks`) and
the DSM engine rely on; its methods encode the accounting taxonomy of
Tables 2-4 (computation / synch overhead / synch delay) and the stolen-
time model for asynchronous host work (DESIGN.md section 6).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Optional, Tuple

import numpy as np

from ..core import CNIInterface, ReceiveDescriptor, StandardInterface
from ..engine import Category, Counters, Gate, Simulator, TimeAccount
from ..engine.stats import negative_charge
from ..memory import BoardTLB, CacheHierarchy, HostMMU, MemoryBus
from ..network import Network
from ..obs import MetricsScope, SpanTracer, private_scope
from ..params import SimParams
from .errors import RuntimeTimeout

#: AIH object-code footprint of the DSM protocol (one consistency
#: protocol resident in handler memory, per Section 3's assumption).
DSM_HANDLER_CODE_BYTES = 48 * 1024

#: Sentinel a timed-out Gate.wait_upto returns (never a real descriptor).
_RECV_TIMEOUT = object()


class Node:
    """A workstation in the cluster."""

    def __init__(
        self,
        sim: Simulator,
        params: SimParams,
        node_id: int,
        network: Network,
        counters: Counters,
        interface: str = "cni",
        metrics: Optional[MetricsScope] = None,
        spans: Optional[SpanTracer] = None,
    ):
        if interface not in ("cni", "standard"):
            raise ValueError(f"unknown interface type {interface!r}")
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.counters = counters
        self.interface = interface
        self.metrics = metrics if metrics is not None else private_scope()
        self.spans = spans

        self.account = TimeAccount()
        self.cache = CacheHierarchy(
            l1_size=params.l1_size_bytes,
            l2_size=params.l2_size_bytes,
            line_bytes=params.cache_line_bytes,
            l1_cycles=params.l1_access_cycles,
            l2_cycles=params.l2_access_cycles,
            memory_cycles=params.memory_latency_cycles,
        )
        self.bus = MemoryBus(sim, params, node_id,
                             metrics=self.metrics.scope("bus"), spans=spans)
        self._lines_per_page = params.lines_per_page
        #: The shared segment's first virtual page (set when the segment
        #: is mapped, :meth:`map_dsm_pages`).
        self._dsm_base_page: Optional[int] = None
        self.mmu = HostMMU(params.page_size_bytes)
        self.tlb = BoardTLB(self.mmu)

        if interface == "cni":
            self.nic = CNIInterface(
                sim, params, node_id, network, self.bus, counters, self,
                self.tlb, metrics=self.metrics.scope("nic")
            )
        else:
            self.nic = StandardInterface(
                sim, params, node_id, network, self.bus, counters, self,
                metrics=self.metrics.scope("nic")
            )

        #: Pending asynchronous host work, folded into the next compute.
        self._stolen_ns = 0.0
        #: Whether the application thread is currently blocked on a
        #: remote operation (stolen host work then overlaps the wait and
        #: must not additionally stretch later computation).
        self.app_blocked = False
        #: Messaging inbox (the channel's receive queue) + its wake gate.
        self.app_inbox: Deque[ReceiveDescriptor] = deque()
        self.app_rx_gate = Gate(sim, f"node{node_id}-rx")
        #: Private-page bump allocator for registered message buffers.
        self._next_private_page = 1
        #: Set by Cluster once the DSM channel is open (CNI) / engine built.
        self.dsm_channel_id = 0
        self.engine = None  # set by Cluster.attach_engine
        self.coll = None  # collective engine, set by Cluster
        self.rt = None  # messaging engine, set by Cluster

    # ------------------------------------------------------------ accounting --
    # The three charges reach their TimeAccount slot directly: naming
    # the Category would cost an enum member lookup and a hash each.
    def account_compute(self, ns: float) -> None:
        """Application computation time."""
        if ns < 0:
            raise negative_charge(ns, Category.COMPUTATION)
        self.account.computation += ns

    def account_overhead(self, ns: float) -> None:
        """Host time actively spent on synchronization/messaging work."""
        if ns < 0:
            raise negative_charge(ns, Category.SYNCH_OVERHEAD)
        self.account.synch_overhead += ns

    def account_delay(self, ns: float) -> None:
        """Time the application sat blocked on a remote operation."""
        if ns < 0:
            raise negative_charge(ns, Category.SYNCH_DELAY)
        self.account.synch_delay += ns

    def steal_host_time(self, ns: float) -> None:
        """Asynchronous host-CPU work (interrupts, kernel dispatch, host
        protocol handlers), accounted immediately as synch overhead; if
        the application is computing, its next burst stretches by the
        same amount (the CPU was serving the network instead of the
        application).  Work that lands while the application is
        *blocked* overlaps the wait and steals nothing extra."""
        if ns < 0:
            raise negative_charge(ns, Category.SYNCH_OVERHEAD)
        self.account.synch_overhead += ns
        if not self.app_blocked:
            self._stolen_ns += ns

    def protocol_step_ns(self, on_board: bool, ni_cycles: float,
                         host_cycles: float) -> float:
        """Price one protocol step where the board ran it (Section 2.3):
        ``ni_cycles`` on the NI processor's clock for an Application
        Interrupt Handler, or ``host_cycles`` on the CPU clock, stolen
        from the application as synch overhead.  Returns the step's
        time for the handler to yield."""
        if on_board:
            return self.params.ni_cycles_ns(ni_cycles)
        ns = self.params.cpu_cycles_ns(host_cycles)
        self.steal_host_time(ns)
        return ns

    def take_stolen_ns(self) -> float:
        """Drain the pending inflation (used by the compute primitive)."""
        ns, self._stolen_ns = self._stolen_ns, 0.0
        return ns

    # -------------------------------------------------------------- memory ops --
    def write_back_page(self, page: int) -> float:
        """Write the page's dirty cache lines back to memory; returns the
        bus time.  Not a generator, like :meth:`cache_access`: the
        release path yields the time and accounts it itself.

        The write traffic is shown to the bus snoopers once, as the
        page, which is how the Message Cache's copy stays consistent
        (Section 2.2).
        """
        # The page comes from the interval's write collector, whose
        # pages the access path checked against the segment, so its
        # address is arithmetic on the segment's first virtual page.
        vpage = self._dsm_base_page + page
        n = self._lines_per_page
        return self._write_back(vpage * n, n, (vpage,))

    def flush_buffer(self, vaddr: int, nbytes: int) -> Generator:
        """Flush an arbitrary registered buffer before transmitting it
        (the message-passing send path's consistency obligation)."""
        cost = 0.0
        if nbytes > 0:
            last = vaddr + nbytes - 1
            line = self.params.cache_line_bytes
            page = self.params.page_size_bytes
            one_page = vaddr // page == last // page
            cost = self._write_back(vaddr // line,
                                    last // line - vaddr // line + 1,
                                    (vaddr // page,) if one_page else None)
        yield cost
        self.account_overhead(cost)
        return None

    def _write_back(self, first_line: int, n: int,
                    pages: Optional[Tuple[int]]) -> float:
        """Flush the dirty copies of lines ``first_line ..
        first_line+n-1`` to memory and show the write-backs to the bus
        snoopers; returns the bus time.  ``pages`` is the one
        page the range lies in, or None when it spans several: the bus
        then reduces the flushed lines to their distinct pages."""
        flushed = self.cache.flush_range(first_line, n)
        if not flushed.size:
            return 0.0
        words = flushed.size * (
            self.params.cache_line_bytes // self.params.bus_word_bytes
        )
        cost = self.params.bus_cycles_ns(
            self.params.bus_acquisition_cycles
            + self.params.bus_cycles_per_word * words
        )
        self.bus.cpu_write_traffic(flushed, pages)
        return cost

    def drop_page_from_cpu_cache(self, page: int) -> None:
        """Invalidate a page's lines in the CPU caches (fresh remote data
        just landed in memory underneath them)."""
        n = self._lines_per_page
        self.cache.invalidate_range((self._dsm_base_page + page) * n, n)

    def mc_receive_insert(self, vaddr: int, nbytes: int) -> None:
        """Receive caching (Section 2.2): bind the pages of data that
        just landed at ``vaddr`` (a DSM page or a runtime landing
        buffer) into the Message Cache.  No-op on the standard interface
        or when receive caching is ablated away."""
        if not self.params.receive_caching:
            return
        mc = getattr(self.nic, "message_cache", None)
        if mc is None or nbytes <= 0:
            return
        page = self.params.page_size_bytes
        for vpage in range(vaddr // page, (vaddr + nbytes - 1) // page + 1):
            mc.insert(vpage)

    def map_dsm_pages(self, npages: int) -> None:
        """Connection setup: map the shared segment and mirror it on the
        board (TLB/RTLB), so snooping and virtually-addressed DMA work."""
        segment = self.engine.segment
        self._dsm_base_page = segment.asp.dsm_base // self.params.page_size_bytes
        for p in range(npages):
            vaddr = segment.page_vaddr(p)
            vpage = vaddr // self.params.page_size_bytes
            self.mmu.map_page(vpage)
            self.tlb.install(vpage)

    def alloc_private_buffer(self, nbytes: int) -> int:
        """Allocate page-aligned private memory for a message buffer and
        register it with the MMU + board TLB."""
        pages = max(1, -(-nbytes // self.params.page_size_bytes))
        vpage = self._next_private_page
        self._next_private_page += pages
        for p in range(vpage, vpage + pages):
            self.mmu.map_page(p)
            self.tlb.install(p)
        return vpage * self.params.page_size_bytes

    def cache_write_private(self, vaddr: int, nbytes: int) -> Generator:
        """Application writes to private memory (message buffers): cache
        simulation without DSM involvement."""
        line = self.params.cache_line_bytes
        first = vaddr // line
        n = (vaddr + nbytes - 1) // line - first + 1 if nbytes > 0 else 0
        ns = self.cache_access_range(first, n, is_write=True)
        yield ns
        self.account_compute(ns)
        return None

    def cache_access(self, lines: np.ndarray, is_write: bool) -> float:
        """Run a CPU burst through the cache hierarchy and show its
        write-backs to the bus snoopers; returns the CPU stall time.  Not
        a generator, like :meth:`_write_back`; the caller yields the time
        and accounts it.  Write-backs from replacements come in no
        guaranteed order and may span several pages, so the bus reduces
        them to pages itself."""
        cost = self.cache.access(lines, is_write)
        if cost.writeback_lines.size:
            self.bus.cpu_write_traffic(cost.writeback_lines)
        return self.params.cpu_cycles_ns(cost.cpu_cycles)

    def cache_access_range(self, first_line: int, n: int,
                           is_write: bool) -> float:
        """:meth:`cache_access` of the contiguous burst ``first_line ..
        first_line+n-1``, through the cache's range entry."""
        cost = self.cache.access_range(first_line, n, is_write)
        if cost.writeback_lines.size:
            self.bus.cpu_write_traffic(cost.writeback_lines)
        return self.params.cpu_cycles_ns(cost.cpu_cycles)

    # ---------------------------------------------------------------- HostHooks --
    def deliver_to_app(self, desc: ReceiveDescriptor) -> None:
        """NIC hook: an application message is ready for the host."""
        self.app_inbox.append(desc)
        self.app_rx_gate.notify(desc)

    # ------------------------------------------------------------- receive wait --
    def wait_for_message(self, deadline_ns: Optional[float] = None) -> Generator:
        """Block until a DATA message is available; returns its descriptor.

        The noticing cost differs by interface (polling vs interrupt) and
        is charged as synch overhead; the blocked stretch is synch delay.
        ``deadline_ns`` bounds the wait (None takes
        ``SimParams.op_deadline_ns``; 0 waits forever); expiry raises
        :class:`~repro.runtime.RuntimeTimeout` instead of hanging.
        """
        deadline = (self.params.op_deadline_ns if deadline_ns is None
                    else deadline_ns)
        t0 = self.sim.now
        span = (self.spans.begin(f"node{self.node_id}", "rx_wait")
                if self.spans is not None else None)
        self.app_blocked = True
        try:
            while not self.app_inbox:
                if deadline > 0:
                    remaining = deadline - (self.sim.now - t0)
                    if remaining > 0:
                        got = yield from self.app_rx_gate.wait_upto(
                            remaining, _RECV_TIMEOUT)
                    else:
                        got = _RECV_TIMEOUT
                    if got is _RECV_TIMEOUT and not self.app_inbox:
                        raise RuntimeTimeout("recv", None, deadline)
                else:
                    yield from self.app_rx_gate.wait()
        finally:
            self.app_blocked = False
            if span is not None:
                self.spans.end(span)
            self.account_delay(self.sim.now - t0)
        wake_ns = self.nic.rx_wake_overhead_ns()
        yield wake_ns
        self.account_overhead(wake_ns)
        return self.app_inbox.popleft()
