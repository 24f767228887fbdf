"""Simulation parameters for the CNI reproduction.

:class:`SimParams` captures Table 1 of the paper plus the handful of
derived or paper-implied constants the evaluation needs (link rate, ATM
cell geometry, per-operation software costs).  Everything is expressed in
the unit stated in its docstring; helpers convert to nanoseconds, the
engine's time base.

Two values in the paper's Table 1 are OCR-damaged ("Network Latency 150 s",
"Interrupt Latency 40 ns"); DESIGN.md section 2 explains why they are
resolved to 150 ns wire latency and ~10 us interrupt latency.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Any, Optional


NS_PER_SEC = 1_000_000_000


@dataclass(frozen=True)
class SimParams:
    """All tunable parameters of the simulated cluster.

    The defaults reproduce Table 1 of the paper.  Instances are frozen so
    a configuration can be shared between nodes without defensive copies;
    use :meth:`replace` to derive variants.
    """

    # ------------------------------------------------------------- host CPU
    cpu_freq_hz: float = 166e6
    """CPU clock (Table 1: 166 MHz)."""

    # ---------------------------------------------------------------- caches
    l1_access_cycles: int = 1
    """Primary cache access time, CPU cycles (Table 1: 1 cycle)."""

    l1_size_bytes: int = 32 * 1024
    """Primary cache size (Table 1: 32K unified)."""

    l2_access_cycles: int = 10
    """Secondary cache access time, CPU cycles (Table 1: 10 cycles)."""

    l2_size_bytes: int = 1024 * 1024
    """Secondary cache size (Table 1: 1 MB unified)."""

    cache_line_bytes: int = 32
    """Cache line size (Alpha-era 32-byte blocks; not in Table 1)."""

    # Write-back, direct-mapped organisation is fixed by Table 1 and is
    # structural rather than parametric (see repro.memory.cache).

    # ---------------------------------------------------------------- memory
    memory_latency_cycles: int = 20
    """Main memory latency, CPU cycles (Table 1: 20 cycles)."""

    # ------------------------------------------------------------------- bus
    bus_acquisition_cycles: int = 4
    """Bus acquisition time, bus cycles (Table 1: 4 cycles)."""

    bus_cycles_per_word: int = 2
    """Bus transfer rate, bus cycles per word (Table 1: 2 cycles/word)."""

    bus_freq_hz: float = 25e6
    """Bus clock (Table 1: 25 MHz)."""

    bus_word_bytes: int = 8
    """Bus word width (64-bit Alpha system bus)."""

    # --------------------------------------------------------------- network
    switch_latency_ns: float = 500.0
    """Banyan switch cut-through latency (Table 1: 500 ns)."""

    ni_freq_hz: float = 33e6
    """Network (interface) processor clock (Table 1: 33 MHz)."""

    wire_latency_ns: float = 150.0
    """Link propagation latency (Table 1 "Network Latency", see DESIGN.md)."""

    link_rate_bps: float = 622e6
    """STS-12 line rate quoted in Section 2 (622 Mbps)."""

    atm_cell_bytes: int = 53
    """ATM cell size on the wire."""

    atm_payload_bytes: int = 48
    """ATM cell payload."""

    aal5_trailer_bytes: int = 8
    """AAL5 trailer appended to every packet before segmentation."""

    unrestricted_cell_size: bool = False
    """Table 5's "mythical" ATM with unlimited cell size: one cell per
    packet, no segmentation-and-reassembly overhead."""

    per_cell_transport: bool = False
    """Simulate every ATM cell as its own event instead of batching a
    packet's cells into a train.  Exercises the PATHFINDER's fragment
    table exactly as the hardware does (classify the first cell, route
    the rest by table) at the price of ~86x the event count per page —
    meant for microbenchmarks and fidelity tests, not full sweeps."""

    # ------------------------------------------------------------ interrupts
    interrupt_latency_ns: float = 10_000.0
    """Host interrupt delivery + handler entry/exit cost.  Table 1's OCR
    reads "40 ns", which cannot be a full interrupt cost; Figure 14's
    near-coincident curves at zero message size bound it to around ten
    microseconds on a 166 MHz workstation (see DESIGN.md)."""

    # -------------------------------------------------------- Message Cache
    message_cache_bytes: int = 32 * 1024
    """Message Cache capacity on the adaptor board (Table 1: 32 KB)."""

    page_size_bytes: int = 4096
    """Host page size == Message Cache buffer size == DSM page size
    (Section 2.2 fixes the buffer size to the host page size)."""

    # ------------------------------------------- NI processor software costs
    ni_cell_sar_cycles: int = 8
    """NI-processor cycles to segment or reassemble one ATM cell (the
    per-cell cost that makes the 53-byte cell the paper's stated limiting
    factor)."""

    ni_packet_overhead_cycles: int = 60
    """Fixed NI-processor cycles per packet (header build/parse, queue
    manipulation on the board)."""

    ni_handler_dispatch_cycles: int = 40
    """PATHFINDER-triggered transfer of control into an Application
    Interrupt Handler (Section 2.3)."""

    ni_aih_protocol_cycles: int = 220
    """NI-processor cycles for one DSM protocol action executed inside an
    Application Interrupt Handler (lock grant, write-notice merge, ...)."""

    pathfinder_classify_ns: float = 200.0
    """Hardware PATHFINDER classification latency per packet (the OSDI'94
    design classifies at line rate; a fraction of a cell time)."""

    sw_classify_cycles_hot: int = 60
    """Host/NI cycles for software classification when the classifier code
    is resident in the instruction cache (standard NI path)."""

    sw_classify_cycles_cold: int = 420
    """Software classification with instruction-cache capacity misses, the
    behaviour the paper measured on the ATOMIC interface."""

    # ---------------------------------------------------- host software costs
    kernel_trap_cycles: int = 600
    """CPU cycles for a kernel entry/exit on the standard NI send/receive
    path (system-call trap, argument checks)."""

    host_protocol_cycles: int = 900
    """CPU cycles for one DSM protocol action executed on the host (the
    standard configuration runs the consistency protocol in the kernel /
    user library instead of in an AIH)."""

    adc_enqueue_cycles: int = 30
    """CPU cycles for a user-level lock-free enqueue onto an Application
    Device Channel queue (a handful of loads/stores, Section 2.1)."""

    poll_check_cycles: int = 12
    """CPU cycles for one poll of the receive/free queues."""

    poll_interval_ns: float = 2_000.0
    """Host polling period while expecting traffic (CNI hybrid scheme)."""

    page_fault_handler_cycles: int = 300
    """CPU cycles of generic fault handling before the DSM protocol takes
    over on an access miss."""

    twin_cycles_per_word: float = 1.0
    """CPU cycles per word to copy a page into its twin on the first
    write of an interval (multiple-writer LRC)."""

    notice_create_cycles: int = 40
    """CPU cycles to create one write notice at release time."""

    diff_cycles_per_word: float = 1.5
    """CPU cycles per word to build a diff (twin comparison) when a
    concurrent writer's modifications are requested."""

    full_page_fetch_threshold: float = 0.5
    """On a fault over a stale-but-reconstructible copy, fetch the whole
    page (instead of per-writer diffs) once the pending modified bytes
    reach this fraction of the page — mostly-rewritten pages migrate
    whole (the Message Cache's case), lightly-touched pages move as
    diffs (the concurrent-write-sharing case the paper credits for
    Cholesky)."""

    # --------------------------------------------- reliability + fault model
    reliable_transport: bool = False
    """NIC-resident reliable delivery on the ADC send path: per-connection
    sequence numbers, timeout-driven retransmission with exponential
    backoff, duplicate/reorder suppression and per-packet acks (see
    docs/reliability.md).  Off by default: the paper's fabric is
    loss-free and the protocol's acks would perturb its timings."""

    reliab_timeout_ns: float = 500_000.0
    """Initial retransmission timeout.  Several times the uncontended
    round trip (~60 us each way at Table 1 speeds), so only genuine loss
    — not switch contention — fires the timer."""

    reliab_backoff: float = 2.0
    """Multiplier applied to the timeout after every retransmission of
    the same packet (>= 1)."""

    reliab_max_attempts: int = 10
    """Retry budget per packet: after this many transmissions without an
    ack the transport raises :class:`~repro.core.DeliveryFailed` instead
    of hanging the run."""

    runtime_send_retries: int = 0
    """Eager-send retry rounds in the messaging runtime after the
    reliable transport exhausts its own budget: on ``DeliveryFailed``
    for an eager DATA packet the runtime re-enqueues it up to this many
    times with bounded backoff before letting the failure surface
    (docs/reliability.md).  0 (default) disables the interception."""

    op_deadline_ns: float = 0.0
    """Default deadline for blocking messaging-runtime operations
    (``send_rendezvous``/``remote_read``/``remote_write``/``recv``) and
    collective episodes.  On expiry the operation raises a typed
    :class:`~repro.runtime.RuntimeTimeout` / :class:`~repro.runtime.PeerDead`
    / :class:`~repro.collectives.CollectiveError` instead of hanging.
    0 (default) means no deadline — the seed behaviour."""

    heartbeat_interval_ns: float = 0.0
    """Period of the NIC-resident failure detector's liveness cells.  0
    (default) disables the detector entirely — no heartbeat traffic, no
    timers, bit-identical digests to the pre-detector model.  See
    docs/reliability.md."""

    heartbeat_miss_budget: int = 3
    """Missed-heartbeat budget: a peer silent for more than
    ``heartbeat_interval_ns * heartbeat_miss_budget`` becomes
    *suspected* (crash-stop suspicion; any later packet clears it)."""

    rendezvous_threshold: int = 4096
    """Eager/rendezvous crossover of the messaging runtime
    (docs/runtime.md): sends of at most this many bytes copy through the
    pre-posted free-queue buffers (eager); larger sends do an RTS/CTS
    handshake and stream page-sized chunks into a receiver-allocated
    landing buffer (rendezvous).  The MPICH2-over-InfiniBand design
    point; 0 forces every ``MessagingService.send`` to rendezvous."""

    reassembly_timeout_ns: float = 5_000_000.0
    """Receive-side SAR eviction: a partial packet whose cells stop
    arriving for this long is aborted and counted as dropped (the
    reassembly-map leak fix; per-cell transport mode)."""

    fault_plan: Optional[Any] = None
    """A :class:`repro.faults.FaultPlan` applied by the fabric, or None
    for a loss-free network.  (Typed loosely to keep ``repro.params``
    import-cycle-free; validated structurally.)"""

    # --------------------------------------------------------------- cluster
    topology: str = "banyan:32"
    """Fabric topology spec (``repro.network.spec`` grammar):
    ``banyan:32`` (default) the paper's machine, a single 32-port banyan
    switch; ``fattree:k=4`` a three-level fat-tree of banyan elements;
    ``torus:4x4x4[:adaptive]`` an APEnet+-style torus with
    dimension-order or minimal-adaptive routing (docs/network.md)."""

    num_processors: int = 8
    """Workstations in the cluster (one application thread per node)."""

    dsm_address_space_pages: int = 8192
    """Pages of the processor address space reserved for DSM (Section 3:
    a fixed portion of the address space, approximate-LRU recycled)."""

    # ------------------------------------------------------------- NIC flags
    use_aih: bool = True
    """CNI feature: protocol handlers on the NI processor."""

    snoop_enabled: bool = True
    """CNI feature: consistency snooping on the memory bus (ablation knob;
    with snooping off, a CPU write permanently invalidates the cached
    board copy of the page)."""

    transmit_caching: bool = True
    """CNI feature, Message Cache (Section 2.2): transmit pages from
    cached board buffers (ablation knob)."""

    receive_caching: bool = True
    """CNI feature, Message Cache: bind received pages into the cache
    (ablation knob).  With both caching flags off the board never uses
    its Message Cache, as on the standard interface."""

    # ------------------------------------------------------------- derived --
    # Cycle times are read on every timed step: each instance computes
    # them once, outside the fields equality, hashing and replace() see.
    @functools.cached_property
    def cpu_cycle_ns(self) -> float:
        """Duration of one CPU cycle in nanoseconds."""
        return NS_PER_SEC / self.cpu_freq_hz

    @functools.cached_property
    def bus_cycle_ns(self) -> float:
        """Duration of one bus cycle in nanoseconds."""
        return NS_PER_SEC / self.bus_freq_hz

    @functools.cached_property
    def ni_cycle_ns(self) -> float:
        """Duration of one NI-processor cycle in nanoseconds."""
        return NS_PER_SEC / self.ni_freq_hz

    @functools.cached_property
    def cell_wire_time_ns(self) -> float:
        """Serialization time of one ATM cell at the line rate."""
        return self.atm_cell_bytes * 8 * NS_PER_SEC / self.link_rate_bps

    @property
    def words_per_page(self) -> int:
        """Bus words in one page."""
        return self.page_size_bytes // self.bus_word_bytes

    @property
    def lines_per_page(self) -> int:
        """Cache lines in one page."""
        return self.page_size_bytes // self.cache_line_bytes

    @property
    def message_cache_buffers(self) -> int:
        """Number of page-sized buffers the Message Cache holds."""
        return self.message_cache_bytes // self.page_size_bytes

    # ------------------------------------------------------------- helpers --
    def cpu_cycles_ns(self, cycles: float) -> float:
        """Convert CPU cycles to nanoseconds."""
        return cycles * self.cpu_cycle_ns

    def bus_cycles_ns(self, cycles: float) -> float:
        """Convert bus cycles to nanoseconds."""
        return cycles * self.bus_cycle_ns

    def ni_cycles_ns(self, cycles: float) -> float:
        """Convert NI-processor cycles to nanoseconds."""
        return cycles * self.ni_cycle_ns

    def dma_time_ns(self, nbytes: int) -> float:
        """Bus time to DMA ``nbytes`` between host memory and the board.

        Acquisition plus the per-word transfer cost of Table 1.  A 4 KB
        page costs 4 + 2*512 = 1028 bus cycles = ~41 us, the quantity the
        Message Cache exists to avoid.
        """
        words = -(-nbytes // self.bus_word_bytes)
        cycles = self.bus_acquisition_cycles + self.bus_cycles_per_word * words
        return self.bus_cycles_ns(cycles)

    def train_wire_time_ns(self, wire_bytes: int) -> float:
        """Line-rate serialization time for one packet's cells.

        In normal mode the packet occupies whole 53-byte cells (payload
        padded into 48-byte chunks); with ``unrestricted_cell_size`` the
        same bytes travel in one jumbo cell with a single 5-byte header
        and the AAL5 trailer, so the padding/header inflation disappears
        but the bytes themselves still take wire time.
        """
        header = self.atm_cell_bytes - self.atm_payload_bytes
        if self.unrestricted_cell_size:
            total = wire_bytes + self.aal5_trailer_bytes + header
            return total * 8 * NS_PER_SEC / self.link_rate_bps
        return self.cells_for_packet(wire_bytes) * self.cell_wire_time_ns

    def cells_for_packet(self, payload_bytes: int) -> int:
        """ATM cells needed for an AAL5 packet of ``payload_bytes``."""
        if self.unrestricted_cell_size:
            return 1
        total = payload_bytes + self.aal5_trailer_bytes
        return max(1, -(-total // self.atm_payload_bytes))

    def replace(self, **changes) -> "SimParams":
        """Return a copy with ``changes`` applied, validated once by
        ``__post_init__``."""
        return dataclasses.replace(self, **changes)

    def validate(self) -> None:
        """Raise :class:`ValueError` on inconsistent parameter sets."""
        if self.page_size_bytes % self.cache_line_bytes:
            raise ValueError(
                f"page size {self.page_size_bytes} must be a multiple of the "
                f"cache line size {self.cache_line_bytes}"
            )
        if self.page_size_bytes % self.bus_word_bytes:
            raise ValueError("page size must be a multiple of the bus word")
        for name in ("l1_size_bytes", "l2_size_bytes"):
            size = getattr(self, name)
            if size % self.cache_line_bytes:
                raise ValueError(f"{name}={size} not a multiple of line size")
        if self.message_cache_bytes and self.message_cache_bytes < self.page_size_bytes:
            raise ValueError(
                "message cache smaller than one page cannot hold any buffer"
            )
        if self.atm_payload_bytes <= 0 or self.atm_cell_bytes < self.atm_payload_bytes:
            raise ValueError("inconsistent ATM cell geometry")
        if self.num_processors < 1:
            raise ValueError("need at least one processor")
        for name in (
            "cpu_freq_hz",
            "bus_freq_hz",
            "ni_freq_hz",
            "link_rate_bps",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("reliab_timeout_ns", "reassembly_timeout_ns"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rendezvous_threshold < 0:
            raise ValueError("rendezvous_threshold must be >= 0")
        if self.reliab_backoff < 1.0:
            raise ValueError("reliab_backoff must be >= 1 (timeouts never shrink)")
        if self.reliab_max_attempts < 1:
            raise ValueError("reliab_max_attempts must allow at least one send")
        if self.runtime_send_retries < 0:
            raise ValueError("runtime_send_retries must be >= 0")
        if self.op_deadline_ns < 0:
            raise ValueError("op_deadline_ns must be >= 0 (0 = no deadline)")
        if self.heartbeat_interval_ns < 0:
            raise ValueError(
                "heartbeat_interval_ns must be >= 0 (0 = detector off)")
        if self.heartbeat_miss_budget < 1:
            raise ValueError("heartbeat_miss_budget must be >= 1")
        # Light parser, no fabric/engine imports (repro.network.spec is
        # import-cycle-free by design).
        from .network.spec import parse_topology

        spec = parse_topology(self.topology)
        if spec.capacity < self.num_processors:
            raise ValueError(
                f"topology {spec.canonical()!r} attaches "
                f"{spec.capacity} node(s); num_processors="
                f"{self.num_processors} does not fit")
        if self.fault_plan is not None:
            validate = getattr(self.fault_plan, "validate", None)
            activate = getattr(self.fault_plan, "activate", None)
            if validate is None or activate is None:
                raise ValueError(
                    "fault_plan must be a repro.faults.FaultPlan "
                    "(needs validate() and activate())")
            validate()

    def __post_init__(self):
        self.validate()


#: The configuration of the paper's Table 1.
PAPER_PARAMS = SimParams()


def standard_interface_params(base: SimParams = PAPER_PARAMS) -> SimParams:
    """The paper's "standard networking interface" baseline.

    Section 3: no Application Device Channels, no Message Cache and no
    support for Application Interrupt Handlers; otherwise identical
    hardware and software.  Channels follow the cluster's interface,
    not a flag: a ``"standard"`` cluster builds the kernel-mediated
    :class:`~repro.core.standard_nic.StandardInterface`.
    """
    return base.replace(
        use_aih=False,
        snoop_enabled=False,
        transmit_caching=False,
        receive_caching=False,
    )


def cni_params(base: SimParams = PAPER_PARAMS) -> SimParams:
    """The full CNI configuration: the Message Cache (with snooping and
    both caching directions) and Application Interrupt Handlers on.  The
    third mechanism, Application Device Channels, comes with the
    ``"cni"`` interface itself."""
    return base.replace(
        use_aih=True,
        snoop_enabled=True,
        transmit_caching=True,
        receive_caching=True,
    )
