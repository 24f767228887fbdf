"""Application Device Channels (Section 2.1).

Part of the board's dual-ported memory is partitioned into triplets of
transmit / receive / free queues.  Opening a connection maps one triplet
into the application's address space; thereafter sends and receives are
plain loads and stores on the shared rings — lock-free, no kernel, no
gang scheduling.  Protection is checked *when a buffer is placed in a
queue*, never per transfer, which is how "verification overhead is ...
eliminated from the send and receive paths".

In the simulation the board's transmit queue
(:attr:`~repro.core.NetworkInterface.tx_queue`) acts as a channel's
transmit queue and the host's inbox
(:meth:`~repro.core.HostHooks.deliver_to_app`) as its receive queue; the
channel itself holds its free queue, a :class:`DualPortedRing`, and the
buffer ranges the kernel granted it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from collections import deque


class ChannelError(RuntimeError):
    """Protection or capacity violation on a device channel."""


@dataclass
class TransmitDescriptor:
    """What an application writes into its transmit queue."""

    dst_node: int
    vaddr: Optional[int]
    """Virtual address of the transmitted buffer (page-aligned for page
    sends); None for immediate/control payloads."""

    length: int
    handler_key: int = 0
    cacheable: bool = False
    payload: Any = None
    channel_id: int = 1
    completion: Any = None
    """Optional :class:`~repro.engine.Event` the board triggers once the
    descriptor is consumed (payload staged and segmented).  Buffer sends
    use it: the application must not reuse or re-dirty the buffer while
    the board may still be DMAing from it."""

    reliable: bool = True
    """Whether the reliable transport (when enabled) tracks the packet
    built from this descriptor; False opts a send out (best effort)."""

    kind: Any = None
    """Optional :class:`~repro.network.PacketKind` override for the
    packet built from this descriptor.  ``None`` keeps the classic
    inference (DATA, or DSM_PROTOCOL/DSM_PAGE when a handler key is
    set); the collectives subsystem sets COLLECTIVE explicitly."""

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative transmit length")


@dataclass
class ReceiveDescriptor:
    """What the board writes into the receive queue on packet arrival."""

    src_node: int
    vaddr: Optional[int]
    length: int
    handler_key: int
    payload: Any = None


class DualPortedRing:
    """A bounded single-producer / single-consumer ring.

    Manipulated by "the atomicity of loads and stores" alone in the real
    board; in the simulation the sequential kernel provides atomicity and
    the ring provides the bounded-queue semantics.
    """

    def __init__(self, capacity: int, name: str):
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self.full_rejections = 0
        #: Deepest the ring has ever been (ADC occupancy high-water mark).
        self.depth_hwm = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        """Whether a push would be rejected."""
        return len(self._items) >= self.capacity

    def push(self, item: Any) -> None:
        """Producer side; raises :class:`ChannelError` when full."""
        if self.full:
            self.full_rejections += 1
            raise ChannelError(f"ring {self.name} full")
        self._items.append(item)
        if len(self._items) > self.depth_hwm:
            self.depth_hwm = len(self._items)

    def pop(self) -> Optional[Any]:
        """Consumer side; None when empty (the poll primitive)."""
        if self._items:
            return self._items.popleft()
        return None


class DeviceChannel:
    """One application's device channel: its free queue and its granted
    buffers (its transmit and receive queues are the board's and the
    host's; see the module docstring)."""

    _ids = itertools.count(1)

    def __init__(self, owner_app: int, queue_depth: int = 256,
                 channel_id: Optional[int] = None):
        # Connection setup normally assigns the id so that both ends of a
        # connection agree on it (it is the demux key the PATHFINDER
        # matches on the receiving board); tests may let it auto-assign.
        self.channel_id = (channel_id if channel_id is not None
                           else next(DeviceChannel._ids))
        self.owner_app = owner_app
        self.free = DualPortedRing(queue_depth, f"free{self.channel_id}")
        #: Buffer ranges the kernel verified at post time: (base, length).
        self._verified: List[Tuple[int, int]] = []
        self.protection_faults = 0

    # -- protection -------------------------------------------------------------
    def grant_buffer(self, base: int, length: int) -> None:
        """Kernel-side: verify and grant a buffer region to this channel.

        This is the connection-setup-time protection check; afterwards
        any address inside a granted region may be queued freely.
        """
        if length <= 0:
            raise ValueError("empty grant")
        self._verified.append((base, length))

    def check_buffer(self, vaddr: int, length: int) -> None:
        """Queue-time protection check (the only one on the data path)."""
        for base, size in self._verified:
            if base <= vaddr and vaddr + length <= base + size:
                return
        self.protection_faults += 1
        raise ChannelError(
            f"channel {self.channel_id}: buffer {vaddr:#x}+{length} not granted"
        )

    # -- application-side operations ------------------------------------------------
    def post_transmit(self, desc: TransmitDescriptor) -> None:
        """Application posts a send (user-level stores, no kernel): the
        queue-time protection check of its buffer.  The board's transmit
        queue takes the descriptor once the stores are done."""
        if desc.vaddr is not None:
            self.check_buffer(desc.vaddr, desc.length)

    def post_free_buffer(self, vaddr: int, length: int) -> None:
        """Application donates a receive buffer to the board."""
        self.check_buffer(vaddr, length)
        self.free.push((vaddr, length))


class ChannelManager:
    """Kernel service: connection setup / teardown (the only kernel role).

    Section 2.1: "the kernel providing connection setup and tear-down
    services"; everything after :meth:`open_channel` bypasses it.
    """

    def __init__(self, max_channels: int = 64):
        self.max_channels = max_channels
        self.channels: Dict[int, DeviceChannel] = {}

    def open_channel(self, owner_app: int, queue_depth: int = 256,
                     channel_id: Optional[int] = None) -> DeviceChannel:
        """Allocate a queue triplet and map it into the app's space."""
        if len(self.channels) >= self.max_channels:
            raise ChannelError("out of device channels")
        ch = DeviceChannel(owner_app, queue_depth, channel_id)
        if ch.channel_id in self.channels:
            raise ChannelError(f"channel id {ch.channel_id} already open")
        self.channels[ch.channel_id] = ch
        return ch

    def close_channel(self, channel_id: int) -> None:
        """Tear a channel down."""
        if channel_id not in self.channels:
            raise KeyError(f"channel {channel_id} not open")
        del self.channels[channel_id]

    def get(self, channel_id: int) -> DeviceChannel:
        """Look a channel up (board-side demux target)."""
        return self.channels[channel_id]
