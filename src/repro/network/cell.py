"""Packets and ATM cell trains.

A :class:`Packet` is what the NICs exchange: a small fixed-layout binary
header (what the PATHFINDER classifies on) plus an arbitrary payload
descriptor.  On the wire a packet becomes a train of AAL5-framed ATM
cells (:mod:`repro.network.fragmentation`).

The header layout is deliberately concrete — 16 bytes, big-endian — so
that the PATHFINDER works on real byte patterns rather than on Python
attributes, as the hardware does.
"""

from __future__ import annotations

import enum
import itertools
import struct
from dataclasses import dataclass, field
from typing import Any, Optional

HEADER_BYTES = 16
_HEADER_STRUCT = struct.Struct(">BBHHHHIxx")  # kind, flags, src, dst, chan, handler, len

_packet_ids = itertools.count(1)


class PacketKind(enum.IntEnum):
    """First header byte: coarse packet class."""

    DATA = 1
    """Application message-passing data."""

    DSM_PROTOCOL = 2
    """DSM consistency-protocol control (lock, barrier, write notices)."""

    DSM_PAGE = 3
    """A shared-memory page (or diff) in flight."""

    CONTROL = 4
    """Connection setup / teardown (kernel-mediated)."""

    ACK = 5
    """Reliable-transport acknowledgement, generated and consumed by the
    NI processors themselves (never dispatched to the host; see
    docs/reliability.md)."""

    COLLECTIVE = 6
    """Collective-operation protocol (barrier/reduce/broadcast arrivals
    and releases; see docs/collectives.md).  On a CNI the PATHFINDER
    classifies these into collective AIH handlers."""

    RUNTIME = 7
    """Messaging-runtime protocol (rendezvous RTS/CTS/data and RDMA-style
    one-sided reads/writes; see docs/runtime.md).  On a CNI the
    PATHFINDER classifies these into the messaging engine's AIH
    handlers, so the library's responder runs on the NI processor."""

    HEARTBEAT = 8
    """Failure-detector liveness cell, generated and consumed by the NI
    processors themselves (zero payload, unreliable, never dispatched to
    the host; see docs/reliability.md)."""


FLAG_CACHEABLE = 0x01
"""Header flag: this buffer should be entered into the Message Cache
(Section 2.2: 'checks the incoming message header for a bit to see if it
is to be cached')."""


@dataclass
class Packet:
    """One network-level message."""

    kind: PacketKind
    src_node: int
    dst_node: int
    channel_id: int
    """Application Device Channel (connection) the packet belongs to."""

    handler_key: int = 0
    """Selector for the protocol action / AIH entry point; the field the
    VCI is too coarse to express (Section 2.1)."""

    payload_bytes: int = 0
    """Size of the payload on the wire (drives cell count and DMA cost)."""

    payload: Any = None
    """Simulation-level payload object (protocol message, page handle)."""

    cacheable: bool = False
    src_vaddr: Optional[int] = None
    """Sender-side virtual address of the transmitted buffer (page sends);
    what the transmit processor looks up in the buffer map."""

    dst_vaddr: Optional[int] = None
    """Receiver-side virtual address of the destination buffer."""

    reliable: bool = True
    """Whether the reliable transport (when enabled) tracks this packet;
    ACKs and explicitly best-effort traffic opt out."""

    rel_seq: Optional[int] = None
    """Reliable-transport sequence number on the (src, dst, channel)
    connection; assigned at first transmission, None for untracked
    packets.  (Carried in the AAL5 user-to-user field on real hardware;
    the 16-byte classification header is unchanged.)"""

    packet_id: int = field(default_factory=_packet_ids.__next__)

    def __post_init__(self):
        if self.payload_bytes < 0:
            raise ValueError("negative payload size")
        if not (0 <= self.src_node <= 0xFFFF and 0 <= self.dst_node <= 0xFFFF
                and 0 <= self.channel_id <= 0xFFFF
                and 0 <= self.handler_key <= 0xFFFF):
            for name in ("src_node", "dst_node", "channel_id", "handler_key"):
                v = getattr(self, name)
                if not 0 <= v <= 0xFFFF:
                    raise ValueError(
                        f"{name}={v} does not fit the 16-bit header field")

    @property
    def flags(self) -> int:
        """Header flag byte."""
        return FLAG_CACHEABLE if self.cacheable else 0

    def header_bytes(self) -> bytes:
        """The 16-byte wire header the PATHFINDER classifies."""
        return _HEADER_STRUCT.pack(
            self.kind,
            self.flags,
            self.src_node,
            self.dst_node,
            self.channel_id,
            self.handler_key,
            self.payload_bytes,
        )

    @property
    def wire_bytes(self) -> int:
        """Header + payload bytes presented to AAL5."""
        return HEADER_BYTES + self.payload_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.packet_id} {self.kind.name} "
            f"{self.src_node}->{self.dst_node} chan={self.channel_id} "
            f"key={self.handler_key} {self.payload_bytes}B>"
        )


def parse_header(header: bytes) -> dict:
    """Decode a 16-byte header; inverse of :meth:`Packet.header_bytes`."""
    if len(header) != HEADER_BYTES:
        raise ValueError(f"header must be {HEADER_BYTES} bytes, got {len(header)}")
    kind, flags, src, dst, chan, key, length = _HEADER_STRUCT.unpack(header)
    return {
        "kind": PacketKind(kind),
        "flags": flags,
        "src_node": src,
        "dst_node": dst,
        "channel_id": chan,
        "handler_key": key,
        "payload_bytes": length,
        "cacheable": bool(flags & FLAG_CACHEABLE),
    }


@dataclass
class CellTrain:
    """A batched representation of one packet's cells in flight.

    The network simulates a packet's cells as a unit (exact cell count,
    pipelined timing) to keep event counts tractable.  AAL5 has no
    per-cell sequence numbers: a lost or damaged cell fails the length
    or CRC check at end-of-packet, so the receiving NIC drops the whole
    packet unless the train is :attr:`intact`.
    """

    packet: Packet
    n_cells: int
    lost_cells: int = 0
    """Failure injection: number of cells dropped in transit."""

    corrupted_cells: int = 0
    """Failure injection: cells that arrived with damaged payloads
    (packet fails its AAL5 CRC even though every cell is present)."""

    def __post_init__(self):
        if self.n_cells < 1:
            raise ValueError("a train carries at least one cell")
        if not 0 <= self.lost_cells <= self.n_cells:
            raise ValueError("lost more cells than the train carries")
        if not 0 <= self.corrupted_cells <= self.n_cells - self.lost_cells:
            raise ValueError("corrupted more cells than arrived")

    @property
    def intact(self) -> bool:
        """Whether every cell arrived undamaged."""
        return self.lost_cells == 0 and self.corrupted_cells == 0
