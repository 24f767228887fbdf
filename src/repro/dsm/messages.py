"""DSM protocol message payloads and their wire sizes.

Each message type has its own handler key so the PATHFINDER dispatches
protocol actions at pattern granularity — exactly the fine-grained demux
Section 2.1 argues a bare VCI cannot express.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .interval import Interval


class MsgType(enum.IntEnum):
    """Protocol actions; doubles as the packet's PATHFINDER handler key."""

    LOCK_REQ = 0x10
    LOCK_FORWARD = 0x11
    LOCK_GRANT = 0x12
    PAGE_REQ = 0x20
    PAGE_REPLY = 0x21
    DIFF_REQ = 0x22
    DIFF_REPLY = 0x23
    # No packet carries the two barrier keys (barriers ride the
    # collective engine), but ``len(MsgType)`` splits the DSM handler
    # code into the per-type AIHs, so they keep the installed sizes.
    BARRIER_ARRIVE = 0x30
    BARRIER_RELEASE = 0x31
    INVALIDATE = 0x40
    INV_ACK = 0x41


#: Fixed framing of every protocol message body.
MSG_BASE_BYTES = 24


def intervals_wire_bytes(intervals: List[Interval]) -> int:
    """Bytes a piggybacked interval list adds to a message."""
    return sum(iv.wire_bytes for iv in intervals)


@dataclass
class LockReq:
    """Acquirer -> lock home: request ownership of ``lock_id``."""

    lock_id: int
    requester: int
    vc: List[int]

    @property
    def wire_bytes(self) -> int:
        return MSG_BASE_BYTES + 8 * len(self.vc)


@dataclass
class LockForward:
    """Lock home -> last releaser: pass the grant duty along."""

    lock_id: int
    requester: int
    vc: List[int]

    @property
    def wire_bytes(self) -> int:
        return MSG_BASE_BYTES + 8 * len(self.vc)


@dataclass
class LockGrant:
    """Granter -> acquirer: the lock plus every interval it lacks."""

    lock_id: int
    granter: int
    intervals: List[Interval] = field(default_factory=list)

    @property
    def wire_bytes(self) -> int:
        return MSG_BASE_BYTES + intervals_wire_bytes(self.intervals)


@dataclass
class PageReq:
    """Faulting node -> believed holder: send me page ``page``."""

    page: int
    requester: int
    hops: int = 0
    """Forwarding count; a request chases stale source pointers."""

    @property
    def wire_bytes(self) -> int:
        return MSG_BASE_BYTES


@dataclass
class PageReply:
    """Holder -> faulting node: a full page copy (the payload that the
    Message Cache exists to accelerate)."""

    page: int
    holder: int

    @property
    def wire_bytes(self) -> int:
        return MSG_BASE_BYTES  # page data itself is the packet payload


@dataclass
class DiffReq:
    """Faulting node -> concurrent writer: send your diffs for ``page``."""

    page: int
    requester: int
    intervals: List[Tuple[int, int]] = field(default_factory=list)
    """The (proc, seq) intervals whose modifications are owed."""

    @property
    def wire_bytes(self) -> int:
        return MSG_BASE_BYTES + 8 * len(self.intervals)


@dataclass
class DiffReply:
    """Writer -> faulting node: the modified bytes of the named intervals."""

    page: int
    writer: int
    intervals: List[Tuple[int, int]] = field(default_factory=list)
    diff_bytes: int = 0

    @property
    def wire_bytes(self) -> int:
        return MSG_BASE_BYTES + 8 * len(self.intervals)  # + payload


@dataclass
class Invalidate:
    """Eager RC: releaser -> everyone: apply these intervals *now*.

    Lazy release consistency defers notice propagation to the next
    causally-related acquire; the eager variant (Munin-style) pushes the
    notices at release time and blocks the releaser until acknowledged.
    Implemented as a protocol ablation — Section 3 justifies the lazy
    choice ("invalidate protocols work best in low overhead
    environments") and this variant lets the claim be measured.
    """

    releaser: int
    seq: int
    intervals: List[Interval] = field(default_factory=list)

    @property
    def wire_bytes(self) -> int:
        return MSG_BASE_BYTES + intervals_wire_bytes(self.intervals)


@dataclass
class InvAck:
    """Eager RC: invalidation receipt."""

    acker: int
    releaser: int
    seq: int

    @property
    def wire_bytes(self) -> int:
        return MSG_BASE_BYTES
