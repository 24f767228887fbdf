"""Lazy release consistency DSM (the protocol the evaluation runs).

The engine (:class:`DsmEngine`) is platform-neutral; the CNI runs its
handlers in Application Interrupt Handlers on the NI processor, the
standard interface runs them on the host after an interrupt.  Barriers
ride the collective engine (:mod:`repro.collectives`), with this engine
as their consistency attachment.
"""

from .checker import Violation, assert_healthy, check_cluster
from .diff import RangeSet
from .eager import EagerDsmEngine
from .directory import HomePolicy
from .interval import (
    INTERVAL_WIRE_BYTES,
    NOTICE_WIRE_BYTES,
    Interval,
    IntervalLog,
    WriteCollector,
    WriteNotice,
)
from .locks import LocalLockState, LocalLockTable, LockManagerRecord, LockManagerTable
from .messages import (
    DiffReply,
    DiffReq,
    LockForward,
    LockGrant,
    LockReq,
    MsgType,
    PageReply,
    PageReq,
)
from .page import NodePageTable, PageMeta, PageState, SharedAlloc, SharedSegment
from .protocol import DsmEngine
from .vector_clock import VectorClock

__all__ = [
    "Violation",
    "assert_healthy",
    "check_cluster",
    "DiffReply",
    "DiffReq",
    "DsmEngine",
    "EagerDsmEngine",
    "HomePolicy",
    "INTERVAL_WIRE_BYTES",
    "Interval",
    "IntervalLog",
    "LocalLockState",
    "LocalLockTable",
    "LockForward",
    "LockGrant",
    "LockManagerRecord",
    "LockManagerTable",
    "LockReq",
    "MsgType",
    "NOTICE_WIRE_BYTES",
    "NodePageTable",
    "PageMeta",
    "PageReply",
    "PageReq",
    "PageState",
    "RangeSet",
    "SharedAlloc",
    "SharedSegment",
    "VectorClock",
    "WriteCollector",
    "WriteNotice",
]
