"""Intervals and write notices (the currency of LRC).

An *interval* is one processor's execution between two synchronization
operations; it is identified by ``(proc, seq)``.  At the release that
ends an interval, the processor creates one *write notice* per page it
modified; acquiring processors receive the notices of intervals they
have not yet seen and invalidate the named pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .diff import RangeSet

#: Serialized size of one write notice on the wire (page id, proc, seq,
#: modified-byte count).
NOTICE_WIRE_BYTES = 16

#: Fixed per-interval framing on the wire (proc, seq, notice count).
INTERVAL_WIRE_BYTES = 12


@dataclass(frozen=True)
class WriteNotice:
    """"Page ``page`` was modified in interval ``(proc, seq)``"."""

    page: int
    proc: int
    seq: int
    modified_bytes: int
    """Diff size: how many bytes the writer actually touched (drives the
    payload size of a later diff fetch)."""

    def __post_init__(self):
        if self.page < 0 or self.proc < 0 or self.seq <= 0:
            raise ValueError("malformed write notice")
        if self.modified_bytes < 0:
            raise ValueError("negative diff size")


@dataclass
class Interval:
    """One closed interval and its write notices."""

    proc: int
    seq: int
    notices: Tuple[WriteNotice, ...]

    def __post_init__(self):
        if any(n.proc != self.proc or n.seq != self.seq for n in self.notices):
            raise ValueError("notice does not belong to this interval")

    @property
    def wire_bytes(self) -> int:
        """Serialized size when piggybacked on a grant/barrier message."""
        return INTERVAL_WIRE_BYTES + NOTICE_WIRE_BYTES * len(self.notices)


class IntervalLog:
    """Every interval a node knows about (its own and learned ones).

    Keyed by processor; per processor the lane is ascending in ``seq``
    and gap-free from the first learned interval (LRC transfers are
    cumulative).  A granter answers "which intervals does the requester
    lack?" from this log.  A processor's lane is created at its first
    record, so a log of a run that closes no interval holds no lanes.
    """

    def __init__(self, nprocs: int):
        self._log: Dict[int, List[Interval]] = {}
        self.nprocs = nprocs

    def record(self, interval: Interval) -> bool:
        """Add an interval; returns False if already known."""
        if interval.proc not in self._log:
            if interval.seq != 1:
                raise ValueError(
                    f"first interval for proc {interval.proc} must be "
                    f"seq 1, got {interval.seq}"
                )
            self._log[interval.proc] = [interval]
            return True
        lane = self._log[interval.proc]
        if interval.seq <= lane[-1].seq:
            return False
        if interval.seq != lane[-1].seq + 1:
            raise ValueError(
                f"interval gap for proc {interval.proc}: "
                f"{lane[-1].seq} -> {interval.seq}"
            )
        lane.append(interval)
        return True

    def missing_for(self, their_vc: List[int]) -> List[Interval]:
        """All known intervals with ``seq > their_vc[proc]``, in a
        causally-safe order (by proc, ascending seq)."""
        out: List[Interval] = []
        for proc in sorted(self._log):
            have = their_vc[proc]
            for iv in self._log[proc]:
                if iv.seq > have:
                    out.append(iv)
        return out

    def known_seq(self, proc: int) -> int:
        """Highest recorded seq for ``proc`` (0 when none)."""
        lane = self._log.get(proc)
        return lane[-1].seq if lane else 0

    def intervals_of(self, proc: int) -> List[Interval]:
        """All recorded intervals of one processor."""
        return list(self._log.get(proc, ()))


class WriteCollector:
    """Accumulates the current interval's writes for one node.

    The runtime calls :meth:`record_write` for every shared store burst;
    at release the collector yields per-page modified-byte counts for the
    write notices (and remembers them so later diff requests can be
    served and priced)."""

    def __init__(self, page_size: int):
        self.page_size = page_size
        self._pages: Dict[int, RangeSet] = {}

    def record_write(self, page: int, offset: int, length: int) -> None:
        """A store of ``length`` bytes at in-page ``offset``."""
        if not 0 <= offset < self.page_size:
            raise ValueError(f"offset {offset} outside page")
        rs = self._pages.get(page)
        if rs is None:
            # The page's first record in the interval: its one range,
            # clamped to the page.
            self._pages[page] = RangeSet.span(
                offset, min(offset + length, self.page_size))
            return
        rs.add(offset, length)
        rs.clamp(self.page_size)

    @property
    def dirty_pages(self) -> List[int]:
        """Pages written in the current interval."""
        return sorted(self._pages)

    def modified_bytes(self, page: int) -> int:
        """Diff size for ``page`` (0 when untouched)."""
        rs = self._pages.get(page)
        return rs.byte_count if rs else 0

    def drain(self) -> Dict[int, int]:
        """Close the interval: return {page: modified_bytes} and reset."""
        out = {p: rs.byte_count for p, rs in self._pages.items()}
        self._pages.clear()
        return out

    def __bool__(self) -> bool:
        return bool(self._pages)
