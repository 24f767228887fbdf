"""Modified-range tracking: twins and diffs, sized by real writes.

Multiple-writer LRC never ships whole pages between concurrent writers;
it ships *diffs* — the bytes a writer actually modified, computed against
a pristine twin.  The simulator does not keep byte-level twins (the
authoritative data lives in the shared segment store); instead the
runtime records every write's byte range, and :class:`RangeSet` maintains
the union, whose size *is* the diff size a twin comparison would find.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple


class RangeSet:
    """A union of half-open byte ranges ``[start, end)``, kept merged.

    Insertion keeps the internal list sorted and coalesced, so size
    queries are O(1)-ish and iteration yields disjoint ascending ranges.
    """

    __slots__ = ("_ranges",)

    def __init__(self) -> None:
        self._ranges: List[Tuple[int, int]] = []

    @classmethod
    def span(cls, start: int, end: int) -> "RangeSet":
        """The set holding ``[start, end)`` alone (empty when ``end <=
        start``)."""
        rs = cls()
        if end > start:
            rs._ranges = [(start, end)]
        return rs

    def add(self, start: int, length: int) -> None:
        """Include ``[start, start+length)``."""
        if length <= 0:
            return
        end = start + length
        out: List[Tuple[int, int]] = []
        placed = False
        for s, e in self._ranges:
            if e < start or s > end:
                out.append((s, e))
            else:
                start = min(start, s)
                end = max(end, e)
        # insert merged range in sorted position
        for i, (s, _e) in enumerate(out):
            if s > start:
                out.insert(i, (start, end))
                placed = True
                break
        if not placed:
            out.append((start, end))
        self._ranges = out

    @property
    def byte_count(self) -> int:
        """Total bytes covered (the diff size)."""
        return sum(e - s for s, e in self._ranges)

    @property
    def range_count(self) -> int:
        """Number of disjoint runs (diff fragmentation)."""
        return len(self._ranges)

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._ranges)

    def contains(self, offset: int) -> bool:
        """Whether byte ``offset`` is covered."""
        return any(s <= offset < e for s, e in self._ranges)

    def clamp(self, limit: int) -> None:
        """Intersect with ``[0, limit)`` (page-boundary hygiene)."""
        self._ranges = [
            (s, min(e, limit)) for s, e in self._ranges if s < limit
        ]

    def copy(self) -> "RangeSet":
        """Independent copy."""
        rs = RangeSet()
        rs._ranges = list(self._ranges)
        return rs
