"""PATHFINDER: a pattern-based hardware packet classifier.

Model of the classifier of Bailey et al. (OSDI 1994) that the CNI uses to
demultiplex incoming packets to the right Application Device Channel and
to the right Application Interrupt Handler (Section 2.1): "the VCI field
is too coarse-grained to handle multiple protocol actions inside an
application", and software classification on the NI processor suffered
instruction-cache capacity misses on the ATOMIC interface.

The implementation keeps the property the paper leans on, flexible
classification programmability: a pattern is a conjunction of masked
comparisons over the packet header; patterns sharing a prefix of
comparisons share DAG cells, which is how the hardware composes many
patterns cheaply.

The hardware also handles fragmented packets: only the first cell
carries the header, and a fragment table routes the rest to the same
target.  That is what lets the board classify once per packet, which is
what the model charges (one :meth:`Pathfinder.classify` per reassembled
packet); the table's bookkeeping is not simulated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..obs import MetricsScope, private_scope


@dataclass(frozen=True)
class PatternElement:
    """One masked comparison: ``header[offset:offset+len] & mask == value``."""

    offset: int
    length: int
    mask: int
    value: int

    def __post_init__(self):
        if self.offset < 0 or self.length <= 0 or self.length > 8:
            raise ValueError("element must compare 1..8 bytes at offset >= 0")
        limit = (1 << (8 * self.length)) - 1
        if not 0 <= self.mask <= limit:
            raise ValueError(f"mask {self.mask:#x} exceeds {self.length} bytes")
        if not 0 <= self.value <= limit:
            raise ValueError(f"value {self.value:#x} exceeds {self.length} bytes")
        if self.value & ~self.mask:
            raise ValueError("value has bits outside the mask; can never match")

    def matches(self, header: bytes) -> bool:
        """Evaluate the comparison against ``header``."""
        end = self.offset + self.length
        if end > len(header):
            return False
        word = int.from_bytes(header[self.offset:end], "big")
        return (word & self.mask) == self.value

    def key(self) -> Tuple[int, int, int]:
        """Cell-sharing key: same field, same mask."""
        return (self.offset, self.length, self.mask)


@dataclass
class Pattern:
    """A conjunction of elements mapping to a classification target."""

    elements: Tuple[PatternElement, ...]
    target: Any
    pattern_id: int = field(default_factory=itertools.count(1).__next__)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a pattern needs at least one element")

    def matches(self, header: bytes) -> bool:
        """Naive conjunction evaluation (the DAG must agree with this)."""
        return all(e.matches(header) for e in self.elements)


class _Cell:
    """A DAG cell: one ``(offset, length, mask)`` comparison with
    value-keyed out-edges, shared by all patterns with this prefix.

    An out-edge leads to a *list* of alternative next cells because two
    patterns can agree on a prefix value and then compare different
    header fields."""

    __slots__ = ("key", "edges", "accept")

    def __init__(self, key: Tuple[int, int, int]):
        self.key = key
        self.edges: Dict[int, List["_Cell"]] = {}
        #: value -> (pattern_id, target) accepted when the pattern ends here
        self.accept: Dict[int, Tuple[int, Any]] = {}


class Pathfinder:
    """The classifier: a programmable pattern DAG."""

    def __init__(self, max_patterns: int = 1024,
                 metrics: Optional[MetricsScope] = None):
        if max_patterns <= 0:
            raise ValueError("max_patterns must be positive")
        self.max_patterns = max_patterns
        self._root: List[_Cell] = []  # alternative first cells
        self._patterns: Dict[int, Pattern] = {}
        #: Whether the DAG and pattern table are shared with other
        #: boards (:meth:`share`): the next install or remove copies
        #: them first.
        self._shared = False
        #: Memoized DAG walks: header bytes -> winning (pattern_id,
        #: target) or None on a miss.  Valid only for the current
        #: pattern set — install/remove clear it.  Bounded so a stream
        #: of unique headers (e.g. randomized tests) cannot grow it
        #: without limit.
        self._classify_cache: Dict[bytes, Optional[Tuple[int, Any]]] = {}
        self._classify_cache_max = 4096
        self.classifications = 0
        self.matches = 0
        self.misses = 0
        m = metrics if metrics is not None else private_scope()
        m.counter("classifications", fn=lambda: self.classifications)
        m.counter("matches", fn=lambda: self.matches)
        m.counter("misses", fn=lambda: self.misses)
        m.gauge("patterns_installed", fn=lambda: self.pattern_count)

    # -- programming ---------------------------------------------------------
    def install(self, pattern: Pattern) -> int:
        """Program a pattern into the DAG; returns its id.

        Patterns are totally ordered by installation (earlier wins on
        ambiguity), mirroring priority registers in the hardware.
        """
        if len(self._patterns) >= self.max_patterns:
            raise RuntimeError("PATHFINDER pattern memory exhausted")
        if self._shared:
            self._rebuild(self._patterns.values())
        self._classify_cache.clear()
        cells = self._root
        last_index = len(pattern.elements) - 1
        for i, elem in enumerate(pattern.elements):
            cell = self._find_or_add_cell(cells, elem.key())
            if i == last_index:
                if elem.value in cell.accept:
                    raise ValueError(
                        "an identical pattern is already installed"
                    )
                cell.accept[elem.value] = (pattern.pattern_id, pattern.target)
            else:
                cells = cell.edges.setdefault(elem.value, [])
        self._patterns[pattern.pattern_id] = pattern
        return pattern.pattern_id

    def _find_or_add_cell(
        self, cells: List[_Cell], key: Tuple[int, int, int]
    ) -> _Cell:
        for c in cells:
            if c.key == key:
                return c
        c = _Cell(key)
        cells.append(c)
        return c

    def remove(self, pattern_id: int) -> None:
        """Remove a pattern (connection teardown).

        The DAG is rebuilt from the surviving patterns; teardown is off
        the critical path so simplicity beats cleverness here.
        """
        if pattern_id not in self._patterns:
            raise KeyError(f"pattern {pattern_id} not installed")
        self._rebuild(p for pid, p in self._patterns.items()
                      if pid != pattern_id)

    def _rebuild(self, patterns: Iterable[Pattern]) -> None:
        """Program a fresh DAG of this board's own from ``patterns``, in
        installation order."""
        survivors = sorted(patterns, key=lambda p: p.pattern_id)
        self._root = []
        self._patterns = {}
        self._shared = False
        for p in survivors:
            self.install(p)

    def share(self, other: "Pathfinder") -> None:
        """Run ``other``'s program: replace this board's patterns with
        ``other``'s DAG and pattern table, shared rather than copied.

        A cluster whose boards are programmed identically builds the
        program once and shares it with every board.  Sharing is copy on
        write: a later install or remove on any board that shares the
        program first gives that board a copy of its own, so it never
        reaches the others.  Each board keeps its own counters and
        classification memo.
        """
        if other.pattern_count > self.max_patterns:
            raise RuntimeError("PATHFINDER pattern memory exhausted")
        self._root = other._root
        self._patterns = other._patterns
        self._shared = other._shared = True
        self._classify_cache.clear()

    @property
    def pattern_count(self) -> int:
        """Installed patterns."""
        return len(self._patterns)

    # -- classification -------------------------------------------------------
    def classify(self, header: bytes) -> Optional[Any]:
        """Classify a packet by its header.

        Returns the target of the first installed pattern that matches,
        or None (packet dropped / kicked to the slow path).

        Repeated headers against an unchanged pattern set — the steady
        state of any connection — skip the DAG walk via the memo table.
        The per-classification counters advance exactly as if the walk
        had run, so metrics (and run digests) cannot tell the two
        apart.
        """
        self.classifications += 1
        cache = self._classify_cache
        if header in cache:
            best = cache[header]
            if best is None:
                self.misses += 1
                return None
            self.matches += 1
            return best[1]
        best: Optional[Tuple[int, Any]] = None
        # Walk the DAG; collect accepts; earliest-installed pattern wins.
        frontier = list(self._root)
        while frontier:
            next_frontier: List[_Cell] = []
            for cell in frontier:
                off, length, mask = cell.key
                end = off + length
                if end > len(header):
                    continue
                word = int.from_bytes(header[off:end], "big") & mask
                hit = cell.accept.get(word)
                if hit is not None and (best is None or hit[0] < best[0]):
                    best = hit
                next_frontier.extend(cell.edges.get(word, ()))
            frontier = next_frontier
        if len(cache) >= self._classify_cache_max:
            cache.clear()
        cache[bytes(header)] = best
        if best is None:
            self.misses += 1
            return None
        self.matches += 1
        return best[1]
