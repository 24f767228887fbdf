"""Two-level direct-mapped write-back cache model (Table 1).

The host cache hierarchy is a 32 KB direct-mapped unified L1 (1 cycle)
over a 1 MB direct-mapped unified L2 (10 cycles) over 20-cycle main
memory, write-back with write-allocate.

Applications present *bursts*: program-ordered numpy arrays of cache-line
numbers, all-read or all-write (the runtime splits mixed traffic).  The
burst API exists for speed — per the HPC guides the hot loop is
vectorized — but the semantics are exact: hits, misses, replacements and
write-backs match feeding the lines one at a time through a scalar
direct-mapped simulator (property-tested against :class:`ReferenceCache`).

Two burst shapes have a closed form and skip the by-set grouping of
:func:`_classify_burst`; both give exactly the grouping path's hits,
misses, write-backs and final state.  *Rule 1, one access per set*
(:meth:`CacheLevel.burst`): a strictly ascending burst that spans fewer
lines than the level has sets touches each set at most once, so an
access hits exactly when the entry tag is its line, and a miss evicts
the entry occupant and nothing else.  *Rule 2, contiguous bursts* (the
L1 step of :meth:`CacheHierarchy.access_range`): in ``lo, lo+1, ...,
lo+n-1`` only the first ``min(n, nsets)`` lines can meet an entry
occupant, every later line follows a different line in its set and
misses, and the last ``min(n, nsets)`` lines become the occupants.  The
L1 miss stream of either rule is strictly ascending and spans fewer than
``n`` lines, so the L2 takes rule 1 for bursts of up to its set count.
Repeated lines, unordered lines and ascending lines with gaps that wrap
a level keep the grouping path.  Rule 1 reports write-backs in line
order, the grouping path in set order; the two differ only when a
burst's sets wrap, and callers count the lines (or reduce them to
pages), never read the order.  A one-line burst (a scalar load or
store) takes neither: it probes each level's one set as Python scalars,
which costs a small fraction of any burst's fixed numpy work, and
reports what the burst would.

*Contiguous bursts* are priced from their line range by
:meth:`CacheHierarchy.access_range`, and :meth:`CacheHierarchy.access`
hands every contiguous ascending line array to it.  Consecutive lines
map to consecutive sets, so each level works on one slice of its sets,
or two when the range wraps the set index: rule 2 compares the first
``min(n, nsets)`` lines with the L1 tags of their slice and writes the
last ``min(n, nsets)`` lines into theirs; for a burst of up to the L2's
set count, rule 1 probes and fills the L2 on the range's own slice,
installing misses by a masked copy.  The slices hold exactly the sets
and tags that the line-array form gathers and scatters, in line order,
so hits, misses, write-backs (in line order), final state and stats
are the same.  A burst longer than the L2 keeps the line-array form at
the L2.

Page-level operations take a line range, not a line array:
:meth:`CacheHierarchy.flush_range` (write back, keep resident) and
:meth:`CacheHierarchy.invalidate_range` (drop, no write-back) work on
slices of the sets the range covers — one slice, two when the range
wraps the set index, every set when it spans ``nsets`` lines or more —
and a set's occupant is in the range exactly when ``first <= tag <
first + n``.  A flush returns its written-back lines in ascending order;
the caller knows which pages those are and shows them to the bus
snoopers (:mod:`repro.memory.bus`).

A level's ``tags`` and ``dirty`` arrays exist from its first touch: the
first operation that reads either builds both (every tag -1, every line
clean), and later reads find plain instance attributes.  A node whose
CPU never touches memory — every node of a collectives-only run — so
holds no cache arrays, where Table 1's geometry would give it 297 KB.

Hierarchy simplification (documented in DESIGN.md): the L1 classifies
latency only; dirtiness is tracked at the L2, which is the write-back /
snoop point on the memory bus.  With both levels direct-mapped, the same
line size and near-inclusion, this preserves the three quantities the
paper's model needs — access-latency classification, bus write-back
traffic, and what the CNI snooper can observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .address import check_power_of_two


@dataclass
class BurstResult:
    """Outcome of one burst through a single cache level."""

    hits: int
    misses: int
    evicted_lines: np.ndarray
    """Line numbers evicted *dirty* during the burst (write-back traffic)."""


def _classify_burst(
    entry_tags: np.ndarray, lines: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared grouping arithmetic for an in-order direct-mapped burst.

    Returns ``(hit, order, sl, ss, first)`` where ``order`` is the stable
    by-set permutation, ``sl``/``ss`` the permuted lines/sets, ``first``
    marks each set-group's first access, and ``hit`` is per permuted
    access.  Exactness argument: a direct-mapped set's behaviour depends
    only on the in-order sequence of lines mapped to it; the stable sort
    preserves that per-set order, so comparing each access with its
    predecessor in the group (or the entry tag for the first access)
    reproduces the scalar machine.  The set count is a power of two, so
    a mask takes the set.
    """
    n = lines.size
    sets = lines & (entry_tags.size - 1)
    order = sets.argsort(kind="stable")
    sl = lines[order]
    ss = sets[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    if n > 1:
        first[1:] = ss[1:] != ss[:-1]
    prev_line = np.empty(n, dtype=np.int64)
    if n > 1:
        prev_line[1:] = sl[:-1]
    prev_line[first] = -2  # sentinel never equal to a real line
    hit = np.where(first, entry_tags[ss] == sl, prev_line == sl)
    return hit, order, sl, ss, first


def _commit_burst(tags: np.ndarray, sl: np.ndarray,
                  ss: np.ndarray) -> np.ndarray:
    """Install a classified burst's final occupants into ``tags``.

    ``sl``/``ss`` are :func:`_classify_burst`'s permuted lines and sets:
    the last access in each set-group wins.  Returns the touched sets,
    one per group, in group order.
    """
    last = np.empty(ss.size, dtype=bool)
    last[-1] = True
    last[:-1] = ss[1:] != ss[:-1]
    final_sets = ss[last]
    tags[final_sets] = sl[last]
    return final_sets


def _ascending(lines: np.ndarray) -> bool:
    """Whether ``lines`` is strictly ascending (so no line repeats)."""
    return bool((lines[1:] > lines[:-1]).all())


class CacheLevel:
    """One direct-mapped cache level."""

    def __init__(self, size_bytes: int, line_bytes: int, name: str,
                 track_dirty: bool):
        check_power_of_two(size_bytes, f"{name} size")
        check_power_of_two(line_bytes, f"{name} line size")
        if size_bytes < line_bytes:
            raise ValueError(f"{name}: size smaller than one line")
        self.name = name
        self.nsets = size_bytes // line_bytes
        self.line_bytes = line_bytes
        self.track_dirty = track_dirty

    def __getattr__(self, name: str) -> np.ndarray:
        """Build the level's ``tags`` (each set's occupant line, -1 when
        empty) and ``dirty`` bits (all clean) at its first touch.

        Python calls this only for an attribute the instance lacks, so
        it runs once per level; every later read of either array is a
        plain instance attribute.
        """
        if name not in ("tags", "dirty"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        state = self.__dict__
        if "tags" not in state:
            self.tags = np.full(self.nsets, -1, dtype=np.int64)
        if "dirty" not in state:
            self.dirty = np.zeros(self.nsets, dtype=bool)
        return state[name]

    def burst(self, lines: np.ndarray, is_write: bool) -> BurstResult:
        """Feed a program-ordered homogeneous burst through this level.

        Updates tags/dirty state and reports hits, misses and the lines
        evicted dirty (write-back traffic).  A strictly ascending burst
        that touches each set once takes rule 1 (module docstring); any
        other is grouped by set.
        """
        n = lines.size
        if n == 0:
            return BurstResult(0, 0, np.empty(0, dtype=np.int64))
        if lines[-1] - lines[0] < self.nsets and _ascending(lines):
            return self._burst_one_per_set(lines, is_write)

        hit, order, sl, ss, first = _classify_burst(self.tags, lines)
        miss = ~hit

        # Per-set-group bookkeeping.  Within a group, every access before
        # the first miss is a hit on the entry occupant; the first miss
        # evicts the entry occupant; each later miss evicts the line
        # loaded by the access just before it.
        group_starts = np.flatnonzero(first)
        has_miss = np.logical_or.reduceat(miss, group_starts)

        evicted: List[np.ndarray] = []
        if self.track_dirty:
            # Entry occupants evicted by each group's first miss.
            gs_set = ss[group_starts]
            entry_tag = self.tags[gs_set]
            entry_dirty = self.dirty[gs_set]
            evict_entry = has_miss & (entry_tag >= 0)
            if is_write:
                # A hit-write before the first miss dirties the occupant
                # even if it entered the burst clean.
                entry_dirty = entry_dirty | ~miss[group_starts]
            evicted.append(entry_tag[evict_entry & entry_dirty])
            if is_write:
                # Misses after the group's first miss evict a line written
                # (write-allocated) earlier in this burst: always dirty.
                cm = np.cumsum(miss)
                before = cm[group_starts] - miss[group_starts]
                counts = np.diff(np.append(group_starts, n))
                in_group_cum = cm - np.repeat(before, counts)
                later_miss = miss & (in_group_cum > 1)
                prev_line = np.empty(n, dtype=np.int64)
                if n > 1:
                    prev_line[1:] = sl[:-1]
                prev_line[first] = -2
                evicted.append(prev_line[later_miss])
            # (Read bursts load clean lines, so intra-burst read
            # evictions beyond the entry occupant carry no write-back.)

        # Commit final state: the last access in each set-group wins.
        final_sets = _commit_burst(self.tags, sl, ss)
        if self.track_dirty:
            if is_write:
                self.dirty[final_sets] = True
            else:
                # Any miss in a read burst replaces the entry occupant;
                # everything loaded during the burst is clean.  Groups
                # with no miss leave the entry dirtiness untouched.
                self.dirty[final_sets[has_miss]] = False

        if evicted and sum(e.size for e in evicted):
            ev = np.concatenate(evicted)
        else:
            ev = np.empty(0, dtype=np.int64)
        return BurstResult(int(hit.sum()), int(miss.sum()), ev)

    def _burst_one_per_set(self, lines: np.ndarray,
                           is_write: bool) -> BurstResult:
        """Rule 1 (module docstring): each line has a set to itself, so
        each access meets only the entry occupant."""
        sets = lines & (self.nsets - 1)
        entry = self.tags[sets]
        hit = entry == lines
        hits = int(np.count_nonzero(hit))
        if self.track_dirty:
            miss = ~hit
            evicted = entry[miss & (entry >= 0) & self.dirty[sets]]
            if is_write:
                self.dirty[sets] = True
            else:
                self.dirty[sets[miss]] = False
        else:
            evicted = np.empty(0, dtype=np.int64)
        self.tags[sets] = lines
        return BurstResult(hits, lines.size - hits, evicted)

    def resident(self, line: int) -> bool:
        """Whether ``line`` currently occupies its set."""
        return bool(self.tags[line % self.nsets] == line)

    def _range_sets(self, first: int, n: int) -> Tuple[slice, ...]:
        """The set slices lines ``first .. first+n-1`` map to, in line
        order: one slice, two when the range wraps the set index, every
        set when it spans ``nsets`` lines or more.  A set's occupant is
        in the range exactly when ``first <= tag < first + n``."""
        if n >= self.nsets:
            return (slice(0, self.nsets),)
        start = first & (self.nsets - 1)
        end = start + n
        if end <= self.nsets:
            return (slice(start, end),)
        return (slice(start, self.nsets), slice(0, end - self.nsets))

    def drop_range(self, first: int, n: int) -> None:
        """Invalidate lines ``first .. first+n-1`` where resident.

        Used for DSM page invalidation (the protocol owns the data, so
        dirty copies are discarded, not written back).  Only a level
        that tracks dirtiness has dirty bits to clear; the others keep
        every bit clear.
        """
        last = first + n
        for sets in self._range_sets(first, n):
            tags = self.tags[sets]
            here = tags >= first
            here &= tags < last
            tags[here] = -1
            if self.track_dirty:
                self.dirty[sets][here] = False

    def clean_range(self, first: int, n: int) -> np.ndarray:
        """Write back dirty copies of lines ``first .. first+n-1``; they
        stay resident clean.

        Returns the lines actually written back (bus/snoop traffic), in
        ascending order.
        """
        lines = None
        for sets in self._range_sets(first, n):
            tags = self.tags[sets]
            dirty = self.dirty[sets]
            if n < self.nsets:
                # Each set holds one range line: its occupant is in the
                # range exactly when it is that line.
                target = tags == np.arange(first, first + tags.size)
                first += tags.size
            else:
                target = (tags >= first) & (tags < first + n)
            target &= dirty
            dirty[target] = False
            got = tags[target]
            lines = got if lines is None else np.concatenate((lines, got))
        # Every set's occupant comes in set order, not line order.
        return np.sort(lines) if n >= self.nsets else lines


@dataclass
class AccessCost:
    """Aggregate result of a burst through the full hierarchy."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    memory_accesses: int = 0
    cpu_cycles: float = 0.0
    """CPU stall cycles for the whole burst."""

    writeback_lines: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    """Dirty lines pushed to the bus by replacements during the burst
    (visible to the CNI consistency snooper)."""


class CacheHierarchy:
    """L1 + L2 + memory-latency model for one host CPU."""

    def __init__(
        self,
        l1_size: int,
        l2_size: int,
        line_bytes: int,
        l1_cycles: int,
        l2_cycles: int,
        memory_cycles: int,
    ):
        self.line_bytes = line_bytes
        self.l1 = CacheLevel(l1_size, line_bytes, "L1", track_dirty=False)
        self.l2 = CacheLevel(l2_size, line_bytes, "L2", track_dirty=True)
        self.l1_cycles = l1_cycles
        self.l2_cycles = l2_cycles
        self.memory_cycles = memory_cycles
        self.stats_l1_hits = 0
        self.stats_l2_hits = 0
        self.stats_memory = 0
        self.stats_writebacks = 0

    def access(self, lines: np.ndarray, is_write: bool) -> AccessCost:
        """Burst of line-granular accesses (program order, homogeneous).

        Every access probes the L1; L1 misses continue to the L2; L2
        misses go to memory and allocate in both levels (write-allocate).
        Writes dirty the L2 copy (the write-back point).  Returns latency
        and write-back traffic; the caller charges simulated time and
        shows ``writeback_lines`` to the bus snoopers.  A contiguous
        ascending burst is priced by :meth:`access_range`.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        n = lines.size
        if n == 1:
            return self._access_line(int(lines[0]), is_write)
        if n == 0:
            return AccessCost()

        # The L1 tracks no dirtiness, so its tags are all a burst changes
        # there.  Each branch installs the L1's new occupants and builds
        # the exact in-order L1 miss stream for the L2.
        l1 = self.l1
        span = lines[-1] - lines[0]
        if (span < l1.nsets or span == n - 1) and _ascending(lines):
            if span == n - 1:
                return self.access_range(int(lines[0]), n, is_write)
            # Rule 1 (module docstring): each line has an L1 set to
            # itself, and the misses are already in program order.
            sets = lines & (l1.nsets - 1)
            hit = l1.tags[sets] == lines
            miss_stream = lines[~hit]
            l1.tags[sets] = lines
        else:
            # Classify against the entry state once: the same
            # classification gives the miss stream and the new occupants.
            hit, order, sl, ss, _first = _classify_burst(l1.tags, lines)
            _commit_burst(l1.tags, sl, ss)
            miss_stream = lines[np.sort(order[~hit])]
        return self._finish_burst(lines, miss_stream, is_write)

    def access_range(self, first_line: int, n: int,
                     is_write: bool) -> AccessCost:
        """:meth:`access` of the contiguous burst ``first_line ..
        first_line+n-1``, priced on set slices (module docstring,
        "Contiguous bursts"): the same cost, write-backs, state and
        stats, without gathering or scattering through a line array.
        """
        if n == 1:
            return self._access_line(first_line, is_write)
        if n <= 0:
            return AccessCost()
        lines = np.arange(first_line, first_line + n, dtype=np.int64)

        # Rule 2 at the L1: only the first m lines can meet an occupant
        # and the last m become the occupants.  ``missed`` is each
        # line's L1 miss; every line after the m-th misses.
        l1_tags = self.l1.tags
        nsets = self.l1.nsets
        m = n if n < nsets else nsets
        missed = np.empty(n, dtype=bool)
        s = first_line & (nsets - 1)
        k = m if s + m <= nsets else nsets - s
        np.not_equal(l1_tags[s:s + k], lines[:k], out=missed[:k])
        if k < m:
            np.not_equal(l1_tags[:m - k], lines[k:m], out=missed[k:m])
        missed[m:] = True
        if m < n:
            s = (first_line + n) & (nsets - 1)
            l1_tags[s:] = lines[n - nsets:n - s]
            l1_tags[:s] = lines[n - s:]
        else:
            l1_tags[s:s + k] = lines[:k]
            l1_tags[:m - k] = lines[k:m]

        l2 = self.l2
        nsets = l2.nsets
        if n > nsets:
            # Sets repeat within the burst: the L2 takes the line-array
            # path.
            return self._finish_burst(lines, lines[missed], is_write)

        # Rule 1 at the L2: each line has a set to itself, on one slice
        # of the sets, or two when the range wraps the set index.
        s = first_line & (nsets - 1)
        k = n if s + n <= nsets else nsets - s
        streamed = int(np.count_nonzero(missed))
        memory = 0
        wb = None
        for sets, at in (((slice(s, s + n), slice(0, n)),) if k == n else
                         ((slice(s, nsets), slice(0, k)),
                          (slice(0, n - k), slice(k, n)))):
            tags = l2.tags[sets]
            dirty = l2.dirty[sets]
            mine = lines[at]
            streamed_here = missed[at]
            resident = tags == mine
            miss = resident < streamed_here    # streamed, not resident
            memory += int(np.count_nonzero(miss))
            gone = miss & dirty
            gone &= tags >= 0
            wb = tags[gone] if wb is None else np.concatenate((wb, tags[gone]))
            np.copyto(tags, mine, where=miss)
            if is_write:
                # The end-of-burst mark: every streamed line, and every
                # L1 hit whose L2 copy is resident.
                resident |= streamed_here
                dirty |= resident
            else:
                dirty[miss] = False
        l1_hits = n - streamed
        l2_hits = streamed - memory
        self.stats_l1_hits += l1_hits
        self.stats_l2_hits += l2_hits
        self.stats_memory += memory
        self.stats_writebacks += wb.size
        return AccessCost(
            n, l1_hits, l2_hits, memory,
            float(n * self.l1_cycles + streamed * self.l2_cycles
                  + memory * self.memory_cycles),
            wb)

    def _finish_burst(self, lines: np.ndarray, miss_stream: np.ndarray,
                      is_write: bool) -> AccessCost:
        """Run a burst's L1 miss stream through the L2, mark written
        lines that hit the L1, and total the cost and stats."""
        n = lines.size
        cost = AccessCost(accesses=n)
        cost.l1_hits = n - miss_stream.size

        r2 = self.l2.burst(miss_stream, is_write)
        cost.l2_hits = r2.hits
        cost.memory_accesses = r2.misses

        if is_write:
            # Written lines that hit the L1 never reached the L2 burst;
            # their L2 copies (where resident) must still be marked dirty
            # so the write-back point knows about them.  Burst semantics:
            # these dirty marks apply at END of burst, against the
            # post-replacement residency — an L1-hit write followed in
            # the *same* burst by an L2 eviction of that line loses its
            # mark.  The reorder can only matter when one burst spans an
            # L2 set conflict (>1 MB apart with Table 1's geometry),
            # which page-granular application bursts never do.
            sets = lines & (self.l2.nsets - 1)
            resident = self.l2.tags[sets] == lines
            self.l2.dirty[sets[resident]] = True

        cost.cpu_cycles = float(
            lines.size * self.l1_cycles
            + miss_stream.size * self.l2_cycles
            + r2.misses * self.memory_cycles
        )
        cost.writeback_lines = r2.evicted_lines

        self.stats_l1_hits += cost.l1_hits
        self.stats_l2_hits += cost.l2_hits
        self.stats_memory += cost.memory_accesses
        self.stats_writebacks += int(cost.writeback_lines.size)
        return cost

    def _access_line(self, line: int, is_write: bool) -> AccessCost:
        """:meth:`access` of a one-line burst, probed scalar by scalar:
        the same cost, state and stats as the vector path, without its
        fixed numpy work.  An L1 hit leaves the L2 alone but for the
        write's dirty mark; an L1 miss fills the L1 and probes the L2,
        whose miss writes back a dirty occupant and fills the set."""
        l1_tags = self.l1.tags
        s1 = line & (self.l1.nsets - 1)
        l2 = self.l2
        s2 = line & (l2.nsets - 1)
        l2_tags = l2.tags
        evicted = np.empty(0, dtype=np.int64)
        if l1_tags[s1] == line:
            l1_hits, l2_hits, memory = 1, 0, 0
            cycles = self.l1_cycles
            if is_write and l2_tags[s2] == line:
                l2.dirty[s2] = True
        else:
            l1_tags[s1] = line
            l1_hits = 0
            occupant = int(l2_tags[s2])
            if occupant == line:
                l2_hits, memory = 1, 0
                cycles = self.l1_cycles + self.l2_cycles
                if is_write:
                    l2.dirty[s2] = True
            else:
                l2_hits, memory = 0, 1
                cycles = self.l1_cycles + self.l2_cycles + self.memory_cycles
                dirty = l2.dirty
                if occupant >= 0 and dirty[s2]:
                    evicted = np.array([occupant], dtype=np.int64)
                l2_tags[s2] = line
                dirty[s2] = is_write
        self.stats_l1_hits += l1_hits
        self.stats_l2_hits += l2_hits
        self.stats_memory += memory
        self.stats_writebacks += evicted.size
        return AccessCost(1, l1_hits, l2_hits, memory, float(cycles),
                          evicted)

    def flush_range(self, first_line: int, n: int) -> np.ndarray:
        """Write back dirty copies of lines ``first_line ..
        first_line+n-1``; they stay resident clean.  Returns the
        written-back lines in ascending order.

        This is the traffic the CNI Message Cache snoops, and the cost a
        sender pays before a DMA (or a Message-Cache transmit) so that
        memory is consistent with the CPU cache — Section 2.2's
        write-back-cache flush requirement.
        """
        return self.l2.clean_range(first_line, n)

    def invalidate_range(self, first_line: int, n: int) -> None:
        """Drop lines ``first_line .. first_line+n-1`` from both levels
        without write-back (DSM invalidation: the protocol owns the
        authoritative data)."""
        self.l1.drop_range(first_line, n)
        self.l2.drop_range(first_line, n)


class ReferenceCache:
    """Scalar, obviously-correct direct-mapped model for property tests."""

    def __init__(self, nsets: int):
        self.nsets = nsets
        self.tags: Dict[int, int] = {}
        self.dirty: Dict[int, bool] = {}

    def access(self, line: int, is_write: bool) -> Tuple[bool, Optional[int]]:
        """One access; returns ``(hit, evicted_dirty_line_or_None)``."""
        s = line % self.nsets
        old = self.tags.get(s)
        if old == line:
            if is_write:
                self.dirty[s] = True
            return True, None
        evicted = old if (old is not None and self.dirty.get(s, False)) else None
        self.tags[s] = line
        self.dirty[s] = is_write
        return False, evicted

    def clean_range(self, first: int, n: int) -> List[int]:
        """Write back the dirty resident lines of ``first .. first+n-1``,
        which stay resident clean; returns them in ascending order."""
        written = sorted(line for s, line in self.tags.items()
                         if first <= line < first + n and self.dirty.get(s))
        for line in written:
            self.dirty[line % self.nsets] = False
        return written

    def drop_range(self, first: int, n: int) -> None:
        """Invalidate the resident lines of ``first .. first+n-1``."""
        for s in [s for s, line in self.tags.items()
                  if first <= line < first + n]:
            del self.tags[s]
            self.dirty.pop(s, None)
