"""Property test: the vectorized two-level hierarchy against a scalar
two-level reference with the same documented semantics.

Reference semantics (mirrors the documented burst model in
repro.memory.cache): every access probes L1 (latency classification
only); an L1 miss probes L2; an L2 miss fills from memory into both
levels; dirty L2 victims are written back; and the dirty marks of
L1-hit *writes* are applied at END of burst against the
post-replacement L2 residency (the model's stated burst semantics).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import CacheHierarchy

from .burst_shapes import burst_lines


class ScalarHierarchy:
    """Obviously-correct per-access model of the documented semantics."""

    def __init__(self, l1_sets, l2_sets):
        self.l1_sets = l1_sets
        self.l2_sets = l2_sets
        self.l1 = {}
        self.l2 = {}
        self.l2_dirty = {}
        self.writebacks = []
        self.l1_hits = 0
        self.l2_hits = 0
        self.memory = 0

    def access(self, line, is_write):
        s1 = line % self.l1_sets
        s2 = line % self.l2_sets
        l1_hit = self.l1.get(s1) == line
        if l1_hit:
            self.l1_hits += 1
        else:
            # L1 miss -> L2 probe
            if self.l2.get(s2) == line:
                self.l2_hits += 1
                if is_write:
                    self.l2_dirty[s2] = True
            else:
                self.memory += 1
                old = self.l2.get(s2)
                if old is not None and self.l2_dirty.get(s2, False):
                    self.writebacks.append(old)
                self.l2[s2] = line
                self.l2_dirty[s2] = is_write
            self.l1[s1] = line
        return l1_hit

    def end_of_write_burst(self, lines):
        """Burst semantics: L1-hit writes dirty their L2 copies at end
        of burst, where still resident."""
        for line in lines:
            s2 = line % self.l2_sets
            if self.l2.get(s2) == line:
                self.l2_dirty[s2] = True

    def flush(self, line):
        s2 = line % self.l2_sets
        if self.l2.get(s2) == line and self.l2_dirty.get(s2, False):
            self.l2_dirty[s2] = False
            return [line]
        return []

    def invalidate(self, line):
        """Drop ``line`` from both levels, with no write-back."""
        s1 = line % self.l1_sets
        s2 = line % self.l2_sets
        if self.l1.get(s1) == line:
            del self.l1[s1]
        if self.l2.get(s2) == line:
            del self.l2[s2]
            self.l2_dirty.pop(s2, None)


@st.composite
def access_scripts(draw):
    """Shaped bursts (contiguous runs up to 3x the L2's sets wrap both
    levels) mixed with flushes and invalidations of line ranges; ranges
    start anywhere, so they wrap the set index, and run up to 3x the
    L2's sets, so they exceed both levels."""
    l1_sets = draw(st.sampled_from([2, 4]))
    l2_sets = l1_sets * draw(st.sampled_from([2, 4]))
    top = 3 * l2_sets
    n_ops = draw(st.integers(1, 60))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["burst", "flush", "invalidate"]))
        if kind == "burst":
            ops.append(("burst", draw(burst_lines(top, top)),
                        draw(st.booleans())))
        else:
            start = draw(st.integers(0, top - 1))
            length = draw(st.integers(1, 3 * l2_sets))
            ops.append((kind, (start, length), False))
    return l1_sets, l2_sets, ops


def assert_same_state(vec, ref):
    """Both levels' tags, and the L2's dirty bits, agree."""
    for s in range(ref.l1_sets):
        assert vec.l1.tags[s] == ref.l1.get(s, -1)
    for s in range(ref.l2_sets):
        want = ref.l2.get(s, -1)
        assert vec.l2.tags[s] == want
        if want != -1:
            assert bool(vec.l2.dirty[s]) == ref.l2_dirty.get(s, False)


@given(access_scripts())
@settings(max_examples=150, deadline=None)
def test_hierarchy_matches_scalar_reference(script):
    l1_sets, l2_sets, ops = script
    vec = CacheHierarchy(
        l1_size=l1_sets * 32, l2_size=l2_sets * 32, line_bytes=32,
        l1_cycles=1, l2_cycles=10, memory_cycles=20,
    )
    ref = ScalarHierarchy(l1_sets, l2_sets)

    for kind, lines, is_write in ops:
        if kind == "burst":
            cost = vec.access(np.array(lines, dtype=np.int64), is_write)
            h1_before = ref.l1_hits
            h2_before = ref.l2_hits
            mem_before = ref.memory
            wb_before = len(ref.writebacks)
            l1_hit_writes = []
            for ln in lines:
                hit = ref.access(ln, is_write)
                if hit and is_write:
                    l1_hit_writes.append(ln)
            if is_write:
                ref.end_of_write_burst(l1_hit_writes)
            assert cost.l1_hits == ref.l1_hits - h1_before
            assert cost.l2_hits == ref.l2_hits - h2_before
            assert cost.memory_accesses == ref.memory - mem_before
            l1_misses = len(lines) - (ref.l1_hits - h1_before)
            assert cost.cpu_cycles == (len(lines) + 10 * l1_misses
                                       + 20 * (ref.memory - mem_before))
            assert sorted(cost.writeback_lines.tolist()) == sorted(
                ref.writebacks[wb_before:])
        elif kind == "flush":
            start, length = lines
            got = vec.flush_range(start, length)
            want = [w for ln in range(start, start + length)
                    for w in ref.flush(ln)]
            assert got.tolist() == want  # ascending, as the range is
        else:
            start, length = lines
            vec.invalidate_range(start, length)
            for ln in range(start, start + length):
                ref.invalidate(ln)
        assert_same_state(vec, ref)
