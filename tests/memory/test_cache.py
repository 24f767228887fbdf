"""Unit + property tests for the cache model.

The load-bearing test is the hypothesis comparison of the vectorized
burst engine against the scalar :class:`ReferenceCache` on streams of
random, contiguous, gapped and repeating bursts (``burst_shapes``).
"""

import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.memory import CacheHierarchy, CacheLevel, ReferenceCache
from repro.params import SimParams

from .burst_shapes import burst_lines


def level(nlines=8, track_dirty=True):
    return CacheLevel(nlines * 32, 32, "T", track_dirty=track_dirty)


def test_cold_miss_then_hit():
    c = level()
    r = c.burst(np.array([5]), is_write=False)
    assert (r.hits, r.misses) == (0, 1)
    r = c.burst(np.array([5]), is_write=False)
    assert (r.hits, r.misses) == (1, 0)


def test_conflict_eviction_same_set():
    c = level(nlines=8)
    c.burst(np.array([0]), is_write=True)       # line 0 dirty in set 0
    r = c.burst(np.array([8]), is_write=False)  # set 0 conflict
    assert r.misses == 1
    assert r.evicted_lines.tolist() == [0]      # dirty occupant written back


def test_clean_eviction_no_writeback():
    c = level(nlines=8)
    c.burst(np.array([0]), is_write=False)
    r = c.burst(np.array([8]), is_write=False)
    assert r.misses == 1
    assert r.evicted_lines.size == 0


def test_read_A_B_A_evicts_dirty_entry_occupant():
    # Regression for the subtle case: the entry occupant is evicted at
    # the first MISS of the group, which need not be the first access.
    c = level(nlines=8)
    c.burst(np.array([0]), is_write=True)  # A dirty
    r = c.burst(np.array([0, 8, 0]), is_write=False)
    assert (r.hits, r.misses) == (1, 2)
    assert r.evicted_lines.tolist() == [0]   # dirty A written back once
    # A was reloaded clean; evicting it now must not write back.
    r2 = c.burst(np.array([8]), is_write=False)
    assert r2.evicted_lines.size == 0


def test_write_burst_intra_burst_evictions_are_dirty():
    c = level(nlines=4)
    # lines 0,4,8 all map to set 0; each later miss evicts a just-written line
    r = c.burst(np.array([0, 4, 8]), is_write=True)
    assert r.misses == 3
    assert sorted(r.evicted_lines.tolist()) == [0, 4]


def test_write_hit_then_conflict_writes_back():
    c = level(nlines=4)
    c.burst(np.array([0]), is_write=False)       # clean
    r = c.burst(np.array([0, 4]), is_write=True)  # hit-write dirties, then evict
    assert r.evicted_lines.tolist() == [0]


@pytest.mark.parametrize("track_dirty", [True, False],
                         ids=["tracks-dirty", "no-dirty-bits"])
def test_drop_clears_tags_and_dirty_bits_in_range(track_dirty):
    c = level(nlines=8, track_dirty=track_dirty)
    c.burst(np.array([1, 2, 6]), is_write=True)
    c.burst(np.array([3]), is_write=False)
    assert c.drop_range(1, 4) is None
    assert c.tags.tolist() == [-1, -1, -1, -1, -1, -1, 6, -1]
    # Line 6 lies outside the range; only a tracking level marks it.
    assert np.flatnonzero(c.dirty).tolist() == ([6] if track_dirty else [])


def test_clean_writes_back_and_keeps_resident():
    c = level(nlines=8)
    c.burst(np.array([1, 2]), is_write=True)
    flushed = c.clean_range(1, 3)
    assert sorted(flushed.tolist()) == [1, 2]
    assert c.resident(1) and c.resident(2)
    # second flush: nothing dirty anymore
    assert c.clean_range(1, 2).size == 0


def test_range_wrapping_the_set_index_takes_both_ends():
    """Lines 6..9 sit in sets 6, 7, 0 and 1 of an 8-set level."""
    c = level(nlines=8)
    c.burst(np.array([5, 6, 7, 8, 9, 10]), is_write=True)
    assert c.clean_range(6, 4).tolist() == [6, 7, 8, 9]  # ascending
    assert c.clean_range(5, 6).tolist() == [5, 10]
    assert all(c.resident(x) for x in range(5, 11))
    c.burst(np.array([6, 9]), is_write=True)
    c.drop_range(6, 4)
    assert [c.resident(x) for x in range(5, 11)] == [
        True, False, False, False, False, True]
    assert not c.dirty.any()


def test_range_of_nsets_lines_or_more_takes_every_set():
    """A range longer than the level reaches every set; only occupants
    inside the range are cleaned or dropped, in ascending order."""
    c = level(nlines=4)
    c.burst(np.array([8, 5, 2, 3]), is_write=True)   # sets 0, 1, 2, 3
    assert c.clean_range(2, 8).tolist() == [2, 3, 5, 8]
    c.burst(np.array([8, 5, 2, 3]), is_write=True)
    assert c.clean_range(3, 4).tolist() == [3, 5]    # exactly nsets lines
    assert c.clean_range(0, 12).tolist() == [2, 8]
    c.burst(np.array([5]), is_write=True)            # dirty again
    c.drop_range(4, 5)
    assert [c.resident(x) for x in (2, 3, 5, 8)] == [True, True, False, False]
    assert not c.dirty.any()


def test_empty_burst():
    c = level()
    r = c.burst(np.empty(0, dtype=np.int64), is_write=True)
    assert (r.hits, r.misses) == (0, 0)
    assert r.evicted_lines.size == 0


# ---------------------------------------------------------------- property --

@st.composite
def access_script(draw):
    """A line stream of shaped bursts plus its burst boundaries; each
    burst is all-read or all-write."""
    nsets = draw(st.sampled_from([2, 4, 8]))
    bursts = draw(st.lists(burst_lines(4 * nsets, 3 * nsets), min_size=1,
                           max_size=12))
    lines = [ln for b in bursts for ln in b]
    cuts = list(accumulate(len(b) for b in bursts))[:-1]
    writes = draw(
        st.lists(st.booleans(), min_size=len(bursts), max_size=len(bursts))
    )
    return nsets, lines, cuts, writes


@given(access_script())
@settings(max_examples=200, deadline=None)
def test_burst_engine_matches_scalar_reference(script):
    nsets, lines, cuts, writes = script
    vec = CacheLevel(nsets * 32, 32, "V", track_dirty=True)
    ref = ReferenceCache(nsets)

    bounds = [0] + cuts + [len(lines)]
    for b in range(len(bounds) - 1):
        seg = lines[bounds[b]:bounds[b + 1]]
        if not seg:
            continue
        w = writes[b]
        ref_hits = 0
        ref_evicted = []
        for ln in seg:
            hit, ev = ref.access(ln, w)
            ref_hits += hit
            if ev is not None:
                ref_evicted.append(ev)
        r = vec.burst(np.array(seg, dtype=np.int64), is_write=w)
        assert r.hits == ref_hits
        assert r.misses == len(seg) - ref_hits
        assert sorted(r.evicted_lines.tolist()) == sorted(ref_evicted)

    # final state agrees
    for s in range(nsets):
        ref_tag = ref.tags.get(s, -1)
        assert vec.tags[s] == ref_tag
        if ref_tag != -1:
            assert bool(vec.dirty[s]) == ref.dirty.get(s, False)


@st.composite
def flush_script(draw):
    """Steps of a burst followed by a range flush or invalidation.  Lines
    lie below twice the set count, so a range often meets the burst's
    dirty lines; a range starts anywhere there, so it wraps the set
    index at will, and runs up to ``nsets`` lines as often as up to
    ``3 * nsets``, so it falls short of a level's sets and covers them
    all."""
    nsets = draw(st.sampled_from([2, 4, 8, 16]))
    top = 2 * nsets
    step = st.tuples(burst_lines(top, 3 * nsets), st.booleans(),
                     st.sampled_from(["clean", "drop"]),
                     st.integers(0, top - 1),
                     st.one_of(st.integers(1, nsets),
                               st.integers(1, 3 * nsets)))
    return nsets, draw(st.lists(step, min_size=1, max_size=12))


@given(flush_script())
@settings(max_examples=300, deadline=None)
def test_range_flushes_match_scalar_reference(script):
    nsets, steps = script
    vec = CacheLevel(nsets * 32, 32, "V", track_dirty=True)
    ref = ReferenceCache(nsets)
    for lines, write, op, first, n in steps:
        for ln in lines:
            ref.access(ln, write)
        vec.burst(np.array(lines, dtype=np.int64), is_write=write)
        if op == "clean":
            assert vec.clean_range(first, n).tolist() == \
                ref.clean_range(first, n)
        else:
            vec.drop_range(first, n)
            ref.drop_range(first, n)
        assert vec.tags.tolist() == [ref.tags.get(s, -1)
                                     for s in range(nsets)]
        assert vec.dirty.tolist() == [ref.dirty.get(s, False)
                                      for s in range(nsets)]


# ------------------------------------------------------------- hierarchy ----

def hierarchy(l1_lines=4, l2_lines=16):
    return CacheHierarchy(
        l1_size=l1_lines * 32,
        l2_size=l2_lines * 32,
        line_bytes=32,
        l1_cycles=1,
        l2_cycles=10,
        memory_cycles=20,
    )


def test_hierarchy_cold_access_costs():
    h = hierarchy()
    cost = h.access(np.array([0]), is_write=False)
    assert cost.l1_hits == 0
    assert cost.l2_hits == 0
    assert cost.memory_accesses == 1
    assert cost.cpu_cycles == 1 + 10 + 20


def test_hierarchy_l1_hit_cost():
    h = hierarchy()
    h.access(np.array([0]), is_write=False)
    cost = h.access(np.array([0]), is_write=False)
    assert cost.l1_hits == 1 and cost.cpu_cycles == 1


def test_hierarchy_l2_hit_after_l1_conflict():
    h = hierarchy(l1_lines=4, l2_lines=64)
    h.access(np.array([0]), is_write=False)
    h.access(np.array([4]), is_write=False)   # evicts 0 from L1, stays in L2
    cost = h.access(np.array([0]), is_write=False)
    assert cost.l1_hits == 0
    assert cost.l2_hits == 1
    assert cost.cpu_cycles == 1 + 10


def test_hierarchy_writeback_on_l2_conflict():
    h = hierarchy(l1_lines=4, l2_lines=4)
    h.access(np.array([0]), is_write=True)
    cost = h.access(np.array([4]), is_write=False)  # conflicts in both
    assert cost.writeback_lines.tolist() == [0]


def test_hierarchy_l1_hit_write_dirties_l2():
    h = hierarchy(l1_lines=4, l2_lines=4)
    h.access(np.array([0]), is_write=False)  # clean in both
    h.access(np.array([0]), is_write=True)   # L1 hit, must dirty L2 copy
    flushed = h.flush_range(0, 1)
    assert flushed.tolist() == [0]


def test_hierarchy_flush_then_flush_is_empty():
    h = hierarchy()
    h.access(np.array([1, 2, 3]), is_write=True)
    first = h.flush_range(1, 3)
    assert sorted(first.tolist()) == [1, 2, 3]
    assert h.flush_range(1, 3).size == 0


def test_hierarchy_invalidate_drops_without_writeback():
    h = hierarchy()
    h.access(np.array([1]), is_write=True)
    h.invalidate_range(1, 1)
    assert h.flush_range(1, 1).size == 0
    cost = h.access(np.array([1]), is_write=False)
    assert cost.memory_accesses == 1  # truly gone


def test_hierarchy_stats_accumulate():
    h = hierarchy()
    h.access(np.array([0, 1, 0]), is_write=False)
    assert h.stats_l1_hits == 1
    assert h.stats_memory == 2


@given(
    st.lists(
        st.tuples(st.integers(0, 31), st.booleans()), min_size=1, max_size=80
    )
)
@settings(max_examples=100, deadline=None)
def test_hierarchy_cost_classification_is_exhaustive(stream):
    """Every access is exactly one of: L1 hit, L2 hit, memory access."""
    h = hierarchy(l1_lines=2, l2_lines=8)
    for line, w in stream:
        cost = h.access(np.array([line]), is_write=w)
        assert cost.l1_hits + cost.l2_hits + cost.memory_accesses == 1


# ------------------------------------------------------ one-line access ----

@st.composite
def one_line_stream(draw):
    """A geometry (Table 1's, or a 2-8-set L1 under a 2-8x L2) and a
    stream of one-line reads and writes.  Each line is ``a`` L2 strides
    plus ``b`` L1 strides plus a small offset, so the stream keeps
    meeting its own lines in both levels' sets: L1 conflicts that hit
    the L2, L2 conflicts that write back dirty occupants."""
    if draw(st.booleans()):
        p = SimParams()
        l1_sets = p.l1_size_bytes // p.cache_line_bytes
        l2_sets = p.l2_size_bytes // p.cache_line_bytes
    else:
        l1_sets = draw(st.sampled_from([2, 4, 8]))
        l2_sets = l1_sets * draw(st.sampled_from([2, 4, 8]))
    line = st.builds(
        lambda a, b, c: a * l2_sets + b * l1_sets + c,
        st.integers(0, 3), st.integers(0, min(3, l2_sets // l1_sets - 1)),
        st.integers(0, min(3, l1_sets - 1)))
    steps = draw(st.lists(st.tuples(line, st.booleans()), min_size=1,
                          max_size=60))
    return l1_sets, l2_sets, steps


def assert_level_matches(vec, ref):
    """A level's tags and dirty bits equal a ``ReferenceCache``'s (which
    holds only the sets ever filled)."""
    assert np.count_nonzero(vec.tags != -1) == len(ref.tags)
    for s, line in ref.tags.items():
        assert vec.tags[s] == line
    assert np.flatnonzero(vec.dirty).tolist() == sorted(
        s for s, d in ref.dirty.items() if d)


@given(one_line_stream())
@settings(max_examples=150, deadline=None)
def test_one_line_access_matches_two_reference_levels(script):
    # The L1 reference classifies latency only (it never sees a write);
    # the L2 reference is probed on an L1 miss and holds the dirty bits;
    # an L1-hit write marks a resident L2 copy dirty.
    l1_sets, l2_sets, steps = script
    h = CacheHierarchy(l1_sets * 32, l2_sets * 32, 32, 1, 10, 20)
    l1, l2 = ReferenceCache(l1_sets), ReferenceCache(l2_sets)
    totals = [0, 0, 0, 0]
    for line, write in steps:
        cost = h.access(np.array([line], dtype=np.int64), write)
        l1_hit, _ = l1.access(line, False)
        l2_hit, evicted = False, None
        if not l1_hit:
            l2_hit, evicted = l2.access(line, write)
        elif write and l2.tags.get(line % l2_sets) == line:
            l2.dirty[line % l2_sets] = True
        memory = not (l1_hit or l2_hit)
        assert (cost.accesses, cost.l1_hits, cost.l2_hits,
                cost.memory_accesses) == (1, l1_hit, l2_hit, memory)
        assert type(cost.cpu_cycles) is float
        assert cost.cpu_cycles == 1 + 10 * (not l1_hit) + 20 * memory
        assert cost.writeback_lines.dtype == np.int64
        assert cost.writeback_lines.tolist() == (
            [] if evicted is None else [evicted])
        totals[0] += l1_hit
        totals[1] += l2_hit
        totals[2] += memory
        totals[3] += evicted is not None
        assert [h.stats_l1_hits, h.stats_l2_hits, h.stats_memory,
                h.stats_writebacks] == totals
        assert_level_matches(h.l1, l1)
        assert_level_matches(h.l2, l2)


def test_one_line_write_hit_marks_only_a_resident_l2_copy():
    # An L1 hit whose L2 copy is gone (dropped from the L2 alone) takes
    # no dirty mark there, as in a burst's end-of-burst marking.
    h = hierarchy(l1_lines=4, l2_lines=16)
    h.access(np.array([3]), is_write=False)
    h.l2.drop_range(3, 1)
    cost = h.access(np.array([3]), is_write=True)
    assert (cost.l1_hits, cost.l2_hits, cost.cpu_cycles) == (1, 0, 1.0)
    assert h.l2.tags[3] == -1 and not h.l2.dirty.any()
    h.access(np.array([7]), is_write=False)    # L1 conflict: 3 leaves
    h.access(np.array([3]), is_write=False)    # refill: clean
    cost = h.access(np.array([3]), is_write=True)
    assert cost.l1_hits == 1 and h.l2.dirty.tolist() == [
        s == 3 for s in range(16)]


# ------------------------------------------------- state at first touch ----

def table1_hierarchy():
    p = SimParams()
    return CacheHierarchy(p.l1_size_bytes, p.l2_size_bytes,
                          p.cache_line_bytes, p.l1_access_cycles,
                          p.l2_access_cycles, p.memory_latency_cycles)


def built_arrays(level):
    """Which of the level's arrays exist yet (its own instance state)."""
    return {"tags", "dirty"} & vars(level).keys()


def traced(fn):
    """``fn()``'s result and the bytes it left allocated."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()


def test_table1_hierarchy_allocates_no_arrays_until_first_access():
    """Building Table 1's hierarchy allocates no tag or dirty array (the
    L1's tags alone would be 8 KB); the first access builds both
    levels' arrays, every tag -1 and every line clean beforehand."""
    h, grown = traced(table1_hierarchy)
    assert grown < 4096
    assert not built_arrays(h.l1) and not built_arrays(h.l2)

    cost, grown = traced(lambda: h.access(np.arange(8), is_write=False))
    assert (cost.l1_hits, cost.l2_hits, cost.memory_accesses) == (0, 0, 8)
    assert grown >= (h.l1.nsets + h.l2.nsets) * 8     # both tag arrays
    assert built_arrays(h.l1) == built_arrays(h.l2) == {"tags", "dirty"}
    assert (h.l1.tags[8:] == -1).all() and (h.l2.tags[8:] == -1).all()
    assert not h.l1.dirty.any() and not h.l2.dirty.any()


def test_first_touch_builds_only_missing_arrays():
    c = level()
    with pytest.raises(AttributeError):
        getattr(c, "no_such_attribute")
    mine = np.full(c.nsets, 3, dtype=np.int64)
    c.tags = mine
    assert not c.dirty.any()
    assert c.tags is mine


def run_script(h, first):
    """One op of kind ``first``, then a fixed mix of every kind;
    returns everything the ops report."""
    out = []
    ops = [first, "write", "read", "flush", "write", "invalidate", "read",
           "flush"]
    for i, op in enumerate(ops):
        lo = 1000 * i + 37
        if op in ("read", "write"):
            lines = np.concatenate((np.arange(lo, lo + 300),
                                    np.arange(lo + 40000, lo + 40100)))
            c = h.access(lines, is_write=op == "write")
            out.append((c.accesses, c.l1_hits, c.l2_hits, c.memory_accesses,
                        c.cpu_cycles, sorted(c.writeback_lines.tolist())))
        elif op == "flush":
            out.append(h.flush_range(0, 50000).tolist())
        else:
            h.invalidate_range(lo - 2000, 1500)
    return out


@pytest.mark.parametrize("first", ["read", "write", "flush", "invalidate"])
def test_first_touch_behaves_as_an_eagerly_built_hierarchy(first):
    lazy, eager = table1_hierarchy(), table1_hierarchy()
    for lv in (eager.l1, eager.l2):   # build every array before any op
        assert (lv.tags == -1).all() and not lv.dirty.any()
    assert run_script(lazy, first) == run_script(eager, first)
    for a, b in ((lazy.l1, eager.l1), (lazy.l2, eager.l2)):
        assert (a.tags == b.tags).all() and (a.dirty == b.dirty).all()


# ------------------------------------------------------ contiguous bursts ----

def vector_access(h, lines, is_write):
    """``CacheHierarchy.access`` of an ascending burst as it was before
    the range entry: rule 2 at the L1 through fancy-index gathers and
    scatters, the L1 miss stream through ``CacheLevel.burst``, then the
    end-of-burst dirty mark of written lines resident in the L2.
    Returns the cost fields and the write-backs."""
    n = lines.size
    l1 = h.l1
    m = min(n, l1.nsets)
    mask = l1.nsets - 1
    head = lines[:m]
    hit = l1.tags[head & mask] == head
    miss_stream = head[~hit]
    if m < n:
        tail = lines[n - m:]
        l1.tags[tail & mask] = tail
        miss_stream = np.concatenate((miss_stream, lines[m:]))
    else:
        l1.tags[head & mask] = head
    r2 = h.l2.burst(miss_stream, is_write)
    if is_write:
        sets = lines & (h.l2.nsets - 1)
        resident = h.l2.tags[sets] == lines
        h.l2.dirty[sets[resident]] = True
    cycles = float(n + 10 * miss_stream.size + 20 * r2.misses)
    return ((n, n - miss_stream.size, r2.hits, r2.misses, cycles),
            r2.evicted_lines)


@st.composite
def range_script(draw):
    """A geometry (Table 1's, or a 2-32-set L1 under a 2-8x L2) and a
    stream of contiguous reads and writes, flushes and invalidations.
    A range starts within an L1 of one of a few anchors, so ranges keep
    meeting each other's lines (a write that hits the L1 on lines an
    earlier read left clean in the L2, say); an anchor lies anywhere
    below four L2s or just below an L2 boundary, so ranges wrap each
    level at will.  A range's length is one line, up to twice the L1,
    up to the L2, or just past the L2 (up to three L2s on the small
    levels)."""
    if draw(st.booleans()):
        p = SimParams()
        l1_sets = p.l1_size_bytes // p.cache_line_bytes
        l2_sets = p.l2_size_bytes // p.cache_line_bytes
        longest = l2_sets + 2 * l1_sets
    else:
        l1_sets = draw(st.sampled_from([2, 4, 8, 16, 32]))
        l2_sets = l1_sets * draw(st.sampled_from([2, 4, 8]))
        longest = 3 * l2_sets
    anchor = st.one_of(
        st.integers(l1_sets, 4 * l2_sets - 1),
        st.builds(lambda a, b: (a + 1) * l2_sets - b,
                  st.integers(0, 3), st.integers(1, l1_sets)))
    anchors = draw(st.lists(anchor, min_size=1, max_size=3))
    start = st.builds(lambda a, d: a + d, st.sampled_from(anchors),
                      st.integers(-l1_sets, l1_sets))
    length = st.one_of(st.just(1), st.integers(2, 2 * l1_sets),
                       st.integers(2, l2_sets),
                       st.integers(l2_sets, longest))
    op = st.sampled_from(["read", "write", "write", "flush", "invalidate"])
    steps = draw(st.lists(st.tuples(op, start, length), min_size=1,
                          max_size=12))
    return l1_sets, l2_sets, steps


@given(range_script())
# A burst longer than the L1, its last L1 occupants wrapping the sets.
@example((4, 16, [("read", 5, 7)]))
# A write whose lines hit the L1, their L2 copies resident and clean.
@example((4, 16, [("read", 8, 4), ("write", 8, 4), ("flush", 0, 64)]))
@settings(max_examples=120, deadline=None)
def test_range_entry_matches_the_vector_burst(script):
    l1_sets, l2_sets, steps = script
    got, want = (CacheHierarchy(l1_sets * 32, l2_sets * 32, 32, 1, 10, 20)
                 for _ in range(2))
    totals = [0, 0, 0, 0]
    for op, first, n in steps:
        if op in ("read", "write"):
            w = op == "write"
            cost = got.access_range(first, n, w)
            lines = np.arange(first, first + n, dtype=np.int64)
            if n == 1:
                ref = want.access(lines, w)     # the scalar one-line path
                fields = (1, ref.l1_hits, ref.l2_hits, ref.memory_accesses,
                          ref.cpu_cycles)
                evicted = ref.writeback_lines
            else:
                fields, evicted = vector_access(want, lines, w)
            assert (cost.accesses, cost.l1_hits, cost.l2_hits,
                    cost.memory_accesses, cost.cpu_cycles) == fields
            assert type(cost.cpu_cycles) is float
            assert cost.writeback_lines.dtype == np.int64
            assert sorted(cost.writeback_lines.tolist()) == sorted(
                evicted.tolist())
            for i, f in enumerate((fields[1], fields[2], fields[3],
                                   evicted.size)):
                totals[i] += f
            assert [got.stats_l1_hits, got.stats_l2_hits, got.stats_memory,
                    got.stats_writebacks] == totals
        elif op == "flush":
            assert (got.flush_range(first, n).tolist()
                    == want.flush_range(first, n).tolist())
        else:
            got.invalidate_range(first, n)
            want.invalidate_range(first, n)
        for a, b in ((got.l1, want.l1), (got.l2, want.l2)):
            assert (a.tags == b.tags).all()
            assert (a.dirty == b.dirty).all()


def test_range_entry_reports_write_backs_in_line_order():
    # Lines 6, 7 and 8 (a burst that wraps an 8-set L2 after set 7)
    # meet dirty occupants 22 and 15: the write-backs come in the
    # burst's line order, not in the evicted lines' order.
    h = hierarchy(l1_lines=2, l2_lines=8)
    h.access_range(15, 1, True)
    h.access_range(22, 1, True)
    cost = h.access_range(6, 3, False)
    assert cost.writeback_lines.tolist() == [22, 15]


def test_access_sends_contiguous_bursts_to_the_range_entry(monkeypatch):
    h = hierarchy(l1_lines=4, l2_lines=16)
    calls = []
    real = h.access_range
    monkeypatch.setattr(h, "access_range",
                        lambda *a: calls.append(a) or real(*a))
    h.access(np.arange(5, 45), True)
    h.access(np.array([3, 4]), False)
    h.access(np.array([3, 5, 6]), False)       # a gap: rule 1
    h.access(np.array([9, 8, 10]), False)      # unordered: grouped
    assert calls == [(5, 40, True), (3, 2, False)]


def test_range_entry_of_no_lines_costs_nothing():
    h = hierarchy()
    for n in (0, -3):
        cost = h.access_range(7, n, True)
        assert (cost.accesses, cost.cpu_cycles, cost.writeback_lines.size) \
            == (0, 0.0, 0)
    assert (h.stats_l1_hits, h.stats_l2_hits, h.stats_memory,
            h.stats_writebacks) == (0, 0, 0, 0)
