"""Unit + property tests for the Message Cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MessageCache
from repro.memory import BoardTLB, HostMMU
from repro.params import SimParams


def make_mc(buffers=4, page=4096):
    params = SimParams().replace(
        message_cache_bytes=buffers * page, page_size_bytes=page
    )
    mmu = HostMMU(page)
    tlb = BoardTLB(mmu)
    return MessageCache(params, tlb), mmu, tlb


def test_capacity():
    mc, _, _ = make_mc(buffers=4)
    assert mc.capacity == 4
    assert mc.occupancy == 0


def test_miss_then_insert_then_hit():
    mc, _, _ = make_mc()
    assert not mc.lookup_transmit(7)
    mc.insert(7)
    assert mc.lookup_transmit(7)
    assert mc.counters["mc_page_lookups"] == 2
    assert mc.counters["mc_page_hits"] == 1
    assert mc.hit_ratio == 0.5


def test_insert_idempotent():
    mc, _, _ = make_mc()
    mc.insert(3)
    mc.insert(3)
    assert mc.occupancy == 1
    assert mc.insertions == 1


def test_eviction_on_capacity():
    mc, _, _ = make_mc(buffers=2)
    mc.insert(1)
    mc.insert(2)
    mc.insert(3)  # evicts one of the first two
    assert mc.occupancy == 2
    assert mc.evictions == 1
    assert mc.contains(3)


def test_clock_approximates_lru():
    mc, _, _ = make_mc(buffers=2)
    mc.insert(1)
    mc.insert(2)
    # reference page 1 so its clock bit is set; 2 becomes the victim
    assert mc.lookup_transmit(1)
    mc.insert(3)
    assert mc.contains(1)
    assert not mc.contains(2)
    assert mc.contains(3)


def test_invalidate():
    mc, _, _ = make_mc()
    mc.insert(5)
    assert mc.invalidate(5)
    assert not mc.contains(5)
    assert not mc.invalidate(5)
    assert mc.invalidations == 1


def test_zero_capacity_cache_is_inert():
    params = SimParams().replace(message_cache_bytes=0)
    mmu = HostMMU(4096)
    mc = MessageCache(params, BoardTLB(mmu))
    mc.insert(1)
    assert not mc.lookup_transmit(1)
    assert mc.occupancy == 0


def test_snoop_updates_cached_page():
    mc, mmu, tlb = make_mc()
    frame = mmu.map_page(9)
    tlb.install(9)
    mc.insert(9)
    absorbed = mc.snoop([frame])
    assert absorbed == 1
    assert mc.snoop_updates == 1
    assert mc.contains(9)  # stays valid: that's the whole point


def test_snoop_aborts_for_unmapped_frame():
    mc, mmu, tlb = make_mc()
    assert mc.snoop([0xDEAD]) == 0
    assert mc.snoop_aborts == 1


def test_snoop_aborts_for_uncached_page():
    mc, mmu, tlb = make_mc()
    frame = mmu.map_page(9)
    tlb.install(9)
    assert mc.snoop([frame]) == 0
    assert mc.snoop_aborts == 1


def test_snoop_counts_each_distinct_frame():
    mc, mmu, tlb = make_mc()
    frames = []
    for v in (4, 5, 6):
        frames.append(mmu.map_page(v))
        tlb.install(v)
    mc.insert(4)
    mc.insert(6)
    assert mc.snoop([frames[0], frames[1], 0xDEAD, frames[2]]) == 2
    assert (mc.snoop_updates, mc.snoop_aborts) == (2, 2)
    assert mc.contains(4) and mc.contains(6)


def test_snoop_disabled_invalidates():
    mc, mmu, tlb = make_mc()
    frame = mmu.map_page(9)
    tlb.install(9)
    mc.insert(9)
    dropped = mc.snoop_disabled_writeback([frame])
    assert dropped == 1
    assert not mc.contains(9)


def test_cached_pages_listing():
    mc, _, _ = make_mc()
    mc.insert(3)
    mc.insert(1)
    assert mc.cached_pages() == [1, 3]


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "lookup", "invalidate"]),
                  st.integers(0, 9)),
        min_size=1, max_size=200,
    ),
    buffers=st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_clock_invariants_property(ops, buffers):
    """Occupancy never exceeds capacity; the map and buffers agree."""
    mc, _, _ = make_mc(buffers=buffers)
    for op, page in ops:
        if op == "insert":
            mc.insert(page)
        elif op == "lookup":
            mc.lookup_transmit(page)
        else:
            mc.invalidate(page)
        assert mc.occupancy <= mc.capacity
        # map and buffer array agree
        valid = [b for b in mc._buffers if b.valid]
        assert len(valid) == mc.occupancy
        assert {b.vpage for b in valid} == set(mc._map)
        for b in valid:
            assert mc._map[b.vpage] is b


@given(pages=st.lists(st.integers(0, 100), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_insert_always_caches_the_new_page(pages):
    mc, _, _ = make_mc(buffers=3)
    for p in pages:
        mc.insert(p)
        assert mc.contains(p)
