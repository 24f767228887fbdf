"""Unit tests for lock tables and home policy."""

import pytest

from repro.dsm import HomePolicy, LocalLockTable, LockManagerTable


# ---------------------------------------------------------------- lock tables --

def test_manager_record_get_or_create():
    t = LockManagerTable()
    r1 = t.record(5)
    r2 = t.record(5)
    assert r1 is r2
    assert r1.last_owner is None


def test_local_state_defaults():
    t = LocalLockTable()
    st = t.state(3)
    assert not st.held and st.released
    assert not st.acquiring and not st.cached_ownership
    assert st.pending_requester is None


def test_held_locks():
    t = LocalLockTable()
    t.state(1).held = True
    t.state(2)
    t.state(7).held = True
    assert t.held_locks() == [1, 7]


# ---------------------------------------------------------------- home policy --

def test_round_robin_homes():
    h = HomePolicy(4)
    assert [h.page_home(p) for p in range(6)] == [0, 1, 2, 3, 0, 1]
    assert h.lock_home(5) == 1
    assert h.barrier_manager == 0


def test_block_scheme():
    h = HomePolicy(4, scheme="block")
    h.set_page_count(100)
    assert h.page_home(0) == 0
    assert h.page_home(99) == 3
    homes = [h.page_home(p) for p in range(100)]
    assert homes == sorted(homes)


def test_bulk_table_agrees_with_per_page_lookup():
    """page_homes (the cluster's bulk path) must agree with page_home
    page-for-page across schemes, allocation extents and table sizes."""
    for nprocs in (1, 3, 4):
        for scheme in ("round_robin", "block"):
            for npages in (1, 7, 64, 257):
                h = HomePolicy(nprocs, scheme=scheme)
                assert h.page_homes(npages) == \
                    [h.page_home(p) for p in range(npages)]
                h.set_page_count(npages)
                assert h.page_homes(npages) == \
                    [h.page_home(p) for p in range(npages)]
                h.set_allocations([(0, 5), (10, 3), (40, 20)])
                assert h.page_homes(npages) == \
                    [h.page_home(p) for p in range(npages)]


def test_bulk_table_cache_invalidates_on_allocation_change():
    h = HomePolicy(4, scheme="block")
    h.set_page_count(64)
    before = list(h.page_homes(64))
    h.set_allocations([(0, 64)])
    after = h.page_homes(64)
    assert after == [h.page_home(p) for p in range(64)]
    assert before != after or h.page_homes(64) is after


def test_policy_validation():
    with pytest.raises(ValueError):
        HomePolicy(0)
    with pytest.raises(ValueError):
        HomePolicy(4, scheme="bogus")
    h = HomePolicy(4)
    with pytest.raises(ValueError):
        h.page_home(-1)
    with pytest.raises(ValueError):
        h.lock_home(-1)


def test_block_scheme_respects_allocations():
    h = HomePolicy(4, scheme="block")
    h.set_page_count(1000)
    # two allocations: pages [0,16) and [16,32)
    h.set_allocations([(0, 16), (16, 16)])
    # each allocation is divided among the 4 nodes independently
    assert [h.page_home(p) for p in (0, 4, 8, 12)] == [0, 1, 2, 3]
    assert [h.page_home(p) for p in (16, 20, 24, 28)] == [0, 1, 2, 3]
    # a page outside any allocation falls back to the global split
    assert h.page_home(999) == 3


def test_block_scheme_without_allocations_uses_page_count():
    h = HomePolicy(2, scheme="block")
    h.set_page_count(10)
    assert h.page_home(0) == 0
    assert h.page_home(9) == 1


def test_set_allocations_ignores_empty_extents():
    h = HomePolicy(2, scheme="block")
    h.set_allocations([(0, 0), (4, 4)])
    h.set_page_count(100)
    assert h.page_home(4) == 0
    assert h.page_home(7) == 1
