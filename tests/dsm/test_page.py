"""Unit tests for page state machines and the shared segment."""

import numpy as np
import pytest

from repro.dsm import NodePageTable, PageState, SharedSegment, WriteNotice
from repro.memory import AddressSpace


def table(npages=8, self_id=0, nprocs=4):
    return NodePageTable(npages, lambda p: p % nprocs, self_id)


def test_initial_state():
    t = table()
    assert t[0].state == PageState.INVALID
    assert t[5].source == 1  # home of page 5 with 4 procs


def notice(page, proc, seq=1, modified_bytes=10):
    return WriteNotice(page, proc, seq, modified_bytes)


def test_own_notice_is_ignored():
    t = table(self_id=0)
    t[0].state = PageState.VALID_RO
    t.apply_notices([notice(0, proc=0)])
    assert t[0].state == PageState.VALID_RO
    assert not t[0].pending_diffs


def test_foreign_notice_makes_copy_stale():
    t = table(self_id=0)
    t[2].state = PageState.VALID_RO
    t[2].ever_valid = True
    t.apply_notices([notice(2, proc=1, modified_bytes=100)])
    assert t[2].pending_diffs == {(1, 1): 100}
    assert t[2].source == 1
    # the copy itself survives (reconstructible via diffs)
    assert t[2].state == PageState.VALID_RO


def test_second_notice_not_reported_stale_again():
    t = table(self_id=0)
    t[2].state = PageState.VALID_RO
    t.apply_notices([notice(2, proc=1)])
    t.apply_notices([notice(2, proc=2)])
    assert len(t[2].pending_diffs) == 2
    assert t[2].source == 2  # the latest writer becomes the fetch target


def test_notice_on_invalid_page_accumulates():
    t = table(self_id=0)
    t.apply_notices([notice(3, proc=1)])
    assert t[3].state == PageState.INVALID
    assert t[3].pending_diffs


def test_install_full_copy_subsumes_pending():
    t = table(self_id=0)
    t.apply_notices([notice(3, proc=1)])
    t.install_full_copy(3)
    assert t[3].state == PageState.VALID_RO
    assert t[3].ever_valid
    assert not t[3].pending_diffs


def test_apply_diffs_clears_selected():
    t = table(self_id=0)
    t[2].state = PageState.VALID_RO
    t.apply_notices([notice(2, proc=1)])
    t.apply_notices([notice(2, proc=2)])
    t.apply_diffs(2, [(1, 1)])
    assert t[2].pending_diffs == {(2, 1): 10}
    t.apply_diffs(2, [(2, 1), (9, 9)])  # unknown keys are fine
    assert not t[2].pending_diffs


def test_one_interval_applies_every_notice():
    """An interval's notices apply in one call: each named page gets the
    writer as source and one pending diff, untouched pages stay lazy."""
    t = table(self_id=0)
    t.apply_notices([notice(p, proc=1, seq=4, modified_bytes=8 * p)
                     for p in (1, 5, 6)])
    for p in (1, 5, 6):
        assert t[p].source == 1
        assert t[p].pending_diffs == {(1, 4): 8 * p}
    assert sorted(t._meta) == [1, 5, 6]
    t.apply_notices([])  # an empty interval changes nothing
    assert sorted(t._meta) == [1, 5, 6]


def test_make_writable_and_downgrade():
    t = table(self_id=0)
    t[1].state = PageState.VALID_RO
    t.make_writable(1)
    assert t[1].state == PageState.WRITABLE
    assert t[1].twin_live
    downgraded = t.end_interval_downgrade()
    assert downgraded == [1]
    assert t[1].state == PageState.VALID_RO
    assert not t[1].twin_live


def test_make_writable_requires_valid_copy():
    t = table(self_id=0)
    with pytest.raises(ValueError):
        t.make_writable(0)


def test_pages_in_state():
    t = table()
    t[1].state = PageState.VALID_RO
    t[4].state = PageState.VALID_RO
    assert t.pages_in_state(PageState.VALID_RO) == [1, 4]


# ----------------------------------------------------------- shared segment --

def segment(pages=16, page_size=4096):
    return SharedSegment(AddressSpace(page_size=page_size, dsm_pages=pages))


def test_alloc_page_aligned():
    seg = segment()
    a = seg.alloc((512,))  # exactly one page of float64
    b = seg.alloc((10,))
    assert a.first_page == 0 and a.n_pages == 1
    assert b.first_page == 1  # next allocation starts on a fresh page
    assert seg.pages_allocated == 2


def test_alloc_multi_page():
    seg = segment()
    a = seg.alloc((3, 512))
    assert a.n_pages == 3
    assert a.data.shape == (3, 512)
    assert a.data.dtype == np.float64


def test_alloc_exhaustion():
    seg = segment(pages=2)
    seg.alloc((512,))
    seg.alloc((512,))
    with pytest.raises(MemoryError):
        seg.alloc((1,))


def test_vaddr_roundtrip():
    seg = segment()
    a = seg.alloc((512,))
    assert a.base_vaddr == seg.page_vaddr(a.first_page)
    assert a.byte_offset_to_page(0) == a.first_page
    with pytest.raises(ValueError):
        a.byte_offset_to_page(4096)


def test_alloc_dtype():
    seg = segment()
    a = seg.alloc((100,), dtype=np.int32)
    assert a.data.dtype == np.int32
    assert a.n_pages == 1
