"""Unit tests for host MMU and board TLB/RTLB."""

import pytest

from repro.memory import BoardTLB, HostMMU, TranslationError


def test_map_is_idempotent():
    mmu = HostMMU(4096)
    f1 = mmu.map_page(7)
    f2 = mmu.map_page(7)
    assert f1 == f2
    assert len(mmu) == 1


def test_frames_are_not_identity():
    mmu = HostMMU(4096)
    assert mmu.map_page(7) != 7 or mmu.map_page(8) != 8


def test_v2p_p2v_roundtrip():
    mmu = HostMMU(4096)
    for v in (0, 5, 123):
        f = mmu.map_page(v)
        assert mmu.translate_v2p(v) == f
        assert mmu.translate_p2v(f) == v


def test_unmap():
    mmu = HostMMU(4096)
    f = mmu.map_page(3)
    mmu.unmap_page(3)
    with pytest.raises(TranslationError):
        mmu.translate_v2p(3)
    assert mmu.translate_p2v(f) is None
    mmu.unmap_page(3)  # idempotent


def test_distinct_pages_distinct_frames():
    mmu = HostMMU(4096)
    frames = {mmu.map_page(v) for v in range(100)}
    assert len(frames) == 100


def test_board_tlb_mirror():
    mmu = HostMMU(4096)
    tlb = BoardTLB(mmu)
    f = mmu.map_page(9)
    tlb.install(9)
    assert 9 in tlb
    assert tlb.translate_v2p(9) == f
    assert tlb.rtlb_p2v(f) == 9
    assert tlb.lookups == 1 and tlb.reverse_lookups == 1


def test_board_tlb_miss_raises():
    mmu = HostMMU(4096)
    tlb = BoardTLB(mmu)
    with pytest.raises(TranslationError):
        tlb.translate_v2p(1)


def test_rtlb_unmapped_frame_aborts_snoop():
    mmu = HostMMU(4096)
    tlb = BoardTLB(mmu)
    assert tlb.rtlb_p2v(0xdead) is None


def test_rtlb_maps_each_snooped_frame():
    mmu = HostMMU(4096)
    tlb = BoardTLB(mmu)
    frames = []
    for v in (1, 2, 3):
        frames.append(mmu.map_page(v))
        tlb.install(v)
    probe = [frames[0], 0x9999, frames[2]]
    assert [tlb.rtlb_p2v(f) for f in probe] == [1, None, 3]
    assert tlb.reverse_lookups == 3


def test_board_evict():
    mmu = HostMMU(4096)
    tlb = BoardTLB(mmu)
    f = mmu.map_page(4)
    tlb.install(4)
    tlb.evict(4)
    assert 4 not in tlb
    assert tlb.rtlb_p2v(f) is None
    tlb.evict(4)  # idempotent


def test_host_mmu_validates_page_size():
    with pytest.raises(ValueError):
        HostMMU(0)
