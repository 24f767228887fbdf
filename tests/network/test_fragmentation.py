"""Unit + property tests for AAL5 segmentation: cell counts and SAR time."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import Packet, PacketKind, Segmenter
from repro.params import SimParams


def packet(size, **kw):
    return Packet(
        kind=PacketKind.DATA, src_node=0, dst_node=1, channel_id=7,
        payload_bytes=size, **kw,
    )


def test_cell_count_page():
    seg = Segmenter(SimParams())
    # 4096 payload + 16 header + 8 trailer = 4120 -> 86 cells of 48 B
    assert seg.cell_count(packet(4096)) == 86


def test_unrestricted_single_cell():
    seg = Segmenter(SimParams().replace(unrestricted_cell_size=True))
    train = seg.make_train(packet(10 ** 6))
    assert train.n_cells == 1 and train.intact


def test_sar_time_scales_with_cells():
    params = SimParams()
    seg = Segmenter(params)
    one = seg.sar_time_ns(1)
    assert seg.sar_time_ns(86) == pytest.approx(86 * one)
    assert one == pytest.approx(params.ni_cycles_ns(params.ni_cell_sar_cycles))


@given(size=st.integers(0, 20000))
@settings(max_examples=30, deadline=None)
def test_unrestricted_never_more_cells_property(size):
    base = SimParams()
    unres = base.replace(unrestricted_cell_size=True)
    p = packet(size)
    assert Segmenter(unres).cell_count(p) <= Segmenter(base).cell_count(p)
    assert Segmenter(unres).cell_count(p) == 1
