"""Unit + property tests for packets, headers and cell trains."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network import (
    FLAG_CACHEABLE,
    HEADER_BYTES,
    CellTrain,
    Packet,
    PacketKind,
    parse_header,
)


def make_packet(**kw):
    defaults = dict(
        kind=PacketKind.DATA, src_node=1, dst_node=2, channel_id=3,
        handler_key=4, payload_bytes=100,
    )
    defaults.update(kw)
    return Packet(**defaults)


def test_header_is_16_bytes():
    assert len(make_packet().header_bytes()) == HEADER_BYTES


def test_header_roundtrip():
    p = make_packet(cacheable=True, payload_bytes=4096)
    h = parse_header(p.header_bytes())
    assert h["kind"] == PacketKind.DATA
    assert h["src_node"] == 1
    assert h["dst_node"] == 2
    assert h["channel_id"] == 3
    assert h["handler_key"] == 4
    assert h["payload_bytes"] == 4096
    assert h["cacheable"] is True
    assert h["flags"] & FLAG_CACHEABLE


@given(
    kind=st.sampled_from(list(PacketKind)),
    src=st.integers(0, 0xFFFF),
    dst=st.integers(0, 0xFFFF),
    chan=st.integers(0, 0xFFFF),
    key=st.integers(0, 0xFFFF),
    size=st.integers(0, 2 ** 31),
    cacheable=st.booleans(),
)
def test_header_roundtrip_property(kind, src, dst, chan, key, size, cacheable):
    p = Packet(
        kind=kind, src_node=src, dst_node=dst, channel_id=chan,
        handler_key=key, payload_bytes=size, cacheable=cacheable,
    )
    h = parse_header(p.header_bytes())
    assert (h["kind"], h["src_node"], h["dst_node"]) == (kind, src, dst)
    assert (h["channel_id"], h["handler_key"]) == (chan, key)
    assert h["payload_bytes"] == size
    assert h["cacheable"] == cacheable


def test_packet_ids_are_unique():
    assert make_packet().packet_id != make_packet().packet_id


def test_packet_field_validation():
    with pytest.raises(ValueError):
        make_packet(payload_bytes=-1)
    with pytest.raises(ValueError):
        make_packet(src_node=70000)
    with pytest.raises(ValueError):
        make_packet(channel_id=-1)


def test_wire_bytes_includes_header():
    assert make_packet(payload_bytes=100).wire_bytes == 116


def test_parse_header_length_check():
    with pytest.raises(ValueError):
        parse_header(b"short")


def test_cell_train_validation():
    p = make_packet()
    with pytest.raises(ValueError):
        CellTrain(p, 0)
    with pytest.raises(ValueError):
        CellTrain(p, 2, lost_cells=3)
    t = CellTrain(p, 2, lost_cells=1)
    assert not t.intact
    assert CellTrain(p, 2).intact
