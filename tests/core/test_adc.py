"""Unit tests for Application Device Channels."""

import pytest

from repro.core import (
    ChannelError,
    ChannelManager,
    DeviceChannel,
    DualPortedRing,
    TransmitDescriptor,
)


def test_ring_push_pop_order():
    r = DualPortedRing(4, "r")
    for i in range(3):
        r.push(i)
    assert [r.pop() for _ in range(3)] == [0, 1, 2]
    assert r.pop() is None


def test_ring_capacity():
    r = DualPortedRing(2, "r")
    r.push(1)
    r.push(2)
    assert r.full
    with pytest.raises(ChannelError):
        r.push(3)
    assert r.full_rejections == 1
    r.pop()
    r.push(3)
    assert len(r) == 2


def test_ring_validation():
    with pytest.raises(ValueError):
        DualPortedRing(0, "r")


def test_channel_protection_grant_and_check():
    ch = DeviceChannel(owner_app=1)
    ch.grant_buffer(0x1000, 0x2000)
    ch.check_buffer(0x1000, 16)       # ok
    ch.check_buffer(0x2FF0, 0x10)     # exactly at the end
    with pytest.raises(ChannelError):
        ch.check_buffer(0x2FF1, 0x10)  # crosses the end
    with pytest.raises(ChannelError):
        ch.check_buffer(0x0FFF, 2)     # starts before
    assert ch.protection_faults == 2


def test_grant_validation():
    ch = DeviceChannel(owner_app=1)
    with pytest.raises(ValueError):
        ch.grant_buffer(0, 0)


def test_post_transmit_checks_protection():
    ch = DeviceChannel(owner_app=1)
    ch.grant_buffer(0x1000, 0x1000)
    ch.post_transmit(TransmitDescriptor(dst_node=1, vaddr=0x1000, length=64))
    with pytest.raises(ChannelError):
        ch.post_transmit(TransmitDescriptor(dst_node=1, vaddr=0x9000, length=64))


def test_post_transmit_without_buffer_skips_check():
    ch = DeviceChannel(owner_app=1)
    ch.post_transmit(TransmitDescriptor(dst_node=1, vaddr=None, length=16))


def test_post_free_buffer():
    ch = DeviceChannel(owner_app=1)
    ch.grant_buffer(0x4000, 0x1000)
    ch.post_free_buffer(0x4000, 4096)
    assert ch.free.pop() == (0x4000, 4096)
    with pytest.raises(ChannelError):
        ch.post_free_buffer(0x0, 64)


def test_channel_manager_lifecycle():
    mgr = ChannelManager(max_channels=2)
    a = mgr.open_channel(owner_app=1)
    b = mgr.open_channel(owner_app=2)
    assert a.channel_id != b.channel_id
    assert mgr.get(a.channel_id) is a
    with pytest.raises(ChannelError):
        mgr.open_channel(owner_app=3)
    mgr.close_channel(a.channel_id)
    mgr.open_channel(owner_app=3)  # slot freed
    with pytest.raises(KeyError):
        mgr.close_channel(a.channel_id)


def test_transmit_descriptor_validation():
    with pytest.raises(ValueError):
        TransmitDescriptor(dst_node=0, vaddr=None, length=-1)
