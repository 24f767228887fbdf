"""Unit tests for the Application Interrupt Handler registry."""

import pytest

from repro.core import HandlerError, HandlerRegistry
from repro.params import SimParams


def make_registry(memory=1024):
    return HandlerRegistry(SimParams(), memory_bytes=memory)


def test_install_and_dispatch():
    reg = make_registry()
    reg.install(1, code_size=100)
    assert reg.installed(1)
    reg.dispatch(1)
    assert reg.dispatches == 1


def test_swap_in_cost_is_dma_time():
    reg = make_registry(memory=8192)
    params = SimParams()
    cost = reg.install(1, code_size=4096)
    assert cost == pytest.approx(params.dma_time_ns(4096))


def test_duplicate_key_rejected():
    reg = make_registry()
    reg.install(1, code_size=10)
    with pytest.raises(HandlerError):
        reg.install(1, code_size=10)


def test_memory_capacity_enforced():
    reg = make_registry(memory=100)
    reg.install(1, code_size=60)
    with pytest.raises(HandlerError):
        reg.install(2, code_size=50)
    assert reg.used_bytes == 60


def test_uninstall_frees_memory():
    reg = make_registry(memory=100)
    reg.install(1, code_size=60)
    reg.uninstall(1)
    assert reg.used_bytes == 0
    reg.install(2, code_size=90)
    with pytest.raises(HandlerError):
        reg.uninstall(1)


def test_dispatch_missing_handler():
    reg = make_registry()
    with pytest.raises(HandlerError):
        reg.dispatch(42)


def test_code_size_validation():
    reg = make_registry()
    with pytest.raises(ValueError):
        reg.install(1, code_size=0)


def test_dispatch_time_positive():
    reg = make_registry()
    assert reg.dispatch_time_ns() > 0


def test_handler_keys_sorted():
    reg = make_registry()
    reg.install(5, 10)
    reg.install(2, 10)
    assert reg.handler_keys() == [2, 5]


def test_negative_memory_rejected():
    with pytest.raises(ValueError):
        HandlerRegistry(SimParams(), memory_bytes=-1)


# -- capacity / eviction cycles -----------------------------------------------

def test_uninstall_reinstall_cycles_under_capacity():
    """Connection churn: swap handlers in and out of a full registry."""
    reg = make_registry(memory=100)
    for key in range(1, 6):
        reg.install(key, code_size=100)
        assert reg.used_bytes == 100
        with pytest.raises(HandlerError):
            reg.install(99, code_size=1)
        reg.uninstall(key)
        assert reg.used_bytes == 0
    assert reg.swap_ins == 5
    assert reg.handler_keys() == []


def test_dispatch_after_uninstall_rejected():
    reg = make_registry()
    reg.install(1, code_size=10)
    reg.uninstall(1)
    assert not reg.installed(1)
    with pytest.raises(HandlerError):
        reg.dispatch(1)


def test_swap_in_cost_accumulates_per_install():
    """Every install pays its own DMA-sized swap-in, including after
    eviction (the cost is not amortized across reinstalls)."""
    params = SimParams()
    reg = make_registry(memory=8192)
    first = reg.install(1, code_size=2048)
    reg.uninstall(1)
    second = reg.install(1, code_size=4096)
    assert first == pytest.approx(params.dma_time_ns(2048))
    assert second == pytest.approx(params.dma_time_ns(4096))
    assert reg.swap_ins == 2


# -- metrics accounting --------------------------------------------------------

def test_registry_metrics_track_swap_ins_and_occupancy():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    reg = HandlerRegistry(SimParams(), memory_bytes=1024,
                          metrics=registry.scope("aih"))
    reg.install(1, code_size=100)
    reg.install(2, code_size=200)
    reg.dispatch(1)
    snap = registry.snapshot()
    assert snap["aih.swap_ins"] == 2
    assert snap["aih.dispatches"] == 1
    assert snap["aih.handler_bytes_used"] == 300
    reg.uninstall(1)
    assert registry.snapshot()["aih.handler_bytes_used"] == 200


# -- collective handler installation (PATHFINDER mapping) ---------------------

def test_install_protocol_handler_classifies_collective_packets():
    from repro.collectives import COLL_HANDLER_CODE_BYTES, CollMsgType
    from repro.core.cni_nic import AIH_TARGET
    from repro.network import PacketKind
    from repro.runtime import Cluster

    cluster = Cluster(SimParams().replace(num_processors=2,
                                          dsm_address_space_pages=16),
                      interface="cni")
    nic = cluster.nodes[0].nic
    for cmt in CollMsgType:
        assert nic.handlers.installed(int(cmt))
        header = bytes([int(PacketKind.COLLECTIVE), 0, 0, 0, 0, 0, 0, 0,
                        (int(cmt) >> 8) & 0xFF, int(cmt) & 0xFF,
                        0, 0, 0, 0, 0, 0])
        assert nic.pathfinder.classify(header) == (AIH_TARGET, int(cmt))
    # the collective handlers share AIH memory with the DSM protocol
    assert nic.handlers.used_bytes >= COLL_HANDLER_CODE_BYTES - len(CollMsgType)


# -- the board's handler table ----------------------------------------------

@pytest.mark.parametrize("iface,use_aih", [
    ("cni", True), ("cni", False), ("standard", True),
], ids=["cni-aih", "cni-host-bounce", "standard"])
def test_installed_handler_runs_for_its_key(iface, use_aih):
    """``install_protocol_handler`` alone routes a key to its handler: on
    the NI processor through the CNI's AIH path (one more dispatch), on
    the host behind the CNI's interrupt bounce with AIH off, and on the
    host of the standard interface.  A key some engine already holds is
    refused on both boards."""
    from repro.core import TransmitDescriptor
    from repro.dsm import MsgType
    from repro.runtime import Cluster

    key = 0x200
    params = SimParams().replace(num_processors=2, use_aih=use_aih,
                                 dsm_address_space_pages=16)
    cluster = Cluster(params, interface=iface)
    ran = []

    def handler(packet, on_board):
        ran.append((packet.handler_key, packet.payload, on_board))
        yield 10.0

    for node in cluster.nodes:
        node.nic.install_protocol_handler(key, handler, 1024)
        with pytest.raises(HandlerError):
            node.nic.install_protocol_handler(int(MsgType.LOCK_REQ),
                                              handler, 1024)

    def kernel(ctx):
        if ctx.rank == 0:
            yield from ctx.node.nic.host_send(TransmitDescriptor(
                dst_node=1, vaddr=None, length=16, handler_key=key,
                payload="hi", channel_id=ctx.node.dsm_channel_id))

    stats = cluster.run(kernel)
    on_board = iface == "cni" and use_aih
    assert ran == [(key, "hi", on_board)]
    assert stats.metrics.get("node1.nic.aih.dispatches", 0) == int(on_board)
