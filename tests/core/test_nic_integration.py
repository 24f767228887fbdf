"""NIC-level integration tests: transmit/receive paths over a real
fabric, with a stub host (no DSM engine, no applications)."""

import numpy as np
import pytest

from repro.core import CNIInterface, StandardInterface, TransmitDescriptor
from repro.engine import Category, Counters, Simulator
from repro.faults import CellCorrupt, CellLoss, FaultPlan
from repro.memory import BoardTLB, HostMMU, MemoryBus
from repro.network import Network, Packet, PacketKind
from repro.params import SimParams, standard_interface_params


class StubHost:
    """Minimal HostHooks implementation for NIC-only tests."""

    def __init__(self):
        self.stolen = []
        self.delivered = []

    def steal_host_time(self, ns):
        self.stolen.append(ns)

    def deliver_to_app(self, desc):
        self.delivered.append(desc)


def build_pair(iface="cni", **over):
    sim = Simulator()
    if iface == "cni":
        params = SimParams().replace(num_processors=2, **over)
    else:
        params = standard_interface_params(
            SimParams().replace(num_processors=2, **over))
    net = Network(sim, params)
    counters = Counters()
    nodes = []
    for nid in range(2):
        bus = MemoryBus(sim, params, nid)
        host = StubHost()
        mmu = HostMMU(params.page_size_bytes)
        tlb = BoardTLB(mmu)
        if iface == "cni":
            nic = CNIInterface(sim, params, nid, net, bus, counters, host, tlb)
            ch = nic.open_channel(owner_app=nid, channel_id=1)
            ch.grant_buffer(0, 1 << 24)
            # post receive buffers
            for k in range(8):
                vaddr = (1 + k) * params.page_size_bytes
                mmu.map_page(vaddr // params.page_size_bytes)
                tlb.install(vaddr // params.page_size_bytes)
                ch.grant_buffer(vaddr, params.page_size_bytes)
                ch.post_free_buffer(vaddr, params.page_size_bytes)
        else:
            nic = StandardInterface(sim, params, nid, net, bus, counters, host)
        nodes.append((nic, host, bus, mmu, tlb))
    return sim, params, counters, nodes


def send_data(sim, nic, dst, nbytes, vaddr=None, cacheable=True):
    desc = TransmitDescriptor(
        dst_node=dst, vaddr=vaddr, length=nbytes,
        cacheable=cacheable, channel_id=1,
    )

    def proc():
        yield from nic.host_send(desc)

    sim.spawn(proc(), "sender")


def test_cni_small_send_delivers_by_polling_path():
    sim, params, counters, nodes = build_pair("cni")
    nic0, host0 = nodes[0][0], nodes[0][1]
    nic1, host1 = nodes[1][0], nodes[1][1]
    send_data(sim, nic0, 1, 32)  # PIO-sized
    sim.run()
    assert len(host1.delivered) == 1
    notices = nic1.metrics.registry.snapshot()
    assert notices["adc.poll_receives"] == 1
    assert notices["adc.interrupt_receives"] == 0
    assert host1.delivered[0].src_node == 0


def test_cni_large_send_uses_free_buffer_and_dma():
    sim, params, counters, nodes = build_pair("cni")
    nic0 = nodes[0][0]
    nic1, host1, bus1 = nodes[1][0], nodes[1][1], nodes[1][2]
    mmu0, tlb0 = nodes[0][3], nodes[0][4]
    vaddr = 64 * params.page_size_bytes
    mmu0.map_page(vaddr // params.page_size_bytes)
    tlb0.install(vaddr // params.page_size_bytes)
    nic0.channel_manager.get(1).grant_buffer(vaddr, params.page_size_bytes)
    send_data(sim, nic0, 1, 4096, vaddr=vaddr)
    sim.run()
    desc, = host1.delivered
    assert desc.vaddr is not None  # landed in a posted buffer
    assert bus1.dma_bytes == 4096  # receive-side DMA happened


def test_cni_transmit_caching_skips_second_dma():
    sim, params, counters, nodes = build_pair("cni")
    nic0, bus0 = nodes[0][0], nodes[0][2]
    mmu0, tlb0 = nodes[0][3], nodes[0][4]
    vaddr = 64 * params.page_size_bytes
    mmu0.map_page(vaddr // params.page_size_bytes)
    tlb0.install(vaddr // params.page_size_bytes)
    nic0.channel_manager.get(1).grant_buffer(vaddr, params.page_size_bytes)
    send_data(sim, nic0, 1, 4096, vaddr=vaddr)
    sim.run()
    first_dma = bus0.dma_bytes
    send_data(sim, nic0, 1, 4096, vaddr=vaddr)
    sim.run()
    assert bus0.dma_bytes == first_dma  # no new transmit DMA
    assert counters["mc_transmit_hits"] >= 1


def test_unclassified_packet_dropped():
    sim, params, counters, nodes = build_pair("cni")
    nic0, nic1 = nodes[0][0], nodes[1][0]
    # unknown channel id: receiver has no pattern for it
    pkt = Packet(kind=PacketKind.DATA, src_node=0, dst_node=1,
                 channel_id=999, payload_bytes=32)
    nic0.board_send(pkt)
    sim.run()
    assert nic1.packets_dropped == 1
    assert counters["nic_classify_misses"] == 1


@pytest.mark.parametrize("iface", ["cni", "standard"])
@pytest.mark.parametrize("fault", [CellLoss, CellCorrupt])
def test_cell_loss_drops_packet_in_nic(iface, fault):
    # The 32-byte payload is two cells (32 B + the 16-byte header + the
    # 8-byte AAL5 trailer = 56 B), and the plan hits every 0->1 cell.
    # A lost cell and a damaged one both fail the integrity check at
    # end-of-packet, so the receiver drops the whole packet.
    plan = FaultPlan(schedules=(fault(nth=1, src=0, dst=1),))
    sim, params, counters, nodes = build_pair(iface, fault_plan=plan)
    nic0, nic1, host1 = nodes[0][0], nodes[1][0], nodes[1][1]
    send_data(sim, nic0, 1, 32)
    sim.run()
    assert nic1.packets_dropped == 1
    assert counters["nic_packets_dropped"] == 1
    assert host1.delivered == []
    net = nic1.network
    hits = (net.fault_cells_dropped(1) if fault is CellLoss
            else net.fault_cells_corrupted(1))
    assert hits == 2


def test_standard_receive_always_interrupts():
    sim, params, counters, nodes = build_pair("standard")
    nic0 = nodes[0][0]
    nic1, host1 = nodes[1][0], nodes[1][1]
    for _ in range(3):
        send_data(sim, nic0, 1, 32)
    sim.run()
    assert nic1.interrupts_raised == 3
    assert len(host1.delivered) == 3
    notices = nic1.metrics.registry.snapshot()
    assert notices["adc.interrupt_receives"] == 3
    assert notices["adc.poll_receives"] == 0
    # interrupt + kernel work was stolen from the host CPU
    assert sum(host1.stolen) >= 3 * params.interrupt_latency_ns


def test_standard_send_costs_kernel_trap():
    sim, params, counters, nodes = build_pair("standard")
    nic0 = nodes[0][0]
    assert nic0.host_send_cost_ns() == pytest.approx(
        params.cpu_cycles_ns(params.kernel_trap_cycles))


def test_cni_send_costs_user_level_stores():
    sim, params, counters, nodes = build_pair("cni")
    nic0 = nodes[0][0]
    assert nic0.host_send_cost_ns() == pytest.approx(
        params.cpu_cycles_ns(params.adc_enqueue_cycles))
    assert nic0.host_send_cost_ns() < params.cpu_cycles_ns(
        params.kernel_trap_cycles)


def test_no_free_buffer_drops_large_data():
    sim, params, counters, nodes = build_pair("cni")
    nic0 = nodes[0][0]
    nic1 = nodes[1][0]
    # drain node 1's free ring
    ch = nic1.channel_manager.get(1)
    while ch.free.pop() is not None:
        pass
    mmu0, tlb0 = nodes[0][3], nodes[0][4]
    vaddr = 64 * params.page_size_bytes
    mmu0.map_page(vaddr // params.page_size_bytes)
    tlb0.install(vaddr // params.page_size_bytes)
    nic0.channel_manager.get(1).grant_buffer(vaddr, params.page_size_bytes)
    send_data(sim, nic0, 1, 4096, vaddr=vaddr)
    sim.run()
    assert counters["nic_no_free_buffer"] == 1
    assert nic1.packets_dropped == 1


def test_completion_event_fires_after_staging():
    sim, params, counters, nodes = build_pair("cni")
    nic0 = nodes[0][0]
    fired = []
    ev = sim.event()
    ev.wait(lambda v: fired.append(sim.now))
    desc = TransmitDescriptor(dst_node=1, vaddr=None, length=16,
                              channel_id=1, completion=ev)

    def proc():
        yield from nic0.host_send(desc)

    sim.spawn(proc(), "s")
    sim.run()
    assert len(fired) == 1
    assert fired[0] > 0


@pytest.mark.parametrize("iface", ["cni", "standard"])
def test_board_holds_its_fixed_costs(iface):
    """The per-packet NI cost (and the CNI's AIH dispatch cost) each
    board charges are the parameters' own, computed at construction."""
    _sim, params, _c, nodes = build_pair(iface, ni_freq_hz=40e6,
                                         ni_packet_overhead_cycles=75)
    nic = nodes[0][0]
    assert nic._packet_ns == params.ni_cycles_ns(
        params.ni_packet_overhead_cycles) == pytest.approx(75 * 25.0)
    if iface == "cni":
        assert nic._dispatch_ns == params.ni_cycles_ns(
            params.ni_handler_dispatch_cycles)
