"""Unit tests for the Network fabric."""

import pytest

from repro.engine import Simulator
from repro.faults import CellLoss, FaultPlan
from repro.network import CellTrain, Network, Packet, PacketKind, Segmenter
from repro.params import SimParams


def make_net(nprocs=4, **over):
    sim = Simulator()
    params = SimParams().replace(num_processors=nprocs, **over)
    return sim, params, Network(sim, params)


def packet(src, dst, size=100):
    return Packet(
        kind=PacketKind.DATA, src_node=src, dst_node=dst, channel_id=1,
        payload_bytes=size,
    )


def test_too_many_nodes_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Network(sim, SimParams().replace(num_processors=33))


def test_delivery_to_rx_queue():
    sim, params, net = make_net()
    p = packet(0, 1)
    seg = Segmenter(params)
    net.send_train(seg.make_train(p))
    sim.run()
    ok, train = net.rx_queues[1].try_get()
    assert ok and train.packet is p
    assert net.trains_delivered == 1


@pytest.mark.parametrize("spec,payload_bytes", [
    ("banyan:8", 4096),
    ("banyan:32", 4096),
    ("fattree:k=2", 4096),
    ("fattree:k=4", 4096),
    ("fattree:k=4", 400),
    ("torus:1x4", 4096),
    ("torus:2x2", 4096),
    ("torus:2x2:adaptive", 4096),
])
def test_lone_train_arrives_at_min_transit(spec, payload_bytes):
    """Nodes 0 and 1 are the nearest pair on every fabric, so a lone
    train between them arrives at the best-case latency (on
    ``fattree:k=2`` that pair crosses the core)."""
    sim, params, net = make_net(nprocs=2, topology=spec)
    p = packet(0, 1, size=payload_bytes)
    got = []

    def receiver():
        yield from net.rx_queues[1].get()
        got.append(sim.now)

    sim.spawn(receiver(), "rx")
    net.send_train(Segmenter(params).make_train(p))
    sim.run()
    assert got == [pytest.approx(net.min_transit_ns(p.wire_bytes))]


def test_min_transit_components():
    sim, params, net = make_net()
    expected = 2 * 150.0 + 500.0 + params.train_wire_time_ns(116)
    assert net.min_transit_ns(116) == pytest.approx(expected)


def test_loopback_rejected():
    sim, params, net = make_net()
    seg = Segmenter(params)

    def proc():
        yield from net.transfer_and_wait(seg.make_train(packet(2, 2)))

    with pytest.raises(ValueError):
        sim.run_process(proc())


def test_loss_injection():
    # Drop exactly the last cell of the train: nth = the train's cell
    # count, deterministic per the plan's schedule position.
    p = packet(0, 1, size=4096)
    n_cells = SimParams().cells_for_packet(p.wire_bytes)
    plan = FaultPlan(seed=0, schedules=(CellLoss(nth=n_cells),))
    sim, params, net = make_net(fault_plan=plan)
    seg = Segmenter(params)
    net.send_train(seg.make_train(p))
    sim.run()
    ok, train = net.rx_queues[1].try_get()
    assert ok and not train.intact
    assert train.lost_cells == 1


def test_concurrent_transfers_to_distinct_nodes():
    sim, params, net = make_net()
    seg = Segmenter(params)
    net.send_train(seg.make_train(packet(0, 1)))
    net.send_train(seg.make_train(packet(2, 3)))
    sim.run()
    assert net.rx_queues[1].try_get()[0]
    assert net.rx_queues[3].try_get()[0]


def test_unrestricted_page_transfer_is_faster():
    _, base_params, base_net = make_net()
    _, unres_params, unres_net = make_net(unrestricted_cell_size=True)
    assert unres_net.min_transit_ns(4096 + 16) < base_net.min_transit_ns(4096 + 16)


def test_default_fabric_registers_net_metrics():
    """``net.*`` is part of every run's catalog, the default banyan
    included."""
    from repro.apps import JacobiConfig, run

    stats, _ = run("jacobi", SimParams().replace(num_processors=4), "cni",
                   JacobiConfig(n=16, iterations=2))
    net_keys = {k for k in stats.metrics if k.startswith("net.")}
    assert {"net.trains_delivered", "net.crossings", "net.hol_blocks",
            "net.link_waits", "net.link_hops", "net.adaptive_detours",
            "net.max_link_queue"} == net_keys
    assert stats.metrics["net.crossings"] > 0
