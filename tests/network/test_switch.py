"""Unit + property tests for the banyan switch: its routing
arithmetic and its timing on the shared fabric walk."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Simulator
from repro.network import (
    HEADER_BYTES,
    BanyanFabric,
    CellTrain,
    Network,
    Packet,
    PacketKind,
)
from repro.params import SimParams


def test_fabric_geometry():
    f = BanyanFabric(32)
    assert f.stages == 5
    with pytest.raises(ValueError):
        BanyanFabric(12)
    with pytest.raises(ValueError):
        BanyanFabric(1)


def test_path_length_equals_stages():
    f = BanyanFabric(32)
    assert len(f.path(0, 31)) == 5


def test_path_unique_per_pair():
    f = BanyanFabric(16)
    # a banyan has exactly one path; calling twice must agree
    assert f.path(3, 9) == f.path(3, 9)


def test_final_hop_reaches_destination():
    f = BanyanFabric(32)
    for inp in range(32):
        for outp in range(0, 32, 7):
            stage, wire = f.path(inp, outp)[-1]
            assert stage == f.stages - 1
            assert wire == outp


def test_port_range_checked():
    f = BanyanFabric(8)
    with pytest.raises(ValueError):
        f.path(8, 0)
    with pytest.raises(ValueError):
        f.path(0, -1)


def test_distinct_inputs_same_output_conflict():
    f = BanyanFabric(8)
    # everything converges on the final link into the output port
    assert f.conflicts([(0, 5), (1, 5)]) >= 1


def test_permutation_identity_is_conflict_free():
    f = BanyanFabric(8)
    flows = [(i, i) for i in range(8)]
    assert f.conflicts(flows) == 0


def test_banyan_is_internally_blocking():
    # The defining property: some permutation with distinct outputs still
    # collides internally.  Find one by search to avoid hardcoding wiring.
    f = BanyanFabric(8)
    import itertools

    found = False
    for perm in itertools.permutations(range(8)):
        if f.conflicts(list(enumerate(perm))) > 0:
            found = True
            break
    assert found


@given(
    inp=st.integers(0, 31),
    outp=st.integers(0, 31),
)
def test_path_wires_in_range_property(inp, outp):
    f = BanyanFabric(32)
    for stage, wire in f.path(inp, outp):
        assert 0 <= stage < 5
        assert 0 <= wire < 32


def banyan(params=None):
    """The default fabric, ``banyan:32``, with its simulator and the
    network that walks it."""
    sim = Simulator()
    net = Network(sim, params or SimParams())
    return sim, net.topology, net


def train(src, dst, wire_bytes):
    """A train of ``wire_bytes`` on the wire (header included)."""
    p = Packet(kind=PacketKind.DATA, src_node=src, dst_node=dst,
               channel_id=1, payload_bytes=wire_bytes - HEADER_BYTES)
    return CellTrain(p, SimParams().cells_for_packet(wire_bytes))


def test_transit_uncontended_latency():
    sim, topo, net = banyan()
    wires = 2 * topo.params.wire_latency_ns

    def proc():
        yield from net.transfer_and_wait(train(0, 1, 480))
        return sim.now

    t = sim.run_process(proc())
    assert t == pytest.approx(
        wires + 500.0 + topo.params.train_wire_time_ns(480))
    assert topo.crossings == 1
    assert topo.link_hops == 1
    assert topo.link_waits == 0


def test_transit_output_port_contention():
    sim, topo, net = banyan()
    wires = 2 * topo.params.wire_latency_ns
    done = []

    def proc(tag, inport):
        yield from net.transfer_and_wait(train(inport, 5, 480))
        done.append((tag, sim.now))

    sim.spawn(proc("a", 0), "a")
    sim.spawn(proc("b", 1), "b")
    sim.run()
    serialize = topo.params.train_wire_time_ns(480)
    assert done[0] == ("a", pytest.approx(wires + 500.0 + serialize))
    assert done[1] == ("b", pytest.approx(wires + 500.0 + 2 * serialize))
    # The second train queued on the output port, and that is counted.
    assert topo.link_waits == 1


def test_transit_different_ports_parallel():
    sim, topo, net = banyan()
    done = []

    def proc(tag, outport):
        yield from net.transfer_and_wait(train(0, outport, 480))
        done.append((tag, sim.now))

    sim.spawn(proc("a", 5), "a")
    sim.spawn(proc("b", 6), "b")
    sim.run()
    assert done[0][1] == pytest.approx(done[1][1])
    assert topo.link_waits == 0


def test_transit_rejects_port_off_switch():
    sim, topo, net = banyan()
    with pytest.raises(ValueError):
        topo.route(0, 32)

    def proc():
        yield from net.transfer_and_wait(train(32, 0, 48))

    with pytest.raises(ValueError):
        sim.run_process(proc())


def test_unrestricted_serialization_by_bytes():
    sim, topo, net = banyan(SimParams().replace(unrestricted_cell_size=True))
    params = topo.params

    def proc():
        yield from net.transfer_and_wait(train(0, 1, 4096))
        return sim.now

    t = sim.run_process(proc())
    expected = 2 * params.wire_latency_ns + 500.0 \
        + params.train_wire_time_ns(4096)
    assert t == pytest.approx(expected)
    # bytes still take wire time: far more than a single 53-byte slot
    assert params.train_wire_time_ns(4096) > 50 * 1e9 / 622e6
