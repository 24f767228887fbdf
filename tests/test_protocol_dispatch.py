"""Each protocol engine's ``handle_packet`` sends every message type to
its own branch by the packet's handler key, and a key no message type
has still raises the enum's ``ValueError``.

The branch targets are replaced by recorders, so each packet runs only
the dispatch itself (and the step's NI time, which it yields)."""

from types import SimpleNamespace

import pytest

from repro.collectives.messages import CollMsgType
from repro.dsm.messages import MsgType
from repro.engine import SimulationError
from repro.network import Packet, PacketKind
from repro.params import SimParams
from repro.runtime import Cluster
from repro.runtime.protocol import RtMsgType

#: A key no message type of any engine has.
UNKNOWN_KEY = 0x7F

BODY = SimpleNamespace(op_id=5, intervals=(), lock_id=3, releaser=1, seq=9)


def engine_of(which):
    params = SimParams().replace(num_processors=2,
                                 dsm_address_space_pages=16)
    protocol = "eager" if which == "eager" else "lazy"
    node = Cluster(params, interface="cni", protocol=protocol).nodes[0]
    return {"lazy": node.engine, "eager": node.engine, "coll": node.coll,
            "rt": node.rt}[which]


def record(monkeypatch, calls, target, names):
    """Replace ``target``'s methods ``names`` with recorders appending to
    ``calls`` (a wait table's ``wake`` records its key too); generator
    branches get an empty iterable to ``yield from``."""
    def recorder(name):
        def fn(*args):
            calls.append((name, args[0]) if name == "wake" else (name,))
            return ()
        return fn

    for name in names:
        monkeypatch.setattr(target, name, recorder(name))


def dispatch(engine, kind, key):
    packet = Packet(kind=kind, src_node=1, dst_node=0, channel_id=0,
                    handler_key=int(key), payload=BODY)
    for step in engine.handle_packet(packet, True):
        assert step >= 0.0   # only the step's time is yielded


DSM_BRANCHES = {
    MsgType.LOCK_REQ: [("_lock_req_logic",)],
    MsgType.LOCK_FORWARD: [("_lock_forward_logic",)],
    MsgType.LOCK_GRANT: [("_apply_intervals",), ("_finish_local_acquire",)],
    MsgType.PAGE_REQ: [("_page_req_logic",)],
    MsgType.PAGE_REPLY: [("_install_page",)],
    MsgType.DIFF_REQ: [("_diff_req_logic",)],
    MsgType.DIFF_REPLY: [("_install_diffs",)],
}
#: The eager protocol's own messages; the rest take the lazy branches.
EAGER_BRANCHES = {
    MsgType.INVALIDATE: [("_apply_intervals",), ("_send",)],
    MsgType.INV_ACK: [("wake", ("inv", 9))],
}


@pytest.mark.parametrize("which", ["lazy", "eager"])
@pytest.mark.parametrize("mt", list(MsgType), ids=lambda m: m.name)
def test_every_dsm_message_reaches_its_branch(which, mt, monkeypatch):
    engine = engine_of(which)
    calls = []
    record(monkeypatch, calls, engine,
           ["_lock_req_logic", "_lock_forward_logic", "_apply_intervals",
            "_finish_local_acquire", "_page_req_logic", "_install_page",
            "_diff_req_logic", "_install_diffs", "_send"])
    record(monkeypatch, calls, engine.waits, ["wake"])
    branches = {**DSM_BRANCHES,
                **(EAGER_BRANCHES if which == "eager" else {})}
    if mt not in branches:
        # A member no packet of this protocol carries (the barrier keys
        # ride the collective engine).
        with pytest.raises(SimulationError, match="unknown protocol message"):
            dispatch(engine, PacketKind.DSM_PROTOCOL, mt)
        return
    dispatch(engine, PacketKind.DSM_PROTOCOL, mt)
    assert calls == branches[mt]


@pytest.mark.parametrize("mt", list(CollMsgType), ids=lambda m: m.name)
def test_every_collective_message_reaches_its_branch(mt, monkeypatch):
    engine = engine_of("coll")
    calls = []
    record(monkeypatch, calls, engine, ["_arrive_logic", "_release_logic"])
    dispatch(engine, PacketKind.COLLECTIVE, mt)
    assert calls == [{CollMsgType.COLL_ARRIVE: ("_arrive_logic",),
                      CollMsgType.COLL_RELEASE: ("_release_logic",)}[mt]]


RT_BRANCHES = {
    RtMsgType.RTS: ("_on_rts",),
    RtMsgType.CTS: ("wake", ("cts", 5)),
    RtMsgType.RDV_DATA: ("_on_rdv_data",),
    RtMsgType.RDMA_READ_REQ: ("_on_read_req",),
    RtMsgType.RDMA_READ_REPLY: ("_on_read_reply",),
    RtMsgType.RDMA_WRITE: ("_on_write",),
    RtMsgType.RDMA_WRITE_ACK: ("wake", ("wack", 5)),
}


@pytest.mark.parametrize("mt", list(RtMsgType), ids=lambda m: m.name)
def test_every_runtime_message_reaches_its_branch(mt, monkeypatch):
    engine = engine_of("rt")
    calls = []
    record(monkeypatch, calls, engine,
           ["_on_rts", "_on_rdv_data", "_on_read_req", "_on_read_reply",
            "_on_write"])
    record(monkeypatch, calls, engine.waits, ["wake"])
    dispatch(engine, PacketKind.RUNTIME, mt)
    assert calls == [RT_BRANCHES[mt]]


@pytest.mark.parametrize("which,kind,enum", [
    ("lazy", PacketKind.DSM_PROTOCOL, MsgType),
    ("eager", PacketKind.DSM_PROTOCOL, MsgType),
    ("coll", PacketKind.COLLECTIVE, CollMsgType),
    ("rt", PacketKind.RUNTIME, RtMsgType),
])
def test_unknown_handler_key_raises_value_error(which, kind, enum):
    with pytest.raises(ValueError,
                       match=f"{UNKNOWN_KEY} is not a valid {enum.__name__}"):
        dispatch(engine_of(which), kind, UNKNOWN_KEY)
