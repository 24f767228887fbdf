"""The collective-operation engine, one instance per node.

Mirroring :class:`repro.dsm.DsmEngine`, every node has one engine,
reachable as ``node.coll``, speaking a root-gathered protocol:

* every participant sends a :class:`CollArrive` to the episode root
  (from the application thread: user-level ADC stores on the CNI, a
  kernel trap on the standard interface);
* the root combines contributions as they arrive and, when the episode
  is full, emits board-originated :class:`CollRelease` packets carrying
  the result (barrier: nothing, or a consistency attachment; all-reduce:
  the combined value; reduce: root keeps the result locally).

*Where* an inbound protocol step runs is the platform's fact, not the
engine's (Section 2.3), and :meth:`repro.runtime.Node.protocol_step_ns`
prices it:

* on a CNI with AIH, PATHFINDER classifies COLLECTIVE packets into
  Application Interrupt Handlers; the step runs on the NI processor's
  clock (``ni_aih_protocol_cycles``, counted in ``coll.nic_steps``) and
  the host never takes an interrupt on the collective path;
* on the standard interface, and on a CNI with AIH ablated away (whose
  board has already charged the host its interrupt and kernel bounce),
  the step runs on the host: ``host_protocol_cycles`` of stolen time,
  counted in ``coll.host_steps``.

Consistency protocols attach to barriers through the optional
``consistency`` hook object (duck-typed; see docs/collectives.md):
``coll_on_arrive``, ``coll_make_release``, ``coll_on_release``.  The DSM
engine uses these to ship its interval payloads inside collective
packets, which keeps the pre-collectives barrier economics bit-for-bit
identical.

Retransmission rides the reliable transport: collective packets are
ordinary reliable traffic, so a lost cell under a fault plan is retried
by the NIC with no engine involvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Set, Tuple

from ..core.adc import TransmitDescriptor
from ..engine import SimulationError
from ..engine.waits import TIMEOUT, Waits
from ..network import Packet, PacketKind
from ..params import SimParams
from .errors import CollectiveError
from .messages import CollArrive, CollMsgType, CollRelease
from .ops import REDUCERS, reduce_values, value_wire_bytes

__all__ = ["OPS", "CollectiveEngine"]

#: Operations the engine implements (and the per-op latency metrics).
OPS = ("barrier", "allreduce", "reduce", "broadcast", "multicast")

# The handler keys as plain ints and the packet kind, bound once: no enum
# call or member read per packet or per send.
_ARRIVE, _RELEASE = int(CollMsgType.COLL_ARRIVE), int(CollMsgType.COLL_RELEASE)
_COLLECTIVE = PacketKind.COLLECTIVE

@dataclass
class _Episode:
    """Root-side state of one in-flight collective."""

    op: str
    reducer: str
    expected: int
    arrived: Set[int] = field(default_factory=set)
    values: Dict[int, Any] = field(default_factory=dict)
    attached: bool = False


class CollectiveEngine:
    """Gather/release protocol state and behaviour for one node."""

    def __init__(self, node, nprocs: int, root: int = 0):
        if not 0 <= root < nprocs:
            raise CollectiveError(
                f"collective root {root} out of range (nprocs={nprocs})")
        self.node = node
        self.sim = node.sim
        self.params: SimParams = node.params
        self.me: int = node.node_id
        self.nprocs = nprocs
        self.root = root
        #: Consistency attachment hooks (set by the cluster to the DSM
        #: engine); only consulted for barrier payloads.
        self.consistency = None

        #: Per-coll_id episode sequence, advanced by every collective
        #: call (SPMD discipline: all nodes issue the same collectives
        #: on a given coll_id in the same order).
        self._next_seq: Dict[int, int] = {}
        #: Root-side gathers in flight, keyed (coll_id, seq).
        self._episodes: Dict[Tuple[int, int], _Episode] = {}
        #: Blocked application threads, keyed (coll_id, seq); releases
        #: that beat their broadcast/multicast receiver park here.
        self.waits = Waits(node, "collective")

        scope = node.metrics.scope("coll")
        self._m_ops = scope.counter("ops_completed")
        self._m_arrivals = scope.counter("arrivals")
        self._m_releases = scope.counter("releases")
        self._m_bytes = scope.counter("bytes_sent")
        self._m_nic_steps = scope.counter("nic_steps")
        self._m_host_steps = scope.counter("host_steps")
        self._m_timeouts = scope.counter("timeouts")
        self._op_ns = {op: scope.histogram(f"{op}_ns") for op in OPS}

    # ------------------------------------------------------- app-side API --
    def barrier(self, coll_id: int = 0, *, payload: Any = None,
                payload_bytes: int = 0) -> Generator:
        """Block until every node arrives.  ``payload``/``payload_bytes``
        carry a consistency attachment (see module docstring)."""
        yield from self._gather_release(
            "barrier", coll_id, "sum", payload, payload_bytes,
            deliver_all=True)
        return None

    def allreduce(self, value: Any, op: str = "sum",
                  coll_id: int = 0) -> Generator:
        """Combine ``value`` across all nodes; everyone gets the result."""
        self._check_reducer(op)
        result = yield from self._gather_release(
            "allreduce", coll_id, op, value, value_wire_bytes(value),
            deliver_all=True)
        return result

    def reduce(self, value: Any, op: str = "sum", root: Optional[int] = None,
               coll_id: int = 0) -> Generator:
        """Combine ``value`` at ``root``; only the root gets the result
        (non-roots return ``None`` without waiting for completion)."""
        self._check_reducer(op)
        result = yield from self._gather_release(
            "reduce", coll_id, op, value, value_wire_bytes(value),
            deliver_all=False, root=root)
        return result

    def broadcast(self, value: Any = None, root: Optional[int] = None,
                  coll_id: int = 0) -> Generator:
        """One-to-all: the root's ``value`` is returned on every node."""
        t0 = self.sim.now
        root = self.root if root is None else self._check_node(root)
        seq = self._bump_seq(coll_id)
        key = (coll_id, seq)
        if self.me == root:
            if value is None:
                raise CollectiveError("broadcast root must supply a value")
            pb = value_wire_bytes(value)
            for node in range(self.nprocs):
                if node == self.me:
                    continue
                msg = CollRelease(coll_id, "broadcast", seq, value, pb)
                yield from self._app_send(node, _RELEASE, msg)
            result = value
        else:
            result = yield from self._wait(key, self.waits.register(key),
                                           "broadcast")
        self._finish_op("broadcast", t0)
        return result

    def multicast(self, value: Any = None, dests: Sequence[int] = (),
                  src: Optional[int] = None, coll_id: int = 0) -> Generator:
        """One-to-some: ``src`` sends ``value`` to every node in
        ``dests``; destinations block for it, everyone else falls
        through immediately (the episode sequence still advances on all
        nodes, preserving SPMD numbering)."""
        src = self.root if src is None else self._check_node(src)
        targets = sorted({self._check_node(d) for d in dests})
        seq = self._bump_seq(coll_id)
        key = (coll_id, seq)
        t0 = self.sim.now
        if self.me == src:
            if value is None:
                raise CollectiveError("multicast source must supply a value")
            pb = value_wire_bytes(value)
            for node in targets:
                if node == self.me:
                    continue
                msg = CollRelease(coll_id, "multicast", seq, value, pb)
                yield from self._app_send(node, _RELEASE, msg)
            self._finish_op("multicast", t0)
            return value
        if self.me in targets:
            result = yield from self._wait(key, self.waits.register(key),
                                           "multicast")
            self._finish_op("multicast", t0)
            return result
        return None

    # --------------------------------------------------- gather machinery --
    def _gather_release(self, op: str, coll_id: int, reducer: str,
                        value: Any, payload_bytes: int, deliver_all: bool,
                        root: Optional[int] = None) -> Generator:
        t0 = self.sim.now
        root = self.root if root is None else self._check_node(root)
        seq = self._bump_seq(coll_id)
        key = (coll_id, seq)
        waiting = deliver_all or self.me == root
        event = self.waits.register(key) if waiting else None
        msg = CollArrive(coll_id, op, seq, self.me, reducer, value,
                         payload_bytes)
        if self.me == root:
            # Local arrival: the app thread itself runs the gather step
            # (same shape as the pre-collectives barrier manager).
            cost = self.params.cpu_cycles_ns(self.params.host_protocol_cycles)
            yield cost
            self.node.account_overhead(cost)
            self._arrive_logic(msg, root)
        else:
            yield from self._app_send(root, _ARRIVE, msg)
        result = None
        if event is not None:
            result = yield from self._wait(key, event, op)
        self._finish_op(op, t0)
        return result

    def _arrive_logic(self, msg: CollArrive, root: Optional[int] = None) -> None:
        """Root-side gather step (runs on this engine's platform)."""
        self._m_arrivals.inc()
        if not 0 <= msg.arriver < self.nprocs:
            raise CollectiveError(
                f"unknown participant {msg.arriver} in collective "
                f"{msg.coll_id} (nprocs={self.nprocs})")
        key = (msg.coll_id, msg.seq)
        ep = self._episodes.get(key)
        if ep is None:
            ep = _Episode(op=msg.op, reducer=msg.reducer,
                          expected=self.nprocs)
            self._episodes[key] = ep
        if msg.op != ep.op or msg.reducer != ep.reducer:
            raise CollectiveError(
                f"collective {key} mixes operations: "
                f"{(ep.op, ep.reducer)} vs {(msg.op, msg.reducer)}")
        if msg.arriver in ep.arrived:
            raise CollectiveError(
                f"node {msg.arriver} arrived twice at collective {key}")
        ep.arrived.add(msg.arriver)
        att = self.consistency if msg.op == "barrier" else None
        if att is not None and msg.value is not None:
            ep.attached = True
            att.coll_on_arrive(msg.coll_id, msg.arriver, msg.value)
        else:
            ep.values[msg.arriver] = msg.value
        if len(ep.arrived) < ep.expected:
            return
        del self._episodes[key]
        self._complete(msg.coll_id, msg.seq, ep)

    def _complete(self, coll_id: int, seq: int, ep: _Episode) -> None:
        """Episode full: combine and release (root side)."""
        key = (coll_id, seq)
        if ep.op == "barrier" and ep.attached:
            att = self.consistency
            for node in range(self.nprocs):
                payload, pb = att.coll_make_release(coll_id, node)
                if node == self.me:
                    att.coll_on_release(coll_id, payload)
                    self.waits.wake(key, None)
                else:
                    self._send_release(
                        node, CollRelease(coll_id, ep.op, seq, payload, pb))
            return
        result = None
        if ep.op in ("allreduce", "reduce"):
            result = reduce_values(ep.reducer, ep.values)
        if ep.op == "reduce":
            self.waits.wake(key, result)  # root waits; non-roots never block
            return
        pb = value_wire_bytes(result)
        for node in range(self.nprocs):
            if node == self.me:
                self.waits.wake(key, result)
            else:
                self._send_release(
                    node, CollRelease(coll_id, ep.op, seq, result, pb))

    def _release_logic(self, msg: CollRelease) -> None:
        """Participant-side release step."""
        key = (msg.coll_id, msg.seq)
        if self.waits.late(key):
            # This node already gave up on the episode (deadline abort):
            # the straggling release must neither park forever nor reach
            # the consistency attachment.
            return
        value = msg.value
        if (msg.op == "barrier" and self.consistency is not None
                and value is not None):
            self.consistency.coll_on_release(msg.coll_id, value)
            value = None
        self.waits.deliver(key, value)

    # ------------------------------------------------------ packet handler --
    def handle_packet(self, packet: Packet, on_board: bool) -> Generator:
        """Inbound COLLECTIVE packet (the NIC's handler for each
        :class:`CollMsgType` key); the step runs where the board put it
        (``on_board``)."""
        p = self.params
        if on_board:
            self._m_nic_steps.inc()
        else:
            self._m_host_steps.inc()
        yield self.node.protocol_step_ns(
            on_board, p.ni_aih_protocol_cycles, p.host_protocol_cycles)
        key = packet.handler_key
        if key == _ARRIVE:
            self._arrive_logic(packet.payload)
        elif key == _RELEASE:
            self._release_logic(packet.payload)
        else:  # CollMsgType() raises the ValueError of an unknown key
            raise SimulationError(
                f"unhandled collective message {CollMsgType(key)!r}")
        return None

    # ------------------------------------------------------------- helpers --
    def _check_reducer(self, op: str) -> None:
        if op not in REDUCERS:
            raise CollectiveError(
                f"unknown reducer {op!r} (have {sorted(REDUCERS)})")

    def _check_node(self, node: int) -> int:
        if not 0 <= node < self.nprocs:
            raise CollectiveError(
                f"node {node} out of range (nprocs={self.nprocs})")
        return node

    def _bump_seq(self, coll_id: int) -> int:
        seq = self._next_seq.get(coll_id, 0)
        self._next_seq[coll_id] = seq + 1
        return seq

    def _finish_op(self, op: str, t0: float) -> None:
        self._m_ops.inc()
        self._op_ns[op].observe(self.sim.now - t0)

    def _app_send(self, dst: int, key: int, body) -> Generator:
        """Send from the application thread (ADC store on the CNI, kernel
        trap on the standard interface) — mirrors DsmEngine._app_send."""
        desc = TransmitDescriptor(
            dst_node=dst,
            vaddr=None,
            length=body.wire_bytes,
            handler_key=key,
            payload=body,
            channel_id=self.node.dsm_channel_id,
            kind=_COLLECTIVE,
        )
        t0 = self.sim.now
        yield from self.node.nic.host_send(desc)
        self.node.account_overhead(self.sim.now - t0)
        self._m_bytes.inc(body.wire_bytes)
        return None

    def _send_release(self, dst: int, msg: CollRelease) -> None:
        """Queue a release from the engine (board-originated)."""
        self._m_releases.inc()
        self._m_bytes.inc(msg.wire_bytes)
        self.node.nic.board_send(
            Packet(
                kind=_COLLECTIVE,
                src_node=self.me,
                dst_node=dst,
                channel_id=self.node.dsm_channel_id,
                handler_key=_RELEASE,
                payload_bytes=msg.wire_bytes,
                payload=msg,
            )
        )

    # ------------------------------------------------------ wait machinery --
    def _wait(self, key, event, op: str) -> Generator:
        """Block the app thread on episode ``key`` (see :class:`Waits`).

        Bounded by ``SimParams.op_deadline_ns`` when it is set: expiry
        abandons the episode and raises :class:`CollectiveError` naming
        the missing participants (where this node is the root and knows
        them) and any detector-suspected peers — the engine never waits
        forever on a dead node."""
        deadline = self.params.op_deadline_ns
        value = yield from self.waits.wait(key, event, deadline)
        if value is TIMEOUT:
            self._m_timeouts.inc()
            raise CollectiveError(self._timeout_message(key, op, deadline))
        return value

    def _timeout_message(self, key, op: str, deadline: float) -> str:
        ep = self._episodes.get(key)
        detail = ""
        if ep is not None:
            absent = sorted(set(range(self.nprocs)) - ep.arrived)
            detail += f"; missing participants {absent}"
        suspects = self.node.nic.detector.suspected_peers()
        if suspects:
            detail += f"; suspected dead: {suspects}"
        return (f"node {self.me}: {op} episode {key} timed out "
                f"after {deadline:.0f} ns{detail}")

    def outstanding_waits(self) -> List[str]:
        """Stuck-report probe: this engine's blocked threads and the
        root-side episodes still gathering (see docs/reliability.md)."""
        out = []
        for coll_id, seq in sorted(self.waits.keys()):
            out.append(f"node{self.me}: collective wait "
                       f"(coll {coll_id}, seq {seq})")
        for (coll_id, seq), ep in sorted(self._episodes.items()):
            absent = sorted(set(range(self.nprocs)) - ep.arrived)
            out.append(f"node{self.me}: {ep.op} episode "
                       f"(coll {coll_id}, seq {seq}) gathering, "
                       f"waiting on {absent}")
        return out
