"""Eager release consistency — the protocol ablation.

Section 3 of the paper picks a *lazy* invalidate release-consistency
protocol "because it has been shown that invalidate protocols work best
in low overhead environments".  This module provides the classical
alternative the literature compared against (Munin-style eager RC):

* at every release, the releaser **pushes** its interval's write notices
  to every other node and blocks until all acknowledge;
* acquires and barrier departures then carry no piggybacked intervals —
  everyone is already up to date.

Traffic trade-off: lazy sends notices only along synchronization edges
that need them; eager pays (P-1) invalidations + (P-1) acks at *every*
release.  ``benchmarks/test_ablation_protocol.py`` measures the
difference on both network interfaces.
"""

from __future__ import annotations

from typing import Generator, List

from ..engine import SimulationError
from ..network import Packet
from .messages import InvAck, Invalidate, MsgType
from .protocol import DsmEngine

# handle_packet's keys, bound once: no enum call or member read per packet.
_INVALIDATE, _INV_ACK = MsgType.INVALIDATE, MsgType.INV_ACK


class EagerDsmEngine(DsmEngine):
    """Eager-RC variant of the protocol engine.

    Inherits all machinery (locks, barriers, fetch, diffs); overrides
    the release side to broadcast invalidations and the grant/barrier
    paths to stop piggybacking intervals.
    """

    def end_interval(self) -> Generator:
        """Close the interval and eagerly broadcast its write notices.

        The releaser blocks until every peer has acknowledged — the cost
        lazy RC exists to avoid.
        """
        interval = yield from super().end_interval()
        peers = [p for p in range(self.nprocs) if p != self.me]
        if interval is None or not peers:
            return interval
        key = ("inv", interval.seq)
        event = self.waits.register(key, replies=len(peers))
        msg = Invalidate(releaser=self.me, seq=interval.seq,
                         intervals=[interval])
        self.node.counters.inc("dsm_eager_invalidations", len(peers))
        for p in peers:
            yield from self._app_send(p, MsgType.INVALIDATE, msg,
                                      msg.wire_bytes)
        yield from self._wait(key, event, "dsm invalidate round")
        return interval

    # -- piggybacking disabled: everyone is already current ---------------
    def _grant_lock(self, lock_id: int, requester: int,
                    req_vc: List[int]) -> None:
        from .messages import LockGrant

        if requester == self.me:
            self._finish_local_acquire(lock_id)
            return
        msg = LockGrant(lock_id=lock_id, granter=self.me, intervals=[])
        self._send(requester, MsgType.LOCK_GRANT, msg, msg.wire_bytes)

    def _barrier_payload(self):
        """Barriers degenerate to pure arrival counting under eager RC
        (the notices travelled at the releases): the attachment carries
        no intervals, only the vector clock."""
        vc = self.vc.as_list()
        return ([], vc), 8 * len(vc)

    # -- new message handlers ------------------------------------------------
    def handle_packet(self, packet: Packet, on_board: bool) -> Generator:
        key = packet.handler_key
        p = self.params
        if key == _INVALIDATE:
            yield self.node.protocol_step_ns(
                on_board, p.ni_aih_protocol_cycles, p.host_protocol_cycles)
            body = packet.payload
            self._apply_intervals(body.intervals)
            ack = InvAck(acker=self.me, releaser=body.releaser, seq=body.seq)
            self._send(body.releaser, MsgType.INV_ACK, ack, ack.wire_bytes)
            return None
        if key == _INV_ACK:
            yield self.node.protocol_step_ns(
                on_board, p.ni_aih_protocol_cycles * 0.25,
                p.host_protocol_cycles * 0.25)
            body = packet.payload
            self.waits.wake(("inv", body.seq))
            return None
        yield from super().handle_packet(packet, on_board)
        return None
