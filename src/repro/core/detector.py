"""NIC-resident heartbeat failure detector (crash-stop suspicion).

Each network interface runs a small liveness protocol entirely on the
board: every ``SimParams.heartbeat_interval_ns`` it queues one
zero-payload :class:`~repro.network.PacketKind.HEARTBEAT` cell to every
peer and checks how long each peer has been silent.  A peer unheard for
more than ``interval * heartbeat_miss_budget`` becomes *suspected*; any
later packet from it (heartbeat or data — all inbound traffic counts as
liveness) clears the suspicion.  This is the NIC-based detector design
point of the offload literature: like the reliable transport's acks,
heartbeats are generated and consumed by the NI processors and never
reach the host.

The detector is inert when ``heartbeat_interval_ns`` is 0 (the
default): no traffic, no timers, no digest perturbation.  When armed it
uses a single cancellable timer per tick — never a perpetually-pending
process — so cluster teardown can cancel it and let the event queue
drain (the quiescence watchdog depends on that).

The messaging runtime consults :meth:`FailureDetector.is_suspected` to
turn a deadline expiry into the sharper :class:`~repro.runtime.PeerDead`;
the collective engine names suspected participants in their aborts; the
application queries it through ``Context.suspected_peers()``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..network import Packet, PacketKind

__all__ = ["FailureDetector"]


class FailureDetector:
    """Per-NIC liveness tracking over heartbeat cells.

    Metrics live under ``node<i>.nic.detector.*`` and are registered
    unconditionally (a detector-off run keeps them at zero), so the
    machine-checked catalog stays truthful on every configuration.
    """

    def __init__(self, sim, params, nic, num_nodes: int, metrics):
        self.sim = sim
        self.params = params
        self.nic = nic
        self.node_id = nic.node_id
        self.num_nodes = num_nodes
        self.interval_ns = params.heartbeat_interval_ns
        self.miss_budget = params.heartbeat_miss_budget
        #: Armed at all: the interval is set and there is someone to watch.
        self.enabled = self.interval_ns > 0 and num_nodes > 1
        self.last_heard: Dict[int, float] = {}
        self.suspected: Set[int] = set()
        self.heartbeats_sent = 0
        self.heartbeats_received = 0
        self.suspicions = 0
        self.suspicion_clears = 0
        self._tick_handle = None
        self._running = False
        metrics.counter("heartbeats_sent", fn=lambda: self.heartbeats_sent)
        metrics.counter("heartbeats_received",
                        fn=lambda: self.heartbeats_received)
        metrics.counter("suspicions", fn=lambda: self.suspicions)
        metrics.counter("suspicion_clears",
                        fn=lambda: self.suspicion_clears)
        metrics.gauge("suspected_peers", fn=lambda: len(self.suspected))

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic tick (idempotent; no-op when disabled).

        Every peer starts with a full grace period from now — a slow
        starter is not instantly suspect."""
        if not self.enabled or self._running:
            return
        self._running = True
        now = self.sim.now
        for peer in range(self.num_nodes):
            if peer != self.node_id:
                self.last_heard.setdefault(peer, now)
        self._tick_handle = self.sim.schedule(self.interval_ns, self._tick)

    def stop(self) -> None:
        """Cancel the pending tick so the event queue can drain."""
        self._running = False
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None

    # -- liveness inputs ------------------------------------------------------
    def on_heartbeat(self, src: int) -> None:
        """A peer's liveness cell arrived (consumed on the board)."""
        self.heartbeats_received += 1
        self.note_alive(src)

    def note_alive(self, src: int) -> None:
        """Any inbound packet from ``src`` proves it alive right now."""
        if not self.enabled or src == self.node_id:
            return
        self.last_heard[src] = self.sim.now
        if src in self.suspected:
            self.suspected.discard(src)
            self.suspicion_clears += 1

    # -- queries --------------------------------------------------------------
    def is_suspected(self, node: Optional[int]) -> bool:
        """True when ``node`` is currently suspected crashed."""
        return node in self.suspected

    def suspected_peers(self) -> List[int]:
        """Sorted list of currently-suspected peers."""
        return sorted(self.suspected)

    # -- the periodic tick ----------------------------------------------------
    def _tick(self) -> None:
        self._tick_handle = None
        if not self._running:
            return
        now = self.sim.now
        horizon = self.interval_ns * self.miss_budget
        for peer in range(self.num_nodes):
            if peer == self.node_id:
                continue
            silent_ns = now - self.last_heard.get(peer, now)
            if silent_ns > horizon and peer not in self.suspected:
                self.suspected.add(peer)
                self.suspicions += 1
            self.nic.board_send(Packet(
                kind=PacketKind.HEARTBEAT,
                src_node=self.node_id,
                dst_node=peer,
                channel_id=0,
                payload_bytes=0,
                reliable=False,
            ))
            self.heartbeats_sent += 1
        self._tick_handle = self.sim.schedule(self.interval_ns, self._tick)
