"""The lazy-invalidate release-consistency engine (one instance per node).

Section 3 of the paper: "All three applications used a lazy invalidate
release consistency protocol for memory consistency ... assumed to run on
the network interface board using the memory allocated for application
interrupt handlers."  This module implements that protocol once; *where*
it runs is a platform property:

* on the **CNI**, incoming protocol packets are dispatched by the
  PATHFINDER into an Application Interrupt Handler and the engine's
  handler generators execute on the NI processor's clock — the host CPU
  never sees an interrupt;
* on the **standard interface**, the same generators execute on the host
  CPU after an interrupt and kernel dispatch, stealing application time.

The protocol (TreadMarks-style LRC, multiple-writer):

* intervals + vector clocks + write notices (:mod:`.interval`);
* locks: home-serialized, granted by the previous releaser with the
  notices the acquirer lacks (:mod:`.locks`);
* barriers: the collective engine's root gathers every arriver's
  intervals and releases to each node the ones it lacks (this engine is
  the barrier's consistency attachment, :mod:`repro.collectives`);
* pages: lazy invalidation on acquire; full-page fetch from the latest
  writer on a miss; concurrent writers keep their copies and exchange
  *diffs* sized by the bytes actually written (:mod:`.page`,
  :mod:`.diff`).

The data/state split (global authoritative store, per-node state
machines) is documented in :mod:`.page` and DESIGN.md section 6.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..core.adc import TransmitDescriptor
from ..engine import SimulationError
from ..engine.waits import TIMEOUT, Waits
from ..network import Packet, PacketKind
from ..params import SimParams
from .directory import HomePolicy
from .interval import Interval, IntervalLog, WriteCollector, WriteNotice
from .locks import LocalLockTable, LockManagerTable
from .messages import (
    DiffReply,
    DiffReq,
    LockForward,
    LockGrant,
    LockReq,
    MsgType,
    PageReply,
    PageReq,
    intervals_wire_bytes,
)
from .page import NodePageTable, PageState, SharedSegment
from .vector_clock import VectorClock

#: Forwarding-chase sanity bound (a correct run never gets close).
MAX_PAGE_REQ_HOPS_FACTOR = 4

# handle_packet's keys, bound once: no enum call or member read per packet.
(_LOCK_REQ, _LOCK_FORWARD, _LOCK_GRANT, _PAGE_REQ, _PAGE_REPLY, _DIFF_REQ,
 _DIFF_REPLY) = (MsgType.LOCK_REQ, MsgType.LOCK_FORWARD, MsgType.LOCK_GRANT,
                 MsgType.PAGE_REQ, MsgType.PAGE_REPLY, MsgType.DIFF_REQ,
                 MsgType.DIFF_REPLY)


class DsmEngine:
    """LRC protocol state and behaviour for one node."""

    def __init__(
        self,
        node,  # runtime.Node (documented platform surface; see DESIGN.md)
        segment: SharedSegment,
        homes: HomePolicy,
        nprocs: int,
    ):
        self.node = node
        self.sim = node.sim
        self.params: SimParams = node.params
        self.me: int = node.node_id
        self.nprocs = nprocs
        self.segment = segment
        self.homes = homes

        self.vc = VectorClock(nprocs)
        self.ilog = IntervalLog(nprocs)
        self.collector = WriteCollector(self.params.page_size_bytes)
        self.pages = NodePageTable(segment.npages,
                                   homes.page_homes(segment.npages), self.me)
        self.local_locks = LocalLockTable()
        self.managed_locks = LockManagerTable()
        self._barrier_sent_seq = 0
        #: Arrivers' vector clocks for in-flight barriers, kept by the
        #: manager between gather and release (collective attachment).
        self._barrier_vcs: Dict[Tuple[int, int], List[int]] = {}
        #: The app thread's page, lock and invalidation-round waits.
        self.waits = Waits(node, "DSM")
        #: Served diff sizes: (page, seq) -> bytes, kept after release so
        #: concurrent writers' diff requests can be answered and priced.
        self.diff_store: Dict[Tuple[int, int], int] = {}
        #: A fault's handler time and a page twin's copy time: the same
        #: for every fault of the run.
        self._fault_ns = self.params.cpu_cycles_ns(
            self.params.page_fault_handler_cycles)
        self._twin_ns = self.params.cpu_cycles_ns(
            self.params.twin_cycles_per_word * self.params.words_per_page)

        # Page homes are finalized once allocations are known (the block
        # scheme divides the *allocated* pages among the nodes); see
        # :meth:`init_page_homes`, called by the cluster before the run.

    def init_page_homes(self) -> None:
        """Assign page homes and seed initial validity.

        Pages homed here start valid (they are "born" in this node's
        memory); everything else faults on first touch.  Run by the
        cluster after shared allocations are final, because the block
        home scheme divides the allocated pages — homing everything by
        the raw segment size would pile every used page onto node 0.
        """
        self.pages.seed_homes(self.homes.page_homes(self.segment.npages))

    # ------------------------------------------------------------------ utils --
    def _page_vaddr(self, page: int) -> int:
        """Virtual address of a page of the segment, by arithmetic on its
        base: the page comes from a checked page table entry."""
        return self.segment.base_vaddr + page * self.params.page_size_bytes

    def _send(self, dst: int, msg_type: MsgType, body,
              payload_bytes: int, src_vaddr: Optional[int] = None,
              cacheable: bool = False) -> None:
        """Queue a protocol packet from the engine (board-originated)."""
        kind = PacketKind.DSM_PAGE if src_vaddr is not None else PacketKind.DSM_PROTOCOL
        self.node.nic.board_send(
            Packet(
                kind=kind,
                src_node=self.me,
                dst_node=dst,
                channel_id=self.node.dsm_channel_id,
                handler_key=int(msg_type),
                payload_bytes=payload_bytes,
                payload=body,
                cacheable=cacheable,
                src_vaddr=src_vaddr,
            )
        )

    def _app_send(self, dst: int, msg_type: MsgType, body,
                  payload_bytes: int) -> Generator:
        """Send a protocol request from the application thread (this is
        the path whose host cost differs: user-level ADC stores on the
        CNI, a kernel trap on the standard interface)."""
        desc = TransmitDescriptor(
            dst_node=dst,
            vaddr=None,
            length=payload_bytes,
            handler_key=int(msg_type),
            payload=body,
            channel_id=self.node.dsm_channel_id,
        )
        t0 = self.sim.now
        yield from self.node.nic.host_send(desc)
        self.node.account_overhead(self.sim.now - t0)
        return None

    def outstanding_waits(self) -> List[str]:
        """Stuck-report probe: DSM operations this node is blocked on
        (page fetches, lock grants — see docs/reliability.md)."""
        out = []
        for key in sorted(self.waits.keys(), key=repr):
            kind = key[0] if isinstance(key, tuple) and key else key
            if kind == "page":
                out.append(f"node{self.me}: DSM page wait (page {key[1]})")
            elif kind == "lock":
                out.append(f"node{self.me}: DSM lock wait (lock {key[1]})")
            else:
                out.append(f"node{self.me}: DSM wait {key!r}")
        return out

    def _wait(self, key, event, op: str) -> Generator:
        """Block the app thread on ``key`` (see :class:`Waits`).

        Bounded by ``SimParams.op_deadline_ns`` when it is set: expiry
        abandons the wait and raises :class:`~repro.runtime.PeerDead`
        (detector already suspects a peer) or
        :class:`~repro.runtime.RuntimeTimeout` — a page fetch or lock
        acquire never hangs on a crashed node (see
        docs/reliability.md)."""
        deadline = self.params.op_deadline_ns
        value = yield from self.waits.wait(key, event, deadline)
        if value is TIMEOUT:
            self.node.counters.inc("dsm_timeouts")
            from ..runtime.errors import PeerDead, RuntimeTimeout

            suspects = self.node.nic.detector.suspected_peers()
            if suspects:
                raise PeerDead(op, suspects[0], deadline)
            raise RuntimeTimeout(op, None, deadline)
        return value

    # ------------------------------------------------------- interval machinery --
    def _apply_intervals(self, intervals: List[Interval]) -> None:
        """Acquire-side processing of piggybacked intervals.

        "Applied" is tracked by the vector clock, not by the interval
        log: the barrier manager *knows* arrivers' intervals (it logged
        them to compute what others lack) before it *applies* them to
        its own pages at its own departure.
        """
        for iv in sorted(intervals, key=lambda i: (i.proc, i.seq)):
            if iv.proc == self.me:
                continue
            if self.vc[iv.proc] >= iv.seq:
                continue  # already applied
            self.ilog.record(iv)  # may be merely known already: fine
            if iv.notices:
                self.pages.apply_notices(iv.notices)
                # Note: the board's Message Cache copy is NOT dropped
                # here.  It mirrors *host memory*, which only changes via
                # snooped CPU stores or board-performed DMA installs;
                # under multiple-writer LRC a copy that lacks a remote
                # writer's bytes is still a valid transfer source (the
                # requester owns the reconciliation via diffs).
                self.node.counters.inc("dsm_notices_applied",
                                       len(iv.notices))
            if self.vc[iv.proc] < iv.seq:
                self.vc.v[iv.proc] = iv.seq

    def end_interval(self) -> Generator:
        """Release-side interval close, run by the application thread.

        Creates write notices for the interval's write set, *flushes* the
        written pages' dirty cache lines (the write-back-cache consistency
        requirement of Section 2.2 — this is also what keeps the Message
        Cache copies of those pages consistent, via snooping), downgrades
        the twinned pages, and logs the interval.  Returns the closed
        :class:`Interval`, or None when nothing was written.
        """
        if not self.collector:
            return None
        seq = self.vc.tick(self.me)
        page_bytes = self.collector.drain()
        notices = []
        node = self.node
        for page, nbytes in sorted(page_bytes.items()):
            notices.append(WriteNotice(page, self.me, seq, nbytes))
            self.diff_store[(page, seq)] = nbytes
            flush_ns = node.write_back_page(page)
            yield flush_ns
            node.account_overhead(flush_ns)
        interval = Interval(self.me, seq, tuple(notices))
        self.ilog.record(interval)
        self.pages.end_interval_downgrade()
        cost = self.params.cpu_cycles_ns(
            self.params.notice_create_cycles * len(notices)
        )
        yield cost
        self.node.account_overhead(cost)
        self.node.counters.inc("dsm_intervals", 1)
        self.node.counters.inc("dsm_notices_created", len(notices))
        return interval

    # ------------------------------------------------------------ app-side: pages --
    def page_accessible(self, page: int, for_write: bool) -> bool:
        """Fast-path check the runtime makes before every shared burst."""
        m = self.pages[page]
        if m.state == PageState.INVALID or m.pending_diffs:
            return False
        if for_write and m.state != PageState.WRITABLE:
            return False
        return True

    def fault(self, page: int, for_write: bool) -> Generator:
        """Handle an access miss (run by the application thread)."""
        m = self.pages[page]
        fault_ns = self._fault_ns
        yield fault_ns
        self.node.account_overhead(fault_ns)
        self.node.counters.inc("dsm_faults")

        if m.state == PageState.INVALID or not m.ever_valid:
            yield from self._fetch_full_page(page)
        elif m.pending_diffs:
            pending = sum(m.pending_diffs.values())
            threshold = (
                self.params.full_page_fetch_threshold
                * self.params.page_size_bytes
            )
            if pending >= threshold:
                # Mostly rewritten: the page migrates whole (this is the
                # transfer the Message Cache accelerates).
                yield from self._fetch_full_page(page)
            else:
                # Lightly touched by concurrent writers: move just the
                # modified bytes (Section 3's Cholesky observation).
                yield from self._fetch_diffs(page)

        if for_write:
            m = self.pages[page]
            if m.state != PageState.WRITABLE:
                twin_ns = self._twin_ns
                yield twin_ns
                self.node.account_overhead(twin_ns)
                self.pages.make_writable(page)
                self.node.counters.inc("dsm_twins")
        return None

    def _fetch_full_page(self, page: int) -> Generator:
        m = self.pages[page]
        target = m.source
        if target == self.me:
            raise SimulationError(
                f"node {self.me}: invalid page {page} sourced from itself"
            )
        key = ("page", page)
        event = self.waits.register(key)
        msg = PageReq(page=page, requester=self.me)
        self.node.counters.inc("dsm_page_fetches")
        yield from self._app_send(target, MsgType.PAGE_REQ, msg, msg.wire_bytes)
        yield from self._wait(key, event, "dsm page fetch")
        return None

    def _fetch_diffs(self, page: int) -> Generator:
        m = self.pages[page]
        by_writer: Dict[int, List[Tuple[int, int]]] = {}
        for (proc, seq) in sorted(m.pending_diffs):
            by_writer.setdefault(proc, []).append((proc, seq))
        key = ("page", page)
        event = self.waits.register(key, replies=len(by_writer))
        self.node.counters.inc("dsm_diff_fetches", len(by_writer))
        for writer, ivs in by_writer.items():
            msg = DiffReq(page=page, requester=self.me, intervals=ivs)
            yield from self._app_send(writer, MsgType.DIFF_REQ, msg, msg.wire_bytes)
        yield from self._wait(key, event, "dsm diff fetch")
        return None

    # ------------------------------------------------------------ app-side: locks --
    def acquire(self, lock_id: int) -> Generator:
        """Acquire a distributed lock (application thread)."""
        st = self.local_locks.state(lock_id)
        if st.held:
            raise SimulationError(f"node {self.me}: lock {lock_id} re-acquired")
        self.node.counters.inc("dsm_acquires")
        if st.cached_ownership:
            # We were the last releaser and nobody took the lock away:
            # re-acquire locally with no traffic (lazy release's payoff).
            st.held = True
            st.released = False
            cost = self.params.cpu_cycles_ns(self.params.adc_enqueue_cycles)
            yield cost
            self.node.account_overhead(cost)
            self.node.counters.inc("dsm_acquires_local")
            return None
        home = self.homes.lock_home(lock_id)
        key = ("lock", lock_id)
        event = self.waits.register(key)
        if home == self.me:
            # Local manager: no request packet; handle inline on the host
            # (the app thread itself does the work, so charge it directly).
            # The `acquiring` flag is set only once the request is
            # *sequenced* at the manager: a forward that arrives during
            # the processing delay precedes us in the grant chain and
            # must be granted, not queued.
            cost = self.params.cpu_cycles_ns(self.params.host_protocol_cycles)
            yield cost
            self.node.account_overhead(cost)
            st.acquiring = True
            self._lock_req_logic(
                LockReq(lock_id=lock_id, requester=self.me,
                        vc=self.vc.as_list())
            )
        else:
            # For a remote home, a forward addressed to us can only follow
            # the manager's sequencing of our request, so setting the flag
            # before the send is race-free.
            st.acquiring = True
            msg = LockReq(lock_id=lock_id, requester=self.me,
                          vc=self.vc.as_list())
            yield from self._app_send(home, MsgType.LOCK_REQ, msg, msg.wire_bytes)
        yield from self._wait(key, event, "dsm lock acquire")
        return None

    def release(self, lock_id: int) -> Generator:
        """Release a lock: close the interval, grant any queued waiter."""
        st = self.local_locks.state(lock_id)
        if not st.held:
            raise SimulationError(f"node {self.me}: releasing unheld lock {lock_id}")
        self.node.counters.inc("dsm_releases")
        yield from self.end_interval()
        st.held = False
        st.released = True
        if st.pending_requester is not None:
            requester = st.pending_requester
            req_vc = st.pending_vc or [0] * self.nprocs
            st.pending_requester = None
            st.pending_vc = None
            st.cached_ownership = False
            self._grant_lock(lock_id, requester, req_vc)
        return None

    def _grant_lock(self, lock_id: int, requester: int, req_vc: List[int]) -> None:
        intervals = self.ilog.missing_for(req_vc)
        msg = LockGrant(lock_id=lock_id, granter=self.me, intervals=intervals)
        if requester == self.me:
            self._apply_intervals(intervals)
            self._finish_local_acquire(lock_id)
        else:
            self._send(requester, MsgType.LOCK_GRANT, msg, msg.wire_bytes)

    def _finish_local_acquire(self, lock_id: int) -> None:
        st = self.local_locks.state(lock_id)
        st.acquiring = False
        st.held = True
        st.released = False
        st.cached_ownership = True
        self.waits.wake(("lock", lock_id))

    # ------------------------------------------------------------ app-side: barrier --
    def barrier(self, barrier_id: int = 0) -> Generator:
        """Cross a barrier (application thread).

        Arrival is a release (interval close + notices to the manager);
        departure is an acquire (apply everyone's intervals).  The
        gather/release transport is the collective engine
        (``node.coll``, :mod:`repro.collectives`); this engine rides it
        as the barrier's *consistency attachment* — the interval payload
        travels inside the collective packets and the attachment hooks
        below run at the root/participants, reproducing the standalone
        barrier protocol's messages and costs exactly.
        """
        self.node.counters.inc("dsm_barriers")
        yield from self.end_interval()
        payload, payload_bytes = self._barrier_payload()
        yield from self.node.coll.barrier(
            barrier_id, payload=payload, payload_bytes=payload_bytes)
        return None

    def _barrier_payload(self) -> Tuple[Any, int]:
        """This node's arrival attachment: (payload, wire bytes)."""
        own = [
            iv for iv in self.ilog.intervals_of(self.me)
            if iv.seq > self._barrier_sent_seq
        ]
        self._barrier_sent_seq = self.ilog.known_seq(self.me)
        vc = self.vc.as_list()
        return (own, vc), intervals_wire_bytes(own) + 8 * len(vc)

    # ------------------------------------- collective attachment (barrier) --
    # Hooks called by the collective engine (docs/collectives.md), which
    # has checked the arriver and the episode before it calls them: the
    # root-side pair runs on whatever platform executes the gather (NI
    # processor or host CPU); the participant-side hook runs where the
    # release packet is handled.
    def coll_on_arrive(self, coll_id: int, arriver: int, payload) -> None:
        """Root gather step: log the arriver's intervals + vector clock."""
        intervals, vc = payload
        for iv in intervals:
            self.ilog.record(iv)
        self._barrier_vcs[(coll_id, arriver)] = list(vc)

    def coll_make_release(self, coll_id: int, node: int) -> Tuple[Any, int]:
        """Root: build ``node``'s release payload (the intervals that
        node's vector clock says it lacks) and its wire size."""
        their_vc = self._barrier_vcs.pop((coll_id, node), [0] * self.nprocs)
        intervals = self.ilog.missing_for(their_vc)
        return intervals, intervals_wire_bytes(intervals)

    def coll_on_release(self, coll_id: int, payload) -> None:
        """Participant departure: acquire-apply the missing intervals."""
        self._apply_intervals(payload)

    # ------------------------------------------------------- board/host handlers --
    def handle_packet(self, packet: Packet, on_board: bool) -> Generator:
        """The handler the NIC's handler table holds for each
        :class:`MsgType` key.

        Runs inside the NIC receive process; ``on_board`` says whether
        the cost clock is the NI processor (CNI Application Interrupt
        Handler) or the host CPU (standard interface / no-AIH ablation).
        """
        p = self.params
        yield self.node.protocol_step_ns(
            on_board, p.ni_aih_protocol_cycles, p.host_protocol_cycles)
        key = packet.handler_key
        body = packet.payload
        if key == _LOCK_REQ:
            self._lock_req_logic(body)
        elif key == _LOCK_FORWARD:
            self._lock_forward_logic(body)
        elif key == _LOCK_GRANT:
            self._apply_intervals(body.intervals)
            self._finish_local_acquire(body.lock_id)
        elif key == _PAGE_REQ:
            self._page_req_logic(body)
        elif key == _PAGE_REPLY:
            yield from self._install_page(packet, body, on_board)
        elif key == _DIFF_REQ:
            yield from self._diff_req_logic(body, on_board)
        elif key == _DIFF_REPLY:
            yield from self._install_diffs(packet, body)
        else:  # MsgType() raises the ValueError of an unknown key
            raise SimulationError(
                f"unknown protocol message {MsgType(key)}")
        return None

    # lock handlers -----------------------------------------------------------
    def _lock_req_logic(self, msg: LockReq) -> None:
        rec = self.managed_locks.record(msg.lock_id)
        target = rec.last_owner if rec.last_owner is not None else self.me
        rec.last_owner = msg.requester
        fwd = LockForward(
            lock_id=msg.lock_id, requester=msg.requester, vc=msg.vc
        )
        if target == self.me:
            self._lock_forward_logic(fwd)
        else:
            self._send(target, MsgType.LOCK_FORWARD, fwd, fwd.wire_bytes)

    def _lock_forward_logic(self, msg: LockForward) -> None:
        st = self.local_locks.state(msg.lock_id)
        if msg.requester == self.me:
            # Our own request chained back to us (we were already the
            # last owner in the manager's eyes): the lock is ours.
            self._grant_lock(msg.lock_id, self.me, msg.vc)
            return
        st.cached_ownership = False
        if st.held or st.acquiring:
            if st.pending_requester is not None:
                raise SimulationError(
                    f"node {self.me}: two pending requesters for lock "
                    f"{msg.lock_id}"
                )
            st.pending_requester = msg.requester
            st.pending_vc = msg.vc
        else:
            self._grant_lock(msg.lock_id, msg.requester, msg.vc)

    # page handlers ------------------------------------------------------------
    def _page_req_logic(self, msg: PageReq) -> None:
        m = self.pages[msg.page]
        if m.state == PageState.INVALID:
            # Stale source pointer: chase the latest writer we know of.
            if msg.hops > MAX_PAGE_REQ_HOPS_FACTOR * self.nprocs:
                raise SimulationError(
                    f"page {msg.page}: request chased {msg.hops} hops"
                )
            fwd = PageReq(
                page=msg.page, requester=msg.requester, hops=msg.hops + 1
            )
            self._send(m.source, MsgType.PAGE_REQ, fwd, fwd.wire_bytes)
            self.node.counters.inc("dsm_page_req_forwards")
            return
        reply = PageReply(page=msg.page, holder=self.me)
        self._send(
            msg.requester,
            MsgType.PAGE_REPLY,
            reply,
            self.params.page_size_bytes,
            src_vaddr=self._page_vaddr(msg.page),
            cacheable=True,
        )
        self.node.counters.inc("dsm_pages_served")

    def _install_page(self, packet: Packet, msg: PageReply,
                      on_board: bool) -> Generator:
        page = msg.page
        # Receive caching (Section 2.2): bind the arrived page into the
        # Message Cache so a later migration is served without a DMA.
        if packet.cacheable:
            self.node.mc_receive_insert(self._page_vaddr(page),
                                        self.params.page_size_bytes)
        # The data must reach host memory regardless of interface.
        yield from self.node.bus.dma(self.params.page_size_bytes)
        self.node.drop_page_from_cpu_cache(page)
        self.pages.install_full_copy(page)
        m = self.pages[page]
        m.source = msg.holder
        self.node.counters.inc("dsm_pages_installed")
        self.waits.wake(("page", page))
        return None

    # diff handlers ----------------------------------------------------------
    def _diff_req_logic(self, msg: DiffReq, on_board: bool) -> Generator:
        total = 0
        for key in msg.intervals:
            total += self.diff_store.get(tuple(key), 0)
        total = max(total, 8)  # an empty diff still frames a reply
        # Diff creation: word-compare of page and twin.  On the CNI this
        # work runs on the NI processor against board copies; on the
        # standard interface the host does it.
        words = -(-total // self.params.bus_word_bytes)
        cycles = self.params.diff_cycles_per_word * words
        yield self.node.protocol_step_ns(on_board, cycles, cycles)
        reply = DiffReply(
            page=msg.page, writer=self.me,
            intervals=list(msg.intervals), diff_bytes=total,
        )
        # The diff's bytes come out of the page's buffer: straight from
        # the board copy on a Message-Cache hit, via a host DMA otherwise
        # (cacheable=False — a diff transfer does not bind the page).
        self._send(
            msg.requester, MsgType.DIFF_REPLY, reply,
            reply.wire_bytes + total,
            src_vaddr=self._page_vaddr(msg.page),
        )
        self.node.counters.inc("dsm_diffs_served")
        return None

    def _install_diffs(self, packet: Packet, msg: DiffReply) -> Generator:
        if msg.diff_bytes > 0:
            yield from self.node.bus.dma(msg.diff_bytes)
        self.node.drop_page_from_cpu_cache(msg.page)
        self.pages.apply_diffs(msg.page, [tuple(k) for k in msg.intervals])
        self.node.counters.inc("dsm_diffs_installed")
        self.waits.wake(("page", msg.page))
        return None

