"""User-level message passing over the network interface.

The paper's third design goal is supporting *both* programming paradigms;
the DSM applications drive the evaluation, but Application Device
Channels are fundamentally a message-passing primitive (and the Figure 14
microbenchmark measures exactly this path).  :class:`MessagingService`
packages the buffer-management protocol an application needs — register
send/receive buffers, keep the free queue stocked (CNI), send, receive —
and, on top of it, the MPI-style protocol layer of docs/runtime.md:

* :meth:`send` picks the protocol by size against
  ``SimParams.rendezvous_threshold``: at most the threshold goes
  **eager** (:meth:`send_eager`, a copy through the pre-posted free-queue
  buffers); above it goes **rendezvous** (:meth:`send_rendezvous`, an
  RTS/CTS handshake followed by page-sized chunks streamed into a
  receiver-allocated landing buffer).  Either way the message arrives
  through :meth:`recv`.
* :meth:`remote_read` / :meth:`remote_write` are RDMA-style one-sided
  operations against windows the target exposed with :meth:`expose`;
  the target application never participates (the engine's AIH serves
  them on the NI processor of a CNI).

With ``reliable_transport`` on, sends are tracked by the NIC-resident
transport (docs/reliability.md): ``send`` still returns when the board
has consumed the descriptor, while acknowledgement and retransmission
proceed on the board; :meth:`MessagingService.unacked_sends` exposes
how many of this node's packets are still in flight.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Set

from ..core import ReceiveDescriptor
from ..dsm.messages import MSG_BASE_BYTES
from ..network import PacketKind
from .context import Context
from .node import Node
from .protocol import (
    RdvData,
    ReadReq,
    RtMsgType,
    RtsMsg,
    WriteReq,
)


class MessagingService:
    """Message-passing endpoint for one node's application."""

    def __init__(self, ctx: Context, n_recv_buffers: int = 16,
                 buffer_bytes: int = 8192):
        self.ctx = ctx
        self.node: Node = ctx.node
        self.rt = ctx.node.rt
        self.buffer_bytes = buffer_bytes
        self.send_buffer = self.node.alloc_private_buffer(buffer_bytes)
        self._recv_buffers: List[int] = [
            self.node.alloc_private_buffer(buffer_bytes)
            for _ in range(n_recv_buffers)
        ]
        #: Free-queue buffers by address: only these are re-posted after
        #: a receive (rendezvous landing buffers are engine-owned and
        #: must never enter the free queue).
        self._recv_buffer_set: Set[int] = set(self._recv_buffers)
        #: Rendezvous source region, grown on demand (rendezvous sends
        #: are not bounded by ``buffer_bytes``): (vaddr, size).
        self._rdv_src: Optional[tuple] = None
        self._grant_and_post()

    def _grant_and_post(self) -> None:
        """CNI: grant the buffers and stock the free queue.  (On the
        standard interface the kernel owns buffering; nothing to post.)"""
        mgr = getattr(self.node.nic, "channel_manager", None)
        if mgr is None:
            return
        ch = mgr.get(self.node.dsm_channel_id)
        ch.grant_buffer(self.send_buffer, self.buffer_bytes)
        for vaddr in self._recv_buffers:
            ch.grant_buffer(vaddr, self.buffer_bytes)
            ch.post_free_buffer(vaddr, self.buffer_bytes)

    # ------------------------------------------------------------- sending --
    def send(self, dst: int, nbytes: int, payload=None,
             cacheable: bool = True,
             deadline_ns: Optional[float] = None) -> Generator:
        """Send ``nbytes`` to ``dst``, picking the protocol by size:
        eager at or below ``SimParams.rendezvous_threshold``, rendezvous
        above it (docs/runtime.md).  ``deadline_ns`` bounds a rendezvous
        handshake (see :meth:`send_rendezvous`); the eager path has no
        remote wait to bound."""
        if nbytes <= self.ctx.params.rendezvous_threshold:
            yield from self.send_eager(dst, nbytes, payload=payload,
                                       cacheable=cacheable)
        else:
            yield from self.send_rendezvous(dst, nbytes, payload=payload,
                                            cacheable=cacheable,
                                            deadline_ns=deadline_ns)
        return None

    def send_eager(self, dst: int, nbytes: int, payload=None,
                   cacheable: bool = True) -> Generator:
        """Eager send from the registered send buffer: the message copies
        through a pre-posted free-queue buffer on the receiver, so no
        handshake round trip is paid.

        Includes the write-back-cache flush obligation; on the CNI a
        resend of an unmodified buffer is a Message-Cache hit and skips
        the host DMA entirely.
        """
        if nbytes > self.buffer_bytes:
            raise ValueError(
                f"message of {nbytes} bytes exceeds the {self.buffer_bytes}-byte buffer"
            )
        t0 = self.ctx.sim.now
        yield from self.ctx.send(
            dst, self.send_buffer, nbytes, cacheable=cacheable, payload=payload
        )
        self.rt._m_eager.inc()
        self.rt._m_bytes.inc(nbytes)
        self.rt._m_eager_ns.observe(self.ctx.sim.now - t0)
        return None

    def send_rendezvous(self, dst: int, nbytes: int, payload=None,
                        cacheable: bool = True,
                        deadline_ns: Optional[float] = None) -> Generator:
        """Rendezvous send: RTS, block for the (early) CTS, then stream
        page-sized chunks from the rendezvous source region into the
        receiver's landing buffer.  Not bounded by ``buffer_bytes``.

        The CTS wait is bounded by ``deadline_ns`` (None takes
        ``SimParams.op_deadline_ns``; 0 waits forever) and raises
        :class:`~repro.runtime.RuntimeTimeout` /
        :class:`~repro.runtime.PeerDead` on expiry."""
        rt = self.rt
        op_id = rt.new_op_id()
        src = yield from self._ensure_rdv_src(nbytes)
        t0 = self.ctx.sim.now
        key = ("cts", op_id)
        event = rt.waits.register(key)
        rt._m_rts.inc()
        yield from self.ctx.send(
            dst, None, MSG_BASE_BYTES,
            payload=RtsMsg(op_id, self.ctx.rank, nbytes),
            kind=PacketKind.RUNTIME, handler_key=int(RtMsgType.RTS))
        yield from rt.wait(key, event, deadline_ns=deadline_ns, peer=dst)
        page = self.ctx.params.page_size_bytes
        off = 0
        while True:
            chunk = min(page, nbytes - off)
            last = off + chunk >= nbytes
            yield from self.ctx.send(
                dst, src + off, chunk, cacheable=cacheable,
                payload=RdvData(op_id, off, last,
                                payload if last else None),
                kind=PacketKind.RUNTIME,
                handler_key=int(RtMsgType.RDV_DATA))
            rt._m_chunks.inc()
            off += chunk
            if last:
                break
        rt._m_rdv.inc()
        rt._m_bytes.inc(nbytes)
        rt._m_rdv_ns.observe(self.ctx.sim.now - t0)
        return None

    def _ensure_rdv_src(self, nbytes: int) -> Generator:
        """Rendezvous source region of at least ``nbytes`` (allocated,
        granted to the channel on a CNI, grown by reallocation)."""
        need = max(nbytes, 1)
        if self._rdv_src is not None and self._rdv_src[1] >= need:
            return self._rdv_src[0]
        vaddr = self.node.alloc_private_buffer(need)
        mgr = getattr(self.node.nic, "channel_manager", None)
        if mgr is not None:
            mgr.get(self.node.dsm_channel_id).grant_buffer(vaddr, need)
        self._rdv_src = (vaddr, need)
        # Touch the region once so its lines exist in the cache model
        # (the application would have written the message here).
        yield from self.node.cache_write_private(vaddr, min(need, 4096))
        return vaddr

    # ----------------------------------------------------- one-sided RDMA --
    def expose(self, nbytes: int) -> int:
        """Register a window of ``nbytes`` for one-sided remote access;
        returns its virtual address.  Under the SPMD discipline every
        rank performs the same allocations in the same order, so the
        returned address is identical cluster-wide and peers can target
        it directly (docs/runtime.md's registration rule)."""
        vaddr = self.node.alloc_private_buffer(nbytes)
        self.rt.register_window(vaddr, nbytes)
        return vaddr

    def remote_read(self, dst: int, raddr: int, nbytes: int,
                    deadline_ns: Optional[float] = None) -> Generator:
        """One-sided read of ``[raddr, raddr+nbytes)`` from ``dst``'s
        registered window.  The reply transmits straight from the
        target's memory with the cacheable bit set: repeated reads of an
        unmodified window are Message-Cache transmit hits on a CNI
        (the remote-cache effect), and the target application never
        participates.  The reply wait is bounded by ``deadline_ns``
        (None takes ``SimParams.op_deadline_ns``)."""
        rt = self.rt
        op_id = rt.new_op_id()
        t0 = self.ctx.sim.now
        key = ("read", op_id)
        event = rt.waits.register(key)
        yield from self.ctx.send(
            dst, None, MSG_BASE_BYTES,
            payload=ReadReq(op_id, self.ctx.rank, raddr, nbytes),
            kind=PacketKind.RUNTIME,
            handler_key=int(RtMsgType.RDMA_READ_REQ))
        got = yield from rt.wait(key, event, deadline_ns=deadline_ns,
                                 peer=dst)
        rt._m_reads.inc()
        rt._m_rdma_bytes.inc(nbytes)
        rt._m_read_ns.observe(self.ctx.sim.now - t0)
        return got

    def remote_write(self, dst: int, raddr: int, nbytes: int,
                     deadline_ns: Optional[float] = None) -> Generator:
        """One-sided write of ``nbytes`` from the send buffer into
        ``dst``'s registered window at ``raddr``.  Completion means the
        target's ack arrived — the data is placed remotely, not merely
        accepted by the local board.  The ack wait is bounded by
        ``deadline_ns`` (None takes ``SimParams.op_deadline_ns``)."""
        if nbytes > self.buffer_bytes:
            raise ValueError(
                f"remote_write of {nbytes} bytes exceeds the "
                f"{self.buffer_bytes}-byte buffer"
            )
        rt = self.rt
        op_id = rt.new_op_id()
        t0 = self.ctx.sim.now
        key = ("wack", op_id)
        event = rt.waits.register(key)
        yield from self.ctx.send(
            dst, self.send_buffer, nbytes, cacheable=True,
            payload=WriteReq(op_id, self.ctx.rank, raddr, nbytes),
            kind=PacketKind.RUNTIME,
            handler_key=int(RtMsgType.RDMA_WRITE))
        yield from rt.wait(key, event, deadline_ns=deadline_ns, peer=dst)
        rt._m_writes.inc()
        rt._m_rdma_bytes.inc(nbytes)
        rt._m_write_ns.observe(self.ctx.sim.now - t0)
        return None

    # ----------------------------------------------------------- receiving --
    def recv(self, deadline_ns: Optional[float] = None) -> Generator:
        """Receive the next message (eager or rendezvous); re-stocks the
        free queue (CNI) when the consumed buffer came from it.

        ``deadline_ns`` bounds the wait for an arrival (None takes
        ``SimParams.op_deadline_ns``; 0 waits forever); on expiry a
        :class:`~repro.runtime.RuntimeTimeout` is raised."""
        desc: ReceiveDescriptor = yield from self.ctx.recv(
            deadline_ns=deadline_ns)
        mgr = getattr(self.node.nic, "channel_manager", None)
        if (mgr is not None and desc.vaddr is not None
                and desc.vaddr in self._recv_buffer_set):
            ch = mgr.get(self.node.dsm_channel_id)
            ch.post_free_buffer(desc.vaddr, self.buffer_bytes)
        return desc

    # -------------------------------------------------------------- misc --
    def observe_rtt(self, ns: float) -> None:
        """Record an application-level round-trip sample into the
        ``runtime.msg_rtt_ns`` histogram (pingpong-style timing)."""
        self.rt.observe_rtt(ns)

    def unacked_sends(self) -> int:
        """Packets this node sent that the reliable transport has not
        yet seen acknowledged (always 0 with the transport disabled)."""
        return self.node.nic.reliab.outstanding()

    def touch_send_buffer(self, nbytes: int) -> Generator:
        """Simulate the application writing the message contents (dirties
        host cache lines; the subsequent flush + snoop keep the Message
        Cache copy consistent)."""
        yield from self.ctx.node.cache_write_private(self.send_buffer, nbytes)
        return None
