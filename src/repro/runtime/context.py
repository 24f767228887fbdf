"""The application-thread API: compute, shared access, synchronization.

Application kernels are generator functions receiving a :class:`Context`;
every potentially-blocking operation is a ``yield from``.  The context
performs the *execution-driven* part: shared reads and writes move real
numpy data through the global store while the cache model prices every
touched line and the DSM engine intercepts page faults.
"""

from __future__ import annotations

from itertools import chain
from typing import Generator, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.adc import TransmitDescriptor
from ..engine import Category
from .node import Node

#: A contiguous byte run inside the shared segment: (vaddr, nbytes).
Run = Tuple[int, int]


def run_lines_and_pages(runs: Sequence[Run], line_size: int,
                        page_size: int) -> Tuple[np.ndarray, List[int]]:
    """The line stream of byte runs, run after run in order, and the
    distinct pages they cover, ascending; runs of no bytes cover
    nothing.

    Run ``i`` covers lines ``first[i] .. last[i]``; the stream is one
    ``arange`` over all of them, shifted at each run's start by the gap
    to that run's first line.  The pages come the same way; a set makes
    them distinct (a few hundred at most, and ``np.unique`` would map
    numpy's sort kernels into memory for them).
    """
    spans = np.fromiter(chain.from_iterable(runs), dtype=np.int64,
                        count=2 * len(runs)).reshape(-1, 2)
    spans = spans[spans[:, 1] > 0]
    if not spans.size:
        return np.empty(0, dtype=np.int64), []
    starts = spans[:, 0]
    lasts = starts + spans[:, 1] - 1

    def stream(first: np.ndarray, last: np.ndarray) -> np.ndarray:
        counts = last - first + 1
        ends = np.cumsum(counts)
        return (np.arange(ends[-1], dtype=np.int64)
                + np.repeat(first - (ends - counts), counts))

    lines = stream(starts // line_size, lasts // line_size)
    pages = stream(starts // page_size, lasts // page_size)
    return lines, sorted(set(pages.tolist()))


class Context:
    """Per-(node, application-thread) execution context."""

    def __init__(self, node: Node, rank: int, nprocs: int):
        self.node = node
        self.rank = rank
        self.nprocs = nprocs
        self.params = node.params
        self.engine = node.engine
        self.sim = node.sim

    # ------------------------------------------------------------- computation --
    def compute(self, cycles: float) -> Generator:
        """Charge ``cycles`` of pure computation (plus any host time the
        network stole since the last burst)."""
        if cycles < 0:
            raise ValueError("negative compute cycles")
        ns = self.params.cpu_cycles_ns(cycles)
        stolen = self.node.take_stolen_ns()
        yield ns + stolen
        self.node.account_compute(ns)
        return None

    def idle(self, cycles: float) -> Generator:
        """Charge ``cycles`` of busy-waiting (spin backoff).

        Accounted as *synch delay*: the processor is burning time
        waiting for work/synchronization, not computing."""
        if cycles < 0:
            raise ValueError("negative idle cycles")
        ns = self.params.cpu_cycles_ns(cycles)
        yield ns
        self.node.account_delay(ns)
        return None

    # ------------------------------------------------------------ shared access --
    def access_runs(self, runs: Sequence[Run], is_write: bool) -> Generator:
        """Touch contiguous shared byte runs (the core access primitive).

        Ensures every covered page is accessible (faulting through the
        DSM engine where not, in ascending page order), records written
        ranges for the write collector, simulates the cache over the
        exact line stream, and charges the memory time as computation.
        A one-run access (every access of a contiguous selection) takes
        its pages, write records and line range by arithmetic.
        """
        line_size = self.params.cache_line_bytes
        page_size = self.params.page_size_bytes
        engine = self.engine
        segment = engine.segment
        dsm_base = segment.asp.dsm_base
        lines = None
        if len(runs) == 1:
            vaddr, nbytes = runs[0]
            if nbytes <= 0:
                return None
            last = vaddr + nbytes - 1
            vpages = range(vaddr // page_size, last // page_size + 1)
        else:
            lines, vpages = run_lines_and_pages(runs, line_size, page_size)
            if not vpages:
                return None

        # Page-presence check and faults, in ascending page order.
        dsm_base_page = dsm_base // page_size
        for vpage in vpages:
            page = vpage - dsm_base_page
            if not 0 <= page < segment.npages:
                raise ValueError("shared access outside the DSM segment")
            if not engine.page_accessible(page, is_write):
                yield from engine.fault(page, is_write)

        # Record writes for the interval's write notices / diff sizes.
        if is_write:
            record_write = engine.collector.record_write
            for addr, size in runs:
                if size <= 0:
                    continue
                start = addr - dsm_base
                end = start + size
                for p in range(start // page_size,
                               (end - 1) // page_size + 1):
                    lo = max(start, p * page_size)
                    record_write(p, lo - p * page_size,
                                 min(end, (p + 1) * page_size) - lo)

        # Cache simulation: the exact ordered line stream.
        if lines is None:
            first = vaddr // line_size
            ns = self.node.cache_access_range(
                first, last // line_size - first + 1, is_write)
        else:
            ns = self.node.cache_access(lines, is_write)
        yield ns
        self.node.account_compute(ns)
        return None

    def read_runs(self, runs: Sequence[Run]) -> Generator:
        """Read contiguous shared runs (cost only; data via SharedArray)."""
        yield from self.access_runs(runs, is_write=False)
        return None

    def write_runs(self, runs: Sequence[Run]) -> Generator:
        """Write contiguous shared runs (cost + write recording)."""
        yield from self.access_runs(runs, is_write=True)
        return None

    # ---------------------------------------------------------- synchronization --
    def acquire(self, lock_id: int) -> Generator:
        """Acquire a distributed lock."""
        yield from self.engine.acquire(lock_id)
        return None

    def release(self, lock_id: int) -> Generator:
        """Release a distributed lock (a release operation: publishes
        this interval's writes)."""
        yield from self.engine.release(lock_id)
        return None

    def barrier(self, barrier_id: int = 0) -> Generator:
        """Cross a global barrier."""
        yield from self.engine.barrier(barrier_id)
        return None

    # ------------------------------------- collectives (docs/collectives.md) --
    def allreduce(self, value, op: str = "sum", coll_id: int = 0) -> Generator:
        """Combine ``value`` (scalar or flat sequence, elementwise)
        across all nodes; every node returns the combined result."""
        result = yield from self.node.coll.allreduce(
            value, op=op, coll_id=coll_id)
        return result

    def reduce(self, value, op: str = "sum", root: Optional[int] = None,
               coll_id: int = 0) -> Generator:
        """Combine ``value`` at the root; the root returns the result,
        everyone else returns ``None`` without blocking."""
        result = yield from self.node.coll.reduce(
            value, op=op, root=root, coll_id=coll_id)
        return result

    def broadcast(self, value=None, root: Optional[int] = None,
                  coll_id: int = 0) -> Generator:
        """Return the root's ``value`` on every node (one-to-all)."""
        result = yield from self.node.coll.broadcast(
            value, root=root, coll_id=coll_id)
        return result

    def multicast(self, value=None, dests=(), src: Optional[int] = None,
                  coll_id: int = 0) -> Generator:
        """One-to-some: destinations return the source's ``value``,
        non-participants fall through with ``None``."""
        result = yield from self.node.coll.multicast(
            value, dests=dests, src=src, coll_id=coll_id)
        return result

    # -------------------------------------------------------------- messaging --
    def send(self, dst: int, vaddr: Optional[int], nbytes: int,
             channel_id: Optional[int] = None,
             cacheable: bool = True, payload=None,
             kind=None, handler_key: int = 0) -> Generator:
        """User-level message send of a registered buffer.

        ``vaddr=None`` sends an immediate/control payload (no buffer to
        flush or DMA); ``kind``/``handler_key`` let the messaging
        runtime stamp protocol packets (docs/runtime.md) — plain
        application sends leave both at their defaults and travel as
        DATA.
        """
        if vaddr is not None:
            yield from self.node.flush_buffer(vaddr, nbytes)
        t0 = self.sim.now
        done = self.sim.event()
        desc = TransmitDescriptor(
            dst_node=dst,
            vaddr=vaddr,
            length=nbytes,
            handler_key=handler_key,
            cacheable=cacheable,
            payload=payload,
            channel_id=(channel_id if channel_id is not None
                        else self.node.dsm_channel_id),
            completion=done,
            kind=kind,
        )
        yield from self.node.nic.host_send(desc)
        self.node.account_overhead(self.sim.now - t0)
        # The buffer may be DMAed until the board consumes the
        # descriptor; block reuse until then (completion is how the real
        # transmit queue signals it).
        t1 = self.sim.now
        self.node.app_blocked = True
        try:
            yield done
        finally:
            self.node.app_blocked = False
        self.node.account_delay(self.sim.now - t1)
        return None

    def recv(self, deadline_ns: Optional[float] = None) -> Generator:
        """Wait for the next inbound DATA message; returns its descriptor.

        ``deadline_ns`` bounds the wait (None takes
        ``SimParams.op_deadline_ns``; 0 waits forever); expiry raises
        :class:`~repro.runtime.RuntimeTimeout`."""
        desc = yield from self.node.wait_for_message(deadline_ns=deadline_ns)
        return desc

    # ------------------------------------------------------- failure detection --
    def suspected_peers(self) -> List[int]:
        """Ranks the local NIC's heartbeat failure detector currently
        suspects crashed (empty when heartbeats are off)."""
        return self.node.nic.detector.suspected_peers()

    def peer_suspected(self, rank: int) -> bool:
        """Whether the local failure detector suspects ``rank`` crashed."""
        return self.node.nic.detector.is_suspected(rank)
