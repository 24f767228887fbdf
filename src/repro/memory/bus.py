"""The workstation memory bus.

The bus is the only data path between host memory and the network adaptor
board (Section 1: "the network interface device can access host memory
only via DMA ... there are no special memory bus control signals").

Two kinds of traffic matter to the model:

* **DMA transfers** between host memory and the board.  These hold the
  bus :class:`~repro.engine.Resource` for acquisition + per-word transfer
  time (Table 1: 4 cycles + 2 cycles/word at 25 MHz), so concurrent DMAs
  serialize.
* **CPU write traffic** (write-backs and flushes).  The CNI Message Cache
  *snoops* these: every page a write reaches is shown to the registered
  snoopers (Section 2.2, Consistency Snooping: the board snoops the
  write target into a page buffer).  CPU-side cycle costs for this
  traffic are charged analytically by the cache model; the bus only
  propagates the snoop visibility and counts words.

Who reduces lines to pages: a flush that lies in one page (every DSM
release flush) knows that page and passes it.  For any other traffic,
a buffer flush that spans pages or the dirty evictions of a cache
burst (which come in no guaranteed order), the bus reduces the lines
itself, and only when a snooper is registered.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Sequence

import numpy as np

from ..engine import Resource, Simulator
from ..obs import MetricsScope, SpanTracer, private_scope
from ..params import SimParams

#: A snooper receives ``(node_id, pages)`` for bus write traffic: the
#: distinct virtual pages written.
Snooper = Callable[[int, Sequence[int]], None]


class MemoryBus:
    """One node's memory bus: a serialized resource plus snoop fan-out."""

    def __init__(self, sim: Simulator, params: SimParams, node_id: int,
                 metrics: Optional[MetricsScope] = None,
                 spans: Optional[SpanTracer] = None):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self._resource = Resource(sim, f"bus{node_id}")
        self._span_source = f"bus{node_id}"
        self._snoopers: List[Snooper] = []
        self._lines_per_page = params.lines_per_page
        self.spans = spans
        self.dma_bytes = 0
        self.dma_transfers = 0
        self.writeback_words = 0
        self.snooped_writebacks = 0
        m = metrics if metrics is not None else private_scope()
        m.counter("dma_transfers", fn=lambda: self.dma_transfers)
        m.counter("dma_bytes", fn=lambda: self.dma_bytes)
        m.counter("snooped_writeback_words", fn=lambda: self.writeback_words)
        m.counter("snooped_writebacks", fn=lambda: self.snooped_writebacks)
        m.gauge("utilization_ns", fn=lambda: self.utilization_ns)

    # -- snooping -------------------------------------------------------------
    def add_snooper(self, snooper: Snooper) -> None:
        """Register a device that observes CPU write traffic (the CNI)."""
        self._snoopers.append(snooper)

    def cpu_write_traffic(self, lines: np.ndarray,
                          pages: Optional[Sequence[int]] = None) -> None:
        """CPU write-backs / flushes of ``lines`` reached the bus.

        Bus occupancy of this traffic is folded into the cache model's
        CPU cost; here we count words and let the snoopers watch the
        written pages (the essence of Section 2.2's mechanism: the
        interface "snoops out the target of the write from the bus").
        ``pages`` are the distinct pages of ``lines`` when the caller
        already knows them (a flush within one page); None makes the
        bus derive them.
        """
        if lines.size == 0:
            return
        self.snooped_writebacks += 1
        self.writeback_words += int(lines.size) * (
            self.params.cache_line_bytes // self.params.bus_word_bytes
        )
        if not self._snoopers:
            return
        if pages is None:
            pages = self._pages_of(lines)
        for snooper in self._snoopers:
            snooper(self.node_id, pages)

    def _pages_of(self, lines: np.ndarray) -> Sequence[int]:
        """Distinct pages of ``lines`` in any order (dirty evictions, or
        a flush that spans pages)."""
        per_page = self._lines_per_page
        lo = int(lines.min()) // per_page
        if lo == int(lines.max()) // per_page:
            return (lo,)
        return np.unique(lines // per_page).tolist()

    # -- DMA --------------------------------------------------------------------
    def dma_transfer_ns(self, nbytes: int) -> float:
        """Pure transfer time of a DMA of ``nbytes`` (no queueing)."""
        return self.params.dma_time_ns(nbytes)

    def dma(self, nbytes: int) -> Generator:
        """Coroutine: perform a DMA of ``nbytes`` across the bus.

        Holds the bus for the Table 1 acquisition + transfer time, FIFO
        behind other masters.  Direction does not change cost.
        """
        if nbytes < 0:
            raise ValueError(f"negative DMA size {nbytes}")
        self.dma_transfers += 1
        self.dma_bytes += nbytes
        if self.spans is not None:
            # Span covers queueing + transfer: the DMA latency a master
            # actually experiences, not just the wire time.
            handle = self.spans.begin(self._span_source, "dma", nbytes)
        res = self._resource
        if not res.try_acquire():
            yield from res.acquire()
        try:
            yield self.params.dma_time_ns(nbytes)
        finally:
            res.release()
        if self.spans is not None:
            self.spans.end(handle, detail=nbytes)
        return None

    @property
    def utilization_ns(self) -> float:
        """Total time the bus has been held by DMA masters."""
        return self._resource.total_hold_ns
