"""AAL5-style segmentation and reassembly (SAR).

The paper's closing analysis (Table 5) blames the 53-byte ATM cell: every
large transfer pays per-cell segmentation and reassembly work on the
33 MHz NI processor.  This module makes that cost explicit and provides
the "mythical networking technology ... with unlimited cell size" as the
``unrestricted_cell_size`` parameter (one cell per packet, no SAR
overhead beyond the fixed per-packet work).  Reassembly costs the same
per-cell work as segmentation, so both sides of the wire price it with
:meth:`Segmenter.sar_time_ns`.
"""

from __future__ import annotations

from typing import Dict

from ..params import SimParams
from .cell import CellTrain, Packet


class Segmenter:
    """Turns packets into cell trains and prices the SAR work."""

    def __init__(self, params: SimParams):
        self.params = params
        #: wire_bytes -> cell count.  Packet sizes cluster tightly (page
        #: transfers, diffs, a handful of control sizes), so the
        #: arithmetic in ``cells_for_packet`` is paid once per distinct
        #: size instead of once per packet.  Safe because SimParams is
        #: frozen for the lifetime of a run.
        self._cell_count_cache: Dict[int, int] = {}
        #: n_cells -> NI-processor SAR nanoseconds (same reasoning).
        self._sar_ns_cache: Dict[int, float] = {}

    def cell_count(self, packet: Packet) -> int:
        """Number of cells ``packet`` occupies on the wire."""
        wire = packet.wire_bytes
        n = self._cell_count_cache.get(wire)
        if n is None:
            n = self.params.cells_for_packet(wire)
            self._cell_count_cache[wire] = n
        return n

    def make_train(self, packet: Packet) -> CellTrain:
        """Batched segmentation: the form the simulated network carries."""
        return CellTrain(packet, self.cell_count(packet))

    def sar_time_ns(self, n_cells: int) -> float:
        """NI-processor time to segment (or reassemble) ``n_cells``.

        With unrestricted cells the per-cell loop collapses to a single
        iteration, which is exactly how Table 5's improvement arises.
        """
        t = self._sar_ns_cache.get(n_cells)
        if t is None:
            t = self.params.ni_cycles_ns(
                self.params.ni_cell_sar_cycles * n_cells)
            self._sar_ns_cache[n_cells] = t
        return t
