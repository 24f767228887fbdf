"""Address translation: host page tables and the board's TLB/RTLB.

Section 2.2: "There is also a TLB and a RTLB which keeps mappings between
host virtual and physical memory addresses and permits virtually
addressed DMA operations."  The host MMU owns the authoritative virtual
to physical page map; the board keeps a (complete, host-maintained)
mirror: the TLB answers virtual->physical for DMA, the RTLB answers
physical->virtual so the consistency snooper can turn a snooped physical
write target back into the virtual buffer it belongs to.
"""

from __future__ import annotations

from typing import Dict, Optional


class TranslationError(KeyError):
    """A translation was requested for an unmapped page."""


class HostMMU:
    """The host page table for one node (page-granular, identity-free).

    Physical frames are allocated sequentially on first touch, which
    deliberately de-correlates physical from virtual numbers: the RTLB's
    reverse map is doing real work, not an identity.
    """

    def __init__(self, page_size: int):
        if page_size <= 0:
            raise ValueError("page size must be positive")
        self.page_size = page_size
        self._v2p: Dict[int, int] = {}
        self._p2v: Dict[int, int] = {}
        self._next_frame = 0x1000  # arbitrary nonzero base

    def map_page(self, vpage: int) -> int:
        """Ensure ``vpage`` is mapped; return its physical frame."""
        frame = self._v2p.get(vpage)
        if frame is None:
            frame = self._next_frame
            self._next_frame += 1
            self._v2p[vpage] = frame
            self._p2v[frame] = vpage
        return frame

    def unmap_page(self, vpage: int) -> None:
        """Remove the mapping for ``vpage`` (page recycled)."""
        frame = self._v2p.pop(vpage, None)
        if frame is not None:
            del self._p2v[frame]

    def translate_v2p(self, vpage: int) -> int:
        """Virtual page -> physical frame; raises if unmapped."""
        try:
            return self._v2p[vpage]
        except KeyError:
            raise TranslationError(f"vpage {vpage} unmapped") from None

    def translate_p2v(self, frame: int) -> Optional[int]:
        """Physical frame -> virtual page; None if unmapped."""
        return self._p2v.get(frame)

    def __len__(self) -> int:
        return len(self._v2p)


class BoardTLB:
    """The adaptor board's TLB + RTLB mirror of the host page table.

    The host OS pushes mapping updates to the board at map/unmap time
    (connection setup installs the buffers), so lookups on the board
    never fault — exactly the property the paper wants: no page faults on
    the network interface (Section 2.3).
    """

    def __init__(self, host: HostMMU):
        self.host = host
        self._host = host
        self._v2p: Dict[int, int] = {}
        self._p2v: Dict[int, int] = {}
        self.lookups = 0
        self.reverse_lookups = 0

    def install(self, vpage: int) -> None:
        """Mirror the host mapping of ``vpage`` onto the board."""
        frame = self._host.translate_v2p(vpage)
        self._v2p[vpage] = frame
        self._p2v[frame] = vpage

    def evict(self, vpage: int) -> None:
        """Remove ``vpage`` from the board mirror."""
        frame = self._v2p.pop(vpage, None)
        if frame is not None:
            self._p2v.pop(frame, None)

    def translate_v2p(self, vpage: int) -> int:
        """TLB lookup for virtually-addressed DMA."""
        self.lookups += 1
        try:
            return self._v2p[vpage]
        except KeyError:
            raise TranslationError(f"board TLB miss for vpage {vpage}") from None

    def rtlb_p2v(self, frame: int) -> Optional[int]:
        """RTLB lookup: snooped physical frame -> host virtual page.

        Returns None when the frame belongs to no installed buffer — the
        snoop is then aborted (Section 2.2 step 3).
        """
        self.reverse_lookups += 1
        return self._p2v.get(frame)

    def __contains__(self, vpage: int) -> bool:
        return vpage in self._v2p

    def __len__(self) -> int:
        return len(self._v2p)
