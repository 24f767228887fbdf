"""Per-node shared-page state and the cluster-wide segment store.

Data vs. state: the *values* of shared memory live once, in the
:class:`SharedSegment`'s numpy buffer.  Because all our applications are
properly synchronized (and the simulation kernel is sequential), reads
through the global buffer return exactly what a real replicated DSM
would return — DESIGN.md section 6 discusses this standard
execution-driven trick.  What each node keeps privately is the page
*state machine* that generates the protocol's traffic and costs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..memory import AddressSpace
from .interval import WriteNotice


class PageState(enum.Enum):
    """Access rights of a node's copy of one shared page."""

    INVALID = "invalid"
    """No usable copy; any access faults and fetches."""

    VALID_RO = "valid_ro"
    """Clean copy; reads are free, the first write twins the page."""

    WRITABLE = "writable"
    """Twinned copy being written in the current interval."""


class PageMeta:
    """One node's view of one shared page.

    A plain ``__slots__`` class rather than a dataclass: one instance
    exists per (node, page) over the whole shared address space, so
    construction cost and per-instance memory are on the cluster-build
    hot path.

    Attributes:

    * ``state`` — the :class:`PageState` of this node's copy.
    * ``source`` — best-known holder of a current copy (the latest
      writer we have a notice from, or the page's home before anyone
      wrote it).
    * ``ever_valid`` — whether this node has ever held a copy (first
      access fetches a full page; later refreshes can fetch diffs).
    * ``pending_diffs`` — unapplied foreign writes:
      ``(proc, seq) -> modified_bytes``.  A page with pending diffs and
      a surviving local copy fetches just the diffs; a page gone
      INVALID refetches in full.
    * ``twin_live`` — whether a twin exists for the current interval
      (first-write bookkeeping).
    """

    __slots__ = ("state", "source", "ever_valid", "pending_diffs",
                 "twin_live")

    def __init__(self, state: PageState = PageState.INVALID,
                 source: int = 0, ever_valid: bool = False,
                 pending_diffs: Optional[Dict[Tuple[int, int], int]] = None,
                 twin_live: bool = False):
        self.state = state
        self.source = source
        self.ever_valid = ever_valid
        self.pending_diffs: Dict[Tuple[int, int], int] = (
            {} if pending_diffs is None else pending_diffs)
        self.twin_live = twin_live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PageMeta(state={self.state}, source={self.source}, "
                f"ever_valid={self.ever_valid}, "
                f"pending_diffs={self.pending_diffs}, "
                f"twin_live={self.twin_live})")


class NodePageTable:
    """All shared-page metadata for one node.

    ``home_of`` may be a callable (``page -> home node``) or a
    pre-computed sequence of homes indexed by page — the cluster path
    passes :meth:`repro.dsm.HomePolicy.page_homes`'s bulk table so the
    65k-page default address space is not walked through a Python call
    per page at every node construction.
    """

    def __init__(self, npages: int, home_of, self_id: int):
        if callable(home_of):
            self._homes = [home_of(p) for p in range(npages)]
        else:
            self._homes = home_of
        #: Lazily materialized metadata: pages the node never touches
        #: (the vast majority of the statically reserved address space)
        #: never get a PageMeta at all.  An absent entry means "the
        #: default state": INVALID, sourced from the page's home — or
        #: VALID_RO when the page is homed here and :meth:`seed_homes`
        #: has run.
        self._meta: Dict[int, PageMeta] = {}
        self._homes_seeded = False
        self.self_id = self_id
        self.npages = npages
        #: Pages made WRITABLE since the last interval close; lets
        #: :meth:`end_interval_downgrade` touch only written pages
        #: instead of scanning the whole (mostly idle) address space.
        self._written: Set[int] = set()

    def __getitem__(self, page: int) -> PageMeta:
        m = self._meta.get(page)
        if m is None:
            home = self._homes[page]
            m = PageMeta(source=home)
            if self._homes_seeded and home == self.self_id:
                m.state = PageState.VALID_RO
                m.ever_valid = True
            self._meta[page] = m
        return m

    def seed_homes(self, homes: Sequence[int]) -> None:
        """Install the final home table and seed initial validity.

        Pages homed on this node start VALID_RO (they are "born" in
        this node's memory); everything else faults on first touch.
        Called by the protocol engine once allocations are final —
        the home table may differ from construction time because the
        block scheme divides the *allocated* pages among the nodes.
        Already-materialized metadata is re-seeded; everything else is
        captured by the lazy default in :meth:`__getitem__`.
        """
        self._homes = homes
        self._homes_seeded = True
        me = self.self_id
        for page, m in self._meta.items():
            home = homes[page]
            m.source = home
            if home == me:
                m.state = PageState.VALID_RO
                m.ever_valid = True

    def pages_in_state(self, state: PageState) -> List[int]:
        """All pages currently in ``state`` (diagnostics, tests)."""
        out = [i for i, m in self._meta.items() if m.state == state]
        if state in (PageState.INVALID, PageState.VALID_RO):
            out.extend(i for i in range(self.npages)
                       if i not in self._meta
                       and self._virtual_state(i) == state)
        return sorted(out)

    def _virtual_state(self, page: int) -> PageState:
        """State a not-yet-materialized page would have."""
        if self._homes_seeded and self._homes[page] == self.self_id:
            return PageState.VALID_RO
        return PageState.INVALID

    def end_interval_downgrade(self) -> List[int]:
        """Close the interval: WRITABLE pages drop their twin and become
        VALID_RO (their writes are now published via notices).  Returns
        the downgraded pages (in page order)."""
        out = []
        meta = self._meta
        for i in sorted(self._written):
            m = meta[i]
            if m.state == PageState.WRITABLE:
                m.state = PageState.VALID_RO
                m.twin_live = False
                out.append(i)
        self._written.clear()
        return out

    def apply_notices(self, notices: Iterable[WriteNotice]) -> None:
        """Process foreign write notices (the lazy-invalidate action),
        typically one interval's.

        The local copy — if one exists — is never destroyed: a node that
        has ever held the page can always reconstruct it by applying the
        pending writers' diffs in causal order (multiple-writer LRC).
        A notice makes the copy *stale*: accesses fault until the owed
        modifications are fetched (as diffs, or as a whole page when most
        of it changed — see the engine's fault policy).  The notice's
        writer becomes the page's fetch source.  Notices of this node's
        own writes never invalidate the local copy and are skipped.
        """
        me = self.self_id
        meta = self._meta
        for n in notices:
            proc = n.proc
            if proc == me:
                continue
            m = meta.get(n.page)
            if m is None:
                m = self[n.page]
            m.source = proc
            m.pending_diffs[(proc, n.seq)] = n.modified_bytes

    def install_full_copy(self, page: int) -> None:
        """A full page arrived: all pending foreign writes are subsumed."""
        m = self[page]
        m.state = PageState.VALID_RO
        m.ever_valid = True
        m.pending_diffs.clear()

    def apply_diffs(self, page: int, intervals: List[Tuple[int, int]]) -> None:
        """Diff replies for ``intervals`` arrived and were applied."""
        m = self[page]
        for key in intervals:
            m.pending_diffs.pop(key, None)

    def make_writable(self, page: int) -> None:
        """First write of the interval: twin created, write access on."""
        m = self[page]
        if m.state == PageState.INVALID:
            raise ValueError(f"page {page}: cannot write an invalid copy")
        m.state = PageState.WRITABLE
        m.twin_live = True
        m.ever_valid = True
        self._written.add(page)


class SharedSegment:
    """The cluster-wide shared address space and its authoritative data.

    Allocation is page-granular and bump-pointer (the paper statically
    reserves a fixed portion of the address space for DSM).  Arrays are
    allocated page-aligned so that false sharing between *different*
    arrays never muddies an experiment unless asked for.
    """

    def __init__(self, address_space: AddressSpace):
        self.asp = address_space
        self.page_size = address_space.page_size
        #: Virtual address of page 0: page ``p`` starts ``p * page_size``
        #: above it.
        self.base_vaddr = address_space.dsm_base
        self.npages = address_space.dsm_bytes // self.page_size
        self._next_page = 0
        self._buffers: List[np.ndarray] = []
        #: (first_page, n_pages) of every allocation, in order.
        self.extents: List[Tuple[int, int]] = []

    def alloc(self, shape, dtype=np.float64) -> "SharedAlloc":
        """Allocate a page-aligned shared array."""
        arr = np.zeros(shape, dtype=dtype)
        nbytes = int(arr.nbytes)
        pages = max(1, -(-nbytes // self.page_size))
        if self._next_page + pages > self.npages:
            raise MemoryError(
                f"DSM segment exhausted: need {pages} pages, "
                f"{self.npages - self._next_page} free"
            )
        first = self._next_page
        self._next_page += pages
        self._buffers.append(arr)
        self.extents.append((first, pages))
        return SharedAlloc(self, arr, first, pages, self.page_vaddr(first))

    @property
    def pages_allocated(self) -> int:
        """Pages handed out so far."""
        return self._next_page

    def page_vaddr(self, page: int) -> int:
        """Virtual address of a DSM page (same on every node: SPMD)."""
        return self.asp.shared_page_addr(page)


@dataclass
class SharedAlloc:
    """One allocation inside the shared segment."""

    segment: SharedSegment
    data: np.ndarray
    first_page: int
    n_pages: int
    base_vaddr: int
    """Virtual base address of the allocation."""

    def byte_offset_to_page(self, offset: int) -> int:
        """DSM page index containing byte ``offset`` of this allocation."""
        if not 0 <= offset < self.n_pages * self.segment.page_size:
            raise ValueError(f"offset {offset} outside allocation")
        return self.first_page + offset // self.segment.page_size
