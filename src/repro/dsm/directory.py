"""Static home assignment for pages and locks.

LRC needs no page directory for fetches (write notices name the writer),
but two things still need a well-known home: the *initial* holder of a
page nobody has written yet, and the serializing manager of each lock.
The assignment policy is pluggable because it shifts load visibly at
small processor counts (all benchmarks default to round-robin, which is
what distributed-lock folklore and the SPLASH codes use).
"""

from __future__ import annotations

import bisect
from typing import Callable, List, Sequence, Tuple


class HomePolicy:
    """Maps page and lock ids to their home node."""

    def __init__(self, nprocs: int, scheme: str = "round_robin"):
        if nprocs < 1:
            raise ValueError("need at least one processor")
        if scheme not in ("round_robin", "block"):
            raise ValueError(f"unknown home scheme {scheme!r}")
        self.nprocs = nprocs
        self.scheme = scheme
        self._npages_hint = 0
        self._extents: List[Tuple[int, int]] = []
        self._extent_starts: List[int] = []
        #: Cached bulk home table (see :meth:`page_homes`); invalidated
        #: whenever the inputs of the mapping change.
        self._table: List[int] = []

    def set_page_count(self, npages: int) -> None:
        """Tell the block scheme how many pages exist."""
        self._npages_hint = npages
        self._table = []

    def set_allocations(self, extents: Sequence[Tuple[int, int]]) -> None:
        """Tell the block scheme where the allocations live.

        Each extent is ``(first_page, n_pages)``.  The block scheme then
        divides every *allocation* among the nodes — the distribution an
        SPMD program gets from first-touch initialization, so a
        block-partitioned array starts out home-owned by the node that
        will work on it (no cold redistribution storm).
        """
        self._extents = sorted((int(a), int(b)) for a, b in extents if b > 0)
        self._extent_starts = [a for a, _ in self._extents]
        self._table = []

    def page_home(self, page: int) -> int:
        """Home node of a shared page."""
        if page < 0:
            raise ValueError("negative page id")
        if self.scheme == "block":
            if self._extents:
                i = bisect.bisect_right(self._extent_starts, page) - 1
                if i >= 0:
                    first, count = self._extents[i]
                    if first <= page < first + count:
                        per = -(-count // self.nprocs)
                        return min((page - first) // per, self.nprocs - 1)
            if self._npages_hint:
                per = -(-self._npages_hint // self.nprocs)
                return min(page // per, self.nprocs - 1)
        return page % self.nprocs

    def page_homes(self, npages: int) -> List[int]:
        """Home nodes for pages ``0..npages-1``, computed in bulk.

        Agrees with :meth:`page_home` page-for-page but builds the whole
        table with range arithmetic instead of one Python call per page
        — the cluster hands this list to every node's
        :class:`~repro.dsm.NodePageTable`, so the (shared) policy pays
        the cost once instead of nodes × pages times.  The table is
        cached until :meth:`set_page_count` / :meth:`set_allocations`
        change the mapping.
        """
        if len(self._table) != npages:
            self._table = self._build_table(npages)
        return self._table

    def _build_table(self, npages: int) -> List[int]:
        n = self.nprocs
        if self.scheme != "block":
            # round_robin: tile one modulo period across the table.
            reps = -(-npages // n)
            return (list(range(n)) * reps)[:npages]
        if self._npages_hint:
            per = -(-self._npages_hint // n)
            table = [min(p // per, n - 1) for p in range(npages)]
        else:
            reps = -(-npages // n)
            table = (list(range(n)) * reps)[:npages]
        for first, count in self._extents:
            per = -(-count // n)
            stop = min(first + count, npages)
            for p in range(first, stop):
                if p >= 0:
                    table[p] = min((p - first) // per, n - 1)
        return table

    def lock_home(self, lock_id: int) -> int:
        """Managing node of a lock."""
        if lock_id < 0:
            raise ValueError("negative lock id")
        return lock_id % self.nprocs

    @property
    def barrier_manager(self) -> int:
        """The node that gathers barrier arrivals (centralized manager)."""
        return 0
