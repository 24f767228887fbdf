"""Address-space layout and the power-of-two check.

All addresses in the simulator are plain Python ints (byte addresses in a
node's virtual or physical address space); callers reduce them to lines
and pages with integer division by the line and page sizes.
"""

from __future__ import annotations


def check_power_of_two(value: int, what: str) -> None:
    """Raise ValueError unless ``value`` is a positive power of two."""
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{what} must be a positive power of two, got {value}")


class AddressSpace:
    """A node's virtual address layout.

    The paper allocates "a fixed portion of the processor address space
    to distributed shared memory" (Section 3); private data sits below
    it.  Layout::

        [0, dsm_base)                         private segment
        [dsm_base, dsm_base + dsm_bytes)      shared (DSM) segment
    """

    def __init__(self, page_size: int, dsm_pages: int,
                 private_pages: int = 16384):
        check_power_of_two(page_size, "page size")
        if dsm_pages <= 0 or private_pages <= 0:
            raise ValueError("segment sizes must be positive")
        self.page_size = page_size
        self.private_base = 0
        self.private_bytes = private_pages * page_size
        self.dsm_base = self.private_bytes
        self.dsm_bytes = dsm_pages * page_size

    @property
    def dsm_limit(self) -> int:
        """One past the last shared byte."""
        return self.dsm_base + self.dsm_bytes

    def shared_page_addr(self, dsm_page: int) -> int:
        """Virtual base address of DSM page ``dsm_page``."""
        if not 0 <= dsm_page < self.dsm_bytes // self.page_size:
            raise ValueError(f"DSM page {dsm_page} out of range")
        return self.dsm_base + dsm_page * self.page_size
