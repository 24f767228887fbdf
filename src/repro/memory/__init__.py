"""Host memory-system models: caches, bus, MMU.

The constraints of Section 1 are embedded here: the board reaches host
memory only through :class:`MemoryBus` DMA, there are no custom cache
signals, and the board sees CPU stores only as snoopable bus write
traffic.
"""

from .address import AddressSpace, check_power_of_two
from .bus import MemoryBus, Snooper
from .cache import (
    AccessCost,
    BurstResult,
    CacheHierarchy,
    CacheLevel,
    ReferenceCache,
)
from .mmu import BoardTLB, HostMMU, TranslationError

__all__ = [
    "AccessCost",
    "AddressSpace",
    "BoardTLB",
    "BurstResult",
    "CacheHierarchy",
    "CacheLevel",
    "HostMMU",
    "MemoryBus",
    "ReferenceCache",
    "Snooper",
    "TranslationError",
    "check_power_of_two",
]
