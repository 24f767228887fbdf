"""A deterministic pending-event set.

The queue orders callbacks by ``(time, priority, sequence)``.  The
sequence number makes ordering total and deterministic: two events
scheduled for the same instant fire in scheduling order, which keeps
simulation runs reproducible (a property the test-suite relies on).

This sits at the bottom of every simulated nanosecond, so the
implementation is tuned for the dispatch loop: ``__slots__`` on the
queue and handles, a plain integer sequence counter, and heap entries
that are built exactly once per event.  The simulator's main loop
reaches into ``_heap`` directly (same package, documented contract:
``_heap`` is never rebound, entries are ``(time, priority, seq,
handle)``), skims cancelled entries itself, and pays one ``heappop``
per event.  The queue therefore only schedules: ``push``, ``len`` and
``bool``.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple


class EventHandle:
    """Handle returned by :meth:`EventQueue.push`; supports cancellation."""

    __slots__ = ("time", "cancelled", "callback")

    def __init__(self, time: float, callback: Callable[[], None]):
        self.time = time
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call repeatedly."""
        self.cancelled = True
        self.callback = None  # release references early


class EventQueue:
    """A binary-heap pending event set with stable, deterministic order."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, EventHandle]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` at ``time``; lower ``priority`` runs first
        among simultaneous events.  Returns a cancellable handle."""
        if time != time:  # NaN guard
            raise ValueError("event time is NaN")
        handle = EventHandle(time, callback)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, handle))
        return handle
