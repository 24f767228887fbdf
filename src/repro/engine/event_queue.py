"""A deterministic pending-event set.

The queue orders callbacks by ``(time, priority, sequence)``.  The
sequence number makes ordering total and deterministic: two events
scheduled for the same instant fire in scheduling order, which keeps
simulation runs reproducible (a property the test-suite relies on).

This sits at the bottom of every simulated nanosecond, so the
implementation is tuned for the dispatch loop: ``__slots__`` on the
queue and handles, a plain integer sequence counter, and heap entries
that are built exactly once per event.  The rest of ``repro.engine``
reaches into ``_heap`` and ``_seq`` directly under one contract:
``_heap`` is never rebound, entries are ``(time, priority, seq,
handle)``, and every push takes the next ``_seq``.  Two places rely on
it.  The simulator's main loop skims cancelled entries itself and pays
one ``heappop`` per event.  ``Process._step`` pushes a timed wait
straight onto the heap, with a handle the process reuses for all its
timed waits (its callback is rebound at each push and cleared by the
loop at each pop).  The queue itself therefore only schedules:
``push``, ``len`` and ``bool``.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple


class EventHandle:
    """Handle returned by :meth:`EventQueue.push`; supports cancellation."""

    __slots__ = ("cancelled", "callback")

    def __init__(self, callback: Optional[Callable[[], None]]):
        self.callback = callback
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
        handle = EventHandle(callback)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, handle))
        return handle
