"""A deterministic pending-event set.

The queue orders entries by ``(time, priority, sequence)``.  The
sequence number makes ordering total and deterministic: two events
scheduled for the same instant fire in scheduling order, which keeps
simulation runs reproducible (a property the test-suite relies on).
Priority 0 is a timed event; priority 1 (``call_soon``, a spawn, an
event wake) runs after the timed events of its instant.

This sits at the bottom of every simulated nanosecond, so the
implementation is tuned for the dispatch loop: ``__slots__`` on the
queue and handles, a plain integer sequence counter, and heap entries
that are built exactly once per event.  The rest of ``repro.engine``
reaches into ``_heap`` and ``_seq`` directly under one contract:
``_heap`` is never rebound, entries are ``(time, priority, seq,
handle)``, and every push takes the next ``_seq``.

A handle is an :class:`EventHandle`, a callback that
``Simulator.schedule`` and ``call_soon`` push through
:meth:`EventQueue.push`, or a ``Process``, the handle of its own
wake-ups: a spawn and an event or join wake push it at priority 1
(``Simulator.spawn``, ``Event.trigger``), a timed wait or a chain of
delays at priority 0 (the dispatch loop; a spawn ``after`` a chain).
A process has at most one entry in the heap.

``Simulator.run`` is the only consumer.  It skims cancelled entries
itself, pops a callback's entry before running it, and resumes a
process's generator directly.  A priority-0 process entry stays at the
heap root while the body runs: every push the body makes sorts after
it (its time is the current instant or later, and at the same instant
it has priority 1 or a later sequence number), so the next timed wait
replaces the root with one ``heapreplace``.  A priority-1 entry is
popped before the body runs, because a priority-0 push for the same
instant would sort ahead of it.  ``Process.kill`` rewrites its pending
timed entry in place under the same key, which keeps the heap ordered.
The queue itself therefore only schedules: ``push``, ``len`` and
``bool``.
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
