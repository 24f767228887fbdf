"""Keyed waits of the application thread on remote protocol replies.

The paper's application thread blocks on remote protocol replies (page
fetches, lock grants, barrier releases) while the protocol serves them
in Application Interrupt Handlers on the board (Sections 2.3 and 3).
The DSM, collective and messaging engines all block it that way, so
each owns one :class:`Waits` table:

* a wait is opened under a key before its request leaves, so no reply
  can beat it (a collective release may, and is parked for the wait);
* each reply wakes it once, and the last reply owed resumes the thread;
* a deadline bounds the blocked stretch.  An expired wait is abandoned:
  the replies it still owes drain silently when they land late, and one
  reply more is still a spurious wake.

What differs per engine stays with the engine: the typed error a
timeout raises and the text of its stuck report.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from .simulator import Event, SimulationError

#: What :meth:`Waits.wait` returns when the deadline fired first; never
#: a protocol reply.
TIMEOUT = object()


class Waits:
    """One engine's table of keyed application-thread waits.

    ``node`` is the platform surface the engines already call (``sim``,
    ``node_id``, ``app_blocked``, ``account_delay``, ``account_overhead``
    and ``nic.rx_wake_overhead_ns``); ``label`` names the engine in
    errors.
    """

    def __init__(self, node, label: str):
        self.node = node
        self.sim = node.sim
        self.label = label
        #: Open waits: key -> [event, replies still owed].
        self._open: Dict[Any, list] = {}
        #: Deliveries that arrived before their wait opened: key -> value.
        self._parked: Dict[Any, Any] = {}
        #: Waits abandoned at their deadline: key -> replies still owed.
        self._late: Dict[Any, int] = {}

    def register(self, key, replies: int = 1) -> Event:
        """Open a wait on ``key`` that completes after ``replies`` wakes;
        returns the event to pass to :meth:`wait`."""
        if key in self._open:
            raise SimulationError(
                f"node {self.node.node_id}: duplicate {self.label} wait "
                f"on {key}")
        event = self.sim.event()
        self._open[key] = [event, replies]
        return event

    def wake(self, key, value: Any = None) -> None:
        """One reply for ``key``; the last one owed resumes the thread
        with ``value``.  A reply nobody waits for, and that no abandoned
        wait still owes, raises."""
        entry = self._open.get(key)
        if entry is None:
            if self.late(key):
                return
            raise SimulationError(
                f"node {self.node.node_id}: spurious {self.label} wake "
                f"of {key}")
        entry[1] -= 1
        if entry[1] <= 0:
            del self._open[key]
            entry[0].trigger(value)

    def deliver(self, key, value: Any) -> None:
        """A reply that may arrive before its wait opens (a collective
        release racing its receiver): wake the wait, or park ``value``
        for :meth:`wait` to return."""
        if key in self._open:
            self.wake(key, value)
        else:
            self._parked[key] = value

    def late(self, key) -> bool:
        """Consume one late reply of a wait abandoned at its deadline;
        False when ``key`` owes none."""
        left = self._late.get(key)
        if left is None:
            return False
        if left <= 1:
            del self._late[key]
        else:
            self._late[key] = left - 1
        return True

    def wait(self, key, event: Event, deadline_ns: float) -> Generator:
        """Block the application thread on ``key``'s ``event``.

        A value :meth:`deliver` parked returns at once and charges
        nothing.  Otherwise the blocked stretch is synch delay, and a
        reply also costs the interface's wake overhead.  A deadline
        ``deadline_ns > 0`` abandons the wait when it fires: the result
        is then :data:`TIMEOUT`, with no wake charged, and the caller
        raises its own typed error.
        """
        if key in self._parked:
            del self._open[key]
            return self._parked.pop(key)
        timer = None
        if deadline_ns > 0:
            timer = self.sim.schedule(deadline_ns, lambda: self._expire(key))
        node = self.node
        t0 = self.sim.now
        node.app_blocked = True
        try:
            value = yield event
        finally:
            node.app_blocked = False
        if timer is not None and value is not TIMEOUT:
            timer.cancel()
        node.account_delay(self.sim.now - t0)
        if value is TIMEOUT:
            return TIMEOUT
        wake_ns = node.nic.rx_wake_overhead_ns()
        yield wake_ns
        node.account_overhead(wake_ns)
        return value

    def _expire(self, key) -> None:
        """Deadline timer: abandon the wait (no-op if the last reply won
        the race) and resume the thread with :data:`TIMEOUT`."""
        entry = self._open.pop(key, None)
        if entry is None:
            return
        self._late[key] = entry[1]
        entry[0].trigger(TIMEOUT)

    def keys(self) -> List[Any]:
        """Keys of the open waits (stuck reports, quiescence checks)."""
        return list(self._open)

    def parked_keys(self) -> List[Any]:
        """Keys of deliveries still parked with no wait to take them."""
        return list(self._parked)
