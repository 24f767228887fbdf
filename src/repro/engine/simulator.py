"""The discrete-event simulation kernel.

The kernel is a small cooperative-coroutine scheduler in the style of
execution-driven simulators (the paper used a modified Proteus):
simulated activities are Python generators that *actually execute* the
work they model and ``yield`` whenever simulated time must pass or a
synchronization must happen.

A process may yield:

* a ``float``/``int`` — advance simulated time by that many nanoseconds;
* an :class:`Event` — suspend until the event is triggered; the value the
  event was triggered with becomes the result of the ``yield``;
* another :class:`Process` — suspend until that process terminates (join);
  its return value becomes the result of the ``yield``.

Nested coroutines compose with plain ``yield from``.
"""

from __future__ import annotations

import heapq
import sys
import time
from functools import partial
from heapq import heappush
from typing import Any, Callable, Generator, List, Optional

from .event_queue import EventHandle, EventQueue


class SimulationError(RuntimeError):
    """An error raised by the simulation kernel."""


class StuckReport:
    """What was still waiting when the simulation stopped making progress.

    Produced by :meth:`Simulator.stuck_report` from the registered
    waiter probes (subsystems describe their own outstanding waits:
    pending rendezvous handshakes, open collective episodes, DSM page
    and lock waits).  A hang is a diagnosable failure, never silence.
    """

    def __init__(self, at_ns: float, waits: List[str]):
        self.at_ns = at_ns
        self.waits = list(waits)

    def format(self) -> str:
        if not self.waits:
            return f"no outstanding waits at t={self.at_ns} ns"
        lines = [f"outstanding waits at t={self.at_ns} ns:"]
        lines.extend(f"  - {w}" for w in self.waits)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StuckReport {len(self.waits)} waits at {self.at_ns} ns>"


class StuckError(SimulationError):
    """The event queue drained (or the wall budget expired) with
    processes still blocked.  Carries the :class:`StuckReport`; the
    message keeps the historical ``application deadlock: ...`` prefix."""

    def __init__(self, message: str, report: Optional[StuckReport] = None):
        if report is not None and report.waits:
            message = f"{message}\n{report.format()}"
        super().__init__(message)
        self.report = report


class Event:
    """A one-shot occurrence processes can wait on.

    Events follow the usual discrete-event idiom: any number of processes
    (or plain callbacks) may wait; :meth:`trigger` wakes them all at the
    current simulation instant (or ``delay`` ns later), passing ``value``.
    """

    __slots__ = ("sim", "_waiters", "triggered", "value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._waiters: List[Callable[[Any], None]] = []
        self.triggered = False
        self.value: Any = None

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)``; fires immediately if triggered."""
        if self.triggered:
            self.sim.call_soon(partial(callback, self.value))
        else:
            self._waiters.append(callback)

    def trigger(self, value: Any = None, delay: float = 0.0) -> None:
        """Fire the event, waking all waiters.

        Triggering twice is an error: events are one-shot by design so
        that lost-wakeup bugs fail loudly instead of silently re-running.
        """
        if self.triggered:
            raise SimulationError("event triggered twice")
        if delay:
            self.sim.schedule(delay, lambda: self.trigger(value))
            return
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for cb in waiters:
            self.sim.call_soon(partial(cb, value))


class Process:
    """A simulated activity: a generator driven by the kernel."""

    __slots__ = ("sim", "name", "_gen", "finished", "killed", "result",
                 "_done_event", "_wake")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "proc"):
        if not hasattr(gen, "send"):
            raise TypeError(f"process body must be a generator, got {gen!r}")
        self.sim = sim
        self.name = name
        self._gen = gen
        self.finished = False
        self.killed = False
        self.result: Any = None
        self._done_event = Event(sim)
        # The handle of this process's timed waits, reused from one wait
        # to the next: it sits in the heap only while the process sleeps.
        # kill() cancels it, so a stale heap entry is skimmed like any
        # cancelled handle.
        self._wake = EventHandle(None)

    # -- introspection -----------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else "running"
        return f"<Process {self.name} {state}>"

    @property
    def done_event(self) -> Event:
        """Event triggered (with the return value) when the process ends."""
        return self._done_event

    # -- kernel interface ----------------------------------------------------
    def _step(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        """Advance the generator one hop and dispatch on what it yields."""
        if self.finished:
            return  # a stale wakeup racing a kill(); the process is gone
        try:
            if exc is None:
                yielded = self._gen.send(value)
            else:
                yielded = self._gen.throw(exc)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self._done_event.trigger(stop.value)
            return
        if type(yielded) is float and yielded >= 0.0:
            # Timed wait, the common case: push the wake handle straight
            # onto the heap as ``Simulator.schedule`` would (priority 0,
            # next sequence number).  NaN fails the compare and takes
            # _dispatch, whose push raises on it.
            sim = self.sim
            queue = sim._queue
            wake = self._wake
            wake.callback = self._step
            seq = queue._seq
            queue._seq = seq + 1
            heappush(queue._heap, (sim._now + yielded, 0, seq, wake))
        else:
            self._dispatch(yielded)

    def _dispatch(self, yielded: Any) -> None:
        if isinstance(yielded, Event):
            yielded.wait(self._step)
        elif isinstance(yielded, Process):
            yielded.done_event.wait(self._step)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                self._step(exc=SimulationError(
                    f"process {self.name} yielded negative delay {yielded}"))
                return
            self._wake = self.sim.schedule(float(yielded), self._step)
        else:
            self._step(exc=SimulationError(
                f"process {self.name} yielded unsupported {yielded!r}"))

    def kill(self) -> None:
        """Terminate the process immediately (crash-stop semantics).

        The generator is closed (``finally`` blocks run, so resource
        state like ``app_blocked`` unwinds), the done event fires with
        ``None``, and any event wakeup still in flight is ignored.
        Killing a finished process is a no-op.
        """
        if self.finished:
            return
        self.finished = True
        self.killed = True
        self._wake.cancel()
        self._gen.close()
        self._done_event.trigger(None)


class Simulator:
    """Owns the clock and the pending-event set."""

    __slots__ = ("_queue", "_now", "_running",
                 "events_processed", "queue_len_hwm", "waiter_probes")

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        #: Events dispatched over the simulator's lifetime (all runs).
        self.events_processed = 0
        #: High-water mark of the pending-event set, sampled at dispatch.
        self.queue_len_hwm = 0
        #: Callables returning an iterable of outstanding-wait strings;
        #: subsystems register one each (see stuck_report()).
        self.waiter_probes: List[Callable[[], Any]] = []

    # -- time ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None], priority: int = 0):
        """Run ``callback`` after ``delay`` ns of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._queue.push(self._now + delay, callback, priority)

    def call_soon(self, callback: Callable[[], None]):
        """Run ``callback`` at the current instant, after pending events
        already scheduled for this instant."""
        return self._queue.push(self._now, callback, priority=1)

    def event(self) -> Event:
        """Create a fresh one-shot :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that triggers itself ``delay`` ns from now."""
        ev = Event(self)
        self.schedule(delay, lambda: ev.trigger(value))
        return ev

    def spawn(self, gen: Generator, name: str = "proc") -> Process:
        """Start a new process at the current instant."""
        proc = Process(self, gen, name=name)
        self.call_soon(proc._step)
        return proc

    # -- stuck diagnosis ------------------------------------------------------
    def add_waiter_probe(self, probe: Callable[[], Any]) -> None:
        """Register a probe describing a subsystem's outstanding waits.

        ``probe()`` returns an iterable of strings, one per pending wait
        (empty when quiescent).  Probes run only when a stuck report is
        requested — never on the hot path."""
        self.waiter_probes.append(probe)

    def stuck_report(self) -> StuckReport:
        """Snapshot every registered probe into a :class:`StuckReport`."""
        waits: List[str] = []
        for probe in self.waiter_probes:
            waits.extend(str(w) for w in probe())
        return StuckReport(self._now, waits)

    # -- main loop --------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None,
            wall_budget_s: Optional[float] = None) -> float:
        """Execute events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the final simulated time.

        ``wall_budget_s`` bounds *host* wall-clock time: the run stops
        (leaving the queue non-empty) once the budget expires — the
        quiescence watchdog's backstop against genuinely livelocked
        simulations.  The clock is read before the first event and then
        every 1024 events."""
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        # The dispatch loop works on the heap directly (the EventQueue
        # fast-path contract: `_heap` is never rebound, entries are
        # ``(time, priority, seq, handle)``; the handle may be a
        # process's reused wake handle, so clearing its callback at pop
        # also drops the bound ``Process._step`` it holds): one heappop
        # per event, hwm/fired accumulated in locals and written back
        # once.  One integer compare per event covers both
        # ``max_events`` and the wall-clock check: ``limit`` is the next
        # fired count at which either applies.  The engine test-suite
        # pins dispatch order, events_processed, queue_len_hwm sampling
        # and the `until` clamp rules against a reference ordering.
        stop = sys.maxsize if max_events is None else max_events
        if wall_budget_s is None:
            deadline = None
            limit = stop
        else:
            deadline = time.perf_counter() + wall_budget_s
            limit = 0
        heap = self._queue._heap
        heappop = heapq.heappop
        hwm = self.queue_len_hwm
        fired = 0
        try:
            while heap:
                entry = heap[0]
                if entry[3].cancelled:
                    heappop(heap)
                    if heap:
                        continue
                    break  # drained while skimming: no `until` clamp
                t = entry[0]
                if until is not None and t > until:
                    self._now = until
                    break
                if fired >= limit:
                    if fired >= stop or time.perf_counter() > deadline:
                        break
                    limit = min(fired + 1024, stop)
                qlen = len(heap)
                if qlen > hwm:
                    hwm = qlen
                heappop(heap)
                handle = entry[3]
                callback = handle.callback
                handle.callback = None
                assert t >= self._now, "time went backwards"
                self._now = t
                callback()
                fired += 1
            else:
                if until is not None:
                    self._now = max(self._now, until)
        finally:
            self._running = False
            self.events_processed += fired
            if hwm > self.queue_len_hwm:
                self.queue_len_hwm = hwm
        return self._now

    def run_process(self, gen: Generator, name: str = "main",
                    max_events: Optional[int] = None) -> Any:
        """Spawn ``gen`` and run until it finishes; return its result.

        Raises :class:`SimulationError` on deadlock (queue drained while
        the process is still waiting).
        """
        proc = self.spawn(gen, name=name)
        self.run(max_events=max_events)
        if not proc.finished:
            raise SimulationError(
                f"deadlock: process {name!r} never finished "
                f"(no pending events at t={self._now} ns)")
        return proc.result
