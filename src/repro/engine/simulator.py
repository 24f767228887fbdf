"""The discrete-event simulation kernel.

The kernel is a small cooperative-coroutine scheduler in the style of
execution-driven simulators (the paper used a modified Proteus):
simulated activities are Python generators that *actually execute* the
work they model and ``yield`` whenever simulated time must pass or a
synchronization must happen.

A process may yield:

* a ``float``/``int`` — advance simulated time by that many nanoseconds;
* a non-empty ``tuple`` of delays — a chain of back-to-back delays with
  one wake, at ``((now + d1) + d2) ...``: the instant, to the last
  rounding, that yielding them one by one reaches (never ``now + (d1 +
  d2)``, which can round differently);
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
from typing import Any, Callable, Generator, List, Optional, Union

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
    current simulation instant, passing ``value``.  To fire later, use
    :meth:`Simulator.timeout`.
    """

    __slots__ = ("sim", "_waiters", "triggered", "value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # Processes blocked on the event (the dispatch loop registers
        # them) and callbacks registered through wait(), in order.
        self._waiters: List[Union["Process", Callable[[Any], None]]] = []
        self.triggered = False
        self.value: Any = None

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)``; fires immediately if triggered."""
        if self.triggered:
            self.sim.call_soon(partial(callback, self.value))
        else:
            self._waiters.append(callback)

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking all waiters.

        Triggering twice is an error: events are one-shot by design so
        that lost-wakeup bugs fail loudly instead of silently re-running.
        """
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        sim = self.sim
        queue = sim._queue
        now = sim.now
        for waiter in waiters:
            if waiter.__class__ is Process:
                # The process is its own heap entry; the loop sends the
                # parked value in.
                waiter._value = value
                seq = queue._seq
                queue._seq = seq + 1
                heappush(queue._heap, (now, 1, seq, waiter))
            else:
                sim.call_soon(partial(waiter, value))


class Process:
    """A simulated activity: a generator driven by the kernel.

    A process is the heap handle of its own wake-ups (see
    :mod:`repro.engine.event_queue`): it has at most one entry in the
    heap at a time, and :meth:`Simulator.run` resumes its generator
    directly when that entry comes up.
    """

    __slots__ = ("sim", "name", "_gen", "finished", "killed", "result",
                 "_done_event", "_value")

    #: Heap entries are skimmed when their handle is cancelled; a
    #: process's own entry never is (kill() swaps a timed one out).
    cancelled = False

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "proc"):
        if not hasattr(gen, "send"):
            raise TypeError(f"process body must be a generator, got {gen!r}")
        self.sim = sim
        self.name = name
        self._gen = gen
        self.finished = False
        self.killed = False
        self.result: Any = None
        # Built at the first join: most processes (every train's fabric
        # walk) are never joined.
        self._done_event: Optional[Event] = None
        # What the next spawn or event wake sends into the generator;
        # the dispatch loop takes it (and clears it) at the wake.
        self._value: Any = None

    # -- introspection -----------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else "running"
        return f"<Process {self.name} {state}>"

    @property
    def done_event(self) -> Event:
        """Event triggered (with the return value, ``None`` after a kill)
        when the process ends; built at the first read."""
        ev = self._done_event
        if ev is None:
            ev = self._done_event = Event(self.sim)
            if self.finished:
                ev.triggered = True
                ev.value = self.result
        return ev

    # -- kernel interface ----------------------------------------------------
    def _finish(self, result: Any) -> None:
        """The generator returned ``result``.  A killed process's closed
        generator ends at its next wake; that wake is a no-op."""
        if self.finished:
            return
        self.finished = True
        self.result = result
        if self._done_event is not None:
            self._done_event.trigger(result)

    def _dispatch(self, yielded: Any) -> None:
        """Route a yield the dispatch loop does not take inline: a
        triggered event, a join, a non-float delay or chain, or a bad
        yield.  The process has no heap entry when this runs."""
        sim = self.sim
        if isinstance(yielded, Process):
            yielded = yielded.done_event
        if isinstance(yielded, Event):
            if yielded.triggered:
                self._value = yielded.value
                sim._push(sim.now, 1, self)
            else:
                yielded._waiters.append(self)
        elif isinstance(yielded, (int, float)) or yielded.__class__ is tuple:
            try:
                wake = self._wake_after(yielded)
            except SimulationError as exc:
                error = exc
            else:
                sim._push(wake, 0, self)  # a NaN delay raises here
                return
            self._step(error)
        else:
            self._step(SimulationError(
                f"process {self.name} yielded unsupported {yielded!r}"))

    def _wake_after(self, delays: Any) -> float:
        """The instant ``delays`` (one delay, or a tuple of them) end:
        ``((now + d1) + d2) ...``, the roundings of yielding them one by
        one.  The first bad element raises the error it raises yielded
        bare; a NaN element ends the fold with NaN, which the push
        refuses."""
        if delays.__class__ is tuple:
            if not delays:
                raise SimulationError(
                    f"process {self.name} yielded unsupported ()")
        else:
            delays = (delays,)
        wake = self.sim.now
        for d in delays:
            if d.__class__ is not float or not d >= 0.0:
                if not isinstance(d, (int, float)):
                    raise SimulationError(
                        f"process {self.name} yielded unsupported {d!r}")
                if d < 0:
                    raise SimulationError(
                        f"process {self.name} yielded negative delay {d}")
                d = float(d)
                if d != d:
                    return d
            wake += d
        return wake

    def _step(self, exc: BaseException) -> None:
        """Throw a bad yield's error back into the generator and route
        whatever it yields next."""
        try:
            yielded = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._dispatch(yielded)

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
        # A pending timed wake is skimmed, never counted: swap the entry
        # for a cancelled handle under the same key, so the heap stays
        # ordered.  A spawn or event wake stays and counts as one event
        # when it pops (the closed generator stops at once), as does the
        # wake of an event this process was blocked on, if it fires.
        heap = self.sim._queue._heap
        for i, entry in enumerate(heap):
            if entry[3] is self:
                if not entry[1]:
                    handle = EventHandle(None)
                    handle.cancel()
                    heap[i] = (entry[0], 0, entry[2], handle)
                break
        self._gen.close()
        if self._done_event is not None:
            self._done_event.trigger(None)


class Simulator:
    """Owns the clock and the pending-event set.

    ``now`` is the current simulated time in nanoseconds, a plain
    attribute: the dispatch loop sets it, and nothing else may.
    """

    __slots__ = ("_queue", "now", "_running",
                 "events_processed", "queue_len_hwm", "waiter_probes")

    def __init__(self) -> None:
        self._queue = EventQueue()
        self.now = 0.0
        self._running = False
        #: Events dispatched over the simulator's lifetime (all runs).
        self.events_processed = 0
        #: High-water mark of the pending-event set, sampled at dispatch.
        self.queue_len_hwm = 0
        #: Callables returning an iterable of outstanding-wait strings;
        #: subsystems register one each (see stuck_report()).
        self.waiter_probes: List[Callable[[], Any]] = []

    # -- scheduling -----------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None], priority: int = 0):
        """Run ``callback`` after ``delay`` ns of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._queue.push(self.now + delay, callback, priority)

    def call_soon(self, callback: Callable[[], None]):
        """Run ``callback`` at the current instant, after pending events
        already scheduled for this instant."""
        return self._queue.push(self.now, callback, priority=1)

    def event(self) -> Event:
        """Create a fresh one-shot :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that triggers itself ``delay`` ns from now."""
        ev = Event(self)
        self.schedule(delay, lambda: ev.trigger(value))
        return ev

    def spawn(self, gen: Generator, name: str = "proc",
              after: Any = None) -> Process:
        """Start a new process at the current instant, or, with ``after``
        (a delay or a tuple of delays), with a timed wake at the end of
        that chain: the float a body that began by yielding ``after``
        would wake at, in sequence order from this call.  A bad delay
        raises here the error it raises yielded."""
        proc = Process(self, gen, name=name)
        if after is None:
            self._push(self.now, 1, proc)
        else:
            self._push(proc._wake_after(after), 0, proc)
        return proc

    def _push(self, time: float, priority: int, proc: Process) -> None:
        """Queue a wake-up of ``proc`` (the heap entry is the process)."""
        if time != time:  # NaN guard, as EventQueue.push
            raise ValueError("event time is NaN")
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        heappush(queue._heap, (time, priority, seq, proc))

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
        return StuckReport(self.now, waits)

    # -- main loop --------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None,
            wall_budget_s: Optional[float] = None) -> float:
        """Execute events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the final simulated time.

        ``until`` earlier than the clock raises :class:`SimulationError`:
        the clock never runs backwards.

        ``wall_budget_s`` bounds *host* wall-clock time: the run stops
        (leaving the queue non-empty) once the budget expires — the
        quiescence watchdog's backstop against genuinely livelocked
        simulations.  The clock is read before the first event and then
        every 1024 events."""
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until}) is earlier than the clock "
                f"(t={self.now} ns)")
        self._running = True
        # The loop works on the heap directly, under the EventQueue
        # contract (`_heap` is never rebound; entries are ``(time,
        # priority, seq, handle)`` and each push takes the next `_seq`).
        # A handle is an EventHandle, whose callback is cleared at the
        # pop, or a Process, whose generator the loop resumes itself:
        # with None after a timed wait or a spawn ``after`` a chain
        # (priority 0), with the parked value after a spawn or event
        # wake (priority 1).  A priority-0 entry stays at the root while
        # the body runs — every push the body makes sorts after it — so
        # the next timed wait replaces it with one heapreplace.  A
        # priority-1 entry is popped first: a priority-0 push for the
        # same instant would sort ahead of it.
        # hwm/fired live in locals and are written back once.  One
        # integer compare per event covers both ``max_events`` and the
        # wall-clock check: ``limit`` is the next fired count at which
        # either applies.  The engine test-suite pins dispatch order,
        # events_processed, queue_len_hwm sampling, the wake and kill
        # rules and the `until` clamp against a reference ordering.
        stop = sys.maxsize if max_events is None else max_events
        if wall_budget_s is None:
            deadline = None
            limit = stop
        else:
            deadline = time.perf_counter() + wall_budget_s
            limit = 0
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        hwm = self.queue_len_hwm
        fired = 0
        try:
            while heap:
                entry = heap[0]
                handle = entry[3]
                if handle.cancelled:
                    heappop(heap)
                    if heap:
                        continue
                    break  # drained while skimming: no `until` clamp
                t = entry[0]
                if until is not None and t > until:
                    self.now = until
                    break
                if fired >= limit:
                    if fired >= stop or time.perf_counter() > deadline:
                        break
                    limit = min(fired + 1024, stop)
                qlen = len(heap)
                if qlen > hwm:
                    hwm = qlen
                assert t >= self.now, "time went backwards"
                self.now = t
                if handle.__class__ is not Process:
                    heappop(heap)
                    callback = handle.callback
                    handle.callback = None
                    callback()
                    fired += 1
                    continue
                root = not entry[1]
                if root:
                    value = None
                else:
                    heappop(heap)
                    value = handle._value
                    handle._value = None
                try:
                    yielded = handle._gen.send(value)
                except StopIteration as end:
                    if root:
                        heappop(heap)
                    handle._finish(end.value)
                    fired += 1
                    continue
                except BaseException:
                    if root:
                        heappop(heap)  # the raising wake is consumed
                    raise
                if yielded.__class__ is float and yielded >= 0.0:
                    # A timed wait, the common case.  NaN fails the
                    # compare and takes _dispatch, whose push raises.
                    wake = t + yielded
                elif yielded.__class__ is tuple and yielded:
                    # A chain of delays: one wake, with each partial sum
                    # rounded as its own yield would round it.  A chain
                    # of anything but non-negative floats takes
                    # _dispatch.
                    wake = t
                    for d in yielded:
                        if d.__class__ is not float or not d >= 0.0:
                            wake = None
                            break
                        wake += d
                else:
                    wake = None
                if wake is not None:
                    seq = queue._seq
                    queue._seq = seq + 1
                    if root:
                        heapreplace(heap, (wake, 0, seq, handle))
                    else:
                        heappush(heap, (wake, 0, seq, handle))
                else:
                    if root:
                        heappop(heap)
                    if yielded.__class__ is Event and not yielded.triggered:
                        yielded._waiters.append(handle)
                    else:
                        handle._dispatch(yielded)
                fired += 1
            else:
                if until is not None:
                    self.now = until  # never behind the clock (checked above)
        finally:
            self._running = False
            self.events_processed += fired
            if hwm > self.queue_len_hwm:
                self.queue_len_hwm = hwm
        return self.now

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
                f"(no pending events at t={self.now} ns)")
        return proc.result
