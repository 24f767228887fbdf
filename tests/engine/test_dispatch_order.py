"""Regression pins for the dispatch loop.

``Simulator.run`` pops the event heap directly and skims cancelled
entries itself.  These tests pin the visible contract of that loop
against a straight-line reference ordering: exact dispatch order under
randomized (seeded) schedules, cancellation-heavy queues, chained
delays and spawns after a chain, same-instant priority ties, the
``until``-clamp corner cases, ``max_events`` and the wall-clock budget.
"""

import random

import pytest

from repro.engine import Event, SimulationError, Simulator


def reference_order(entries):
    """Expected fire order: sort by (time, priority, seq), drop cancelled.

    This is the EventQueue ordering contract stated independently of the
    heap: a total order over (time, priority, insertion sequence).
    """
    live = [(t, prio, seq) for (t, prio, seq, cancelled) in entries
            if not cancelled]
    return [seq for (_t, _prio, seq) in sorted(live)]


def test_randomized_schedule_pops_in_reference_order():
    rng = random.Random(0xC41)
    for trial in range(5):
        sim = Simulator()
        got = []
        entries = []
        handles = []
        for seq in range(300):
            t = rng.choice([0.0, 1.0, 2.5, 2.5, 7.0, rng.uniform(0, 10)])
            prio = rng.choice([0, 0, 1])
            handles.append(sim._queue.push(
                t, (lambda s=seq: got.append(s)), priority=prio))
            entries.append([t, prio, seq, False])
        for i in rng.sample(range(300), 120):  # cancellation-heavy
            handles[i].cancel()
            entries[i][3] = True
        sim.run()
        expected = reference_order(entries)
        assert got == expected, f"trial {trial} diverged"
        assert sim.events_processed == len(expected)


def test_simulator_loop_matches_queue_pop_order():
    """The inline heap loop in Simulator.run dispatches exactly the
    (time, priority, sequence) order of the queue contract, skipping
    cancelled entries."""
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        sim = Simulator()
        fired = []
        entries = []
        handles = []
        for seq in range(200):
            t = rng.choice([0.0, 3.0, 3.0, rng.uniform(0, 20)])
            prio = rng.choice([0, 1])
            handles.append(sim._queue.push(
                t, (lambda s=seq: fired.append(s)), priority=prio))
            entries.append([t, prio, seq, False])
        for i in rng.sample(range(200), 80):
            handles[i].cancel()
            entries[i][3] = True
        sim.run()
        reference = reference_order(entries)
        assert fired == reference
        assert sim.events_processed == len(reference)


def test_chains_and_delayed_spawns_pop_in_reference_order():
    """A chain of delays is one timed wake at its fold, keyed
    ``(fold, 0, seq)`` like a bare delay's wake, with the sequence number
    of the yield; a spawn ``after`` a chain is that wake keyed by the
    spawn call, and killing it cancels the entry."""
    def fold(start, delays):
        t = start
        for d in delays:
            t = t + d
        return t

    for seed in (1, 2, 3):
        rng = random.Random(seed)

        def chain():
            return tuple(rng.choice([0.0, 0.1, 0.2, 0.3, 2.5,
                                     rng.uniform(0, 5)])
                         for _ in range(rng.randint(1, 3)))

        sim = Simulator()
        fired = []
        entries = []
        seq = 0
        # Callbacks: one entry each.
        for _ in range(80):
            t = fold(0.0, chain())
            prio = rng.choice([0, 1])
            sim._queue.push(t, (lambda s=seq: fired.append(s)),
                            priority=prio)
            entries.append([t, prio, seq, False])
            seq += 1
        # Processes spawned after a chain: one timed entry each, keyed by
        # the spawn; every third is killed before the run.
        for i in range(40):
            after = chain()

            def late(s=seq):
                fired.append(s)
                yield from ()

            proc = sim.spawn(late(), "late", after=after)
            if i % 3 == 0:
                proc.kill()
            entries.append([fold(0.0, after), 0, seq, i % 3 == 0])
            seq += 1
        # Processes spawned now that yield a chain: the spawn wake, then
        # the chain's wake, pushed when the spawn wake runs.  Callbacks
        # push nothing, so the spawn wakes run in spawn order and each
        # takes the next sequence number after all the spawns.  Each
        # chain ends after the instant 0 at which the spawn wakes run,
        # so every entry exists before anything at its instant pops.
        chains = [chain() + (0.5,) for _ in range(40)]
        for delays in chains:
            def body(s=seq, wake_seq=seq + len(chains), delays=delays):
                fired.append(s)
                yield delays
                fired.append(wake_seq)

            sim.spawn(body(), "chain")
            entries.append([0.0, 1, seq, False])
            seq += 1
        for delays in chains:
            entries.append([fold(0.0, delays), 0, seq, False])
            seq += 1
        sim.run()
        expected = reference_order(entries)
        assert fired == expected
        assert sim.events_processed == len(expected)


def test_same_instant_priority_orders_before_sequence():
    sim = Simulator()
    order = []
    # Scheduled later but priority 0 beats the earlier-scheduled
    # priority-1 (call_soon) entry at the same instant.
    sim._queue.push(5.0, lambda: order.append("soon"), priority=1)
    sim._queue.push(5.0, lambda: order.append("timer"), priority=0)
    sim._queue.push(5.0, lambda: order.append("soon2"), priority=1)
    sim.run()
    assert order == ["timer", "soon", "soon2"]


def test_cancellation_storm_inside_callbacks():
    """Callbacks cancelling not-yet-fired events mid-run never fire them
    and never disturb the order of the survivors."""
    sim = Simulator()
    order = []
    handles = {}

    def fire(name):
        order.append(name)
        victim = handles.get(f"victim-of-{name}")
        if victim is not None:
            victim.cancel()

    handles["a"] = sim.schedule(1.0, lambda: fire("a"))
    handles["victim-of-a"] = sim.schedule(2.0, lambda: fire("b"))
    handles["c"] = sim.schedule(3.0, lambda: fire("c"))
    handles["victim-of-c"] = sim.schedule(4.0, lambda: fire("d"))
    handles["e"] = sim.schedule(5.0, lambda: fire("e"))
    assert sim.run() == 5.0
    assert order == ["a", "c", "e"]
    assert sim.events_processed == 3


def test_until_clamps_when_queue_is_empty():
    sim = Simulator()
    assert sim.run(until=100.0) == 100.0


def test_until_clamps_when_events_lie_beyond():
    sim = Simulator()
    fired = []
    sim.schedule(250.0, lambda: fired.append(1))
    assert sim.run(until=100.0) == 100.0
    assert fired == []


def test_all_cancelled_queue_does_not_clamp_to_until():
    """Historical corner: a queue holding only cancelled entries drains
    mid-skim and the clock stays put (the empty-at-entry path clamps,
    this one never did — digests depend on the distinction)."""
    sim = Simulator()
    sim.schedule(10.0, lambda: None).cancel()
    sim.schedule(20.0, lambda: None).cancel()
    assert sim.run(until=100.0) == 0.0
    assert sim.events_processed == 0


def test_max_events_stops_without_consuming_the_next_event():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=2)
    assert fired == [0, 1]
    # The remaining events are untouched and fire on the next run.
    sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.events_processed == 5


def test_hwm_accumulates_across_runs():
    sim = Simulator()
    for i in range(8):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.queue_len_hwm == 8
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.queue_len_hwm == 8  # smaller second run never lowers it


def test_wall_budget_checks_the_clock_before_the_first_event():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert sim.run(wall_budget_s=-1.0) == 0.0
    assert sim.events_processed == 0 and len(sim._queue) == 1


def test_wall_budget_keeps_order_and_max_events():
    """A generous budget changes nothing: same order, and ``max_events``
    still stops at exactly its count across 1024-event clock checks."""
    sim = Simulator()
    fired = []
    for i in range(3000):
        sim.schedule(float(i % 7), lambda i=i: fired.append(i))
    sim.run(max_events=2500, wall_budget_s=60.0)
    assert len(fired) == 2500 and sim.events_processed == 2500
    sim.run(wall_budget_s=60.0)
    assert fired == sorted(range(3000), key=lambda i: (i % 7, i))


def test_run_until_earlier_than_the_clock_raises():
    """``until`` never moves the clock backwards: with events still
    pending, asking for an earlier stop is an error, and the clock
    stays where the first run left it."""
    sim = Simulator()
    sim.schedule(20.0, lambda: None)
    assert sim.run(until=12.0) == 12.0
    with pytest.raises(SimulationError, match="earlier"):
        sim.run(until=5.0)
    assert sim.now == 12.0
    assert sim.run(until=12.0) == 12.0
    assert sim.run() == 20.0 and sim.events_processed == 1


# -- process wake-ups -------------------------------------------------------


def test_event_woken_process_may_schedule_at_its_own_instant():
    """A process resumed by an event pushes a priority-0 entry for the
    same instant, which sorts ahead of the wake being dispatched; the
    callback still runs once, before the process's next timed wait."""
    sim = Simulator()
    ev = Event(sim)
    log = []

    def waiter():
        yield ev
        sim.schedule(0.0, lambda: log.append(("cb", sim.now)))
        yield 5.0
        log.append(("waiter", sim.now))

    sim.spawn(waiter(), "waiter")
    sim.schedule(10.0, ev.trigger)
    assert sim.run() == 15.0
    assert log == [("cb", 10.0), ("waiter", 15.0)]
    assert sim.events_processed == 5


def test_kill_after_the_event_wake_is_queued_skips_the_body():
    """An event wake already queued when its process is killed still
    pops (and counts) at that instant, but the body does not resume."""
    sim = Simulator()
    ev = Event(sim)
    resumed = []

    def waiter():
        yield ev
        resumed.append(sim.now)

    target = sim.spawn(waiter(), "waiter")

    def killer():
        yield 5.0
        ev.trigger("go")
        target.kill()

    sim.spawn(killer(), "killer")
    assert sim.run() == 5.0
    assert resumed == [] and target.killed
    assert sim.events_processed == 4


def test_kill_before_the_first_step_never_runs_the_body():
    sim = Simulator()
    ran = []

    def body():
        ran.append(sim.now)
        yield 1.0

    proc = sim.spawn(body(), "never")
    proc.kill()
    sim.run()
    assert ran == [] and proc.killed and proc.finished
    assert sim.events_processed == 1


def test_killed_event_waiter_is_not_resumed_by_a_later_trigger():
    """Killing a process blocked on an event wakes its joiner with
    ``None`` at once; the event firing later resumes nothing, and its
    wake of the dead process is still one counted event."""
    sim = Simulator()
    ev = Event(sim)
    log = []

    def waiter():
        yield ev
        log.append("resumed")

    target = sim.spawn(waiter(), "waiter")

    def joiner():
        value = yield target
        log.append((sim.now, value))

    def killer():
        yield 5.0
        target.kill()
        yield 1.0
        ev.trigger("late")

    sim.spawn(joiner(), "joiner")
    sim.spawn(killer(), "killer")
    assert sim.run() == 6.0
    assert log == [(5.0, None)]
    assert sim.events_processed == 7


def test_run_resumes_after_a_process_raised_out_of_it():
    """The wake that raised is consumed and not counted; the next run
    carries on with the other process."""
    sim = Simulator()
    done = []

    def broken():
        yield 5.0
        raise RuntimeError("app bug")

    def other():
        yield 10.0
        done.append(sim.now)

    sim.spawn(broken(), "broken")
    sim.spawn(other(), "other")
    with pytest.raises(RuntimeError, match="app bug"):
        sim.run()
    assert sim.now == 5.0 and sim.events_processed == 2
    assert sim.run() == 10.0
    assert done == [10.0] and sim.events_processed == 3
