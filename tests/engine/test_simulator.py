"""Unit tests for the coroutine kernel."""

import gc
import weakref

import numpy as np
import pytest

from repro.engine import Event, Process, SimulationError, Simulator


def test_delay_advances_time():
    sim = Simulator()

    def proc():
        yield 100.0
        assert sim.now == 100.0
        yield 50
        return sim.now

    assert sim.run_process(proc()) == 150.0


def test_zero_delay_allowed():
    sim = Simulator()

    def proc():
        yield 0.0
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_negative_delay_raises_inside_process():
    sim = Simulator()

    def proc():
        with pytest.raises(SimulationError):
            yield -1.0
        return "survived"

    assert sim.run_process(proc()) == "survived"


def test_event_wait_and_trigger_value():
    sim = Simulator()
    ev = sim.event()
    log = []

    def waiter():
        v = yield ev
        log.append((sim.now, v))
        return v

    def firer():
        yield 40.0
        ev.trigger("payload")

    sim.spawn(firer(), "firer")
    result = sim.run_process(waiter(), "waiter")
    assert result == "payload"
    assert log == [(40.0, "payload")]


def test_event_already_triggered_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.trigger(7)

    def proc():
        v = yield ev
        return (sim.now, v)

    assert sim.run_process(proc()) == (0.0, 7)


def test_event_double_trigger_is_error():
    sim = Simulator()
    ev = sim.event()
    ev.trigger()
    with pytest.raises(SimulationError):
        ev.trigger()


def test_timeout_event():
    sim = Simulator()

    def proc():
        v = yield sim.timeout(25.0, "tick")
        return (sim.now, v)

    assert sim.run_process(proc()) == (25.0, "tick")


def test_join_process_gets_return_value():
    sim = Simulator()

    def child():
        yield 10.0
        return 42

    def parent():
        c = sim.spawn(child(), "child")
        v = yield c
        return (sim.now, v)

    assert sim.run_process(parent()) == (10.0, 42)


def test_join_finished_process():
    sim = Simulator()

    def child():
        yield 1.0
        return "done"

    def parent():
        c = sim.spawn(child(), "child")
        yield 100.0
        v = yield c  # already finished
        return v

    assert sim.run_process(parent()) == "done"


def test_join_running_finished_and_killed_processes():
    """A joiner gets a running process's result when it ends, a finished
    one's result at once, and None from a killed one, whether its done
    event was built before or after the end."""
    sim = Simulator()

    def child(tag, delay):
        yield delay
        return tag

    running = sim.spawn(child("running", 50.0), "running")
    finished = sim.spawn(child("finished", 1.0), "finished")
    killed = sim.spawn(child("killed", 1000.0), "killed")
    killed_late = sim.spawn(child("killed-late", 1000.0), "killed-late")
    got = []

    def joiner(proc, at):
        yield at
        got.append((proc.name, (yield proc), sim.now))

    def killer():
        yield 20.0
        killed.kill()
        killed_late.kill()

    sim.spawn(joiner(running, 10.0), "j1")
    sim.spawn(joiner(finished, 10.0), "j2")
    sim.spawn(joiner(killed, 10.0), "j3")   # waiting when the kill lands
    sim.spawn(killer(), "killer")
    sim.spawn(joiner(killed_late, 30.0), "j4")  # joins after the kill
    sim.run()
    assert sorted(got) == [("finished", "finished", 10.0),
                           ("killed", None, 20.0),
                           ("killed-late", None, 30.0),
                           ("running", "running", 50.0)]


def test_unjoined_process_builds_no_done_event():
    sim = Simulator()

    def body():
        yield 1.0
        return 7

    proc = sim.spawn(body(), "lonely")
    sim.run()
    assert proc.finished and proc.result == 7
    assert proc._done_event is None
    # A late read still sees the end, with the result.
    ev = proc.done_event
    assert ev.triggered and ev.value == 7
    assert proc.done_event is ev


def test_yield_from_composition():
    sim = Simulator()

    def inner():
        yield 5.0
        return "inner-result"

    def outer():
        v = yield from inner()
        yield 5.0
        return (v, sim.now)

    assert sim.run_process(outer()) == ("inner-result", 10.0)


def test_deadlock_detected():
    sim = Simulator()
    ev = sim.event()

    def proc():
        yield ev  # nobody will trigger

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(proc())


def test_yield_garbage_raises():
    sim = Simulator()

    def proc():
        yield "not a valid thing"

    with pytest.raises(SimulationError):
        sim.run_process(proc())


def test_kill_during_timed_wait_leaves_no_counted_event():
    sim = Simulator()

    def sleeper():
        yield 1000.0

    def killer(target):
        yield 10.0
        target.kill()

    target = sim.spawn(sleeper(), "sleeper")
    sim.spawn(killer(target), "killer")
    assert sim.run() == 10.0
    assert target.killed and target.finished
    assert sim.events_processed == 3  # two spawns and the killer's wait
    assert not sim._queue


def test_int_and_numpy_delays_keep_a_float_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield 3
        seen.append((sim.now, type(sim.now)))
        yield np.float64(2.5)
        seen.append((sim.now, type(sim.now)))

    sim.run_process(proc())
    assert seen == [(3.0, float), (5.5, float)]


def test_nan_delay_raises_out_of_run():
    sim = Simulator()

    def proc():
        yield float("nan")

    sim.spawn(proc(), "nan")
    with pytest.raises(ValueError, match="NaN"):
        sim.run()


def test_finished_process_is_released_without_the_cycle_collector():
    """The simulator keeps no reference to a process once it has
    finished, so its generator is freed by reference counting alone."""
    sim = Simulator()

    def body():
        yield 1.0
        yield sim.timeout(1.0)

    gen = body()
    ref = weakref.ref(gen)
    sim.spawn(gen, "short-lived")
    del gen
    gc.disable()
    try:
        sim.run()
        assert ref() is None
    finally:
        gc.enable()


def test_simultaneous_events_run_in_spawn_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield 10.0
        order.append(tag)

    for tag in "abc":
        sim.spawn(proc(tag), tag)
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock():
    sim = Simulator()

    def proc():
        yield 100.0
        yield 100.0

    sim.spawn(proc(), "p")
    t = sim.run(until=150.0)
    assert t == 150.0
    # finishing the run completes the process
    sim.run()
    assert sim.now == 200.0


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_many_processes_determinism():
    def build():
        sim = Simulator()
        log = []

        def proc(i):
            yield float(i % 7)
            log.append(i)
            yield float(i % 3)
            log.append(-i)

        for i in range(50):
            sim.spawn(proc(i), f"p{i}")
        sim.run()
        return log

    assert build() == build()


def test_exception_in_process_propagates_to_run():
    sim = Simulator()

    def broken():
        yield 5.0
        raise RuntimeError("app bug")

    sim.spawn(broken(), "broken")
    with pytest.raises(RuntimeError, match="app bug"):
        sim.run()


def test_exception_leaves_clock_at_failure_time():
    sim = Simulator()

    def broken():
        yield 7.0
        raise RuntimeError("boom")

    sim.spawn(broken(), "broken")
    try:
        sim.run()
    except RuntimeError:
        pass
    assert sim.now == 7.0
