"""Differential tests of the chained-delay yield.

A process may yield a tuple of delays: one wake, at the float that
yielding them one by one reaches, ``((now + d1) + d2) ...``.  These
tests run a chain against the same delays yielded one at a time, from
random start times, and require identical floats: for the wake, for a
``spawn`` after the chain, for the error a bad element raises, and for
what a kill during the chained wait leaves counted.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Event, SimulationError, Simulator

#: Delays as the model makes them: Table 1 constants, serialization
#: multiples, and arbitrary non-negative floats, ints and numpy floats.
DELAYS = st.one_of(
    st.sampled_from([0.0, 150.0, 500.0, 681.7, 3 * 681.7, 0.1, 0.2, 0.3]),
    st.floats(0.0, 1e7, allow_nan=False, allow_infinity=False),
    st.integers(0, 10**6),
    st.floats(0.0, 1e4, allow_nan=False).map(np.float64),
)
STARTS = st.one_of(
    st.sampled_from([0.0, 0.1, 1e-3]),
    st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
)
CHAINS = st.lists(DELAYS, min_size=1, max_size=5).map(tuple)


def bits(x):
    """A float's bit pattern, so -0.0/0.0 or a last-place difference
    cannot compare equal."""
    return struct.pack("<d", x)


def one_by_one(start, delays):
    """Where a process that sleeps to ``start`` and then yields each delay
    on its own wakes."""
    sim = Simulator()
    woke = []

    def body():
        yield start
        for d in delays:
            yield d
        woke.append(sim.now)

    sim.spawn(body(), "ref")
    sim.run()
    return woke[0]


def chained(start, delays):
    sim = Simulator()
    woke = []

    def body():
        yield start
        yield delays
        woke.append(sim.now)

    sim.spawn(body(), "chain")
    sim.run()
    return woke[0], sim.events_processed


def spawned_after(start, delays):
    sim = Simulator()
    woke = []

    def child():
        woke.append(sim.now)
        yield from ()

    def parent():
        yield start
        sim.spawn(child(), "child", after=delays)

    sim.spawn(parent(), "parent")
    sim.run()
    return woke[0]


def test_association_matters_for_the_example_below():
    """The pinned example is one where summing the chain first rounds
    differently: a chain must not wake at ``now + (d1 + d2)``."""
    now, d1, d2 = 0.1, 0.2, 0.3
    assert (now + d1) + d2 != now + (d1 + d2)


@settings(max_examples=300, deadline=None)
@given(start=STARTS, delays=CHAINS)
@example(start=0.1, delays=(0.2, 0.3))
@example(start=0.1, delays=(0.2,))
@example(start=150.0, delays=(150.0, 500.0))
def test_chain_wakes_where_one_by_one_yields_wake(start, delays):
    woke, events = chained(start, delays)
    assert bits(woke) == bits(one_by_one(start, delays))
    # The spawn, the sleep to the start, the chain: one wake for it.
    assert events == 3


@settings(max_examples=200, deadline=None)
@given(start=STARTS, delays=CHAINS)
@example(start=0.1, delays=(0.2, 0.3))
def test_spawn_after_a_chain_wakes_at_the_same_float(start, delays):
    assert bits(spawned_after(start, delays)) == \
        bits(one_by_one(start, delays))


# -- bad elements -------------------------------------------------------------

BAD = st.sampled_from([-1.0, -1, -1e-300, float("-inf"), float("nan"),
                       "x", None])


def outcome(payload):
    """What yielding ``payload`` does: the error thrown back into the
    process, or raised out of ``run``, as ``(where, type, message)``."""
    sim = Simulator()
    seen = []

    def body():
        try:
            yield payload
        except SimulationError as exc:
            seen.append(("thrown", type(exc), str(exc)))

    sim.spawn(body(), "p")
    try:
        sim.run()
    except (SimulationError, ValueError) as exc:
        seen.append(("raised", type(exc), str(exc)))
    return seen


@settings(max_examples=150, deadline=None)
@given(bad=BAD, before=st.lists(DELAYS, max_size=3),
       after=st.lists(st.one_of(DELAYS, BAD), max_size=3))
def test_a_bad_element_fails_as_it_does_bare(bad, before, after):
    """The first bad element of a chain gives exactly the error that
    element gives yielded on its own (NaN included, whose push raises
    out of the run); elements after it are never looked at."""
    chain = tuple(before) + (bad,) + tuple(after)
    got = outcome(chain)
    assert got == outcome(bad)
    assert len(got) == 1


@pytest.mark.parametrize("bad", [-1.0, float("nan"), "x"])
def test_spawn_after_a_bad_chain_raises_at_the_call(bad):
    sim = Simulator()

    def body():
        yield 1.0

    want = outcome(bad)[0]
    with pytest.raises(want[1]) as info:
        sim.spawn(body(), "p", after=(1.0, bad))
    assert str(info.value) == want[2]


def test_an_empty_tuple_is_not_a_delay():
    assert outcome(()) == [
        ("thrown", SimulationError, "process p yielded unsupported ()")]

    def body():
        yield 1.0

    with pytest.raises(SimulationError, match=r"unsupported \(\)"):
        Simulator().spawn(body(), "p", after=())


def test_a_chain_holds_delays_only():
    """Neither a chain nor an event nests inside a chain."""
    assert outcome((1.0, (2.0,))) == [
        ("thrown", SimulationError, "process p yielded unsupported (2.0,)")]
    ev = Event(Simulator())
    assert outcome((ev, 1.0)) == [
        ("thrown", SimulationError, f"process p yielded unsupported {ev!r}")]


# -- kills ------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(delays=st.lists(st.floats(1.0, 1e3), min_size=2, max_size=4),
       at=st.floats(0.0, 0.99))
def test_kill_during_a_chained_wait_leaves_no_counted_event(delays, at):
    """A process killed while its chain runs is skimmed: the run counts
    the two spawns and the killer's wait, as for a bare timed wait."""
    sim = Simulator()
    ran = []

    def sleeper():
        yield tuple(delays)
        ran.append(sim.now)

    def killer(target):
        yield at * sum(delays)
        target.kill()

    target = sim.spawn(sleeper(), "sleeper")
    sim.spawn(killer(target), "killer")
    sim.run()
    assert target.killed and ran == []
    assert sim.events_processed == 3
    assert not sim._queue


def test_kill_before_a_delayed_spawn_leaves_no_counted_event():
    sim = Simulator()
    ran = []

    def body():
        ran.append(sim.now)
        yield 1.0

    proc = sim.spawn(body(), "late", after=(150.0, 500.0))
    done = proc.done_event
    proc.kill()
    assert done.triggered and done.value is None
    assert sim.run() == 0.0
    assert ran == [] and sim.events_processed == 0


def test_a_delayed_spawn_can_be_joined():
    sim = Simulator()

    def child():
        yield 1.0
        return sim.now

    def parent():
        value = yield sim.spawn(child(), "child", after=(2.0, 3.0))
        return value, sim.now

    assert sim.run_process(parent()) == (6.0, 6.0)


def test_chain_after_an_event_wake():
    """A chain yielded right after an event wake (a priority-1 entry,
    popped before the body runs) is pushed like a bare delay."""
    sim = Simulator()
    ev = Event(sim)
    woke = []

    def waiter():
        yield ev
        yield 0.1, 0.2
        woke.append(sim.now)

    sim.spawn(waiter(), "w")
    sim.schedule(5.0, ev.trigger)
    sim.run()
    assert woke == [(5.0 + 0.1) + 0.2]
