"""Unit tests for the pending-event set, drained through ``Simulator.run``
(the only consumer of the queue)."""

import pytest

from repro.engine import EventQueue, Simulator


def test_orders_by_time():
    sim = Simulator()
    fired = []
    sim._queue.push(5.0, lambda: fired.append("b"))
    sim._queue.push(1.0, lambda: fired.append("a"))
    sim._queue.push(9.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9.0


def test_stable_order_for_simultaneous_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim._queue.push(3.0, lambda i=i: fired.append(i))
    sim.run()
    assert fired == list(range(10))


def test_priority_breaks_ties_before_sequence():
    sim = Simulator()
    fired = []
    sim._queue.push(1.0, lambda: fired.append("later"), priority=1)
    sim._queue.push(1.0, lambda: fired.append("first"), priority=0)
    sim.run()
    assert fired == ["first", "later"]


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    h = sim._queue.push(1.0, lambda: fired.append("cancelled"))
    sim._queue.push(2.0, lambda: fired.append("kept"))
    h.cancel()
    sim.run()
    assert sim.events_processed == 1
    assert fired == ["kept"]
    assert not sim._queue


def test_nan_time_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.push(float("nan"), lambda: None)


def test_len_and_bool():
    q = EventQueue()
    assert not q and len(q) == 0
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None).cancel()
    # Cancelled entries stay queued until the dispatch loop skims them.
    assert q and len(q) == 2


def test_cancel_idempotent():
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    h.cancel()
    h.cancel()
    assert h.cancelled
    assert h.callback is None
