"""Unit tests for Resource, Mailbox and Gate."""

import pytest

from repro.engine import Gate, Mailbox, Resource, Simulator


def test_resource_mutual_exclusion_and_fifo():
    sim = Simulator()
    bus = Resource(sim, "bus")
    log = []

    def user(tag, hold):
        yield from bus.acquire()
        log.append(("acq", tag, sim.now))
        yield hold
        bus.release()
        log.append(("rel", tag, sim.now))

    sim.spawn(user("a", 10.0), "a")
    sim.spawn(user("b", 5.0), "b")
    sim.spawn(user("c", 1.0), "c")
    sim.run()
    assert log == [
        ("acq", "a", 0.0),
        ("rel", "a", 10.0),
        ("acq", "b", 10.0),
        ("rel", "b", 15.0),
        ("acq", "c", 15.0),
        ("rel", "c", 16.0),
    ]
    assert bus.acquisitions == 3
    assert bus.total_hold_ns == 16.0
    assert not bus.busy


def test_resource_try_acquire_takes_only_a_free_resource():
    sim = Simulator()
    r = Resource(sim, "r")
    log = []

    def holder():
        yield 5.0
        assert r.try_acquire()
        assert r.busy and r.acquisitions == 1
        log.append(("acq", "holder", sim.now))
        yield 10.0
        r.release()
        # handed over to the first waiter: still busy, no barging
        assert not r.try_acquire()

    def waiter(tag, at):
        yield at
        before = (r.busy, r.acquisitions, r.queue_length, r.total_hold_ns)
        assert not r.try_acquire()
        # a refused try_acquire changes nothing
        assert (r.busy, r.acquisitions, r.queue_length,
                r.total_hold_ns) == before
        yield from r.acquire()
        log.append(("acq", tag, sim.now))
        yield 1.0
        r.release()

    sim.spawn(holder(), "holder")
    sim.spawn(waiter("a", 6.0), "a")
    sim.spawn(waiter("b", 7.0), "b")
    sim.run()
    assert log == [
        ("acq", "holder", 5.0),
        ("acq", "a", 15.0),
        ("acq", "b", 16.0),
    ]
    assert r.acquisitions == 3
    assert r.total_hold_ns == 12.0
    assert not r.busy


def test_release_of_free_resource_raises():
    sim = Simulator()
    r = Resource(sim, "r")
    with pytest.raises(RuntimeError):
        r.release()


def test_mailbox_put_then_get():
    sim = Simulator()
    mb = Mailbox(sim, "mb")
    mb.put("x")

    def getter():
        v = yield from mb.get()
        return (v, sim.now)

    assert sim.run_process(getter()) == ("x", 0.0)


def test_mailbox_get_blocks_until_put():
    sim = Simulator()
    mb = Mailbox(sim, "mb")

    def getter():
        v = yield from mb.get()
        return (v, sim.now)

    def putter():
        yield 33.0
        mb.put("late")

    sim.spawn(putter(), "putter")
    assert sim.run_process(getter(), "getter") == ("late", 33.0)


def test_mailbox_fifo_across_getters():
    sim = Simulator()
    mb = Mailbox(sim, "mb")
    got = []

    def getter(tag):
        v = yield from mb.get()
        got.append((tag, v))

    sim.spawn(getter("g1"), "g1")
    sim.spawn(getter("g2"), "g2")

    def putter():
        yield 5.0
        mb.put(1)
        mb.put(2)

    sim.spawn(putter(), "putter")
    sim.run()
    assert got == [("g1", 1), ("g2", 2)]


def test_mailbox_try_get_polling():
    sim = Simulator()
    mb = Mailbox(sim, "mb")
    ok, item = mb.try_get()
    assert not ok and item is None
    mb.put(9)
    ok, item = mb.try_get()
    assert ok and item == 9
    assert len(mb) == 0


def test_mailbox_peek():
    sim = Simulator()
    mb = Mailbox(sim)
    assert mb.peek() is None
    mb.put("head")
    mb.put("tail")
    assert mb.peek() == "head"
    assert len(mb) == 2


def test_gate_broadcast_and_rearm():
    sim = Simulator()
    g = Gate(sim, "irq")
    woke = []

    def waiter(tag):
        v = yield from g.wait()
        woke.append((tag, v, sim.now))
        v = yield from g.wait()
        woke.append((tag, v, sim.now))

    sim.spawn(waiter("a"), "a")
    sim.spawn(waiter("b"), "b")

    def driver():
        yield 10.0
        assert g.notify("first") == 2
        yield 10.0
        assert g.notify("second") == 2

    sim.spawn(driver(), "driver")
    sim.run()
    assert woke == [
        ("a", "first", 10.0),
        ("b", "first", 10.0),
        ("a", "second", 20.0),
        ("b", "second", 20.0),
    ]


def test_gate_notify_with_no_waiters():
    sim = Simulator()
    g = Gate(sim)
    assert g.notify() == 0
