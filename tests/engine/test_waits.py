"""The wait table the DSM, collective and messaging engines share:
replies, parked deliveries, deadlines and the ledger of abandoned waits."""

import pytest

from repro.engine import SimulationError, Simulator
from repro.engine.waits import TIMEOUT, Waits

WAKE_NS = 7.0


class FakeNic:
    def rx_wake_overhead_ns(self):
        return WAKE_NS


class FakeNode:
    """The platform surface a wait table uses, logging its charges."""

    def __init__(self, sim):
        self.sim = sim
        self.node_id = 0
        self.nic = FakeNic()
        self.app_blocked = False
        self.delay = []
        self.overhead = []

    def account_delay(self, ns):
        self.delay.append(ns)

    def account_overhead(self, ns):
        self.overhead.append(ns)


def make():
    sim = Simulator()
    node = FakeNode(sim)
    return sim, node, Waits(node, "test")


def test_wait_resumes_on_the_last_of_several_replies():
    sim, node, waits = make()
    event = waits.register("k", replies=3)
    for t, value in ((10.0, "a"), (20.0, "b"), (30.0, "c")):
        sim.schedule(t, lambda value=value: waits.wake("k", value))
    blocked = []
    sim.schedule(5.0, lambda: blocked.append(node.app_blocked))

    def thread():
        value = yield from waits.wait("k", event, 100.0)
        return value, sim.now

    assert sim.run_process(thread()) == ("c", 30.0 + WAKE_NS)
    assert blocked == [True] and not node.app_blocked
    assert node.delay == [30.0] and node.overhead == [WAKE_NS]
    # The reply beat the deadline: the timer is cancelled, nothing owed.
    assert sim.now == 30.0 + WAKE_NS
    assert waits.keys() == [] and not waits.late("k")


def test_abandoned_wait_drains_exactly_the_replies_it_owed():
    sim, node, waits = make()
    event = waits.register("k", replies=3)
    sim.schedule(10.0, lambda: waits.wake("k"))

    def thread():
        value = yield from waits.wait("k", event, 50.0)
        return value, sim.now

    assert sim.run_process(thread()) == (TIMEOUT, 50.0)
    assert not node.app_blocked
    assert node.delay == [50.0] and node.overhead == []
    assert waits.keys() == []
    waits.wake("k")
    assert waits.late("k")
    with pytest.raises(SimulationError, match="spurious test wake of k"):
        waits.wake("k")


def test_parked_delivery_returns_at_once_without_charges():
    sim, node, waits = make()

    def thread():
        yield 3.0
        value = yield from waits.wait("k", waits.register("k"), 100.0)
        return value, sim.now

    waits.deliver("k", 42)
    assert waits.parked_keys() == ["k"]
    assert sim.run_process(thread()) == (42, 3.0)
    assert node.delay == [] and node.overhead == []
    assert waits.keys() == [] and waits.parked_keys() == []
    # No deadline timer was left behind.
    assert sim.now == 3.0


def test_delivery_to_an_open_wait_wakes_it():
    _, _, waits = make()
    event = waits.register("k")
    waits.deliver("k", 5)
    assert event.triggered and event.value == 5
    assert waits.keys() == [] and waits.parked_keys() == []


def test_duplicate_register_raises():
    _, _, waits = make()
    waits.register(("page", 3))
    with pytest.raises(SimulationError,
                       match=r"node 0: duplicate test wait on \('page', 3\)"):
        waits.register(("page", 3))


def test_wake_of_an_unknown_key_raises():
    _, _, waits = make()
    with pytest.raises(SimulationError,
                       match=r"node 0: spurious test wake of \('read', 9\)"):
        waits.wake(("read", 9))
    assert not waits.late(("read", 9))
