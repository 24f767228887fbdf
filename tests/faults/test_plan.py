"""Unit tests for FaultPlan schedules, activation and the CLI grammar,
and a differential test of the compiled plan against a scalar reference
that walks every schedule for every train."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    CellCorrupt,
    CellLoss,
    FaultPlan,
    LinkDown,
    NicStall,
    NodeCrash,
    NodeSlow,
    parse_fault_plan,
)
from repro.network import CellTrain, Packet, PacketKind
from repro.params import SimParams


def packet(src=0, dst=1, size=4096):
    return Packet(
        kind=PacketKind.DATA, src_node=src, dst_node=dst, channel_id=1,
        payload_bytes=size,
    )


def train(src=0, dst=1, n_cells=10):
    return CellTrain(packet(src, dst), n_cells)


# -- schedule validation ------------------------------------------------------

def test_cell_loss_validates():
    CellLoss(rate=0.5)
    CellLoss(nth=3)
    with pytest.raises(ValueError):
        CellLoss(rate=1.5)
    with pytest.raises(ValueError):
        CellLoss(rate=-0.1)
    with pytest.raises(ValueError):
        CellLoss(nth=0)
    with pytest.raises(ValueError):
        CellLoss()  # needs rate or nth
    with pytest.raises(ValueError):
        CellLoss(rate=0.1, from_ns=100, to_ns=100)  # empty window
    with pytest.raises(ValueError):
        CellLoss(rate=0.1, src=-1)


def test_link_down_and_stall_validate():
    LinkDown(src=0, dst=1, from_ns=0, to_ns=1e6)
    with pytest.raises(ValueError):
        LinkDown(src=0, dst=1, from_ns=5, to_ns=5)
    NicStall(node=2, from_ns=0, to_ns=100)
    with pytest.raises(ValueError):
        NicStall(node=-1, from_ns=0, to_ns=100)


def test_plan_is_frozen_and_hashable():
    plan = FaultPlan(seed=7, schedules=(CellLoss(rate=0.1),))
    assert hash(plan) == hash(FaultPlan(seed=7, schedules=(CellLoss(rate=0.1),)))
    with pytest.raises(Exception):
        plan.seed = 8
    # rides inside the frozen SimParams
    params = SimParams().replace(fault_plan=plan)
    assert params.fault_plan is plan
    # describe() emits the --fault-plan grammar (round-trips
    # through parse_fault_plan; see tests/faults/test_roundtrip.py)
    assert "cell_loss" in plan.describe()
    assert plan.describe().startswith("seed=7;")


def test_plan_rejects_non_schedules():
    with pytest.raises(ValueError):
        FaultPlan(schedules=("drop everything",))


# -- activation semantics -----------------------------------------------------

def test_seeded_activations_are_identical():
    plan = FaultPlan(seed=5, schedules=(CellLoss(rate=0.3),))
    a, b = plan.activate(4), plan.activate(4)
    fates_a = [a.train_faults(train(), now=0.0) for _ in range(20)]
    fates_b = [b.train_faults(train(), now=0.0) for _ in range(20)]
    assert fates_a == fates_b
    assert sum(l for l, _ in fates_a) > 0
    assert a.cells_dropped == b.cells_dropped


def test_nth_counts_across_trains():
    plan = FaultPlan(schedules=(CellLoss(nth=3),))
    active = plan.activate(2)
    # 10-cell trains: positions 0..9 then 10..19; multiples of 3 below 20
    # are 3,6,9,12,15,18 -> 3 hits in each train.
    assert active.train_faults(train(n_cells=10), now=0.0) == (3, 0)
    assert active.train_faults(train(n_cells=10), now=0.0) == (3, 0)
    assert active.cells_dropped[1] == 6


def test_window_gates_schedule():
    plan = FaultPlan(schedules=(CellLoss(rate=1.0, from_ns=100, to_ns=200),))
    active = plan.activate(2)
    assert active.train_faults(train(n_cells=5), now=50.0) == (0, 0)
    assert active.train_faults(train(n_cells=5), now=150.0) == (5, 0)
    assert active.train_faults(train(n_cells=5), now=200.0) == (0, 0)


def test_flow_selector_restricts_direction():
    plan = FaultPlan(schedules=(CellLoss(rate=1.0, src=0, dst=1),))
    active = plan.activate(4)
    assert active.train_faults(train(0, 1, 4), now=0.0) == (4, 0)
    assert active.train_faults(train(1, 0, 4), now=0.0) == (0, 0)
    assert active.train_faults(train(2, 1, 4), now=0.0) == (0, 0)


def test_link_down_kills_matching_flow_only():
    plan = FaultPlan(schedules=(LinkDown(src=0, dst=1, from_ns=0, to_ns=1e3),))
    active = plan.activate(4)
    assert active.train_faults(train(0, 1, 8), now=500.0) == (8, 0)
    assert active.train_faults(train(1, 0, 8), now=500.0) == (0, 0)
    assert active.train_faults(train(0, 1, 8), now=2e3) == (0, 0)


def test_corrupt_counts_separately_from_loss():
    plan = FaultPlan(schedules=(CellCorrupt(nth=2),))
    active = plan.activate(2)
    lost, corrupted = active.train_faults(train(n_cells=10), now=0.0)
    assert lost == 0 and corrupted == 5
    assert active.cells_corrupted[1] == 5
    assert active.cells_dropped[1] == 0


def test_nic_stall_window():
    plan = FaultPlan(schedules=(NicStall(node=1, from_ns=100, to_ns=400),))
    active = plan.activate(2)
    assert active.stall_ns(1, now=50.0) == 0.0
    assert active.stall_ns(1, now=100.0) == pytest.approx(300.0)
    assert active.stall_ns(1, now=399.0) == pytest.approx(1.0)
    assert active.stall_ns(0, now=200.0) == 0.0


def test_cell_hit_by_loss_and_corruption_counts_as_lost():
    # Both schedules hit every cell; a lost cell cannot also arrive
    # damaged, so the corruption count is clamped to the cells that
    # arrived (none).
    plan = FaultPlan(schedules=(CellLoss(rate=1.0), CellCorrupt(rate=1.0)))
    active = plan.activate(2)
    assert active.train_faults(train(n_cells=10), now=0.0) == (10, 0)
    assert active.cells_dropped[1] == 10
    assert active.cells_corrupted[1] == 0


def test_plan_without_stall_or_slow_has_no_delays():
    assert not FaultPlan(schedules=(
        CellLoss(rate=0.1), CellCorrupt(nth=3),
        LinkDown(src=0, dst=1, from_ns=0, to_ns=1e3),
        NodeCrash(node=1, at_ns=5.0))).activate(2).has_delays
    for delay in (NicStall(node=1, from_ns=0, to_ns=10),
                  NodeSlow(node=0, factor=1.5)):
        assert FaultPlan(schedules=(CellLoss(rate=0.1), delay)
                         ).activate(2).has_delays


def test_overlapping_delays_take_the_largest_in_any_order():
    stalls = [NicStall(node=1, from_ns=0, to_ns=100),
              NicStall(node=1, from_ns=50, to_ns=400)]
    slows = [NodeSlow(node=1, factor=1.5),
             NodeSlow(node=1, factor=3.0, from_ns=0, to_ns=200)]
    for order in (stalls + slows, slows[::-1] + stalls[::-1]):
        active = FaultPlan(schedules=order).activate(2)
        assert active.stall_ns(1, now=10.0) == 90.0
        assert active.stall_ns(1, now=60.0) == 340.0
        assert active.slow_factor(1, now=100.0) == 3.0
        assert active.slow_factor(1, now=300.0) == 1.5
        assert active.stall_ns(0, now=60.0) == 0.0
        assert active.slow_factor(0, now=60.0) == 1.0


# -- the compiled plan against a scalar reference ------------------------------

class ReferencePlan:
    """The plan evaluator as a walk over every schedule for every train:
    the same RNG draws, ``nth`` positions and clamps, found by testing
    each schedule's type where it stands in the plan."""

    def __init__(self, schedules, seed, num_nodes):
        self.schedules = tuple(schedules)
        self.rng = random.Random(seed)
        self.cells_dropped = [0] * num_nodes
        self.cells_corrupted = [0] * num_nodes
        self._positions = {}
        self._crash_at = {}
        for s in schedules:
            if isinstance(s, NodeCrash):
                at = self._crash_at.get(s.node)
                if at is None or s.at_ns < at:
                    self._crash_at[s.node] = s.at_ns

    @staticmethod
    def _matches(s, src, dst, now):
        if s.src is not None and s.src != src:
            return False
        if s.dst is not None and s.dst != dst:
            return False
        return s.from_ns <= now < s.to_ns

    def _count_nth(self, idx, nth, n_cells):
        pos = self._positions.get(idx, 0)
        hits = (pos + n_cells) // nth - pos // nth
        self._positions[idx] = pos + n_cells
        return hits

    def node_dead(self, node, now):
        at = self._crash_at.get(node)
        return at is not None and now >= at

    def slow_factor(self, node, now):
        factor = 1.0
        for s in self.schedules:
            if isinstance(s, NodeSlow) and s.node == node \
                    and s.from_ns <= now < s.to_ns:
                factor = max(factor, s.factor)
        return factor

    def stall_ns(self, node, now):
        extra = 0.0
        for s in self.schedules:
            if isinstance(s, NicStall) and s.node == node \
                    and s.from_ns <= now < s.to_ns:
                extra = max(extra, s.to_ns - now)
        return extra

    def train_faults(self, train, now):
        p = train.packet
        n = train.n_cells
        if self.node_dead(p.src_node, now) or self.node_dead(p.dst_node, now):
            self.cells_dropped[p.dst_node] += n
            return n, 0
        lost = 0
        corrupted = 0
        for idx, s in enumerate(self.schedules):
            if isinstance(s, LinkDown):
                if s.src == p.src_node and s.dst == p.dst_node \
                        and s.from_ns <= now < s.to_ns:
                    lost = n
            elif isinstance(s, (CellLoss, CellCorrupt)):
                if not self._matches(s, p.src_node, p.dst_node, now):
                    continue
                hits = 0
                if s.nth is not None:
                    hits += self._count_nth(idx, s.nth, n)
                if s.rate > 0.0:
                    hits += sum(1 for _ in range(n)
                                if self.rng.random() < s.rate)
                hits = min(hits, n)
                if isinstance(s, CellLoss):
                    lost += hits
                else:
                    corrupted += hits
        lost = min(lost, n)
        corrupted = min(corrupted, n - lost)
        if lost:
            self.cells_dropped[p.dst_node] += lost
        if corrupted:
            self.cells_corrupted[p.dst_node] += corrupted
        return lost, corrupted


NODES = 3
_node = st.integers(0, NODES - 1)
_flow = st.one_of(st.none(), _node)


@st.composite
def _window(draw):
    """A ``[from_ns, to_ns)`` window over the trains' time span, or an
    open-ended one.  Its edges come from a few round times, so windows
    overlap often and trains (at sums of round gaps) land on edges."""
    lo = draw(st.sampled_from([0.0, 100.0, 250.0, 600.0, 1000.0]))
    hi = draw(st.sampled_from([float("inf"), lo + 100.0, lo + 400.0,
                               lo + 1500.0]))
    return lo, hi


@st.composite
def _cell_rule(draw, kind):
    rate = draw(st.sampled_from([0.0, 0.01, 0.2, 0.5, 1.0]))
    nth = draw(st.one_of(st.none(), st.integers(1, 9)))
    if rate == 0.0 and nth is None:
        nth = draw(st.integers(1, 9))
    lo, hi = draw(_window())
    return kind(rate=rate, nth=nth, src=draw(_flow), dst=draw(_flow),
                from_ns=lo, to_ns=hi)


@st.composite
def _link_down(draw):
    lo, hi = draw(_window())
    return LinkDown(src=draw(_node), dst=draw(_node), from_ns=lo, to_ns=hi)


@st.composite
def _nic_stall(draw):
    lo, hi = draw(_window())
    return NicStall(node=draw(_node), from_ns=lo, to_ns=hi)


@st.composite
def _node_slow(draw):
    lo, hi = draw(_window())
    return NodeSlow(node=draw(_node),
                    factor=draw(st.sampled_from([1.0, 1.5, 2, 3.0])),
                    from_ns=lo, to_ns=hi)


_schedule = st.one_of(
    _cell_rule(CellLoss), _cell_rule(CellCorrupt), _link_down(),
    _nic_stall(), _node_slow(),
    st.builds(NodeCrash, node=_node,
              at_ns=st.floats(0, 4000, allow_nan=False)))

#: A plan: any schedules, in an order drawn apart from their contents,
#: so LinkDowns and overlapping delays stand on either side of the rest.
_plan = st.lists(_schedule, max_size=8).flatmap(st.permutations)

#: One train: source, destination, cells and the time since the last.
_train = st.tuples(_node, _node, st.integers(1, 40),
                   st.one_of(st.sampled_from([0.0, 50.0, 100.0]),
                             st.floats(0, 300, allow_nan=False)))


@given(schedules=_plan,
       seed=st.integers(0, 2 ** 16),
       trains=st.lists(_train, min_size=1, max_size=30))
@settings(max_examples=300, deadline=None)
def test_compiled_plan_matches_scalar_reference(schedules, seed, trains):
    # Cell rules by rate and nth, flow filters and windows, LinkDown on
    # either side of them, crashes, stalls and slowdowns, in any order:
    # every train's damage, every delay and both counters agree.
    active = FaultPlan(seed=seed, schedules=schedules).activate(NODES)
    ref = ReferencePlan(schedules, seed, NODES)
    now = 0.0
    for src, dst, n_cells, dt in trains:
        now += dt
        t = train(src, dst, n_cells)
        assert active.train_faults(t, now) == ref.train_faults(t, now)
        for node in range(NODES):
            assert active.stall_ns(node, now) == ref.stall_ns(node, now)
            assert active.slow_factor(node, now) == \
                ref.slow_factor(node, now)
            assert active.node_dead(node, now) == ref.node_dead(node, now)
        assert active.cells_dropped == ref.cells_dropped
        assert active.cells_corrupted == ref.cells_corrupted
    assert active.has_delays == any(
        isinstance(s, (NicStall, NodeSlow)) for s in schedules)


# -- CLI grammar --------------------------------------------------------------

def test_parse_round_trip():
    plan = parse_fault_plan(
        "seed=42;cell_loss(rate=0.01);link_down(src=0,dst=1,from_ns=0,to_ns=1e6)"
    )
    assert plan.seed == 42
    assert plan.schedules == (
        CellLoss(rate=0.01),
        LinkDown(src=0, dst=1, from_ns=0, to_ns=1e6),
    )


def test_parse_all_schedule_types():
    plan = parse_fault_plan(
        "cell_loss(nth=100,src=0,dst=1);cell_corrupt(rate=0.5);"
        "nic_stall(node=2,from_ns=0,to_ns=5e5)"
    )
    kinds = [type(s) for s in plan.schedules]
    assert kinds == [CellLoss, CellCorrupt, NicStall]
    assert plan.schedules[0].nth == 100
    assert plan.seed == 0


@pytest.mark.parametrize("spec", [
    "bogus(rate=0.1)",            # unknown schedule
    "cell_loss(rate=2.0)",        # invalid rate
    "cell_loss()",                # needs rate or nth
    "cell_loss(rate=0.1",         # unbalanced parens
    "cell_loss(rate=abc)",        # not a number
    "cell_loss(rate)",            # not key=value
    "cell_loss(nth=1.5)",         # integer key
    "rate=0.1",                   # bare clause must be seed=
    "cell_loss(wat=1)",           # unknown keyword
])
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        parse_fault_plan(spec)


def test_parse_empty_spec_is_empty_plan():
    plan = parse_fault_plan("")
    assert plan == FaultPlan()
