"""Crash-stop fault tolerance: the no-hang contract (``-m chaos``).

Every blocking layer either completes or raises a typed error
(docs/reliability.md): the rendezvous handshake survives loss at each
stage through the reliable transport; deadlines turn dead peers into
``RuntimeTimeout`` / ``PeerDead`` / ``CollectiveError``; the engine
watchdog names what was blocked when nothing else fired; and
``run_map(on_error="record")`` keeps sweeps deterministic at any
``--jobs`` while fault plans kill individual points.
"""

import pytest

from repro.apps import CollBenchConfig, JacobiConfig
from repro.collectives import CollectiveError
from repro.engine import StuckError
from repro.faults import CellLoss, FaultPlan, LinkDown, NodeCrash, NodeSlow
from repro.obs import aggregate_nodes
from repro.params import SimParams
from repro.runtime import (
    Cluster,
    MessagingService,
    PeerDead,
    RuntimeTimeout,
)

pytestmark = pytest.mark.chaos


def make_cluster(nprocs=2, **over):
    params = SimParams().replace(
        num_processors=nprocs, dsm_address_space_pages=16, **over)
    return Cluster(params, interface="cni")


# ------------------------------------------------- rendezvous under loss --
#: One LinkDown window per handshake stage, calibrated against the
#: clean 16 KB rendezvous timeline (RTS ~95 us, CTS back ~250 us, data
#: until ~445 us, delivery ~600 us).  Each window kills the traffic of
#: its stage; the reliable transport must recover every one.
RENDEZVOUS_STAGES = [
    ("rts-lost", LinkDown(src=0, dst=1, from_ns=0.0, to_ns=150_000.0)),
    ("cts-lost", LinkDown(src=1, dst=0, from_ns=0.0, to_ns=250_000.0)),
    ("data-lost", LinkDown(src=0, dst=1, from_ns=300_000.0,
                           to_ns=400_000.0)),
    ("completion-lost", LinkDown(src=1, dst=0, from_ns=300_000.0,
                                 to_ns=600_000.0)),
]


@pytest.mark.parametrize(
    "stage", RENDEZVOUS_STAGES, ids=[name for name, _s in RENDEZVOUS_STAGES])
def test_rendezvous_recovers_from_stage_loss(stage):
    _name, sched = stage
    got = {}
    cluster = make_cluster(
        reliable_transport=True,
        reliab_timeout_ns=200_000.0,
        fault_plan=FaultPlan(seed=3, schedules=(sched,)))

    def kernel(ctx):
        svc = MessagingService(ctx, buffer_bytes=32768)
        if ctx.rank == 0:
            yield from svc.touch_send_buffer(16384)
            yield from svc.send(1, 16384, payload={"tag": "big"})
        else:
            desc = yield from svc.recv()
            got["length"] = desc.length
            got["payload"] = desc.payload

    stats = cluster.run(kernel)
    assert got["length"] == 16384
    assert got["payload"] == {"tag": "big"}
    agg = aggregate_nodes(stats.metrics)
    assert agg["nic.reliab.retransmits"] > 0


# ------------------------------------------------------- deadline expiry --
def test_remote_read_deadline_expires_as_runtime_timeout():
    # Reply path permanently dead, transport off: the only bound on the
    # read is its deadline.
    cluster = make_cluster(
        op_deadline_ns=5_000_000.0,
        fault_plan=FaultPlan(seed=0, schedules=(
            LinkDown(src=1, dst=0, from_ns=0.0, to_ns=float("inf")),)))

    def kernel(ctx):
        svc = MessagingService(ctx)
        # SPMD addressing: both ranks expose at the same program point,
        # so the window address needs no exchange (docs/runtime.md).
        win = svc.expose(4096)
        if ctx.rank == 0:
            yield from svc.remote_read(1, win, 1024)

    with pytest.raises(RuntimeTimeout) as exc:
        cluster.run(kernel)
    assert not isinstance(exc.value, PeerDead)
    assert exc.value.op == "read"


def test_recv_deadline_expires_without_sender():
    cluster = make_cluster(op_deadline_ns=2_000_000.0)

    def kernel(ctx):
        svc = MessagingService(ctx)
        if ctx.rank == 0:
            yield from svc.recv()  # nobody ever sends

    with pytest.raises(RuntimeTimeout) as exc:
        cluster.run(kernel)
    assert exc.value.op == "recv"


def test_remote_read_from_crashed_peer_is_peer_dead():
    cluster = make_cluster(
        op_deadline_ns=20_000_000.0,
        heartbeat_interval_ns=500_000.0,
        heartbeat_miss_budget=4,
        fault_plan=FaultPlan(seed=0, schedules=(NodeCrash(node=1),)))

    def kernel(ctx):
        svc = MessagingService(ctx)
        win = svc.expose(4096)
        if ctx.rank == 0:
            yield from svc.remote_read(1, win, 1024)

    with pytest.raises(PeerDead) as exc:
        cluster.run(kernel)
    assert exc.value.peer == 1


def test_crashed_participant_aborts_collective_with_names():
    # Whichever waiter's deadline fires first raises; with the detector
    # on, even a non-root (which cannot know the arrival set) names the
    # suspected-dead rank in the message.
    cluster = make_cluster(
        nprocs=4,
        op_deadline_ns=10_000_000.0,
        heartbeat_interval_ns=500_000.0,
        heartbeat_miss_budget=4,
        fault_plan=FaultPlan(seed=0, schedules=(NodeCrash(node=3),)))

    def kernel(ctx):
        yield from ctx.barrier()

    with pytest.raises(CollectiveError) as exc:
        cluster.run(kernel)
    assert "timed out" in str(exc.value)
    assert "3" in str(exc.value)


def test_dsm_page_fetch_times_out_on_crashed_home():
    # Rank 0's first touch of a page homed on the crashed rank 1 must
    # end in a typed deadline error, not a hang (heartbeats keep the
    # event queue alive forever without one).
    cluster = make_cluster(
        op_deadline_ns=10_000_000.0,
        heartbeat_interval_ns=500_000.0,
        heartbeat_miss_budget=4,
        fault_plan=FaultPlan(seed=0, schedules=(NodeCrash(node=1),)))
    arr = cluster.alloc_shared((2, 512))
    base = arr.base_vaddr

    def kernel(ctx):
        if ctx.rank == 0:
            yield from ctx.read_runs([(base + 4096, 64)])  # rank 1's page

    with pytest.raises(RuntimeTimeout):  # PeerDead is a subclass
        cluster.run(kernel)


def _read_window(ctx, arr):
    svc = MessagingService(ctx)
    win = svc.expose(4096)
    if ctx.rank == 0:
        yield from svc.remote_read(1, win, 1024)


def _fetch_page(ctx, arr):
    if ctx.rank == 0:
        yield from ctx.read_runs([(arr.base_vaddr + 4096, 64)])  # rank 1's


@pytest.mark.parametrize("kernel,op,wakes", [
    (_read_window, "read", 1),
    (_fetch_page, "dsm page fetch", 0),
], ids=["remote_read", "dsm_page_fetch"])
def test_deadline_expiry_accounting(kernel, op, wakes):
    # Every engine charges the blocked stretch as synch delay equal to
    # the deadline; only the messaging runtime then pays the wake
    # overhead before it raises.
    deadline = 5_000_000.0
    cluster = make_cluster(
        op_deadline_ns=deadline,
        fault_plan=FaultPlan(seed=0, schedules=(
            LinkDown(src=1, dst=0, from_ns=0.0, to_ns=float("inf")),)))
    arr = cluster.alloc_shared((2, 512))
    node = cluster.nodes[0]
    charges = []
    delay, overhead = node.account_delay, node.account_overhead
    node.account_delay = lambda ns: (charges.append(("delay", ns)),
                                     delay(ns))
    node.account_overhead = lambda ns: (charges.append(("overhead", ns)),
                                        overhead(ns))

    with pytest.raises(RuntimeTimeout) as exc:
        cluster.run(lambda ctx: kernel(ctx, arr))
    assert exc.value.op == op
    last = max(i for i, (what, _ns) in enumerate(charges) if what == "delay")
    assert charges[last][1] == pytest.approx(deadline)
    wake_ns = node.nic.rx_wake_overhead_ns()
    assert wake_ns > 0
    assert charges[last + 1:] == [("overhead", wake_ns)] * wakes


# --------------------------------------------------------- the watchdog --
def test_stuck_report_names_blocked_waits_without_deadlines():
    # No deadlines, no detector: the crash leaves rank 0 blocked and
    # the queue drains.  The watchdog must say *what* was blocked.
    cluster = make_cluster(
        fault_plan=FaultPlan(seed=0, schedules=(NodeCrash(node=1),)))

    def kernel(ctx):
        svc = MessagingService(ctx)
        win = svc.expose(4096)
        if ctx.rank == 0:
            yield from svc.remote_read(1, win, 1024)

    with pytest.raises(StuckError) as exc:
        cluster.run(kernel)
    assert "application deadlock" in str(exc.value)
    assert exc.value.report is not None
    assert any("read" in w for w in exc.value.report.waits)


def test_wall_budget_stops_a_livelocked_run():
    # The queue never drains: only the host wall-clock budget ends it.
    cluster = make_cluster()

    def kernel(ctx):
        while True:
            yield 1.0

    with pytest.raises(StuckError, match="application deadlock"):
        cluster.run(kernel, wall_budget_s=0.05)
    assert cluster.sim._queue
    assert cluster.sim.events_processed > 0


# ---------------------------------------------------------- slow nodes --
def test_node_slow_inflates_transfer_time():
    def elapsed(plan):
        t = {}
        cluster = make_cluster(fault_plan=plan)

        def kernel(ctx):
            svc = MessagingService(ctx, buffer_bytes=32768)
            if ctx.rank == 0:
                yield from svc.touch_send_buffer(16384)
                yield from svc.send(1, 16384)
            else:
                yield from svc.recv()
                t["done"] = ctx.sim.now

        cluster.run(kernel)
        return t["done"]

    slow = FaultPlan(seed=0, schedules=(NodeSlow(node=1, factor=8.0),))
    assert elapsed(slow) > 1.5 * elapsed(None)


# ------------------------------------------- sweeps that keep going --
def test_run_map_records_typed_failures_deterministically():
    from repro.harness import RunFailure, RunSpec, run_map

    base = SimParams().replace(
        num_processors=4,
        reliable_transport=True,
        op_deadline_ns=20_000_000.0,
        runtime_send_retries=1,
    )
    crash = FaultPlan(seed=5, schedules=(NodeCrash(node=3, at_ns=200_000.0),))
    loss = FaultPlan(seed=5, schedules=(CellLoss(rate=0.005),))
    specs = [
        RunSpec("jacobi", base, "cni", JacobiConfig(n=32, iterations=2)),
        RunSpec("jacobi", base.replace(fault_plan=crash), "cni",
                JacobiConfig(n=32, iterations=2)),
        RunSpec("collbench", base.replace(fault_plan=loss), "cni",
                CollBenchConfig(op="allreduce", rounds=4,
                                compute_cycles=500)),
        RunSpec("collbench", base.replace(fault_plan=crash), "cni",
                CollBenchConfig(op="allreduce", rounds=4,
                                compute_cycles=500)),
    ]
    serial = run_map(specs, jobs=1, record=False, on_error="record")
    parallel = run_map(specs, jobs=2, record=False, on_error="record")

    assert [r.digest() for r in serial] == [r.digest() for r in parallel]
    failures = [r for r in serial if isinstance(r, RunFailure)]
    assert failures, "crash plans should fail at least one point"
    typed = {"RuntimeTimeout", "PeerDead", "CollectiveError",
             "DeliveryFailed"}
    assert {f.error_type for f in failures} <= typed
    # the clean point still succeeded
    assert not isinstance(serial[0], RunFailure)
