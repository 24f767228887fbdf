"""The parallel sweep executor: determinism, ordering, the core clamp,
and the warm-pool lifecycle (spawn-once reuse, chunked dispatch,
no-orphan teardown)."""

import pickle

import pytest

from repro.apps import JacobiConfig
from repro.harness import (
    GLOBAL_METRICS_LOG,
    RunFailure,
    RunSpec,
    default_jobs,
    execute_run,
    parallel,
    pool_size,
    run_map,
    set_default_jobs,
    shutdown_pool,
)
from repro.harness.parallel import _chunksize
from repro.params import SimParams


@pytest.fixture(autouse=True)
def _four_cores(monkeypatch):
    """Exercise the real pool even on a 1-core host — the cpu-aware
    clamp would otherwise route jobs>1 inline (docs/parallel_runs.md)."""
    monkeypatch.setattr(parallel, "effective_cores", lambda: 4)


def specs_grid(procs=(1, 2), ifaces=("cni", "standard")):
    wl = JacobiConfig(n=32, iterations=2)
    return [RunSpec("jacobi", SimParams().replace(num_processors=p),
                    iface, wl)
            for p in procs for iface in ifaces]


# -- determinism ---------------------------------------------------------------

def test_jobs_1_and_jobs_n_digests_identical():
    """The executor's core guarantee: per-point RunStats.digest() values
    are bit-identical between the in-process path and a process pool."""
    specs = specs_grid()
    serial = run_map(specs, jobs=1, record=False)
    pooled = run_map(specs, jobs=4, record=False)
    assert [s.digest() for s in serial] == [s.digest() for s in pooled]
    # The digest covers only the outcome; metric snapshots must survive
    # the worker round trip too.
    assert [s.metrics for s in serial] == [s.metrics for s in pooled]


def test_results_preserve_spec_order():
    specs = specs_grid(procs=(2, 1, 4), ifaces=("cni",))
    runs = run_map(specs, jobs=2, record=False)
    # each spec's processor count is visible in its per_processor list
    assert [len(r.per_processor) for r in runs] == [2, 1, 4]


def test_execute_run_is_the_jobs_1_path():
    spec = specs_grid()[0]
    assert execute_run(spec, 0).digest() == \
        run_map([spec], jobs=1, record=False)[0].digest()


# -- the spec ------------------------------------------------------------------

def test_runspec_is_picklable():
    spec = specs_grid()[0]
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec


def test_unknown_app_rejected():
    spec = RunSpec("fortran_weather_model", SimParams(), "cni", None)
    with pytest.raises(ValueError, match="unknown app"):
        execute_run(spec)


def test_bad_jobs_rejected():
    with pytest.raises(ValueError):
        run_map(specs_grid(), jobs=0)
    with pytest.raises(ValueError):
        set_default_jobs(0)


def test_empty_spec_list():
    assert run_map([], jobs=4) == []


def test_default_jobs_setting_round_trips():
    before = default_jobs()
    try:
        assert set_default_jobs(3) == 3
        assert default_jobs() == 3
        assert set_default_jobs(None) >= 1  # None -> all cores
    finally:
        set_default_jobs(before)


# -- parent-side recording -----------------------------------------------------

def test_run_map_records_with_digest():
    GLOBAL_METRICS_LOG.clear()
    specs = specs_grid(procs=(2,), ifaces=("cni",))
    runs = run_map(specs, jobs=1)
    try:
        assert len(GLOBAL_METRICS_LOG) == 1
        entry = GLOBAL_METRICS_LOG.entries[0]
        assert entry["app"] == "jacobi"
        assert entry["interface"] == "cni"
        assert entry["nprocs"] == 2
        assert entry["digest"] == runs[0].digest()
        assert entry["metrics"] == runs[0].metrics
    finally:
        GLOBAL_METRICS_LOG.clear()


def test_run_map_meta_lands_in_log():
    GLOBAL_METRICS_LOG.clear()
    spec = RunSpec("jacobi", SimParams().replace(num_processors=2), "cni",
                   JacobiConfig(n=32, iterations=2),
                   meta=(("cell_loss_rate", 0.01),))
    run_map([spec], jobs=1)
    try:
        assert GLOBAL_METRICS_LOG.entries[0]["cell_loss_rate"] == 0.01
    finally:
        GLOBAL_METRICS_LOG.clear()


# -- the core clamp ------------------------------------------------------------

def test_one_usable_core_runs_in_process(monkeypatch):
    """With one usable core, jobs=4 runs in-process: no pool starts, and
    the digests are the jobs=1 digests."""
    monkeypatch.setattr(parallel, "effective_cores", lambda: 1)
    shutdown_pool()
    specs = specs_grid()
    serial = run_map(specs, jobs=1, record=False)
    clamped = run_map(specs, jobs=4, record=False)
    assert pool_size() == 0
    assert [r.digest() for r in clamped] == [r.digest() for r in serial]


# -- warm-pool lifecycle -------------------------------------------------------

def test_warm_pool_reused_across_run_map_calls():
    """Consecutive run_map calls share one pool (a single cold start)
    and stay digest-identical to the --jobs 1 path throughout."""
    shutdown_pool()
    specs = specs_grid()
    baseline = [s.digest() for s in run_map(specs, jobs=1, record=False)]
    try:
        first = run_map(specs, jobs=2, record=False)
        pool = parallel._pool
        second = run_map(specs, jobs=2, record=False)
        assert [s.digest() for s in first] == baseline
        assert [s.digest() for s in second] == baseline
        assert pool is not None and parallel._pool is pool
        assert pool_size() >= 2
    finally:
        shutdown_pool()
    assert pool_size() == 0


def test_chunked_dispatch_preserves_spec_and_log_order():
    """Three points on two workers go one per chunk, so chunks can
    finish out of order; results and the parent-side metrics-log
    recording must still land in spec order."""
    specs = specs_grid(procs=(4, 1, 2), ifaces=("cni",))
    GLOBAL_METRICS_LOG.clear()
    serial = run_map(specs, jobs=1)
    serial_digests = [e["digest"] for e in GLOBAL_METRICS_LOG.entries]
    GLOBAL_METRICS_LOG.clear()
    try:
        chunked = run_map(specs, jobs=2)
        assert [len(r.per_processor) for r in chunked] == [4, 1, 2]
        assert [r.digest() for r in chunked] == \
            [r.digest() for r in serial]
        assert [e["digest"] for e in GLOBAL_METRICS_LOG.entries] == \
            serial_digests
    finally:
        GLOBAL_METRICS_LOG.clear()
        shutdown_pool()


def test_chunksize_heuristic_targets_two_chunks_per_worker():
    assert _chunksize(8, 2) == 2
    assert _chunksize(8, 4) == 1
    assert _chunksize(1, 8) == 1
    assert _chunksize(100, 4) == 13


def test_untyped_error_tears_pool_down_without_orphans():
    """A worker raising a non-simulation error (here: unknown app)
    aborts the sweep, shuts the pool down, and the next run_map
    cold-starts cleanly."""
    shutdown_pool()
    good = specs_grid(procs=(1,), ifaces=("cni",))[0]
    bomb = RunSpec("no_such_app", SimParams(), "cni", None)
    try:
        run_map([good, good], jobs=2, record=False)
        broken = parallel._pool
        with pytest.raises(ValueError, match="unknown app"):
            run_map([good, bomb, good], jobs=2, record=False)
        assert pool_size() == 0
        runs = run_map([good, good], jobs=2, record=False)
        assert runs[0].digest() == runs[1].digest()
        assert pool_size() >= 2 and parallel._pool is not broken
    finally:
        shutdown_pool()


def test_on_error_record_deterministic_through_the_pool():
    """Typed failures stay deterministic RunFailure slots in spec order
    through the pool (the chaos campaign checks the same contract
    at scale under -m chaos)."""
    from repro.faults import FaultPlan, NodeCrash

    base = SimParams().replace(
        num_processors=2, reliable_transport=True,
        op_deadline_ns=20_000_000.0, runtime_send_retries=1)
    crash = FaultPlan(seed=5,
                      schedules=(NodeCrash(node=1, at_ns=200_000.0),))
    wl = JacobiConfig(n=16, iterations=1)
    specs = [
        RunSpec("jacobi", base, "cni", wl),
        RunSpec("jacobi", base.replace(fault_plan=crash), "cni", wl),
        RunSpec("jacobi", base, "standard", wl),
    ]
    serial = run_map(specs, jobs=1, record=False, on_error="record")
    try:
        pooled = run_map(specs, jobs=2, record=False, on_error="record")
        assert [r.digest() for r in serial] == [r.digest() for r in pooled]
        assert [isinstance(r, RunFailure) for r in serial] == \
            [isinstance(r, RunFailure) for r in pooled]
        assert isinstance(serial[1], RunFailure), \
            "the crash plan should kill its point"
    finally:
        shutdown_pool()


def test_shutdown_pool_is_idempotent():
    shutdown_pool()
    shutdown_pool()
    assert pool_size() == 0
