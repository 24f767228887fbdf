"""Parallel execution of independent simulation runs.

Every experiment in this harness is a grid of *independent* simulated
cluster runs (interface x parameter value x processor count).  The runs
share nothing at runtime — each builds its own :class:`~repro.runtime.Cluster`
— so they fan out across a process pool the way Balsam fans independent
jobs across a pilot allocation, with one hard requirement on top:
**bit-for-bit determinism**.  A sweep executed with ``--jobs 8`` must
produce exactly the per-point :meth:`~repro.engine.RunStats.digest`
values that ``--jobs 1`` produces (the in-process debugging path), which
the executor guarantees by

* describing each run as an immutable, picklable :class:`RunSpec`;
* seeding each worker's global RNGs from the spec's position in the
  sweep (the simulation's own randomness — fault plans, Water's initial
  state — is already carried by explicit seeds inside the spec);
* re-sequencing results by sweep position in the parent (chunks finish
  out of order; the result list and all shared mutation — the
  :data:`~repro.harness.export.GLOBAL_METRICS_LOG` recording — are
  strictly in spec order).

The pool itself is **warm**: created lazily on the first ``run_map``
that needs workers, sized by :func:`default_jobs`, and reused across
calls, so an experiment made of many small sweeps pays worker
spawn + interpreter import once per *process*, not once per sweep.
Workers pre-import the simulation stack on spawn
(:func:`_warm_worker`), specs ship in per-worker **chunks** whose shared
``SimParams`` / workload configs are pickled once per chunk rather than
once per point, and the pool is torn down by ``atexit`` (or immediately
when a worker raises an untyped error) so no orphan workers outlive the
harness.  Lifecycle and overhead are instrumented under the
``harness.pool.*`` metrics (:func:`pool_metrics`).

Worker metric trees come back inside ``RunStats.metrics`` /
``RunStats.metric_kinds`` and fold into one sweep-wide tree through the
existing dotted-hierarchy merge (:func:`merge_run_metrics` →
:func:`repro.obs.registry_from_snapshot` + :meth:`MetricsRegistry.merge`).

See docs/parallel_runs.md for the design and the `--jobs` CLI usage.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import random
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import RunStats
from ..obs import MetricsRegistry, registry_from_snapshot
from ..params import SimParams

__all__ = [
    "POOL_METRICS",
    "RunFailure",
    "RunSpec",
    "default_jobs",
    "effective_cores",
    "execute_run",
    "merge_run_metrics",
    "pool_metrics",
    "pool_size",
    "run_map",
    "set_default_jobs",
    "shutdown_pool",
]

#: Worker-RNG seed base, mixed with each spec's sweep position.
_SEED_BASE = 0x5EED_C0DE

#: Module-wide default worker count used when ``run_map(jobs=None)``.
#: Starts at 1 (today's in-process behaviour) so library callers and the
#: test suite are unaffected until the CLI — or a user — opts in.
_default_jobs: int = 1

#: Chunks per worker the chunksize heuristic aims for: enough chunks
#: that a slow point does not strand the other workers idle, few enough
#: that per-chunk submit/pickle overhead stays negligible.
_CHUNKS_PER_WORKER = 2

#: Dispatch-overhead histogram buckets (ns per point): spans IPC noise
#: (~tens of us) up to a full worker cold-start (~hundreds of ms).
_OVERHEAD_BUCKETS_NS: Tuple[float, ...] = (
    10_000.0, 30_000.0, 100_000.0, 300_000.0, 1_000_000.0, 3_000_000.0,
    10_000_000.0, 30_000_000.0, 100_000_000.0, 1_000_000_000.0,
)

#: Parent-side registry for the executor's own lifecycle metrics.  These
#: are *harness* metrics (one registry per parent process), deliberately
#: separate from the per-run simulation registries that ship back inside
#: ``RunStats.metrics`` — see the ``harness.pool.*`` catalog section in
#: docs/observability.md.
POOL_METRICS = MetricsRegistry()
_pool_scope = POOL_METRICS.scope("harness.pool")
_m_spawns = _pool_scope.counter("spawns")
_m_workers = _pool_scope.counter("workers_provisioned")
_m_warm_hits = _pool_scope.counter("warm_hits")
_m_shutdowns = _pool_scope.counter("shutdowns")
_m_chunks = _pool_scope.counter("chunks_dispatched")
_m_points = _pool_scope.counter("points_dispatched")
_m_inline = _pool_scope.counter("points_inline")
_m_size = _pool_scope.gauge("size")
_m_overhead = _pool_scope.histogram("dispatch_overhead_ns",
                                    _OVERHEAD_BUCKETS_NS)

#: The warm pool (created lazily, survives across ``run_map`` calls).
_pool: Optional[ProcessPoolExecutor] = None
_pool_size: int = 0
_atexit_registered = False


def default_jobs() -> int:
    """The worker count ``run_map`` uses when ``jobs`` is not given."""
    return _default_jobs


def effective_cores() -> int:
    """Cores actually usable by this process: scheduler affinity where
    the platform exposes it (containers routinely pin below
    ``cpu_count``), otherwise ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


def _force_pool() -> bool:
    """``REPRO_POOL_FORCE=1`` disables the cpu-aware worker clamp —
    tests and the bench dispatch-overhead arm use it to exercise the
    real pool even on a 1-core machine."""
    return os.environ.get("REPRO_POOL_FORCE", "") == "1"


def set_default_jobs(jobs: Optional[int]) -> int:
    """Set the module-wide default worker count; returns the value set.

    ``None`` means "all cores" (``os.cpu_count()``); the CLI's ``--jobs``
    flag lands here.  Values below 1 are rejected.
    """
    global _default_jobs
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs={jobs} must be >= 1")
    _default_jobs = jobs
    return _default_jobs


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run, ready to ship to a pool worker.

    Everything here must pickle: ``params`` is a frozen
    :class:`~repro.params.SimParams` (including any
    :class:`~repro.faults.FaultPlan`), ``workload`` one of the app config
    dataclasses (:class:`~repro.apps.JacobiConfig`,
    :class:`~repro.apps.WaterConfig`, :class:`~repro.apps.CholeskyConfig`,
    :class:`~repro.collectives.CollBenchConfig`).
    """

    app: str
    """Application kernel: ``jacobi``, ``water``, ``cholesky`` or
    ``collbench`` (the collective microbenchmark)."""

    params: SimParams
    """Full simulation configuration (processor count, fault plan, ...)."""

    interface: str = "cni"
    """Network interface: ``cni`` or ``standard``."""

    workload: Any = None
    """The app's config object (picklable dataclass)."""

    seed: Optional[int] = None
    """Worker global-RNG seed; when None it derives from the spec's
    position in the sweep, so jobs=1 and jobs=N seed identically."""

    meta: Tuple[Tuple[str, Any], ...] = ()
    """Extra ``(key, value)`` metadata attached to the run's
    :class:`~repro.harness.export.MetricsLog` record."""

    def describe(self) -> str:
        """One-line human-readable form (bench banners, logs)."""
        return (f"{self.app}/{self.interface}"
                f"/p{self.params.num_processors}")


@dataclass(frozen=True)
class RunFailure:
    """Structured record of one run that died with a *typed* simulation
    error (``run_map(on_error="record")``; see docs/reliability.md).

    Picklable by construction — it crosses the process-pool boundary in
    place of the :class:`~repro.engine.RunStats` a healthy run returns —
    so a worker raising :class:`~repro.runtime.RuntimeTimeout` under a
    fault plan becomes one failed *point* of the sweep instead of a bare
    pool exception aborting the whole sweep.
    """

    spec_desc: str
    """``RunSpec.describe()`` of the failed run."""

    error_type: str
    """Exception class name (``RuntimeTimeout``, ``PeerDead``, ...)."""

    message: str
    """``str(exc)`` — deterministic, since the simulation is."""

    def digest(self) -> str:
        """Deterministic fingerprint (mirrors ``RunStats.digest`` so
        jobs=1 and jobs=N sweeps compare point-for-point)."""
        h = hashlib.sha256()
        for part in (self.spec_desc, self.error_type, self.message):
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()


def _typed_errors() -> tuple:
    """Exception types ``on_error="record"`` converts to RunFailure —
    every *typed* simulation outcome; anything else (a genuine harness
    bug) still propagates.  Imported lazily to keep this module light."""
    from ..collectives import CollectiveError
    from ..core.reliability import DeliveryFailed
    from ..engine import SimulationError
    from ..runtime.errors import MessagingError

    return (SimulationError, DeliveryFailed, CollectiveError,
            MessagingError)


def _seed_global_rngs(spec: RunSpec, index: int) -> None:
    """Give the executing process its own deterministic RNG state.

    The simulation's meaningful randomness travels in explicit seeds
    (``FaultPlan.seed``, ``WaterConfig.seed``); this guards against any
    incidental use of the *global* ``random`` / ``numpy.random`` state,
    which a forked worker would otherwise inherit mid-stream from the
    parent — the classic way parallel runs drift from serial ones.
    """
    seed = spec.seed if spec.seed is not None else _SEED_BASE + index
    random.seed(seed)
    np.random.seed(seed % (2 ** 32))


def execute_run(spec: RunSpec, index: int = 0,
                on_error: str = "raise") -> Any:
    """Execute one spec in the current process and return its stats.

    This is both the pool-worker body and the ``--jobs 1`` in-process
    path, so the two are one code path by construction.  Dispatch goes
    through the workload registry (:func:`repro.apps.run`), so any
    registered workload is executable by spec with no executor edits.

    ``on_error="record"`` converts a *typed* simulation error (timeout,
    dead peer, delivery failure, stuck report — the expected outcomes
    under a fault plan) into a :class:`RunFailure` instead of raising.
    """
    from ..apps import run as run_workload

    _seed_global_rngs(spec, index)
    if on_error == "record":
        try:
            return run_workload(spec.app, spec.params, spec.interface,
                                spec.workload)[0]
        except _typed_errors() as exc:
            return RunFailure(spec.describe(), type(exc).__name__, str(exc))
    return run_workload(spec.app, spec.params, spec.interface,
                        spec.workload)[0]


# -- the warm pool -------------------------------------------------------------

def _warm_worker() -> None:
    """Worker initializer: run once per spawned worker, before any chunk.

    Pre-imports the full simulation stack (engine, DSM, runtime,
    collectives, workload registry) and touches numpy so the first real
    chunk a worker executes pays simulation cost only — no import or
    allocator cold-start inside a timed sweep.
    """
    import repro.apps  # noqa: F401  (workload registry -> engine/dsm/network)
    import repro.collectives  # noqa: F401
    import repro.runtime  # noqa: F401

    np.dot(np.zeros(4), np.zeros(4))  # prime numpy's dispatch caches


def _atexit_shutdown() -> None:
    shutdown_pool()


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The warm pool, creating (or growing) it if needed.

    Sized ``max(workers, default_jobs())`` so the common CLI pattern —
    ``set_default_jobs(N)`` then many sweeps — provisions once up front.
    A pool that is already at least as large as the request is a *warm
    hit* and is reused as-is; a smaller one is torn down and replaced
    (``ProcessPoolExecutor`` cannot grow in place).
    """
    global _pool, _pool_size, _atexit_registered
    if _pool is not None:
        if _pool_size >= workers:
            _m_warm_hits.inc()
            return _pool
        shutdown_pool()
    size = max(workers, default_jobs())
    pool = ProcessPoolExecutor(max_workers=size, initializer=_warm_worker)
    _pool, _pool_size = pool, size
    _m_spawns.inc()
    _m_workers.inc(size)
    _m_size.set(size)
    if not _atexit_registered:
        atexit.register(_atexit_shutdown)
        _atexit_registered = True
    return pool


def pool_size() -> int:
    """Provisioned worker count of the live warm pool (0 when cold)."""
    return _pool_size if _pool is not None else 0


def pool_metrics() -> Dict[str, Any]:
    """Flat snapshot of the executor's ``harness.pool.*`` metrics."""
    return POOL_METRICS.snapshot()


def shutdown_pool(cancel_pending: bool = False) -> None:
    """Tear the warm pool down (idempotent; registered with ``atexit``).

    Waits for running chunks, so no orphan workers survive the call;
    ``cancel_pending=True`` additionally cancels chunks still queued —
    the error path uses this so one worker's untyped exception does not
    leave the rest of the sweep running against a dead parent.
    """
    global _pool, _pool_size
    pool, _pool, _pool_size = _pool, None, 0
    if pool is None:
        return
    _m_shutdowns.inc()
    _m_size.set(0)
    try:
        pool.shutdown(wait=True, cancel_futures=cancel_pending)
    except TypeError:  # pragma: no cover — Python < 3.9
        pool.shutdown(wait=True)


# -- chunked dispatch ----------------------------------------------------------

def _chunksize(points: int, workers: int) -> int:
    """Points per chunk: ~``_CHUNKS_PER_WORKER`` chunks per worker.

    Large enough that shared ``SimParams``/workload objects pickle once
    per chunk instead of once per point, small enough that one slow
    point cannot strand the other workers idle behind it.
    """
    return max(1, -(-points // (workers * _CHUNKS_PER_WORKER)))


def _encode_chunk(start: int, specs: Sequence[RunSpec],
                  on_error: str) -> Tuple[str, List[Any], List[Tuple]]:
    """Pack a contiguous run of specs for one pool submission.

    ``SimParams`` and workload configs repeat heavily across a sweep
    (eight points typically share one workload object and four params
    values), so each distinct object lands once in a shared table and
    points reference it by index — the chunk pickles the shared objects
    once, not once per point.
    """
    shared: List[Any] = []

    def share(obj: Any) -> int:
        for i, seen in enumerate(shared):
            if seen is obj:
                return i
            try:
                if type(seen) is type(obj) and seen == obj:
                    return i
            except Exception:
                pass  # exotic __eq__ (e.g. array-valued): identity only
        shared.append(obj)
        return len(shared) - 1

    points = [(start + i, spec.app, share(spec.params), spec.interface,
               share(spec.workload), spec.seed, spec.meta)
              for i, spec in enumerate(specs)]
    return on_error, shared, points


def _run_chunk(payload: Tuple[str, List[Any], List[Tuple]]
               ) -> Tuple[List[Tuple[int, Any]], float]:
    """Pool-worker body: execute one chunk, in chunk order.

    Each point is rebuilt into a :class:`RunSpec` and executed through
    :func:`execute_run` with its *global* sweep index, so RNG seeding is
    identical to the ``--jobs 1`` path.  Returns the indexed results
    plus the chunk's busy time, from which the parent derives per-point
    dispatch overhead.
    """
    on_error, shared, points = payload
    t0 = time.perf_counter()
    out = []
    for index, app, params_i, interface, workload_i, seed, meta in points:
        spec = RunSpec(app, shared[params_i], interface,
                       workload=shared[workload_i], seed=seed, meta=meta)
        out.append((index, execute_run(spec, index, on_error=on_error)))
    return out, time.perf_counter() - t0


def _dispatch_chunked(specs: Sequence[RunSpec], workers: int,
                      on_error: str, chunksize: Optional[int]) -> List[Any]:
    """Fan the specs over the warm pool; return results in spec order.

    Chunks complete out of order (``as_completed``), and each result is
    slotted back by its global index — so a fast worker never waits on a
    slow chunk submitted earlier, yet callers observe pure spec order.
    Any exception escaping a chunk (a worker raising an *untyped* error,
    or the pool breaking outright) tears the pool down before
    propagating: no orphan workers, and the next ``run_map`` cold-starts
    a fresh pool.
    """
    n = len(specs)
    size = chunksize if chunksize is not None else _chunksize(n, workers)
    if size < 1:
        raise ValueError(f"chunksize={size} must be >= 1")
    pool = _get_pool(workers)
    results: List[Any] = [None] * n
    submitted: Dict[Future, Tuple[float, int]] = {}
    for begin in range(0, n, size):
        chunk = _encode_chunk(begin, specs[begin:begin + size], on_error)
        fut = pool.submit(_run_chunk, chunk)
        submitted[fut] = (time.perf_counter(), len(chunk[2]))
    _m_chunks.inc(len(submitted))
    _m_points.inc(n)
    try:
        for fut in as_completed(submitted):
            out, busy_s = fut.result()
            wall_s = time.perf_counter() - submitted[fut][0]
            per_point_ns = max(0.0, wall_s - busy_s) * 1e9 / len(out)
            for index, stats in out:
                _m_overhead.observe(per_point_ns)
                results[index] = stats
    except BaseException:
        shutdown_pool(cancel_pending=True)
        raise
    return results


def run_map(specs: Sequence[RunSpec], jobs: Optional[int] = None,
            record: bool = True, on_error: str = "raise",
            chunksize: Optional[int] = None) -> List[Any]:
    """Run every spec; return their :class:`RunStats` in spec order.

    ``jobs`` is the worker-process count (None → :func:`default_jobs`;
    1 → run in-process, no pool).  ``jobs > 1`` dispatches chunks of
    specs onto the shared **warm pool** (created on first use, reused by
    every later call — see the module docstring), clamped to
    :func:`effective_cores` so over-subscribing a small machine can
    never run slower than serial (``REPRO_POOL_FORCE=1`` disables the
    clamp); ``chunksize`` overrides
    the points-per-chunk heuristic (:func:`_chunksize`).  With
    ``record=True`` each run is recorded into
    :data:`~repro.harness.export.GLOBAL_METRICS_LOG` — in the parent, in
    spec order, with the run's ``digest`` attached — so ``--metrics``
    exports are byte-identical at any jobs setting.

    ``on_error="record"`` returns a :class:`RunFailure` in the failed
    run's slot (typed errors only) instead of letting one dying worker
    abort the whole sweep; failures are skipped by the metrics-log
    recording since they produced no metrics.
    """
    specs = list(specs)
    if on_error not in ("raise", "record"):
        raise ValueError(f"on_error={on_error!r} must be 'raise' or 'record'")
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs={jobs} must be >= 1")
    if not specs:
        return []

    workers = min(jobs, len(specs))
    if workers > 1 and not _force_pool():
        # CPU-aware worker budget: two workers on one core is strictly a
        # loss (pure dispatch tax, zero parallelism), so ``--jobs 2`` on
        # a 1-core box runs in-process — never slower than serial —
        # while any multi-core machine gets the full requested fan-out.
        workers = min(workers, effective_cores())
    if workers <= 1:
        results = [execute_run(spec, i, on_error=on_error)
                   for i, spec in enumerate(specs)]
        _m_inline.inc(len(specs))
    else:
        results = _dispatch_chunked(specs, workers, on_error, chunksize)

    if record:
        from .export import GLOBAL_METRICS_LOG

        for spec, stats in zip(specs, results):
            if isinstance(stats, RunFailure):
                continue
            GLOBAL_METRICS_LOG.record(
                spec.app, spec.interface, spec.params.num_processors,
                stats.metrics, digest=stats.digest(), **dict(spec.meta))
    return results


def merge_run_metrics(runs: Iterable[RunStats],
                      into: Optional[MetricsRegistry] = None,
                      prefix: str = "") -> MetricsRegistry:
    """Fold every run's metric tree into one registry.

    Each run's flat snapshot is rebuilt into a registry
    (:func:`repro.obs.registry_from_snapshot`, using the run's
    ``metric_kinds``) and merged through the standard dotted-hierarchy
    merge: counters sum, gauges max, histograms add bucket-wise.  This
    is how a parallel sweep gets its cluster-wide totals despite every
    run having executed in a different process.
    """
    merged = into if into is not None else MetricsRegistry()
    for stats in runs:
        merged.merge(registry_from_snapshot(stats.metrics,
                                            stats.metric_kinds),
                     prefix=prefix)
    return merged
