"""Parallel execution of independent simulation runs.

Every experiment in this harness is a grid of *independent* simulated
cluster runs (interface x parameter value x processor count).  The runs
share nothing at runtime — each builds its own :class:`~repro.runtime.Cluster`
— so they fan out across a process pool, with one hard requirement on
top: **bit-for-bit determinism**.  A sweep executed with ``--jobs 8``
must produce exactly the per-point :meth:`~repro.engine.RunStats.digest`
values that ``--jobs 1`` produces (the in-process debugging path), which
the executor guarantees by

* describing each run as an immutable, picklable :class:`RunSpec`;
* seeding each worker's global RNGs from the spec's position in the
  sweep (the simulation's own randomness — fault plans, Water's initial
  state — is already carried by explicit seeds inside the spec);
* returning results in spec order (``Executor.map``) and doing all
  shared mutation — the :data:`~repro.harness.export.GLOBAL_METRICS_LOG`
  recording — in the parent, in spec order.

The pool itself is **warm**: created lazily on the first ``run_map``
that needs workers, sized by :func:`default_jobs`, and reused across
calls, so an experiment made of many small sweeps pays worker spawn
once per *process*, not once per sweep.  Each sweep is one
``Executor.map`` in chunks of :func:`_chunksize` points; a chunk
pickles as one call, so the ``SimParams`` and workload config its specs
share cross the process boundary once per chunk.  The pool is torn down
at exit, or at once when a worker raises an untyped error, so no orphan
workers outlive the harness.

See docs/parallel_runs.md for the design and the `--jobs` CLI usage.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..params import SimParams

__all__ = [
    "RunFailure",
    "RunSpec",
    "default_jobs",
    "effective_cores",
    "execute_run",
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

#: The warm pool (created lazily, survives across ``run_map`` calls).
_pool: Optional[ProcessPoolExecutor] = None
_pool_size: int = 0


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
    """Workload name in the registry (:data:`repro.apps.WORKLOADS`),
    such as ``jacobi`` or ``collbench``."""

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

def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The warm pool, creating (or growing) it if needed.

    Sized ``max(workers, default_jobs())`` so the common CLI pattern —
    ``set_default_jobs(N)`` then many sweeps — provisions once up front.
    A pool that is already at least as large as the request is reused
    as-is; a smaller one is torn down and replaced
    (``ProcessPoolExecutor`` cannot grow in place).
    """
    global _pool, _pool_size
    if _pool is not None:
        if _pool_size >= workers:
            return _pool
        shutdown_pool()
    size = max(workers, default_jobs())
    _pool, _pool_size = ProcessPoolExecutor(max_workers=size), size
    return _pool


def pool_size() -> int:
    """Provisioned worker count of the live warm pool (0 when cold)."""
    return _pool_size if _pool is not None else 0


def shutdown_pool(cancel_pending: bool = False) -> None:
    """Tear the warm pool down (idempotent; registered with ``atexit``).

    Waits for running chunks, so no orphan workers survive the call;
    ``cancel_pending=True`` additionally cancels chunks still queued —
    the error path uses this so one worker's untyped exception does not
    leave the rest of the sweep running against a dead parent.
    """
    global _pool, _pool_size
    pool, _pool, _pool_size = _pool, None, 0
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=cancel_pending)


atexit.register(shutdown_pool)


def _chunksize(points: int, workers: int) -> int:
    """Points per chunk: ~``_CHUNKS_PER_WORKER`` chunks per worker.

    Large enough that shared ``SimParams``/workload objects pickle once
    per chunk instead of once per point, small enough that one slow
    point cannot strand the other workers idle behind it.
    """
    return max(1, -(-points // (workers * _CHUNKS_PER_WORKER)))


def run_map(specs: Sequence[RunSpec], jobs: Optional[int] = None,
            record: bool = True, on_error: str = "raise") -> List[Any]:
    """Run every spec; return their :class:`RunStats` in spec order.

    ``jobs`` is the worker-process count (None → :func:`default_jobs`;
    1 → run in-process, no pool).  ``jobs > 1`` maps the specs over the
    shared **warm pool** (created on first use, reused by every later
    call — see the module docstring), clamped to :func:`effective_cores`
    so over-subscribing a small machine can never run slower than
    serial.  With ``record=True`` each run is recorded into
    :data:`~repro.harness.export.GLOBAL_METRICS_LOG` — in the parent, in
    spec order, with the run's ``digest`` attached — so ``--metrics``
    exports are byte-identical at any jobs setting.

    ``on_error="record"`` returns a :class:`RunFailure` in the failed
    run's slot (typed errors only) instead of letting one dying worker
    abort the whole sweep; failures are skipped by the metrics-log
    recording since they produced no metrics.  Any other exception
    tears the pool down before it propagates, and the next call
    cold-starts a fresh one.
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

    # CPU-aware worker budget: two workers on one core is strictly a
    # loss (pure dispatch tax, zero parallelism), so ``--jobs 2`` on a
    # 1-core box runs in-process — never slower than serial — while any
    # multi-core machine gets the full requested fan-out.
    workers = min(jobs, len(specs), effective_cores())
    if workers <= 1:
        results = [execute_run(spec, i, on_error=on_error)
                   for i, spec in enumerate(specs)]
    else:
        pool = _get_pool(workers)
        try:
            results = list(pool.map(
                execute_run, specs, range(len(specs)), repeat(on_error),
                chunksize=_chunksize(len(specs), workers)))
        except BaseException:
            shutdown_pool(cancel_pending=True)
            raise

    if record:
        from .export import GLOBAL_METRICS_LOG

        for spec, stats in zip(specs, results):
            if isinstance(stats, RunFailure):
                continue
            GLOBAL_METRICS_LOG.record(
                spec.app, spec.interface, spec.params.num_processors,
                stats.metrics, digest=stats.digest(), **dict(spec.meta))
    return results
