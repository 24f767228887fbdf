#!/usr/bin/env python
"""The outcome corpus: every run a change must not move unknowingly,
fingerprinted in one committed file, ``tests/golden/outcomes.json``.

The simulator is an exact function of its parameters, so each run has
one outcome.  The corpus holds one line per run, sorted by label::

    [label, digest, snapshot hash, outcome]

* *digest*: 16 hex digits of ``RunStats.digest()``, which hashes only
  the outcome (simulated time, counters, per-processor accounts), or of
  ``RunFailure.digest()`` for a run that ended in a typed error;
* *snapshot hash*: 16 hex digits of a sha256 of the run's whole metric
  snapshot (JSON, sorted keys), so it also moves with an observation
  the digest leaves out; ``-`` for a failed run;
* *outcome*: ``ok``; ``correct`` for a Jacobi, Water or Cholesky run
  whose answer matches its sequential reference; or the typed error the
  run ended in (``RuntimeTimeout``, ``PeerDead``, ``CollectiveError``,
  ``DeliveryFailed``).

A wrong answer, an untyped error or a ``StuckError`` (a blocked wait
that escaped the deadline and detector machinery) is refused: ``record``
then writes nothing, and ``check`` fails.

Sections, each a prefix of its entries' labels:

* ``chaos``: every registered workload under seven fault plans on the
  banyan, a fat-tree and an adaptive torus;
* ``experiments``: the quick-scale runs of fig2 fig4 fig5 fig6 fig9
  fig10 fig12 fig13 table5 messaging collectives faults, and of fig2 on
  two 8-node tori (dimension-order and adaptive) and a 16-host
  fat-tree;
* ``platforms``: snooping off, the eager protocol and a CNI without
  AIH, which no experiment runs;
* ``fabric``: small runs on every fabric, clean and under cell loss;
* ``bench``: the five benchmark workloads of ``bench/workloads.py`` at
  full size, seeds 1 and 2;
* ``cache``: a ``CacheHierarchy`` driven by a seeded stream of every
  operation kind, six seeds.  Its digest hashes what the simulator sees
  (every ``AccessCost`` field and the write-backs), its snapshot hash
  both levels' tags and dirty bits after every operation.

``record`` runs every section in this process.  ``check`` runs the
chaos, fabric, bench and cache sections on two freshly spawned worker
processes and the experiments through the executor's warm pool at two
jobs, so it is also the check that a run's outcome does not depend on
the process it runs in.  It names every entry that moved, appeared or
vanished, with old and new values, and exits 1 if any did.

Usage:
    python tools/outcomes.py check
    python tools/outcomes.py record
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import multiprocessing
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterator, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.append(os.path.join(ROOT, "bench"))
CORPUS = os.path.join(ROOT, "tests", "golden", "outcomes.json")

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (bench/workloads.py)
from repro.apps import (  # noqa: E402
    CholeskyConfig, CollBenchConfig, HaloConfig, JacobiConfig,
    PingPongConfig, TransposeConfig, WaterConfig, WORKLOADS,
    band_cholesky_reference, jacobi_reference, run, synthetic_fem_spd,
    water_reference)
from repro.apps.jacobi import build_jacobi, jacobi_kernel  # noqa: E402
from repro.faults import (  # noqa: E402
    CellCorrupt, CellLoss, FaultPlan, LinkDown, NicStall, NodeCrash,
    NodeSlow, parse_fault_plan)
from repro.harness import (  # noqa: E402
    GLOBAL_METRICS_LOG, QUICK, RunFailure, RunSpec, parallel, run_experiment)
from repro.memory.cache import CacheHierarchy  # noqa: E402
from repro.network.spec import parse_topology  # noqa: E402
from repro.params import SimParams  # noqa: E402
from repro.runtime import Cluster  # noqa: E402

Entry = List[str]
Mapper = Callable[..., Iterator[Any]]

#: The typed errors a run may end in under a fault plan.
TYPED_OK = frozenset({"RuntimeTimeout", "PeerDead", "CollectiveError",
                      "DeliveryFailed"})
ALLOWED = TYPED_OK | {"ok", "correct"}
COLUMNS = ("digest", "snapshot hash", "outcome")
REFERENCES = {"jacobi": jacobi_reference, "water": water_reference,
              "cholesky": lambda cfg: band_cholesky_reference(cfg.matrix)}

#: Base seed of the chaos plans, mixed with each plan's position.
CHAOS_SEED = 20260808
FABRICS = ("banyan:32", "fattree:k=4", "torus:2x2:adaptive")
EXPERIMENTS = ("fig2 fig4 fig5 fig6 fig9 fig10 fig12 fig13 table5 "
               "messaging collectives faults").split()
TOPOLOGIES = ("torus:2x2x2", "torus:2x2x2:adaptive", "fattree:k=4")
CACHE_SEEDS = range(1, 7)
CACHE_TRIALS = 100
CACHE_KINDS = ("contiguous", "ascending", "repeated", "random", "one-line",
               "range", "flush", "invalidate")


def _hash(metrics: dict) -> str:
    blob = json.dumps(metrics, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _judge(app: str, config: Any, result: Any) -> str:
    """``correct`` or ``wrong answer`` for an app with a sequential
    reference, ``ok`` for one without."""
    if app not in REFERENCES:
        return "ok"
    expected = REFERENCES[app](config)
    right = result.shape == expected.shape and np.allclose(result, expected)
    return "correct" if right else "wrong answer"


def _execute(spec: RunSpec) -> Tuple[str, str, str]:
    """One spec's digest, snapshot hash and outcome."""
    try:
        stats, result = run(spec.app, spec.params, spec.interface,
                            spec.workload)
    except Exception as exc:
        failure = RunFailure(spec.describe(), type(exc).__name__, str(exc))
        outcome = failure.error_type
        if outcome not in TYPED_OK:
            outcome += f": {failure.message}"
        return failure.digest()[:16], "-", outcome
    return (stats.digest()[:16], _hash(stats.metrics),
            _judge(spec.app, spec.workload, result))


def _run_specs(mapper: Mapper, section: str, grid) -> List[Entry]:
    """The entries of ``(label, RunSpec)`` pairs, run through ``mapper``."""
    rows = mapper(_execute, [spec for _label, spec in grid])
    return [[f"{section} {label}", *row]
            for (label, _spec), row in zip(grid, rows)]


# -- sections: each takes the map its own runs go through -------------------

def chaos(mapper: Mapper = map) -> List[Entry]:
    """Every registered workload, tiny, under seven fault plans on each
    of :data:`FABRICS`, with deadlines and the heartbeat detector armed."""
    apps = [
        ("jacobi", JacobiConfig(n=32, iterations=2), 4),
        ("collbench", CollBenchConfig(op="allreduce", rounds=4,
                                      compute_cycles=500), 4),
        ("pingpong", PingPongConfig(rounds=4, message_bytes=1024), 2),
        ("halo", HaloConfig(iters=2, halo_bytes=512, compute_cycles=1000), 4),
        ("transpose", TransposeConfig(rounds=1, block_bytes=4096), 4),
        ("water", WaterConfig(n_molecules=24, steps=1, seed=42), 4),
        ("cholesky", CholeskyConfig(matrix=synthetic_fem_spd(32, 4),
                                    supernode=8), 4),
    ]
    missing = sorted(set(WORKLOADS) - {app for app, _cfg, _p in apps})
    if missing:
        raise SystemExit(f"outcomes: no chaos config for {missing}")

    def plans(p: int):
        def seeded(k, *schedules):
            return FaultPlan(seed=CHAOS_SEED + k, schedules=schedules)
        return [
            ("clean", None),
            ("crash-early", seeded(1, NodeCrash(node=p - 1, at_ns=2e5))),
            ("loss", seeded(2, CellLoss(rate=0.005))),
            ("crash-mid", seeded(3, NodeCrash(node=1 % p, at_ns=2e6))),
            ("linkdown", seeded(4, LinkDown(src=0, dst=p - 1, from_ns=0.0,
                                            to_ns=4e5))),
            ("crash+loss", seeded(5, NodeCrash(node=p - 1, at_ns=5e5),
                                  CellLoss(rate=0.005))),
            # Corrupted cells reach the receiving NIC's integrity check,
            # and the stall and slowdown run the arrival-delay path.
            ("corrupt+stall", seeded(
                6, CellCorrupt(rate=0.002), CellLoss(nth=400),
                NicStall(node=1 % p, from_ns=1e5, to_ns=3e5),
                NodeSlow(node=0, factor=1.5, from_ns=0.0, to_ns=5e5))),
        ]

    base = SimParams().replace(
        reliable_transport=True, reliab_timeout_ns=300_000.0,
        reliab_max_attempts=5, op_deadline_ns=20_000_000.0,
        heartbeat_interval_ns=500_000.0, heartbeat_miss_budget=4,
        runtime_send_retries=1)
    grid = []
    for fabric in FABRICS:
        for app, cfg, p in apps:
            params = base.replace(num_processors=p, topology=fabric)
            for name, plan in plans(p):
                grid.append((f"{fabric} {app}/{name}", RunSpec(
                    app, params.replace(fault_plan=plan), "cni", cfg)))
    return _run_specs(mapper, "chaos", grid)


def experiments(mapper: Mapper = map) -> List[Entry]:
    """Every run the experiments record, at quick scale.  They run
    through the executor at its default jobs."""
    out = []
    named = ("app", "interface", "nprocs", "digest", "metrics")
    for exp, topology in ([(e, "") for e in EXPERIMENTS]
                          + [("fig2", t) for t in TOPOLOGIES]):
        base = None
        if topology:   # as ``--topology`` builds it
            nprocs = min(SimParams().num_processors,
                         parse_topology(topology).capacity)
            base = SimParams().replace(topology=topology,
                                       num_processors=nprocs)
        GLOBAL_METRICS_LOG.clear()
        run_experiment(exp, QUICK, base)
        where = f"{exp}@{topology}" if topology else exp
        for i, r in enumerate(GLOBAL_METRICS_LOG.entries):
            meta = "".join(f" {k}={v}" for k, v in sorted(r.items())
                           if k not in named)
            out.append([f"experiments {where} {i:02d} {r['app']}/"
                        f"{r['interface']}/p{r['nprocs']}{meta}",
                        r["digest"][:16], _hash(r["metrics"]), "ok"])
    GLOBAL_METRICS_LOG.clear()
    return out


def platforms(mapper: Mapper = map) -> List[Entry]:
    """Jacobi, Water and Cholesky with snooping on and off; Jacobi under
    the lazy and the eager protocol; and, on a CNI without AIH, whose
    board bounces every protocol packet, DSM and collective, to its
    host, those three and a collbench all-reduce.  Runs in this process."""
    jacobi = JacobiConfig(n=64, iterations=5)
    apps = [("jacobi", jacobi), ("water", WaterConfig()),
            ("cholesky", CholeskyConfig())]
    out = []

    def entry(label, app, cfg, stats, result):
        out.append([f"platforms {label}", stats.digest()[:16],
                    _hash(stats.metrics), _judge(app, cfg, result)])

    for snoop in (True, False):
        p = SimParams().replace(num_processors=4, snoop_enabled=snoop)
        tag = "snoop" if snoop else "nosnoop"
        for app, cfg in apps:
            entry(f"{app} {tag}", app, cfg, *run(app, p, "cni", cfg))
        for proto in ("lazy", "eager"):
            cluster = Cluster(p, interface="cni", home_scheme="block",
                              protocol=proto)
            grids = build_jacobi(cluster, jacobi)
            stats = cluster.run(lambda ctx: jacobi_kernel(ctx, jacobi, grids))
            entry(f"jacobi-{proto} {tag}", "jacobi", jacobi, stats,
                  grids[jacobi.iterations % 2].data)
    p = SimParams().replace(num_processors=4, use_aih=False)
    for app, cfg in apps + [("collbench",
                             CollBenchConfig(op="allreduce", rounds=8))]:
        entry(f"{app} noaih", app, cfg, *run(app, p, "cni", cfg))
    return out


def fabric_runs() -> List[Tuple[str, RunSpec]]:
    """Small runs on the dimension-order and the adaptive torus (whose
    route picks each hop from live queue state), the fat-tree and the
    banyan, clean and under cell loss (the lossy run retransmits once),
    by label."""
    def spec(app, cfg, topology, nprocs=16, **over):
        return RunSpec(app, SimParams().replace(
            num_processors=nprocs, topology=topology, **over), "cni", cfg)

    transpose = TransposeConfig(rounds=2, block_bytes=4096)
    lossy = parse_fault_plan("seed=3;cell_loss(rate=0.002)")
    return [
        ("transpose-torus4x4-adaptive",
         spec("transpose", transpose, "torus:4x4:adaptive")),
        ("transpose-torus4x4", spec("transpose", transpose, "torus:4x4")),
        ("allreduce-fattree-k4", spec(
            "collbench", CollBenchConfig(op="allreduce", rounds=4),
            "fattree:k=4")),
        ("transpose-banyan16", spec("transpose", transpose, "banyan:16")),
        ("pingpong-banyan8-lossy", spec(
            "pingpong", PingPongConfig(rounds=4, message_bytes=6000),
            "banyan:8", 2, reliable_transport=True, fault_plan=lossy)),
    ]


def fabric(mapper: Mapper = map) -> List[Entry]:
    """The :func:`fabric_runs`."""
    return _run_specs(mapper, "fabric", fabric_runs())


def bench(mapper: Mapper = map) -> List[Entry]:
    """The benchmark's five workloads at full size, seeds 1 and 2 (the
    seed enters Water's and Cholesky's inputs and the loss pattern)."""
    grid = []
    for seed in (1, 2):
        for name, w in workloads.WORKLOADS.items():
            params, config = w.make(seed, False)
            grid.append((f"{name} seed={seed}",
                         RunSpec(w.app, params, w.interface, config)))
    return _run_specs(mapper, "bench", grid)


def _ints(rng: random.Random, k: int, top: int) -> np.ndarray:
    """``k`` integers in ``[0, top)``, ``top`` a power of two, drawn at
    once from ``random.Random``, whose bit stream, unlike a numpy
    ``Generator``'s, stays the same across versions."""
    raw = rng.getrandbits(32 * k).to_bytes(4 * k, "little")
    return np.frombuffer(raw, dtype="<u4").astype(np.int64) % top


def _burst(rng: random.Random, kind: str, lo: int, l1: int,
           l2: int) -> np.ndarray:
    """One burst's program-ordered lines of the given kind."""
    if kind == "ascending":            # gaps; span below/above a level
        span = rng.choice((l1 // 2, l1, 2 * l1, l2, 2 * l2)) + 1
        keep = _ints(rng, span, 4) < rng.randint(1, 3)
        keep[rng.randrange(span)] = True
        return lo + np.flatnonzero(keep)
    if kind == "repeated":
        return np.sort(lo + _ints(rng, rng.randrange(1, 3 * l1), 2 * l1))
    if kind == "random":
        return _ints(rng, rng.randrange(1, 2 * l1), 4 * l2)
    if kind == "one-line":             # the scalar path
        return np.array([lo], dtype=np.int64)
    # contiguous, up to 3x the L2
    return np.arange(lo, lo + rng.randint(1, 3 * l2), dtype=np.int64)


def _cache(seed: int, trials: int = CACHE_TRIALS) -> Tuple[str, str, str]:
    """Trials of 60 operations, each on a fresh hierarchy: an L1 of 2-32
    sets under an L2 of 2-8x that, every 50th on Table 1's geometry.
    Bursts (``_burst``, and ``range`` through ``access_range``) up to 3x
    the L2 are reads or writes at random; flushes and invalidations of
    line ranges start anywhere, so they wrap the set index."""
    rng = random.Random(seed)
    seen, state = hashlib.sha256(), hashlib.sha256()
    for trial in range(trials):
        l1 = rng.choice((2, 4, 8, 16, 32))
        l2 = l1 * rng.choice((2, 4, 8))
        if trial % 50 == 0:
            l1, l2 = 1024, 32768
        h = CacheHierarchy(l1 * 32, l2 * 32, 32, 1, 10, 20)
        for _step in range(60):
            kind = rng.choice(CACHE_KINDS)
            lo = rng.randrange(4 * l2)
            if kind in ("flush", "invalidate"):
                n = rng.randint(1, rng.choice((l1, l2, 3 * l2)))
                if kind == "flush":
                    lines = h.flush_range(lo, n)
                    seen.update(repr(lines.size).encode())
                    seen.update(lines)
                else:
                    h.invalidate_range(lo, n)
            else:
                w = rng.random() < 0.5
                cost = (h.access_range(lo, rng.randint(1, 3 * l2), w)
                        if kind == "range" else
                        h.access(_burst(rng, kind, lo, l1, l2), w))
                # Burst write-backs come in line or in set order by the
                # path taken; callers only count them.
                lines = np.sort(cost.writeback_lines)
                seen.update(repr((cost.accesses, cost.l1_hits, cost.l2_hits,
                                  cost.memory_accesses, cost.cpu_cycles,
                                  lines.size)).encode())
                seen.update(lines)
            for level in (h.l1, h.l2):
                state.update(level.tags)
                state.update(level.dirty)
    return seen.hexdigest()[:16], state.hexdigest()[:16], "ok"


def cache(mapper: Mapper = map) -> List[Entry]:
    """The cache model under one seeded stream per seed."""
    return [[f"cache seed={seed}", *row]
            for seed, row in zip(CACHE_SEEDS, mapper(_cache, CACHE_SEEDS))]


SECTIONS = (chaos, experiments, platforms, fabric, bench, cache)


# -- the corpus ---------------------------------------------------------------

@contextlib.contextmanager
def _two_workers() -> Iterator[Mapper]:
    """Two fresh worker processes for the sections' own runs, and the
    executor's warm pool at two jobs on any host: its clamp to the
    host's cores is patched, as the executor's tests do."""
    cores, jobs = parallel.effective_cores, parallel.default_jobs()
    parallel.effective_cores = lambda: 2
    parallel.set_default_jobs(2)
    try:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(2, mp_context=spawn) as pool:
            yield pool.map
    finally:
        parallel.effective_cores = cores
        parallel.set_default_jobs(jobs)
        parallel.shutdown_pool()


def compute(pooled: bool) -> List[Entry]:
    """Every section's entries, sorted by label."""
    with _two_workers() if pooled else contextlib.nullcontext(map) as mapper:
        entries = sorted(e for section in SECTIONS for e in section(mapper))
    labels = {e[0] for e in entries}
    assert len(labels) == len(entries), "two runs share a label"
    return entries


def refused(entries: List[Entry]) -> List[Entry]:
    """The entries whose outcome breaks the contract."""
    return [e for e in entries if e[3] not in ALLOWED]


def compare(old: List[Entry], new: List[Entry]) -> Tuple[List[str], bool]:
    """One line per entry that moved, appeared or vanished, with old and
    new values, then a summary; and whether anything did."""
    before = {e[0]: e[1:] for e in old}
    after = {e[0]: e[1:] for e in new}
    lines, moved = [], [0] * len(COLUMNS)
    for label in sorted(before.keys() | after.keys()):
        a, b = before.get(label), after.get(label)
        if a is None:
            lines.append(f"appeared {label}: {' '.join(b)}")
        elif b is None:
            lines.append(f"vanished {label}: {' '.join(a)}")
        else:
            for i, column in enumerate(COLUMNS):
                if a[i] != b[i]:
                    moved[i] += 1
                    lines.append(f"moved {label}: {column} {a[i]} -> {b[i]}")
    appeared = len(after.keys() - before.keys())
    vanished = len(before.keys() - after.keys())
    lines.append(f"{len(new)} runs: {moved[0]} digests moved, {moved[1]} "
                 f"snapshot hashes moved, {moved[2]} outcomes moved, "
                 f"{appeared} appeared, {vanished} vanished")
    return lines, bool(sum(moved) + appeared + vanished)


def dump(entries: List[Entry]) -> str:
    """The corpus file: a JSON list, one entry per line."""
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


def committed(path: str = CORPUS) -> List[Entry]:
    """The corpus at ``path``."""
    with open(path) as fh:
        return json.load(fh)


def record(path: str = CORPUS) -> int:
    """Write the corpus, computed in this process; 1, and nothing
    written, if a run is refused."""
    entries = compute(pooled=False)
    bad = refused(entries)
    for e in bad:
        print(f"refused {e[0]}: {e[3]}")
    if bad:
        return 1
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(dump(entries))
    counts = collections.Counter(e[0].split()[0] for e in entries)
    print(f"wrote {len(entries)} runs to {path} ("
          + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())) + ")")
    return 0


def check(path: str = CORPUS) -> int:
    """Compare a corpus recomputed on worker processes with the one at
    ``path``; 1 if an entry moved, appeared or vanished, or a run is
    refused."""
    new = compute(pooled=True)
    lines, moved = compare(committed(path), new)
    bad = refused(new)
    for line in [f"refused {e[0]}: {e[3]}" for e in bad] + lines:
        print(line)
    return 1 if moved or bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("command", choices=("check", "record"),
                    help="compare a fresh corpus with the committed one, "
                         "or write it")
    args = ap.parse_args(argv)
    return check() if args.command == "check" else record()


if __name__ == "__main__":
    sys.exit(main())
