#!/usr/bin/env python
"""Chaos campaign: every registered workload under seeded fault plans.

Sweeps crash / link-down / cell-loss / corruption-and-delay plans across
the full workload registry (:data:`repro.apps.WORKLOADS`), on the paper's banyan switch
and on one fabric of each multi-hop family (:data:`FABRICS`), and
asserts the crash-stop fault-tolerance contract end to end (see
docs/reliability.md):

* every run **terminates** — either successfully or with one of the
  *typed* errors (``RuntimeTimeout``, ``PeerDead``, ``CollectiveError``,
  ``DeliveryFailed``).  A ``StuckError`` (the engine watchdog's
  deadlock report) or any untyped exception is a campaign failure: it
  means a blocked wait escaped the deadline/detector machinery;
* the sweep is **deterministic at any worker count** — every point's
  digest (``RunStats.digest`` for successes, ``RunFailure.digest`` for
  typed failures) is bit-identical between ``--jobs 1`` and
  ``--jobs N``.

Each run's line carries the first 16 hex digits of its digest and, for
a successful run, of a hash of its whole metric snapshot (``-`` for a
typed failure).  The digest hashes only the outcome, so a metric that
moves with the outcome unchanged (``engine.events_processed``, say)
shows only in the snapshot hash.  Two commits that must agree give the
same output except the ``wall:`` line: compare them with one ``diff``.

Usage:
    tools/chaos_campaign.py           # 3 fabrics x 7 workloads x 7 plans
    tools/chaos_campaign.py --smoke   # banyan, 3 workloads x 3 plans
    tools/chaos_campaign.py --jobs 4  # parallel worker count (default 2)

Exit status 0 when every run passed the contract, 1 otherwise.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

#: Error types that count as a *pass* under a fault plan: the typed,
#: documented outcomes of the reliability stack.  Everything else —
#: notably ``StuckError`` — is a no-hang-guarantee violation.
TYPED_OK = frozenset({
    "RuntimeTimeout",
    "PeerDead",
    "CollectiveError",
    "DeliveryFailed",
})

#: Base seed every plan derives from, mixed with the plan's position so
#: reruns of the campaign are reproducible end to end.
CAMPAIGN_SEED = 20260808

#: Fabrics the full campaign runs its grid on: the default banyan switch,
#: then a fat-tree and an adaptive torus, so every fault plan also runs
#: through the multi-hop fabric walk.  ``--smoke`` keeps the first only.
FABRICS = ("banyan:32", "fattree:k=4", "torus:2x2:adaptive")


def _workload_configs(smoke: bool) -> List[Tuple[str, Any, int]]:
    """``(app, config, nprocs)`` for every registered workload.

    Configs are deliberately tiny — the campaign's job is coverage of
    the failure paths, not throughput — and pinned explicitly so the
    digests are stable against registry default changes.
    """
    from repro.apps import (CholeskyConfig, CollBenchConfig, HaloConfig,
                            JacobiConfig, PingPongConfig, TransposeConfig,
                            WaterConfig, WORKLOADS, synthetic_fem_spd)

    table: List[Tuple[str, Any, int]] = [
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
    covered = {app for app, _cfg, _p in table}
    missing = sorted(set(WORKLOADS) - covered)
    if missing:
        raise SystemExit(f"[chaos] FATAL: workloads not covered by the "
                         f"campaign: {missing} — add configs above")
    if smoke:
        keep = {"jacobi", "collbench", "pingpong"}
        table = [row for row in table if row[0] in keep]
    return table


def _fault_plans(smoke: bool, nprocs: int) -> List[Tuple[str, Any]]:
    """``(name, FaultPlan | None)`` schedule matrix for one workload."""
    from repro.faults import (CellCorrupt, CellLoss, FaultPlan, LinkDown,
                              NicStall, NodeCrash, NodeSlow)

    plans: List[Tuple[str, Any]] = [
        ("clean", None),
        ("crash-early", FaultPlan(seed=CAMPAIGN_SEED + 1, schedules=(
            NodeCrash(node=nprocs - 1, at_ns=200_000.0),))),
        ("loss", FaultPlan(seed=CAMPAIGN_SEED + 2, schedules=(
            CellLoss(rate=0.005),))),
    ]
    if not smoke:
        plans += [
            ("crash-mid", FaultPlan(seed=CAMPAIGN_SEED + 3, schedules=(
                NodeCrash(node=1 % nprocs, at_ns=2_000_000.0),))),
            ("linkdown", FaultPlan(seed=CAMPAIGN_SEED + 4, schedules=(
                LinkDown(src=0, dst=nprocs - 1, from_ns=0.0,
                         to_ns=400_000.0),))),
            ("crash+loss", FaultPlan(seed=CAMPAIGN_SEED + 5, schedules=(
                NodeCrash(node=nprocs - 1, at_ns=500_000.0),
                CellLoss(rate=0.005)))),
            # Corrupted cells reach the receiving NIC's integrity check,
            # and the stall and slowdown run the arrival-delay path.
            ("corrupt+stall", FaultPlan(seed=CAMPAIGN_SEED + 6, schedules=(
                CellCorrupt(rate=0.002),
                CellLoss(nth=400),
                NicStall(node=1 % nprocs, from_ns=1e5, to_ns=3e5),
                NodeSlow(node=0, factor=1.5, from_ns=0.0, to_ns=5e5)))),
        ]
    return plans


def build_specs(smoke: bool) -> List[Tuple[str, Any]]:
    """The campaign grid, fabric x workload x plan, as ``(label,
    RunSpec)`` pairs."""
    from repro.harness import RunSpec
    from repro.params import SimParams

    base = SimParams().replace(
        reliable_transport=True,
        reliab_timeout_ns=300_000.0,
        reliab_max_attempts=5,
        op_deadline_ns=20_000_000.0,
        heartbeat_interval_ns=500_000.0,
        heartbeat_miss_budget=4,
        runtime_send_retries=1,
    )
    workloads = _workload_configs(smoke)
    grid: List[Tuple[str, Any]] = []
    for fabric in FABRICS[:1] if smoke else FABRICS:
        for app, cfg, nprocs in workloads:
            params = base.replace(num_processors=nprocs, topology=fabric)
            for plan_name, plan in _fault_plans(smoke, nprocs):
                grid.append((
                    f"{fabric} {app}/{plan_name}",
                    RunSpec(app, params.replace(fault_plan=plan), "cni",
                            cfg),
                ))
    return grid


def _digest(result: Any) -> str:
    return result.digest()


def _snapshot_hash(metrics: Dict[str, Any]) -> str:
    """16 hex digits of a hash of a run's whole metric snapshot."""
    blob = json.dumps(metrics, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_campaign(jobs: int, smoke: bool) -> int:
    from repro.harness import RunFailure, run_map

    grid = build_specs(smoke)
    labels = [label for label, _spec in grid]
    specs = [spec for _label, spec in grid]
    mode = "smoke" if smoke else "full"
    print(f"[chaos] campaign ({mode}): {len(specs)} runs, "
          f"jobs 1 vs jobs {jobs}")

    t0 = time.perf_counter()
    serial = run_map(specs, jobs=1, record=False, on_error="record")
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_map(specs, jobs=jobs, record=False, on_error="record")
    parallel_s = time.perf_counter() - t0

    failures = 0
    outcome_counts: Dict[str, int] = {}
    for label, s_res, p_res in zip(labels, serial, parallel):
        problems = []
        if _digest(s_res) != _digest(p_res):
            problems.append(f"digest mismatch at jobs {jobs}")
        if isinstance(s_res, RunFailure):
            outcome = s_res.error_type
            snapshot = "-"
            if s_res.error_type not in TYPED_OK:
                problems.append(
                    f"untyped outcome {s_res.error_type}: {s_res.message}")
        else:
            outcome = "ok"
            snapshot = _snapshot_hash(s_res.metrics)
        outcome_counts[outcome] = outcome_counts.get(outcome, 0) + 1
        status = "FAIL " + "; ".join(problems) if problems else outcome
        print(f"[chaos]   {label:<42} {_digest(s_res)[:16]} "
              f"{snapshot:<16} {status}")
        failures += bool(problems)

    summary = ", ".join(f"{k}={v}" for k, v in sorted(outcome_counts.items()))
    print(f"[chaos] outcomes: {summary}")
    print(f"[chaos] wall: serial {serial_s:.1f}s, jobs {jobs} "
          f"{parallel_s:.1f}s")
    if failures:
        print(f"[chaos] FAILED: {failures}/{len(specs)} runs broke the "
              f"contract (hang, untyped error, or nondeterminism)")
        return 1
    print(f"[chaos] PASSED: all {len(specs)} runs terminated with success "
          f"or a typed error; digests identical at jobs 1 and {jobs}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="subset: banyan only, 3 workloads x 3 plans")
    ap.add_argument("--jobs", type=int, default=2,
                    help="parallel worker count to compare against "
                         "jobs 1 (default 2)")
    args = ap.parse_args(argv)
    if args.jobs < 1:
        ap.error("--jobs must be >= 1")
    return run_campaign(args.jobs, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
