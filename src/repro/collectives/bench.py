"""Collective microbenchmark: timed barrier / all-reduce rounds.

A pinned SPMD kernel that alternates a small, deterministically skewed
compute burst (so arrivals stagger, as in a real application) with one
collective per round.  All-reduce rounds are self-checking: every node
verifies the combined vector against the closed-form expectation, so a
mis-combining engine (or a corrupted packet that slipped past the
reliable transport) fails the run instead of skewing a curve.

Used by the ``collectives`` experiment (via the ``run_map`` executor —
the config is picklable) and by the ``allreduce-fattree`` workload of
the repository benchmark (``bench/workloads.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Tuple

from ..engine import SimulationError
from ..params import SimParams
from .errors import CollectiveError

__all__ = ["CollBenchConfig", "collective_kernel", "run_collective_bench"]

#: The bench touches no shared pages; keep the segment tiny so cluster
#: construction doesn't price thousands of unused page homes.
_BENCH_DSM_PAGES = 16


@dataclass(frozen=True)
class CollBenchConfig:
    """Workload knobs for one collective-bench run (picklable)."""

    op: str = "barrier"        # "barrier" | "allreduce"
    rounds: int = 10
    compute_cycles: int = 1000  # base skewed burst between collectives
    vector_len: int = 4         # all-reduce payload elements


def collective_kernel(ctx, cfg: CollBenchConfig) -> Generator:
    """One node's share of the benchmark (SPMD)."""
    for r in range(cfg.rounds):
        if cfg.compute_cycles:
            # Deterministic skew: ranks arrive at different times.
            skew = 1 + (ctx.rank + r) % 3
            yield from ctx.compute(cfg.compute_cycles * skew)
        if cfg.op == "barrier":
            yield from ctx.barrier(0)
        elif cfg.op == "allreduce":
            mine = [float((ctx.rank + 1) * (r + 1))] * cfg.vector_len
            total = yield from ctx.allreduce(mine, op="sum")
            expected = float(
                (r + 1) * ctx.nprocs * (ctx.nprocs + 1) // 2)
            if total != [expected] * cfg.vector_len:
                raise SimulationError(
                    f"all-reduce round {r} on node {ctx.rank}: "
                    f"got {total}, expected {expected}")
        else:
            raise CollectiveError(f"unknown bench op {cfg.op!r}")
    return None


def run_collective_bench(params: SimParams, interface: str,
                         cfg: CollBenchConfig) -> Tuple[object, None]:
    """Run the benchmark on a fresh cluster; returns ``(RunStats, None)``
    (the ``(stats, result)`` shape every app runner uses)."""
    from ..runtime import Cluster

    params = params.replace(dsm_address_space_pages=_BENCH_DSM_PAGES)
    cluster = Cluster(params, interface=interface)
    stats = cluster.run(lambda ctx: collective_kernel(ctx, cfg))
    return stats, None
