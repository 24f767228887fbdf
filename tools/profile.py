#!/usr/bin/env python
"""Profile one benchmark workload under cProfile and print the hot path.

The perf work in this repo is profile-guided: every optimisation starts
by running this tool on a pinned workload and attacking the top of the
list, and ends by re-running it to show the cost moved (``bench/run.py``
then measures the change end to end).

Runs the repository benchmark's own workloads (``bench/workloads.py``),
so profile output and benchmark numbers describe the same code path::

    python tools/profile.py                            # default: jacobi-dsm
    python tools/profile.py --workload cholesky-lossy
    python tools/profile.py --workload transpose-torus --smoke
    python tools/profile.py --sort tottime --limit 40
    python tools/profile.py --callers repro            # who calls into repro.*
    python tools/profile.py --dump /tmp/run.prof       # for snakeviz/pstats
    python tools/profile.py --workload allreduce-fattree --memory
    python tools/profile.py --workload transpose-torus --sites

``--memory`` runs the workload under ``tracemalloc`` instead of cProfile
and prints the traced peak and the top allocation sites by line, as
live when the simulation ends and the cluster still holds everything it
built.

``--sites`` runs the workload without a profiler and counts process
resumes by the innermost yield site each resume continues from
(``file:function:line``; a process's first resume, also one spawned
after a chain of delays, is at its function's ``def`` line), with their
total.  Every resume of a process is one event, so on a workload that
schedules no plain callbacks the total is ``engine.events``.

Per-layer shares of host time come from ``bench/run.py --trace 1``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import List, Optional

# This file is named profile.py, which would shadow the stdlib `profile`
# module that cProfile imports — drop the script's directory from the
# module search path before touching the profiler machinery.
_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
sys.path[:] = [p for p in sys.path
               if os.path.abspath(p or os.getcwd()) != _HERE]
sys.path.insert(0, os.path.join(_HERE, "..", "bench"))

import cProfile  # noqa: E402
import inspect  # noqa: E402
import pstats  # noqa: E402
import tracemalloc  # noqa: E402

import workloads  # noqa: E402  (puts src/ on the path)

from repro.engine import Simulator  # noqa: E402
from repro.runtime import Cluster  # noqa: E402

#: Stack depth tracemalloc records per block under ``--memory``: deep
#: enough to reach the simulator line behind a numpy allocation.
_MEMORY_FRAMES = 4


def _memory(inputs, limit: int) -> None:
    """One run under tracemalloc: print the traced peak and the top
    ``limit`` allocation sites live as ``Cluster.run`` returns.

    A block is charged to the innermost line of the simulator's own
    source on its stack (the ``np.full`` call, not numpy's body), or to
    its allocating line when no simulator frame is there.
    """
    snapshots = []
    cluster_run = Cluster.run

    def run_then_snapshot(self, *args, **kwargs):
        stats = cluster_run(self, *args, **kwargs)
        snapshots.append(tracemalloc.take_snapshot())
        return stats

    Cluster.run = run_then_snapshot
    tracemalloc.start(_MEMORY_FRAMES)
    try:
        inputs.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        Cluster.run = cluster_run

    src = os.path.join(_ROOT, "src") + os.sep
    sizes: Counter = Counter()
    blocks: Counter = Counter()
    for trace in snapshots[-1].traces:
        frames = trace.traceback  # oldest first
        site = next((f for f in reversed(frames)
                     if os.path.normpath(f.filename).startswith(src)),
                    frames[-1])
        where = f"{os.path.relpath(site.filename, _ROOT)}:{site.lineno}"
        sizes[where] += trace.size
        blocks[where] += 1
    print(f"[profile] traced peak {peak / 1e6:.1f} MB")
    print(f"[profile] top {limit} allocation sites live at the end of the "
          f"simulation:")
    for where, size in sizes.most_common(limit):
        print(f"  {size / 1e6:8.3f} MB in {blocks[where]:7,d} blocks  {where}")


class _CountedGenerator:
    """A spawned process body that counts each ``send`` by the yield site
    it resumes: the innermost generator of the ``yield from`` chain."""

    __slots__ = ("_gen", "_sites")

    def __init__(self, gen, sites: Counter):
        self._gen = gen
        self._sites = sites

    def send(self, value):
        gen = self._gen
        inner = gen.gi_yieldfrom
        while inspect.isgenerator(inner):
            gen, inner = inner, inner.gi_yieldfrom
        frame = gen.gi_frame
        if frame is None:
            # A killed process's closed body still takes its last wake.
            self._sites[("<closed>", "", 0)] += 1
        else:
            code = frame.f_code
            self._sites[(code.co_filename, code.co_name,
                         frame.f_lineno)] += 1
        return self._gen.send(value)

    def throw(self, *exc):
        # A bad yield's error, thrown back within the same event.
        return self._gen.throw(*exc)

    def close(self):
        return self._gen.close()


def _sites(inputs, limit: int) -> None:
    """One run with every spawned body wrapped: print resumes per yield
    site, the top ``limit`` of them and the total."""
    sites: Counter = Counter()
    spawn = Simulator.spawn

    def counted_spawn(self, gen, name="proc", after=None):
        return spawn(self, _CountedGenerator(gen, sites), name, after)

    Simulator.spawn = counted_spawn
    try:
        stats, _result = inputs.run()
    finally:
        Simulator.spawn = spawn
    total = sum(sites.values())
    print(f"[profile] {total:,d} process resumes at {len(sites)} yield "
          f"sites ({stats.metrics.get('engine.events_processed', 0):,.0f} "
          f"events, digest {stats.digest()[:12]}); top {limit}:")
    for (path, func, line), count in sites.most_common(limit):
        where = os.path.relpath(path, _ROOT) if os.path.isabs(path) else path
        print(f"  {count:9,d} {count / total:6.1%}  {where}:{func}:{line}")
    print(f"  {total:9,d} total")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="jacobi-dsm",
                    choices=sorted(workloads.WORKLOADS),
                    help="benchmark workload to profile (default jacobi-dsm)")
    ap.add_argument("--smoke", action="store_true",
                    help="the workload's tiny smoke-test size")
    ap.add_argument("--sort", default="cumulative",
                    help="pstats sort key (default cumulative; try tottime)")
    ap.add_argument("--limit", type=int, default=30,
                    help="rows to print (default 30)")
    ap.add_argument("--callers", default=None, metavar="PATTERN",
                    help="also print callers of functions matching PATTERN")
    ap.add_argument("--dump", default=None, metavar="FILE",
                    help="write raw cProfile stats to FILE")
    ap.add_argument("--memory", action="store_true",
                    help="trace allocations instead of profiling: print "
                         "the peak and the top --limit sites by line")
    ap.add_argument("--sites", action="store_true",
                    help="count process resumes by innermost yield site "
                         "instead of profiling: the top --limit and the "
                         "total")
    args = ap.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    inputs = workloads.build(w, workloads.DEFAULT_SEED, args.smoke)
    inputs.run()  # warm-up: imports, numpy, allocator
    if args.memory:
        print(f"[profile] {w.name} ({'smoke' if args.smoke else w.spec}) "
              f"under tracemalloc")
        _memory(inputs, args.limit)
        return 0
    if args.sites:
        print(f"[profile] {w.name} ({'smoke' if args.smoke else w.spec}) "
              f"by yield site")
        _sites(inputs, args.limit)
        return 0
    prof = cProfile.Profile()
    prof.enable()
    stats, _result = inputs.run()
    prof.disable()

    print(f"[profile] {w.name} ({'smoke' if args.smoke else w.spec}): "
          f"{stats.metrics.get('engine.events_processed', 0):,.0f} events, "
          f"digest {stats.digest()[:12]}")
    ps = pstats.Stats(prof, stream=sys.stdout)
    ps.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    if args.callers:
        ps.print_callers(args.callers)
    if args.dump:
        prof.dump_stats(args.dump)
        print(f"[profile] wrote {args.dump}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
