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

Per-layer shares of host time come from ``bench/run.py --trace 1``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

# This file is named profile.py, which would shadow the stdlib `profile`
# module that cProfile imports — drop the script's directory from the
# module search path before touching the profiler machinery.
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:] = [p for p in sys.path
               if os.path.abspath(p or os.getcwd()) != _HERE]
sys.path.insert(0, os.path.join(_HERE, "..", "bench"))

import cProfile  # noqa: E402
import pstats  # noqa: E402

import workloads  # noqa: E402  (puts src/ on the path)


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
    args = ap.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    inputs = workloads.build(w, workloads.DEFAULT_SEED, args.smoke)
    inputs.run()  # warm-up: imports, numpy, allocator
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
