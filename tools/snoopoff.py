#!/usr/bin/env python
"""Outcome lines for the runs no experiment, chaos run or bench workload
covers: snooping off, the eager protocol and a CNI without AIH.

Prints one ``label digest snapshot-hash`` line per run: the first 16 hex
digits of ``RunStats.digest()`` and of a sha256 of the run's whole
metric snapshot (JSON, sorted keys).  The digest hashes only the
outcome, so a metric-only change (a snoop counter such as
``nic.mcache.snoop_aborts``) shows only in the snapshot hash.  Two
commits that must agree print identical lines: compare them with one
``diff``.

The full set is 14 runs on 4 processors, a few seconds in all:

* Jacobi, Water and Cholesky with snooping on and off
  (``snoop_enabled``, the ablation);
* Jacobi under the lazy and the eager protocol (the eager release
  path), with snooping on and off;
* Jacobi, Water, Cholesky and a collbench all-reduce on a CNI without
  AIH (``use_aih=False``): the board bounces every protocol packet, DSM
  and collective, to its host, so this is the one platform where
  collective steps run on a CNI's host CPU.

Usage:
    tools/snoopoff.py            # the 14 lines
    tools/snoopoff.py --smoke    # 4 small runs, one of each kind
"""

import argparse
import hashlib
import json
import os
import sys
from typing import Iterator, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))


def runs(smoke: bool) -> Iterator[Tuple[str, object]]:
    """``(label, RunStats)`` of every run of the set, in print order."""
    from repro import (CholeskyConfig, JacobiConfig, SimParams, WaterConfig,
                       run)
    from repro.apps.jacobi import build_jacobi, jacobi_kernel
    from repro.collectives import CollBenchConfig
    from repro.runtime import Cluster

    if smoke:
        jacobi = JacobiConfig(n=16, iterations=2)
        apps: Tuple[Tuple[str, object], ...] = (("jacobi", jacobi),)
        coll = CollBenchConfig(op="allreduce", rounds=2)
        snoops: Tuple[bool, ...] = (False,)
    else:
        jacobi = JacobiConfig(n=64, iterations=5)
        apps = (("jacobi", jacobi), ("water", WaterConfig()),
                ("cholesky", CholeskyConfig()))
        coll = CollBenchConfig(op="allreduce", rounds=8)
        snoops = (True, False)
    for snoop in snoops:
        p = SimParams().replace(num_processors=4, snoop_enabled=snoop)
        tag = "snoop" if snoop else "nosnoop"
        for app, cfg in apps:
            yield f"{app} {tag}", run(app, p, "cni", cfg)[0]
        for proto in ("eager",) if smoke else ("lazy", "eager"):
            cluster = Cluster(p, interface="cni", home_scheme="block",
                              protocol=proto)
            grids = build_jacobi(cluster, jacobi)
            yield f"jacobi-{proto} {tag}", cluster.run(
                lambda ctx: jacobi_kernel(ctx, jacobi, grids))
    p = SimParams().replace(num_processors=4, use_aih=False)
    for app, cfg in apps + (("collbench", coll),):
        yield f"{app} noaih", run(app, p, "cni", cfg)[0]


def lines(smoke: bool = False) -> List[str]:
    """The ``label digest snapshot-hash`` line of every run."""
    out = []
    for label, stats in runs(smoke):
        snap = json.dumps(stats.metrics, sort_keys=True, default=repr)
        out.append(f"{label} {stats.digest()[:16]} "
                   f"{hashlib.sha256(snap.encode()).hexdigest()[:16]}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="4 small runs, one of each kind")
    args = ap.parse_args(argv)
    for line in lines(args.smoke):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
