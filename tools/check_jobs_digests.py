#!/usr/bin/env python
"""The ``--jobs`` determinism gate: one experiment's exports must agree.

Reads ``DIR/EXP.metrics.json`` from each DIR, as written by
``python -m repro.harness EXP --jobs N --metrics DIR``, and checks that

* the first export records at least one run;
* every export records the same per-run digests, in the same order;
* with ``--scope PREFIX`` (``net.``, say), every run of every export
  carries a metric whose name starts with PREFIX.

Usage:
    tools/check_jobs_digests.py fig4 out_j1 out_j2 out_j4
    tools/check_jobs_digests.py fig2 topo_j1 topo_j2 --scope net.

Exit status 0 when every check holds, 1 otherwise (the reason on stderr).
"""

import argparse
import json
import os
import sys
from typing import List, Optional


def check(exp: str, dirs: List[str], scope: Optional[str] = None) -> str:
    """The agreement message; raises ``ValueError`` naming what differs."""
    docs = []
    for d in dirs:
        with open(os.path.join(d, f"{exp}.metrics.json")) as fh:
            docs.append(json.load(fh))
    digests = [[run["digest"] for run in doc["runs"]] for doc in docs]
    if not digests[0]:
        raise ValueError(f"{dirs[0]}: no {exp} runs recorded")
    for d, other in zip(dirs[1:], digests[1:]):
        if other != digests[0]:
            raise ValueError(f"{exp} digests diverge: {dirs[0]} {digests[0]} "
                             f"vs {d} {other}")
    if scope:
        for d, doc in zip(dirs, docs):
            if not all(any(name.startswith(scope) for name in run["metrics"])
                       for run in doc["runs"]):
                raise ValueError(f"{d}: a {exp} run has no {scope}* metric")
    return (f"OK: {len(digests[0])} {exp} digests identical across "
            f"{', '.join(dirs)}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description="Check that --jobs exports of one experiment agree.")
    ap.add_argument("exp", help="experiment id (fig4, collectives, ...)")
    ap.add_argument("dirs", nargs="+", metavar="DIR",
                    help="--metrics directories to compare (at least two)")
    ap.add_argument("--scope", help="metric-name prefix every run must carry")
    args = ap.parse_args(argv)
    if len(args.dirs) < 2:
        ap.error("give at least two DIRs to compare")
    try:
        print(check(args.exp, args.dirs, args.scope))
    except (OSError, KeyError, ValueError) as exc:
        print(f"check_jobs_digests: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
