#!/usr/bin/env python
"""Cache-model differential: drive the cache model of two checkouts with
one seeded stream and stop at the first difference.

Run digests, metric snapshots and bench work counters see the cache only
through the time it charges and the fills and write-backs it reports,
not through L1/L2 hits or the tags and dirty bits it leaves.  This tool
loads ``src/repro/memory/cache.py`` from each checkout, builds a
``CacheHierarchy`` from each, feeds both the same operations and
compares every ``AccessCost`` field, the burst write-backs as sorted
lists, each flush's write-backs in order, and both levels' tags and
dirty bits after every operation.

The stream, per trial of 60 operations on an L1 of 2-32 sets under an
L2 of 2-8x that (every 50th trial on Table 1's geometry):

* contiguous bursts up to 3x the L2, ascending bursts with gaps, bursts
  with repeats, random bursts and a single random line (the scalar
  one-line path), each given to ``access`` as a line array;
* ``range``: a contiguous burst up to 3x the L2 through the range entry
  ``access_range(first, n, is_write)`` on a checkout that has one, and
  through ``access(np.arange(first, first + n))`` on one that does not;
* flushes and invalidations of line ranges that start anywhere, so they
  wrap the set index, and run up to 3x the L2, through
  ``flush_range``/``invalidate_range`` or, on a checkout older than
  those, ``flush_lines``/``invalidate_lines`` of ``np.arange``.

Every burst is a read or a write at random.

Usage:
    tools/cachediff.py ROOT_A ROOT_B [SEED] [--trials N]

Prints ``cache model identical over N operations`` and exits 0, or
names the first difference and exits 1.
"""

import argparse
import importlib
import sys
import types
from typing import List, Optional

import numpy as np

FIELDS = ("accesses", "l1_hits", "l2_hits", "memory_accesses", "cpu_cycles")
KINDS = ("contiguous", "ascending", "repeated", "random", "one-line",
         "range", "flush", "invalidate")


class Difference(Exception):
    """The two cache models disagree."""


def load(root: str, name: str):
    """Import ROOT/src/repro/memory/cache.py (and its ``.address``) as
    ``NAME.cache``."""
    for mod in [m for m in sys.modules if m == name
                or m.startswith(name + ".")]:
        del sys.modules[mod]
    pkg = types.ModuleType(name)
    pkg.__path__ = [f"{root}/src/repro/memory"]
    sys.modules[name] = pkg
    return importlib.import_module(f"{name}.cache")


def flush(h, lo: int, n: int) -> np.ndarray:
    """Write back a line range through whichever API the checkout has."""
    if hasattr(h, "flush_range"):
        return h.flush_range(lo, n)
    return h.flush_lines(np.arange(lo, lo + n, dtype=np.int64))


def invalidate(h, lo: int, n: int) -> None:
    """Drop a line range through whichever API the checkout has."""
    if hasattr(h, "invalidate_range"):
        h.invalidate_range(lo, n)
    else:
        h.invalidate_lines(np.arange(lo, lo + n, dtype=np.int64))


def access_range(h, lo: int, n: int, is_write: bool):
    """A contiguous burst through the range entry where there is one."""
    if hasattr(h, "access_range"):
        return h.access_range(lo, n, is_write)
    return h.access(np.arange(lo, lo + n, dtype=np.int64), is_write)


def burst_lines(rng, kind: str, lo: int, l1: int, l2: int,
                top: int) -> np.ndarray:
    """One burst's program-ordered lines of the given kind."""
    if kind == "ascending":            # gaps; span below/above a level
        span = int(rng.choice([l1 // 2, l1, 2 * l1, l2, 2 * l2])) + 1
        k = int(rng.integers(1, span + 1))
        lines = lo + np.sort(rng.choice(span, size=k, replace=False))
    elif kind == "repeated":
        k = int(rng.integers(1, 3 * l1))
        lines = lo + np.sort(rng.integers(0, 2 * l1, size=k))
    elif kind == "random":
        lines = rng.integers(0, top, size=int(rng.integers(1, 2 * l1)))
    elif kind == "one-line":           # the scalar path
        lines = np.array([lo])
    else:                              # contiguous, up to 3x the L2
        lines = np.arange(lo, lo + int(rng.integers(1, 3 * l2 + 1)))
    return lines.astype(np.int64)


def compare_costs(a, b, where: str) -> None:
    for f in FIELDS:
        if getattr(a, f) != getattr(b, f):
            raise Difference(f"{where}: {f} {getattr(a, f)!r} != "
                             f"{getattr(b, f)!r}")
    wa = sorted(a.writeback_lines.tolist())
    wb = sorted(b.writeback_lines.tolist())
    if wa != wb:
        raise Difference(f"{where}: write-backs {wa} != {wb}")


def run(mod_a, mod_b, seed: int, trials: int) -> int:
    """Feed both models the seeded stream; returns the operation count
    or raises :class:`Difference`."""
    rng = np.random.default_rng(seed)
    ops = 0
    for trial in range(trials):
        l1 = int(rng.choice([2, 4, 8, 16, 32]))
        l2 = l1 * int(rng.choice([2, 4, 8]))
        if trial % 50 == 0:
            l1, l2 = 1024, 32768               # Table 1's geometry
        hs = [m.CacheHierarchy(l1 * 32, l2 * 32, 32, 1, 10, 20)
              for m in (mod_a, mod_b)]
        top = 4 * l2
        for step in range(60):
            kind = str(rng.choice(KINDS))
            where = f"trial {trial} step {step} ({kind}, L1 {l1}, L2 {l2})"
            lo = int(rng.integers(top))
            if kind in ("flush", "invalidate"):
                # Ranges start anywhere, so they wrap the set index;
                # their lengths fall below the L1, between the levels
                # and above the L2 (up to 3x).
                hi = int(rng.choice([l1, l2, 3 * l2]))
                n = int(rng.integers(1, hi + 1))
                if kind == "flush":
                    a, b = (flush(h, lo, n).tolist() for h in hs)
                    if a != b:
                        raise Difference(f"{where}: flushed {a} != {b}")
                else:
                    for h in hs:
                        invalidate(h, lo, n)
            else:
                w = bool(rng.integers(2))
                if kind == "range":
                    n = int(rng.integers(1, 3 * l2 + 1))
                    a, b = (access_range(h, lo, n, w) for h in hs)
                else:
                    lines = burst_lines(rng, kind, lo, l1, l2, top)
                    a, b = (h.access(lines.copy(), w) for h in hs)
                compare_costs(a, b, where)
            for la, lb in ((hs[0].l1, hs[1].l1), (hs[0].l2, hs[1].l2)):
                if not (la.tags == lb.tags).all():
                    raise Difference(f"{where}: {la.name} tags differ")
                if not (la.dirty == lb.dirty).all():
                    raise Difference(f"{where}: {la.name} dirty bits differ")
            ops += 1
    return ops


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root_a", help="first checkout root")
    ap.add_argument("root_b", help="second checkout root")
    ap.add_argument("seed", nargs="?", type=int, default=1,
                    help="stream seed (default 1)")
    ap.add_argument("--trials", type=int, default=300,
                    help="trials of 60 operations (default 300)")
    args = ap.parse_args(argv)
    mod_a = load(args.root_a, "cache_a")
    mod_b = load(args.root_b, "cache_b")
    try:
        ops = run(mod_a, mod_b, args.seed, args.trials)
    except Difference as diff:
        print(f"cache model differs: {diff}")
        return 1
    print(f"cache model identical over {ops} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
