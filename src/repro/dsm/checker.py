"""Cluster-wide DSM invariant checking.

The stress tests (and any user experimenting with protocol changes) need
a way to ask "is the protocol state still sane?"  :func:`check_cluster`
inspects every node's engine after (or during) a run and returns a list
of violations — empty means healthy.

Invariants checked:

* **Quiescence** (optional): no leaked waiters in any engine's wait
  table (DSM, collective and messaging) and no parked release left
  unclaimed, no unpublished writes, no locks still held.
* **Vector-clock sanity**: a node's own component equals its interval
  count; nobody knows a *future* interval of another node (vc[p] on any
  node never exceeds p's own component).
* **Interval-log integrity**: per-processor lanes are gap-free and
  consistent with the vector clock.
* **Lock-chain sanity**: a lock's manager-side last_owner points at a
  real node; at most one node believes it holds any given lock.
* **Page-state sanity**: WRITABLE pages have a live twin; pages with
  pending diffs name plausible writers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from .page import PageState


@dataclass(frozen=True)
class Violation:
    """One broken invariant."""

    node: int
    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"node {self.node}: {self.kind}: {self.detail}"


def check_cluster(cluster, quiescent: bool = True) -> List[Violation]:
    """Check all invariants over ``cluster``'s nodes.

    ``quiescent=True`` additionally requires that the run has finished
    (no in-flight protocol activity is expected).
    """
    out: List[Violation] = []
    engines = [node.engine for node in cluster.nodes]
    nprocs = len(engines)

    # -- vector clocks ------------------------------------------------------
    own = [eng.vc[eng.me] for eng in engines]
    for eng in engines:
        for p in range(nprocs):
            if eng.vc[p] > own[p]:
                out.append(Violation(
                    eng.me, "vc-future",
                    f"knows interval {eng.vc[p]} of proc {p}, but proc {p} "
                    f"has only created {own[p]}"))
        if eng.ilog.known_seq(eng.me) != eng.vc[eng.me]:
            out.append(Violation(
                eng.me, "vc-own-mismatch",
                f"own vc {eng.vc[eng.me]} != own interval log "
                f"{eng.ilog.known_seq(eng.me)}"))

    # -- interval logs ------------------------------------------------------
    for eng in engines:
        for p in range(nprocs):
            seqs = [iv.seq for iv in eng.ilog.intervals_of(p)]
            if seqs != list(range(1, len(seqs) + 1)):
                out.append(Violation(
                    eng.me, "interval-gap",
                    f"lane for proc {p} is {seqs}"))
            if eng.vc[p] > len(seqs):
                out.append(Violation(
                    eng.me, "vc-beyond-log",
                    f"vc[{p}]={eng.vc[p]} but only {len(seqs)} intervals "
                    f"logged"))

    # -- locks ---------------------------------------------------------------
    holders: Dict[int, List[int]] = {}
    for eng in engines:
        for lock_id in eng.local_locks.held_locks():
            holders.setdefault(lock_id, []).append(eng.me)
        for lock_id, rec in eng.managed_locks._locks.items():
            if rec.last_owner is not None and not 0 <= rec.last_owner < nprocs:
                out.append(Violation(
                    eng.me, "lock-bad-owner",
                    f"lock {lock_id} last_owner {rec.last_owner}"))
    for lock_id, who in holders.items():
        if len(who) > 1:
            out.append(Violation(
                who[0], "lock-double-hold",
                f"lock {lock_id} held by {who}"))

    # -- pages ----------------------------------------------------------------
    for eng in engines:
        for page in range(eng.segment.pages_allocated):
            meta = eng.pages[page]
            if meta.state == PageState.WRITABLE and not meta.twin_live:
                out.append(Violation(
                    eng.me, "writable-no-twin", f"page {page}"))
            for (proc, _seq) in meta.pending_diffs:
                if not 0 <= proc < nprocs or proc == eng.me:
                    out.append(Violation(
                        eng.me, "pending-bad-writer",
                        f"page {page} owes diffs to proc {proc}"))

    # -- quiescence ------------------------------------------------------------
    if quiescent:
        for node in cluster.nodes:
            eng = node.engine
            for table in (eng.waits, node.coll.waits, node.rt.waits):
                leaked = table.keys() + table.parked_keys()
                if leaked:
                    out.append(Violation(
                        eng.me, "leaked-waiter",
                        f"{table.label} {sorted(map(str, leaked))}"))
            if eng.collector:
                out.append(Violation(
                    eng.me, "unpublished-writes",
                    f"pages {eng.collector.dirty_pages}"))
            if eng.local_locks.held_locks():
                out.append(Violation(
                    eng.me, "locks-held-at-exit",
                    f"{eng.local_locks.held_locks()}"))
    return out


def assert_healthy(cluster, quiescent: bool = True) -> None:
    """Raise AssertionError listing all violations, if any."""
    violations = check_cluster(cluster, quiescent=quiescent)
    if violations:
        raise AssertionError(
            "DSM invariant violations:\n  "
            + "\n  ".join(str(v) for v in violations)
        )
