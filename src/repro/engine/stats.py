"""Per-processor time accounting and counters.

The paper's Tables 2-4 break execution time into *computation*, *synch
overhead* (cycles spent running protocol and messaging code on the host
CPU) and *synch delay* (cycles the CPU sits blocked on a lock, barrier or
remote page).  :class:`TimeAccount` reproduces exactly that taxonomy.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Mapping


#: Format version of the ``run_stats`` JSON document
#: (:meth:`RunStats.to_json`).  Bump on any incompatible change;
#: :meth:`RunStats.from_json` rejects every other version with
#: :class:`ValueError` so a persisted result can never be half-read.
RUN_STATS_SCHEMA_VERSION = 1


class Category(Enum):
    """Where a processor's time goes (the paper's Tables 2-4 rows)."""

    COMPUTATION = "computation"
    SYNCH_OVERHEAD = "synch_overhead"
    SYNCH_DELAY = "synch_delay"


def negative_charge(ns: float, category: Category) -> ValueError:
    """The error every time charge raises for a negative ``ns``."""
    return ValueError(f"negative time charge {ns} to {category}")


class TimeAccount:
    """Accumulates nanoseconds per :class:`Category` for one processor.

    One float slot per category, named after its value, so a charge on
    the hot path (:meth:`repro.runtime.Node.account_compute` and its two
    siblings) adds to an attribute without looking up or hashing a
    :class:`Category` member.
    """

    __slots__ = ("computation", "synch_overhead", "synch_delay")

    def __init__(self) -> None:
        self.computation = 0.0
        self.synch_overhead = 0.0
        self.synch_delay = 0.0

    def add(self, category: Category, ns: float) -> None:
        """Charge ``ns`` nanoseconds to ``category``."""
        if ns < 0:
            raise negative_charge(ns, category)
        # ``_value_`` is the member's plain attribute; ``.value`` would
        # run enum's Python-level property on every charge.
        slot = category._value_
        setattr(self, slot, getattr(self, slot) + ns)

    @property
    def ns(self) -> Dict[Category, float]:
        """Nanoseconds keyed by :class:`Category` (a snapshot)."""
        return {c: getattr(self, c.value) for c in Category}

    @property
    def total_ns(self) -> float:
        """Sum over all categories."""
        return sum(self.ns.values())

    def cycles(self, category: Category, cpu_freq_hz: float) -> float:
        """Category time expressed in CPU cycles at ``cpu_freq_hz``."""
        return getattr(self, category.value) * cpu_freq_hz / 1e9

    def merge(self, other: "TimeAccount") -> None:
        """Accumulate another account into this one."""
        self.computation += other.computation
        self.synch_overhead += other.synch_overhead
        self.synch_delay += other.synch_delay

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot (ns) keyed by category value."""
        return {c.value: getattr(self, c.value) for c in Category}


class Counters:
    """A bag of named event counters (message sends, cache hits, ...)."""

    def __init__(self) -> None:
        self._c: Dict[str, int] = {}

    def inc(self, name: str, by: int = 1) -> None:
        """Increment counter ``name`` by ``by``."""
        self._c[name] = self._c.get(name, 0) + by

    def __getitem__(self, name: str) -> int:
        return self._c.get(name, 0)

    def get(self, name: str, default: int = 0) -> int:
        """Counter value, ``default`` when never incremented."""
        return self._c.get(name, default)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        return dict(self._c)

    def ratio(self, hits: str, total: str) -> float:
        """``hits/total`` as a fraction; 0.0 when total is zero."""
        t = self._c.get(total, 0)
        return self._c.get(hits, 0) / t if t else 0.0


@dataclass
class RunStats:
    """Aggregated result of one simulated cluster run."""

    elapsed_ns: float = 0.0
    """Wall-clock of the simulated run (end-of-last-processor)."""

    per_processor: List[TimeAccount] = field(default_factory=list)
    """One :class:`TimeAccount` per processor."""

    counters: Counters = field(default_factory=Counters)
    """Cluster-wide event counters."""

    metrics: Dict[str, object] = field(default_factory=dict)
    """Flat snapshot of the cluster's :class:`~repro.obs.MetricsRegistry`
    at the end of the run (dotted name -> value); see
    docs/observability.md for the catalog."""

    metric_kinds: Dict[str, str] = field(default_factory=dict)
    """``{dotted name: kind}`` for :attr:`metrics` ("counter", "gauge"
    or "histogram").  Lets :func:`repro.obs.registry_from_snapshot`
    rebuild a mergeable registry from the snapshot — the parallel sweep
    executor uses it to fold worker metric trees into one sweep-wide
    tree with the right per-kind semantics."""

    def category_total_ns(self, category: Category) -> float:
        """Sum of ``category`` across processors."""
        slot = category.value
        return sum(getattr(acc, slot) for acc in self.per_processor)

    @property
    def network_cache_hit_ratio(self) -> float:
        """The paper's figure-of-merit: transmit-path Message Cache hits
        over total message transmissions (Section 3)."""
        return self.counters.ratio("mc_transmit_hits", "mc_transmit_lookups")

    def digest(self) -> str:
        """Deterministic fingerprint of the run's *outcome*.

        Hashes elapsed time, every cluster counter and the per-processor
        time accounts — not :attr:`metrics`, so registering, renaming or
        removing a metric never changes a digest.  Two runs of the same
        workload under the same parameters — including the same
        :class:`~repro.faults.FaultPlan` seed — must produce identical
        digests; the chaos suite's determinism test relies on it.
        """
        doc = {
            "elapsed_ns": self.elapsed_ns,
            "counters": self.counters.as_dict(),
            "accounts": [a.as_dict() for a in self.per_processor],
        }
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_json(self, indent: int = None) -> str:
        """The run's full result as a versioned JSON document.

        Canonical (sorted keys) and lossless, so
        ``RunStats.from_json(s.to_json())`` has the *bit-identical* digest
        of ``s`` — the property the run-farm store's cache-hit guarantee
        rests on (Python floats round-trip exactly through JSON).
        """
        doc = {
            "kind": "run_stats",
            "schema_version": RUN_STATS_SCHEMA_VERSION,
            "elapsed_ns": self.elapsed_ns,
            "counters": self.counters.as_dict(),
            "metrics": self.metrics,
            "metric_kinds": self.metric_kinds,
            "accounts": [a.as_dict() for a in self.per_processor],
        }
        return json.dumps(doc, sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, doc) -> "RunStats":
        """Rebuild a :class:`RunStats` from :meth:`to_json` output
        (text or the parsed document).  Documents of any other kind or
        ``schema_version`` raise :class:`ValueError`."""
        if isinstance(doc, str):
            doc = json.loads(doc)
        if not isinstance(doc, dict) or doc.get("kind") != "run_stats":
            raise ValueError("not a run_stats document")
        version = doc.get("schema_version")
        if version != RUN_STATS_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported run_stats schema_version {version!r}; this "
                f"build reads version {RUN_STATS_SCHEMA_VERSION}")
        stats = cls(elapsed_ns=doc["elapsed_ns"],
                    metrics=dict(doc.get("metrics", {})),
                    metric_kinds=dict(doc.get("metric_kinds", {})))
        for name, value in doc.get("counters", {}).items():
            stats.counters.inc(name, value)
        for account_doc in doc.get("accounts", []):
            account = TimeAccount()
            for key, ns in account_doc.items():
                account.add(Category(key), ns)
            stats.per_processor.append(account)
        return stats

    def overhead_table(self, cpu_freq_hz: float) -> Dict[str, float]:
        """The Tables 2-4 breakdown, in CPU cycles (summed over procs)."""
        ghz = cpu_freq_hz / 1e9
        rows = {
            "synch_overhead": self.category_total_ns(Category.SYNCH_OVERHEAD) * ghz,
            "synch_delay": self.category_total_ns(Category.SYNCH_DELAY) * ghz,
            "computation": self.category_total_ns(Category.COMPUTATION) * ghz,
        }
        rows["total"] = sum(rows.values())
        return rows
