#!/usr/bin/env python3
"""Repository benchmark: five pinned workloads, repeated medians, outcome
checks and per-layer host-time attribution.

Usage::

    python bench/run.py                          # full set, 15 rounds
    python bench/run.py --out bench/results/A.json
    python bench/run.py --workload jacobi-dsm --seconds 15 --trace 0
    python bench/run.py --smoke                  # tiny sizes, 3 rounds
    python bench/run.py --compare A.json B.json

Everything runs in this one process, in turn: an untimed checked warm-up
per workload, then timed rounds that each run every selected workload once
in a fixed order, then one run per workload under cProfile.  Set-up time
and peak memory come from fresh child interpreters.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--trace 0`` limits the metrics to the
end-to-end ones of BENCHMARK.json and ``--trace 1`` to the per-layer ones.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Timed rounds of a full set, and of a smoke set, when --seconds is absent.
ROUNDS, SMOKE_ROUNDS = 15, 3
#: Child interpreters whose set-up time is the median ``setup_s``.
SETUP_CHILDREN, SMOKE_SETUP_CHILDREN = 5, 2
CHILD_TIMEOUT_S = 150
#: The speed probe: a fixed loop timed every PROBE_INTERVAL_S during a run,
#: and its time on an uncontended core of the reference host (2-core
#: x86_64 VM, Python 3.11).
PROBE_INTERVAL_S = 0.005
PROBE_LOOPS = 200
PROBE_REF_S = 27e-6


def load_benchmark() -> Dict[str, Any]:
    """BENCHMARK.json: the metric names, units, directions and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# --------------------------------------------------------------- statistics

def summary(samples: List[float]) -> Dict[str, Any]:
    """Median, quartiles and count.  ``tail`` is the highest percentile with
    at least ten samples beyond it, or None when n < 20 supports none
    above the median."""
    n = len(samples)
    med = statistics.median(samples)
    p25, _, p75 = statistics.quantiles(samples, n=4) if n >= 2 \
        else (med, med, med)
    pct = math.floor(100 * (1 - 10 / n))
    tail = None
    if pct > 50:
        tail = {"pct": pct,
                "value": statistics.quantiles(samples, n=100)[pct - 1]}
    return {"median": med, "p25": p25, "p75": p75, "n": n, "tail": tail}


def spread(samples: List[float]) -> float:
    """Interquartile range as a share of the median."""
    s = summary(samples)
    return (s["p75"] - s["p25"]) / s["median"] if s["median"] else 0.0


# ------------------------------------------------------------------- host

def host_facts() -> Dict[str, Any]:
    """What a comparison across two result files must hold equal."""
    try:
        effective = len(os.sched_getaffinity(0))
    except AttributeError:
        effective = os.cpu_count()
    return {"node": platform.node(), "machine": platform.machine(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "effective_cores": effective}


def probe() -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    d: Dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        k = i & 255
        d[k] = d.get(k, 0) + i * 3 % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """Times a block and samples the host's speed while it runs.

    On a shared host a core's speed changes by about 1.75x within a second,
    as other tenants load it, so one probe before and after a run cannot
    follow it.  Instead a SIGALRM handler times :func:`probe` every
    PROBE_INTERVAL_S.  :meth:`host_s` is the block's wall time less the
    probes', scaled by the mean of ``PROBE_REF_S / probe time``: the time
    the block would take on an uncontended reference core.  With
    ``sample=False`` it only times the block.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.samples: List[float] = []
        self.wall_s = 0.0

    def __enter__(self) -> "SpeedProbe":
        if self.sample:
            self._old = signal.signal(
                signal.SIGALRM, lambda *_: self.samples.append(probe()))
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                             PROBE_INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)

    def speed(self) -> float:
        """Mean speed over the samples, relative to the reference core."""
        if not self.samples:
            return 1.0
        return statistics.fmean(PROBE_REF_S / t for t in self.samples)

    def host_s(self) -> float:
        """The block's time on an uncontended reference core."""
        return (self.wall_s - sum(self.samples)) * self.speed()


def log(msg: str) -> None:
    print(f"[bench] {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------ measurement

@dataclass
class Record:
    """Everything measured for one workload."""

    inputs: Any
    fingerprint: Optional[str]
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=lambda: {
        "run_s": [], "wall_s": [], "setup_s": [], "setup_wall_s": [],
        "peak_rss_mb": []})
    counters: Dict[str, float] = field(default_factory=dict)
    attribution: Optional[Dict[str, Dict[str, float]]] = None
    traced_s: float = 0.0

    @property
    def name(self) -> str:
        return self.inputs.workload.name

    def fail(self, why: str) -> None:
        log(f"{self.name}: FAILED: {why}")
        self.failures.append(why)


def run_checked(rec: Record, traced: bool = False) -> Optional[SpeedProbe]:
    """One run, checked against the reference and the fingerprint.

    Returns its timing, or None when it failed; a failed run counts in
    ``failed`` and is left out of every timing.  A traced run runs under
    cProfile and is not speed-probed.
    """
    import workloads

    gc.collect()
    rec.attempted += 1
    timing = SpeedProbe(sample=not traced)
    try:
        with timing:
            if traced:
                (stats, result), rec.attribution = \
                    layers.profile(rec.inputs.run)
            else:
                stats, result = rec.inputs.run()
    except Exception as exc:  # a raising run is a failed run, not a crash
        traceback.print_exc(file=sys.stderr)
        rec.fail(f"{type(exc).__name__}: {exc}")
        return None
    problem = workloads.check(rec.inputs, result)
    fp = workloads.fingerprint(stats, result)
    if problem is None and rec.fingerprint is None:
        rec.fingerprint = fp
    if problem is None and fp != rec.fingerprint:
        problem = f"outcome fingerprint {fp} != {rec.fingerprint}"
    if problem is not None:
        rec.fail(problem)
        return None
    rec.counters = layers.work_counters(stats)
    return timing


def run_child(kind: str, name: str, seed: int, smoke: bool):
    """A fresh interpreter that builds ``name``'s inputs (and, for
    ``rss``, runs it once).  Returns (seconds until inputs were built,
    the words of its output), or None when it failed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", kind,
           "--workload", name, "--seed", str(seed)] + \
        (["--smoke"] if smoke else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None
    words = (first + rest).split()
    if proc.returncode != 0 or not words or words[0] != "ready":
        return None
    return ready_s, words[1:]


def measure_children(rec: Record, seed: int, smoke: bool) -> None:
    """``setup_s`` from several children, ``peak_rss_mb`` from one more."""
    for _ in range(SMOKE_SETUP_CHILDREN if smoke else SETUP_CHILDREN):
        rec.attempted += 1
        out = run_child("setup", rec.name, seed, smoke)
        if out is None:
            rec.fail("set-up child failed")
            continue
        ready_s, (speed, probes_s) = out[0], map(float, out[1])
        rec.samples["setup_wall_s"].append(ready_s)
        # As SpeedProbe.host_s, over the child's life until it was ready.
        rec.samples["setup_s"].append((ready_s - probes_s) * speed)
    rec.attempted += 1
    out = run_child("rss", rec.name, seed, smoke)
    if out is None:
        rec.fail("peak-memory child failed")
    else:
        rec.samples["peak_rss_mb"].append(int(out[1][-1]) / 1024)


def child_main(kind: str, name: str, seed: int, smoke: bool) -> int:
    """Import the program and build the inputs, then report the speed
    probe's view of that set-up; ``rss`` then runs once and reports the
    peak resident set."""
    with SpeedProbe() as timing:
        import workloads  # puts src/ on the path
        import repro

        w = workloads.WORKLOADS[name]
        params, config = w.make(seed, smoke)
    print("ready", timing.speed(), sum(timing.samples), flush=True)
    if kind == "rss":
        repro.run(w.app, params, w.interface, config)
        # VmHWM, not ru_maxrss: on Linux ru_maxrss keeps the RSS of the
        # forked parent across exec, so it would report the parent's size.
        with open("/proc/self/status") as fh:
            print(next(line.split()[1] for line in fh
                       if line.startswith("VmHWM:")))
    return 0


def measure(names: List[str], seed: int, smoke: bool,
            seconds: Optional[float], end_to_end: bool,
            traced: bool) -> List[Record]:
    """The protocol: warm-up, children, interleaved timed rounds, trace."""
    import workloads

    recs = []
    for name in names:
        inputs = workloads.build(workloads.WORKLOADS[name], seed, smoke)
        recs.append(Record(inputs, inputs.pinned))
    for rec in recs:
        log(f"{rec.name}: warm-up")
        run_checked(rec)
    if end_to_end:
        for rec in recs:
            log(f"{rec.name}: set-up and peak-memory children")
            measure_children(rec, seed, smoke)

    rounds = SMOKE_ROUNDS if smoke else ROUNDS
    log(f"timed rounds: {f'{seconds:g} s' if seconds else rounds}")
    start = time.perf_counter()
    done = 0
    while (time.perf_counter() - start < seconds) if seconds \
            else done < rounds:
        for rec in recs:
            timing = run_checked(rec)
            if timing is not None:
                rec.samples["wall_s"].append(timing.wall_s)
                rec.samples["run_s"].append(timing.host_s())
        done += 1

    if traced:
        for rec in recs:
            log(f"{rec.name}: traced run")
            timing = run_checked(rec, traced=True)
            rec.traced_s = timing.wall_s if timing else 0.0
    return recs


def per_layer(rec: Record) -> Dict[str, float]:
    """The per-layer metrics: exact work counters, profile shares, and the
    untraced rates derived from them."""
    out = dict(rec.counters)
    runs = rec.samples["run_s"]
    if not out or not runs or rec.attribution is None:
        return out
    run_s = statistics.median(runs)
    events = out["engine.events"]
    self_s, calls = rec.attribution["self_s"], rec.attribution["calls"]
    total = sum(self_s.values())
    for layer in layers.LAYERS:
        out[f"{layer}.self_share"] = self_s[layer] / total
        out[f"{layer}.calls_per_event"] = calls[layer] / events
    out["trace.overhead_x"] = \
        rec.traced_s / statistics.median(rec.samples["wall_s"])
    out["engine.events_per_s"] = events / run_s
    crossings = out["network.crossings"]
    out["network.host_us_per_crossing"] = (
        out["network.self_share"] * run_s / crossings * 1e6
        if crossings else 0.0)
    return out


def workload_doc(rec: Record, smoke: bool) -> Dict[str, Any]:
    failed = len(rec.failures)
    e2e = {k: summary(v) for k, v in rec.samples.items() if v}
    e2e["fail_rate"] = {"median": failed / max(1, rec.attempted)}
    return {"spec": rec.inputs.workload.spec, "smoke": smoke,
            "fingerprint": rec.fingerprint, "attempted": rec.attempted,
            "failed": failed, "failures": rec.failures,
            "samples": rec.samples, "end_to_end": e2e,
            "per_layer": per_layer(rec)}


def result_line(doc: Dict[str, Any], bench: Dict[str, Any],
                end_to_end: bool, traced: bool) -> Dict[str, Any]:
    """The final stdout line.  With one workload the metric names are bare;
    with several they are prefixed by the workload name."""
    wls = doc["workloads"]
    metrics: Dict[str, Any] = {}
    for name, wd in wls.items():
        prefix = "" if len(wls) == 1 else f"{name}."
        if end_to_end:
            for m in bench["end_to_end"]:
                if m["name"] in wd["end_to_end"]:
                    metrics[prefix + m["name"]] = {
                        "value": wd["end_to_end"][m["name"]]["median"],
                        "unit": m["unit"]}
        if traced:
            for m in bench["per_layer"]:
                if m["name"] in wd["per_layer"]:
                    metrics[prefix + m["name"]] = {
                        "value": wd["per_layer"][m["name"]],
                        "unit": m["unit"]}
    attempted = sum(wd["attempted"] for wd in wls.values())
    failed = sum(wd["failed"] for wd in wls.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_tables(doc: Dict[str, Any], bench: Dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print(f"{'workload':<18} {'metric':<12} {'median':>10} {'p25':>10} "
          f"{'p75':>10} {'n':>3}  spread")
    for name, wd in doc["workloads"].items():
        for metric, s in wd["end_to_end"].items():
            if metric == "fail_rate":
                continue
            print(f"{name:<18} {metric:<12} {s['median']:>10.4f} "
                  f"{s['p25']:>10.4f} {s['p75']:>10.4f} {s['n']:>3}  "
                  f"{spread(wd['samples'][metric]):>6.1%}  "
                  f"[{units.get(metric, 's')}]")
        print(f"{name:<18} fail_rate    {wd['failed']}/{wd['attempted']}"
              f"  fingerprint {wd['fingerprint']}")
        shares = {k[:-len(".self_share")]: v
                  for k, v in wd["per_layer"].items()
                  if k.endswith(".self_share")}
        if shares:
            top = sorted(shares.items(), key=lambda kv: -kv[1])[:6]
            print(f"{'':<18} self-time: " + ", ".join(
                f"{k} {v:.1%}" for k, v in top))
    print("n < 20: no percentile above the median has ten samples beyond it"
          ", so none is reported")


# ---------------------------------------------------------------- compare

def verdict(a: List[float], b: List[float], bound: float,
            better: str = "lower") -> str:
    """B against A: improved, worse or unchanged by more than ``bound``;
    unresolved when either spread exceeds the bound, unless every run on
    one side beats every run on the other."""
    wide = spread(a) > bound or spread(b) > bound
    disjoint = max(b) < min(a) or max(a) < min(b)
    if wide and not disjoint:
        return "unresolved"
    change = statistics.median(b) / statistics.median(a) - 1
    if better != "lower":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "improved"
    return "unchanged"


def _quartiles(samples: List[float]) -> str:
    s = summary(samples)
    return f"{s['median']:.4f} [{s['p25']:.4f}, {s['p75']:.4f}] n={s['n']}"


def compare(path_a: str, path_b: str, bench: Dict[str, Any]) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for key in ("node", "machine", "python", "nproc", "effective_cores"):
        if a["host"][key] != b["host"][key]:
            print(f"WARNING: different hosts: {key} {a['host'][key]!r} vs "
                  f"{b['host'][key]!r}")
    for key in ("seed", "smoke"):
        if a[key] != b[key]:
            print(f"WARNING: different inputs: {key} {a[key]!r} vs {b[key]!r}")
    for side, doc in (("A", a), ("B", b)):
        h = doc["host"]
        print(f"{side}: {h['node']} python {h['python']} nproc {h['nproc']} "
              f"effective {h['effective_cores']} load "
              f"{h['loadavg_before'][0]:.2f} -> {h['loadavg_after'][0]:.2f}")
    print(f"{'workload':<18} {'metric':<12} {'A median [p25, p75]':<36} "
          f"{'B median [p25, p75]':<36} {'B/A (base A)':<22} verdict")
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            print(f"{name:<18} missing from {path_b}")
            continue
        for m in bench["end_to_end"]:
            sa, sb = wa["samples"].get(m["name"]), wb["samples"].get(m["name"])
            if not sa or not sb:
                continue
            ma = statistics.median(sa)
            ratio = f"{statistics.median(sb) / ma:.3f} ({ma:.4g} {m['unit']})"
            print(f"{name:<18} {m['name']:<12} {_quartiles(sa):<36} "
                  f"{_quartiles(sb):<36} {ratio:<22} "
                  f"{verdict(sa, sb, m['bound'], m['better'])}")
        fa = wa["end_to_end"]["fail_rate"]["median"]
        fb = wb["end_to_end"]["fail_rate"]["median"]
        print(f"{name:<18} {'fail_rate':<12} {fa:<36.4f} {fb:<36.4f} "
              f"{'':<22} "
              f"{'worse' if fb > fa else 'improved' if fb < fa else 'unchanged'}")
        print(f"{'':<18} per-layer: {layer_diff(wa['per_layer'], wb['per_layer'])}")
    return 0


def layer_diff(a: Dict[str, float], b: Dict[str, float]) -> str:
    """Work counters must match exactly; calls per event within 1%; self
    shares within 3 points."""
    counters = [k for k in a if not k.endswith(
        (".self_share", ".calls_per_event", ".overhead_x", ".events_per_s",
         ".host_us_per_crossing"))]
    differ = [k for k in counters if a[k] != b.get(k)]
    calls = max((abs(b[k] / a[k] - 1) for k in a
                 if k.endswith(".calls_per_event") and a[k] and k in b),
                default=0.0)
    shares = max((abs(b[k] - a[k]) for k in a
                  if k.endswith(".self_share") and k in b), default=0.0)
    return (f"work counters {'differ: ' + ', '.join(differ) if differ else 'identical'}; "
            f"calls/event max {calls:.2%} {'ok' if calls <= 0.01 else 'OVER 1%'}; "
            f"self_share max {shares * 100:.1f} points "
            f"{'ok' if shares <= 0.03 else 'OVER 3'}")


# ------------------------------------------------------------------- main

def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", "--only", action="append", metavar="NAME",
                    help="run only this workload (repeatable)")
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default 1)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measure timed rounds for this long instead of a "
                         "fixed round count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics only; 1: per-layer only; "
                         "default both")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny workload sizes and 3 rounds")
    ap.add_argument("--out", metavar="FILE",
                    help="write the full result document here")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two result documents and exit")
    ap.add_argument("--child", choices=("setup", "rss"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:  # imports the program itself, inside its speed probe
        return child_main(args.child, args.workload[0], args.seed, args.smoke)

    bench = load_benchmark()
    if args.compare:
        return compare(*args.compare, bench)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: no src/repro next to the benchmark; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0 or (args.seconds is not None and args.seconds <= 0):
        ap.error("--seed must be >= 0 and --seconds > 0")
    names = args.workload or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; choose from "
                 f"{list(workloads.WORKLOADS)}")

    end_to_end = args.trace in (None, 0)
    traced = args.trace in (None, 1)
    host = host_facts()
    host["loadavg_before"] = os.getloadavg()
    recs = measure(names, seed, args.smoke, args.seconds, end_to_end, traced)
    host["loadavg_after"] = os.getloadavg()
    doc = {"kind": "bench_result", "schema_version": 1, "seed": seed,
           "smoke": args.smoke, "host": host,
           "workloads": {r.name: workload_doc(r, args.smoke) for r in recs}}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    print_tables(doc, bench)
    line = result_line(doc, bench, end_to_end, traced)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
