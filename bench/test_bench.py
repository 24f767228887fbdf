"""Tests of the benchmark itself.  Run with ``python -m pytest bench -q``;
they sit outside the tier-1 ``testpaths`` and take well under a minute."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import layers
import run
import workloads


def _last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_summary_and_spread_on_known_samples():
    s = run.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["median"], s["p25"], s["p75"], s["n"]) == (3.0, 1.5, 4.5, 5)
    assert s["tail"] is None
    assert run.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == 1.0
    assert run.summary([7.0])["p25"] == 7.0
    # Ten samples beyond the 75th percentile need n >= 40.
    assert run.summary([float(i) for i in range(40)])["tail"]["pct"] == 75
    assert run.summary([float(i) for i in range(20)])["tail"] is None


def test_verdicts():
    a = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert run.verdict(a, [x * 1.02 for x in a], 0.10) == "unchanged"
    assert run.verdict(a, [x * 1.30 for x in a], 0.10) == "worse"
    assert run.verdict(a, [x * 0.70 for x in a], 0.10) == "improved"
    wide = [0.8, 1.0, 1.2, 0.9, 1.1]
    assert run.verdict(wide, [x * 1.05 for x in wide], 0.10) == "unresolved"
    # Every run on one side beats every run on the other: resolved.
    assert run.verdict(wide, [x + 1.0 for x in wide], 0.10) == "worse"


def test_layer_of_file():
    assert layers.layer_of_file("src/repro/network/fabrics.py") == "network"
    assert layers.layer_of_file("/x/repro/src/repro/engine/simulator.py") \
        == "engine"
    assert layers.layer_of_file("src/repro/params.py") == "params"
    assert layers.layer_of_file(
        "/usr/lib/python3/site-packages/numpy/core/fromnumeric.py") == "numpy"
    assert layers.layer_of_file("/usr/lib/python3.11/heapq.py") == "other"
    assert layers.layer_of_file("src/repro/harness/runner.py") == "other"


def _entry(code, calls, self_s, subs=()):
    return SimpleNamespace(code=code, callcount=calls, inlinetime=self_s,
                           calls=list(subs))


def test_builtins_fold_into_their_callers():
    sim = SimpleNamespace(co_filename="src/repro/engine/simulator.py")
    fab = SimpleNamespace(co_filename="src/repro/network/fabrics.py")
    heappush = "<built-in method _heapq.heappush>"
    ufunc = "<method 'reduce' of 'numpy.ufunc' objects>"
    entries = [
        _entry(sim, 5, 1.0, [_entry(heappush, 6, 0.25), _entry(fab, 1, 0.5)]),
        _entry(fab, 1, 0.5, [_entry(heappush, 1, 0.05),
                             _entry(ufunc, 2, 0.2)]),
        _entry(heappush, 7, 0.3),
        _entry(ufunc, 2, 0.2),
    ]
    out = layers.attribute(entries)
    assert out["self_s"]["engine"] == 1.25 and out["calls"]["engine"] == 11
    assert abs(out["self_s"]["network"] - 0.55) < 1e-12
    assert out["calls"]["network"] == 2
    assert out["self_s"]["numpy"] == 0.2 and out["calls"]["numpy"] == 2
    assert abs(sum(out["self_s"].values()) - 2.0) < 1e-12


def test_generated_methods_are_counted_apart():
    """Every dataclass-generated __init__ has file "<string>"; merged by
    (file, line, name) the count would depend on which one was kept."""
    @dataclass
    class A:
        x: int = 0

    @dataclass
    class B:
        y: int = 0

    calls = layers.profile(lambda: (A(), B(), B()))[1]["calls"]
    assert calls["other"] == 4  # the lambda, A() and B() twice


def test_smoke_emits_every_metric(tmp_path, capsys):
    out = tmp_path / "smoke.json"
    assert run.main(["--smoke", "--out", str(out)]) == 0
    line = _last_line(capsys)
    bench = run.load_benchmark()
    assert line["correct"] and line["failed"] == 0
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for w in bench["workloads"]:
        for name in names:
            metric = line["metrics"][f"{w['name']}.{name}"]
            assert isinstance(metric["value"], float), (w["name"], name)
    assert run.compare(str(out), str(out), bench) == 0
    assert "work counters identical" in capsys.readouterr().out


def test_planted_wrong_result_raises_fail_rate(tmp_path, capsys, monkeypatch):
    real_run = workloads.repro.run

    def wrong(*args, **kwargs):
        stats, result = real_run(*args, **kwargs)
        return stats, result + 1e-3

    monkeypatch.setattr(workloads.repro, "run", wrong)
    out = tmp_path / "wrong.json"
    assert run.main(["--smoke", "--workload", "jacobi-dsm", "--trace", "1",
                     "--out", str(out)]) == 1
    line = _last_line(capsys)
    assert not line["correct"] and line["failed"] == line["attempted"] > 0
    doc = json.loads(out.read_text())["workloads"]["jacobi-dsm"]
    assert doc["end_to_end"]["fail_rate"]["median"] == 1.0
    assert doc["samples"]["run_s"] == []


def test_another_seed_changes_inputs_and_passes(tmp_path, capsys):
    prints = {}
    for seed in (1, 2):
        out = tmp_path / f"seed{seed}.json"
        assert run.main(["--smoke", "--workload", "water-std", "--workload",
                         "cholesky-lossy", "--trace", "1", "--seed",
                         str(seed), "--out", str(out)]) == 0
        assert _last_line(capsys)["correct"]
        wls = json.loads(out.read_text())["workloads"]
        prints[seed] = {k: v["fingerprint"] for k, v in wls.items()}
    for name in ("water-std", "cholesky-lossy"):
        assert prints[1][name] != prints[2][name]


def test_default_seed_is_pinned():
    for w in workloads.WORKLOADS.values():
        assert workloads.build(w, workloads.DEFAULT_SEED, True).pinned is None
    inputs = workloads.build(workloads.WORKLOADS["allreduce-fattree"],
                             workloads.DEFAULT_SEED, False)
    assert inputs.pinned == workloads.PINNED["allreduce-fattree"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "jacobi-dsm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
