"""Tests for the metrics side of the harness: the MetricsLog collector,
the ``--metrics`` export path, and the ``metrics`` CLI subcommand."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import GLOBAL_METRICS_LOG, MetricsLog
from repro.harness.metrics_cli import metrics_main
from repro.harness.runner import QUICK, main


# -- MetricsLog ----------------------------------------------------------------

def test_metrics_log_records_and_clears():
    log = MetricsLog()
    log.record("jacobi", "cni", 4, {"node0.x": 1}, message_bytes=512)
    assert len(log) == 1
    entry = log.entries[0]
    assert entry["app"] == "jacobi" and entry["nprocs"] == 4
    assert entry["message_bytes"] == 512
    assert entry["metrics"] == {"node0.x": 1}
    log.clear()
    assert len(log) == 0


def test_metrics_log_json_document():
    log = MetricsLog()
    log.record("water", "standard", 2, {"a": 1})
    doc = json.loads(log.to_json(name="fig6"))
    assert doc["kind"] == "metrics_log"
    assert doc["name"] == "fig6"
    assert doc["runs"][0]["interface"] == "standard"


def test_experiments_feed_the_global_log():
    from repro.harness import one_way_latency_ns
    from repro.params import SimParams

    GLOBAL_METRICS_LOG.clear()
    one_way_latency_ns(512, "cni", SimParams())
    assert len(GLOBAL_METRICS_LOG) == 1
    entry = GLOBAL_METRICS_LOG.entries[0]
    assert entry["app"] == "latency_microbench"
    assert entry["message_bytes"] == 512
    assert any(k.endswith("nic.mcache.hits") for k in entry["metrics"])
    GLOBAL_METRICS_LOG.clear()


# -- the `metrics` CLI subcommand ---------------------------------------------

def test_metrics_cli_prints_table_and_totals(capsys):
    assert metrics_main(["--nprocs", "2"], QUICK) == 0
    out = capsys.readouterr().out
    assert "per-node metrics" in out
    assert "node0" in out and "node1" in out
    assert "mc.hits" in out and "aih.disp" in out
    assert "cluster totals:" in out


def test_metrics_cli_writes_json(tmp_path, capsys):
    path = tmp_path / "m.json"
    assert metrics_main(
        ["--nprocs", "2", "--interface", "standard", "--json", str(path)],
        QUICK) == 0
    doc = json.loads(path.read_text())
    assert doc["meta"]["interface"] == "standard"
    assert any(k.endswith("rx.host_interrupts") for k in doc["metrics"])


def test_metrics_cli_fits_nodes_against_the_requested_fabric(tmp_path,
                                                             capsys):
    """64 nodes do not fit the default banyan:32 but do fit fattree:k=8;
    the node count is checked against the fabric the user asked for."""
    path = tmp_path / "m.json"
    assert metrics_main(["--nprocs", "64", "--topology", "fattree:k=8",
                         "--json", str(path)], QUICK) == 0
    assert json.loads(path.read_text())["meta"]["topology"] == "fattree:k=8"
    assert metrics_main(["--nprocs", "64"], QUICK) == 2
    assert "'banyan:32'" in capsys.readouterr().err


def test_metrics_cli_rejects_unknown_app_and_args(capsys):
    with pytest.raises(SystemExit):
        metrics_main(["--app", "doom"], QUICK)
    assert metrics_main(["--frobnicate"], QUICK) == 2
    assert "--frobnicate" in capsys.readouterr().err


# -- runner --metrics ----------------------------------------------------------

def test_runner_exports_metrics_json_per_experiment(tmp_path, capsys):
    assert main(["fig14", "--metrics", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "fig14.metrics.json").read_text())
    assert doc["kind"] == "metrics_log" and doc["name"] == "fig14"
    # 6 message sizes x 2 interfaces
    assert len(doc["runs"]) == 12
    cni_runs = [r for r in doc["runs"] if r["interface"] == "cni"]
    assert all("message_bytes" in r for r in cni_runs)
    # every run carries per-node counters for both nodes
    for r in doc["runs"]:
        for nid in range(2):
            assert f"node{nid}.nic.tx.packets_sent" in r["metrics"]


def test_failures_export_holds_its_successful_runs(tmp_path, capsys):
    """The fault-tolerance table records every run that succeeded, each
    labelled with its fault plan; a run that ended in a typed error has
    no metrics and is left out."""
    assert main(["failures", "--jobs", "1", "--metrics", str(tmp_path),
                 "--results", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "failures.metrics.json").read_text())
    runs = doc["runs"]
    ok = [(r["app"], r["fault_plan"]) for r in runs]
    assert len(ok) == 6 and len(set(ok)) == 6
    assert {plan for _app, plan in ok} <= {"clean", "crash", "linkdown",
                                          "loss"}
    assert ("jacobi", "clean") in ok and ("collbench", "clean") in ok
    for r in runs:
        assert len(r["digest"]) == 64 and r["nprocs"] == 4
        assert r["metrics"]["engine.events_processed"] > 0
    assert "wrote" in capsys.readouterr().out


def test_metrics_cli_module_runs_the_metrics_subcommand():
    """``python -m repro.harness.metrics_cli`` is the ``metrics``
    subcommand, not a module that exits 0 having run nothing."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.harness.metrics_cli", "--help"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "--nprocs" in proc.stdout and "--topology" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "repro.harness.metrics_cli", "--nprocs", "0"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 2
    assert "--nprocs" in proc.stderr
