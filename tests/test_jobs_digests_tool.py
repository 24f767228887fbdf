"""tools/check_jobs_digests.py is the CI ``--jobs`` determinism gate: it
must pass exports that agree and fail each kind of disagreement."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import check_jobs_digests  # noqa: E402


def export(tmp_path, name, digests, metrics=None):
    """Fabricate ``name/fig2.metrics.json`` with one run per digest."""
    d = tmp_path / name
    d.mkdir()
    runs = [{"digest": g, "metrics": metrics or {"net.crossings": 3}}
            for g in digests]
    (d / "fig2.metrics.json").write_text(
        json.dumps({"kind": "metrics_log", "name": "fig2", "runs": runs}))
    return str(d)


def test_equal_digest_lists_pass(tmp_path, capsys):
    dirs = [export(tmp_path, f"j{n}", ["aa", "bb"]) for n in (1, 2, 4)]
    assert check_jobs_digests.main(["fig2", *dirs, "--scope", "net."]) == 0
    assert "OK: 2 fig2 digests identical" in capsys.readouterr().out


@pytest.mark.parametrize("first,second,metrics,scope,reason", [
    (["aa", "bb"], ["aa", "bc"], None, None, "diverge"),
    ([], [], None, None, "no fig2 runs"),
    (["aa", "bb"], ["aa", "bb"], {"engine.events_processed": 1}, "net.",
     "no net.*"),
])
def test_disagreement_fails(tmp_path, capsys, first, second, metrics, scope,
                            reason):
    dirs = [export(tmp_path, "j1", first),
            export(tmp_path, "j2", second, metrics)]
    argv = ["fig2", *dirs] + (["--scope", scope] if scope else [])
    assert check_jobs_digests.main(argv) == 1
    assert reason in capsys.readouterr().err
