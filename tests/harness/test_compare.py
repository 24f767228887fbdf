"""Tests for the paper's claims and the EXPERIMENTS.md renderer."""

import os

import pytest

from repro.harness.compare import parse_results_file, render_experiments_md
from repro.harness.paper import (
    CLAIMS,
    CNI_KEEPS_UP,
    PAPER_OVERHEAD_TABLES,
    PAPER_TABLE5,
    SPREAD,
)
from repro.harness.report import format_series
from repro.harness.results import SeriesResult, TableResult

REPO_DIR = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

SAMPLE = """\
== fig2-jacobi-small ==
  processors  cni_speedup network_cache_hit_ratio standard_speedup
           1            1                       0                1
           2          1.5                      90              1.2
           8          2.5                      95              2.0

== table2-jacobi-overhead ==
row               time_cni_cycles time_standard_cycles
synch_overhead        1.2e+06          2.1e+06
synch_delay           3.7e+06           4.6e+06
computation           3.6e+06          3.6e+06
total                 8.5e+06          10.3e+06
"""


def _series(x_label, xs, **series):
    r = SeriesResult(name="synthetic", x_label=x_label, xs=list(xs))
    r.series.update({k: list(v) for k, v in series.items()})
    return r


def _table(columns, rows):
    t = TableResult(name="synthetic", columns=columns)
    for label, values in rows.items():
        t.add_row(label, values)
    return t


def _speedups(hits):
    return _series("processors", [1, 2, 4, 8], cni_speedup=[1, 1.9, 3.6, 6],
                   standard_speedup=[1, 1.8, 3.0, 4.5],
                   network_cache_hit_ratio=hits)


def _passing(exp_id):
    """A synthetic result that holds every check of ``exp_id``'s claim."""
    if exp_id in ("fig2", "fig3", "fig4"):
        return _speedups([0, 96, 97, 98])
    if exp_id in ("fig6", "fig7", "fig8"):
        return _speedups([0, 85, 90, 95])
    if exp_id in ("fig10", "fig11"):
        return _series("processors", [1, 2, 4, 8],
                       cni_speedup=[1, 1.5, 1.7, 1.2],
                       standard_speedup=[1, 1.0, 0.9, 0.6],
                       network_cache_hit_ratio=[0, 95, 97, 98])
    if exp_id in ("fig5", "fig9", "fig12"):
        return _series("page_size_bytes", [1024, 2048, 4096, 8192],
                       cni_speedup=[6.0, 6.2, 6.3, 6.2],
                       standard_speedup=[4.0, 4.5, 4.8, 4.6])
    if exp_id == "fig13":
        return _series("message_cache_bytes", [8192, 16384, 32768, 65536],
                       jacobi=[80, 90, 95, 96], water=[85, 92, 95, 96],
                       cholesky=[70, 80, 85, 88])
    if exp_id == "fig14":
        return _series("message_bytes", [0, 1024, 2048, 4096],
                       cni_latency_us=[15, 40, 75, 140],
                       standard_latency_us=[40, 70, 120, 200])
    if exp_id == "table5":
        return _table(["pct_improvement"],
                      {"jacobi": [5.0], "water": [10.0], "cholesky": [12.0]})
    assert exp_id in PAPER_OVERHEAD_TABLES, exp_id
    return _table(["time_cni_cycles", "time_standard_cycles"],
                  {"synch_overhead": [1.0, 2.0], "synch_delay": [3.0, 4.0],
                   "computation": [5.0, 5.0], "total": [9.0, 11.0]})


def _results(exp_id):
    """``exp_id``'s passing result and those its cross-figure checks need."""
    ids = [exp_id] + [c.needs for c in CLAIMS[exp_id].checks if c.needs]
    return {i: _passing(i) for i in ids}


def _set(key, index, value):
    def edit(results, own, companions):
        own.get(key)[index] = value
    return edit


def _cni_below_standard(results, own, companions):
    own.get("standard_speedup")[2] = own.get("cni_speedup")[2] / 0.97


def _own(**series):
    def edit(results, own, companions):
        own.series.update({k: list(v) for k, v in series.items()})
    return edit


def _all_speedups(cni, std):
    """Set every speedup curve, the claim's and its companions'."""
    def edit(results, own, companions):
        for r in results.values():
            r.series.update(cni_speedup=list(cni), standard_speedup=list(std))
    return edit


def _companion_peak_doubled(results, own, companions):
    for r in companions:
        r.series["cni_speedup"] = [2 * y for y in r.get("cni_speedup")]


def _cells(**rows):
    def edit(results, own, companions):
        for label, (column, value) in rows.items():
            own.rows[label][own.columns.index(column)] = value
    return edit


CNI = "time_cni_cycles"

#: For every check name: an edit of a passing result set that breaks
#: that check and no other.
BREAK = {
    CNI_KEEPS_UP.name: _cni_below_standard,
    "peak CNI speedup > 1.2": _all_speedups([1, 1.1, 1.15, 1.2],
                                            [1, 1.1, 1.15, 1.2]),
    "hit ratio >= 50% at the most processors":
        _own(network_cache_hit_ratio=[0, 45, 45, 45]),
    "hit ratio falls <= 5 points from 2 processors to the most":
        _own(network_cache_hit_ratio=[0, 96, 93, 90]),
    "peak CNI speedup >= fig2's": _companion_peak_doubled,
    "hit ratio moves >= 1 point across processor counts or stays above 90%":
        _own(network_cache_hit_ratio=[0, 80, 80.5, 80.5]),
    "hit ratio > 30% at the most processors":
        _own(network_cache_hit_ratio=[0, 60, 40, 30]),
    "CNI/standard ratio at the most processors >= 0.9 x at 2":
        _own(standard_speedup=[1, 1.9 / 1.2, 3.0, 6]),
    "peak CNI speedup > 1": _all_speedups([1, 0.9, 0.8, 0.7],
                                          [1, 0.6, 0.5, 0.4]),
    "CNI speedup >= standard at the most processors":
        _set("standard_speedup", -1, 1.2 * 1.01),
    "peak CNI speedup >= 0.9 x fig10's": _companion_peak_doubled,
    SPREAD.name: _own(cni_speedup=[4.0, 6.2, 6.3, 6.2],
                      standard_speedup=[4.0, 4.1, 4.2, 4.1]),
    "every curve falls <= 3 points per step": _own(jacobi=[80, 95, 91, 92]),
    "every curve ends at or above its start": _own(jacobi=[90, 89, 89, 89.5]),
    "every curve's top half gains <= its bottom half + 3 points":
        _own(jacobi=[80, 80, 80, 90]),
    "both curves non-decreasing in size":
        _own(standard_latency_us=[40, 90, 85, 200]),
    "CNI latency < standard at every size":
        _set("standard_latency_us", 0, 15),
    "largest-size reduction within 15-55%":
        _set("standard_latency_us", -1, 150),
    "CNI top-half slope < 3 x bottom-half slope":
        _own(cni_latency_us=[15, 20, 25, 140]),
    "CNI synch_overhead < standard": _cells(synch_overhead=(CNI, 2.0)),
    "CNI synch_delay < standard": _cells(synch_delay=(CNI, 4.0)),
    "CNI synch_delay <= standard": _cells(synch_delay=(CNI, 4.5)),
    "CNI computation within 2% of standard": _cells(computation=(CNI, 5.5)),
    "CNI computation within 5% of standard": _cells(computation=(CNI, 5.5)),
    "CNI total < standard": _cells(total=(CNI, 11.0)),
    "CNI synch delay + overhead > 10% of its total":
        _cells(synch_delay=(CNI, 0.1), synch_overhead=(CNI, 0.1)),
    "CNI synch delay > 0.3 x its computation": _cells(synch_delay=(CNI, 1.0)),
    "every application improves > 0.5%":
        _cells(jacobi=("pct_improvement", 0.4)),
    "Water's or Cholesky's gain >= 0.8 x Jacobi's":
        _cells(jacobi=("pct_improvement", 20.0)),
}


def test_parse_roundtrip(tmp_path):
    p = tmp_path / "results.txt"
    p.write_text(SAMPLE)
    parsed = parse_results_file(str(p))
    assert set(parsed) == {"fig2", "table2"}
    fig2 = parsed["fig2"]
    assert fig2.xs == [1.0, 2.0, 8.0]
    assert fig2.get("cni_speedup") == [1.0, 1.5, 2.5]
    t2 = parsed["table2"]
    assert t2.cell("total", "time_cni_cycles") == 8.5e6


def test_parse_formatted_output_roundtrip(tmp_path):
    r = SeriesResult(name="fig14-x", x_label="message_bytes",
                     xs=[0.0, 4096.0])
    r.series["cni_latency_us"] = [10.0, 100.0]
    r.series["standard_latency_us"] = [20.0, 150.0]
    p = tmp_path / "out.txt"
    p.write_text(format_series(r) + "\n\n")
    parsed = parse_results_file(str(p))
    assert parsed["fig14"].get("cni_latency_us") == [10.0, 100.0]


def test_figure_verdict_speedup_holds(tmp_path):
    p = tmp_path / "results.txt"
    p.write_text(SAMPLE)
    verdict = CLAIMS["fig2"].verdict(parse_results_file(str(p)))
    assert verdict.status == "holds"
    assert "2.50x" in verdict.evidence
    assert verdict.failed == ()


def test_figure_verdict_diverges_when_standard_wins():
    r = _series("processors", [1, 8], cni_speedup=[1.0, 1.5],
                standard_speedup=[1.0, 2.5], network_cache_hit_ratio=[0, 95])
    verdict = CLAIMS["fig2"].verdict({"fig2": r})
    assert verdict.status == "DIVERGES"
    assert verdict.failed == (CNI_KEEPS_UP.name,)
    assert verdict.evidence.endswith("failed: " + CNI_KEEPS_UP.name)


def test_fig14_verdict_window():
    r = _series("message_bytes", [0, 4096], cni_latency_us=[10.0, 140.0],
                standard_latency_us=[20.0, 200.0])
    verdict = CLAIMS["fig14"].verdict({"fig14": r})
    assert verdict.status == "holds"
    assert "30%" in verdict.evidence


def test_table_verdict_overheads():
    verdict = CLAIMS["table3"].verdict({"table3": _passing("table3")})
    assert verdict.status == "holds"
    assert "paper" in verdict.evidence


def test_table5_verdict():
    t = _table(["pct_improvement"], {app: [7.0] for app in PAPER_TABLE5})
    verdict = CLAIMS["table5"].verdict({"table5": t})
    assert verdict.status == "holds"
    assert "jacobi" in verdict.evidence


@pytest.mark.parametrize("scale", ["quick", "paper"])
@pytest.mark.parametrize("exp_id", list(CLAIMS))
def test_every_claim_holds_on_a_passing_result(exp_id, scale):
    assert CLAIMS[exp_id].verdict(_results(exp_id), scale).status == "holds"


@pytest.mark.parametrize("exp_id,name", [
    (c.exp_id, check.name) for c in CLAIMS.values() for check in c.checks])
def test_each_check_broken_alone_diverges_and_is_named(exp_id, name):
    results = _results(exp_id)
    own = results[exp_id]
    BREAK[name](results, own, [r for i, r in results.items() if i != exp_id])
    verdict = CLAIMS[exp_id].verdict(results, "paper")
    assert verdict.status == "DIVERGES"
    assert verdict.failed == (name,)
    assert verdict.evidence.endswith("failed: " + name)


def test_every_check_has_a_breaker():
    names = {check.name for c in CLAIMS.values() for check in c.checks}
    assert names == set(BREAK)


def test_cholesky_speedup_at_096_of_standard_diverges():
    results = _results("fig10")
    r = results["fig10"]
    r.get("standard_speedup")[1] = r.get("cni_speedup")[1] / 0.96
    verdict = CLAIMS["fig10"].verdict(results)
    assert verdict.status == "DIVERGES"
    assert CNI_KEEPS_UP.name in verdict.failed


def test_fig12_spread_six_points_above_standard_diverges():
    std = [4.0, 4.2, 4.4, 4.4]
    spread = (max(std) - min(std)) / max(std) + 0.06
    r = _series("page_size_bytes", [1024, 2048, 4096, 8192],
                cni_speedup=[6.0 * (1 - spread), 5.5, 6.0, 5.8],
                standard_speedup=std)
    verdict = CLAIMS["fig12"].verdict({"fig12": r})
    assert verdict.status == "DIVERGES"
    assert verdict.failed == (SPREAD.name,)


def test_cholesky_peak_is_checked_at_paper_scale_only():
    results = _results("fig10")
    BREAK["peak CNI speedup > 1"](results, results["fig10"], [])
    assert CLAIMS["fig10"].verdict(results, "quick").status == "holds"
    verdict = CLAIMS["fig10"].verdict(results, "paper")
    assert verdict.failed == ("peak CNI speedup > 1",)


@pytest.mark.parametrize("exp_id,companion", [("fig4", "fig2"),
                                              ("fig11", "fig10")])
def test_cross_figure_check_without_its_companion_is_na(exp_id, companion):
    verdict = CLAIMS[exp_id].verdict({exp_id: _passing(exp_id)})
    assert verdict.status == "n/a"
    assert verdict.failed == (companion,)
    assert verdict.evidence.endswith("needs " + companion)


def test_render_mentions_every_experiment(tmp_path):
    p = tmp_path / "results.txt"
    p.write_text(SAMPLE)
    doc = render_experiments_md(parse_results_file(str(p)))
    for exp_id in CLAIMS:
        assert f"## {exp_id}\n" in doc
    assert "(not measured)" in doc  # paper column absent
    assert "**DIVERGES**" not in doc


def test_experiments_md_has_exactly_the_rendered_sections():
    """EXPERIMENTS.md is generated: its ``## `` headings are the ones
    the renderer emits, so no hand-written section can sit in it."""
    def headings(text):
        return [ln for ln in text.splitlines() if ln.startswith("## ")]

    with open(os.path.join(REPO_DIR, "EXPERIMENTS.md")) as fh:
        assert headings(fh.read()) == headings(render_experiments_md({}))


def test_claims_cover_all_figures():
    assert list(CLAIMS) == ([f"fig{i}" for i in range(2, 15)]
                            + [f"table{i}" for i in range(2, 6)])
    for claim in CLAIMS.values():
        assert claim.checks and claim.paper_says
        assert all(c.needs in CLAIMS for c in claim.checks if c.needs)


def test_paper_tables_are_self_consistent():
    for name, table in PAPER_OVERHEAD_TABLES.items():
        for col in ("cni", "standard"):
            parts = sum(table[row][col] for row in
                        ("synch_overhead", "synch_delay", "computation"))
            assert parts == pytest.approx(table["total"][col], rel=0.02), name
