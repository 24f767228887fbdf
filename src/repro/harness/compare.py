"""Paper-vs-measured comparison: parse harness output, render EXPERIMENTS.md.

The parser reads back the text :mod:`repro.harness.report` emits, which
the runner writes under ``--results``; the verdicts are the checks of
:data:`repro.harness.paper.CLAIMS`::

    python -m repro.harness all              # -> results/quick_scale_results.txt
    REPRO_FULL=1 python -m repro.harness all # -> results/paper_scale_results.txt
    python -m repro.harness.compare results/quick_scale_results.txt \
        results/paper_scale_results.txt > EXPERIMENTS.md
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

from .paper import CLAIMS, Result
from .results import SeriesResult, TableResult


def parse_results_file(path: str) -> Dict[str, Result]:
    """Parse a ``== name ==`` results dump back into result objects.

    Result names are normalized to experiment ids where possible
    (``fig5-jacobi-pagesize`` -> ``fig5``).
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    out: Dict[str, Result] = {}
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if not (line.startswith("== ") and line.endswith(" ==")):
            i += 1
            continue
        name = line[3:-3].strip()
        header = lines[i + 1].split()
        body: List[List[str]] = []
        j = i + 2
        while j < len(lines) and lines[j].strip() and not \
                lines[j].strip().startswith("=="):
            if not lines[j].strip().startswith("("):
                body.append(lines[j].split())
            j += 1
        result = _build_result(name, header, body)
        out[_normalize(name)] = result
        i = j
    return out


#: Result names whose first word is not their experiment id.
_ALIASES = {"mcache": "fig13", "latency": "fig14", "unrestricted": "table5",
            "simulation": "table1", "bandwidth": "bandwidth"}


def _normalize(name: str) -> str:
    head = name.split("-")[0]
    if head.startswith(("fig", "table")):
        return head
    return _ALIASES.get(head, name)


def _build_result(name: str, header: List[str],
                  body: List[List[str]]) -> Result:
    if header and header[0] == "row":
        table = TableResult(name=name, columns=header[1:])
        for row in body:
            table.add_row(row[0], [float(v) for v in row[1:]])
        return table
    series = SeriesResult(name=name, x_label=header[0],
                          xs=[float(r[0]) for r in body])
    for c, col in enumerate(header[1:], start=1):
        series.series[col] = [float(r[c]) for r in body]
    series.validate()
    return series


# ---------------------------------------------------------------- renderer --

def render_experiments_md(quick: Dict[str, Result],
                          paper: Optional[Dict[str, Result]] = None) -> str:
    """Build the EXPERIMENTS.md document."""
    paper = paper or {}
    out: List[str] = []
    out.append("# EXPERIMENTS — paper vs. measured\n")
    out.append(
        "Generated by `python -m repro.harness.compare` from harness "
        "output files.\nColumns: the paper's claim for each table/figure, "
        "and whether the\nregenerated data holds that claim at the "
        "`quick` scale (CI-sized\nworkloads) and the `paper` scale "
        "(REPRO_FULL=1: the paper's workload\nsizes).  Absolute cycle "
        "counts are not comparable across simulators;\nclaims are about "
        "orderings, trends and relative gaps — see DESIGN.md.\n"
    )
    for claim in CLAIMS.values():
        out.append(f"\n## {claim.exp_id}\n")
        out.append(f"**Paper:** {claim.paper_says}\n")
        for scale_name, results in (("quick", quick), ("paper", paper)):
            if claim.exp_id not in results:
                out.append(f"- *{scale_name} scale*: (not measured)")
                continue
            verdict = claim.verdict(results, scale_name)
            out.append(f"- *{scale_name} scale*: **{verdict.status}** — "
                       f"{verdict.evidence}")
        if claim.note:
            out.append("\n*Note:* " + claim.note)
    out.append(
        "\n## Raw data\n\n"
        "The per-point numbers behind every verdict are in "
        "`results/quick_scale_results.txt` and "
        "`results/paper_scale_results.txt` (regenerate with "
        "`python -m repro.harness all` and `REPRO_FULL=1 python -m "
        "repro.harness all`; add `--jobs N` to fan the grid across "
        "cores — see [docs/parallel_runs.md](docs/parallel_runs.md)).  "
        "SVG renderings of any figure: "
        "`python -m repro.harness figN --svg out/`.\n"
    )
    out.append("")
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: compare one or two results files, print EXPERIMENTS.md."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not 1 <= len(argv) <= 2:
        print("usage: python -m repro.harness.compare "
              "QUICK_RESULTS [PAPER_RESULTS]", file=sys.stderr)
        return 2
    quick = parse_results_file(argv[0])
    paper = parse_results_file(argv[1]) if len(argv) == 2 else None
    print(render_experiments_md(quick, paper))
    return 0


if __name__ == "__main__":
    sys.exit(main())
