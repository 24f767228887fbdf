"""tools/profile.py profiles the benchmark's own workloads and must keep
running.  It rewrites ``sys.path`` on import (its name shadows the
stdlib ``profile``), so it runs in a child interpreter."""

import subprocess
import sys
from pathlib import Path

PROFILE = Path(__file__).parent.parent / "tools" / "profile.py"


def test_profile_smoke_run_exits_clean():
    proc = subprocess.run(
        [sys.executable, str(PROFILE), "--workload", "transpose-torus",
         "--smoke", "--limit", "5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "[profile] transpose-torus (smoke)" in proc.stdout


def test_profile_memory_run_reports_peak_and_sites():
    proc = subprocess.run(
        [sys.executable, str(PROFILE), "--workload", "transpose-torus",
         "--smoke", "--memory", "--limit", "3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "[profile] traced peak" in proc.stdout
    sites = [ln for ln in proc.stdout.splitlines() if " MB in " in ln]
    assert len(sites) == 3
    assert all(":" in ln.split()[-1] for ln in sites)   # path:line


def test_profile_sites_total_equals_engine_events():
    """Every process resume is one event, and transpose schedules no
    plain callbacks: the per-site counts sum to ``engine.events``."""
    import re

    proc = subprocess.run(
        [sys.executable, str(PROFILE), "--workload", "transpose-torus",
         "--smoke", "--sites", "--limit", "5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    head = re.search(r"\[profile\] ([\d,]+) process resumes at \d+ yield "
                     r"sites \(([\d,]+) events", proc.stdout)
    assert head, proc.stdout
    resumes, events = (int(g.replace(",", "")) for g in head.groups())
    assert resumes == events > 0
    rows = [ln.split() for ln in proc.stdout.splitlines()
            if ln.startswith("  ")]
    assert len(rows) == 6 and rows[-1] == [f"{resumes:,d}", "total"]
    sites = [r[-1] for r in rows[:-1]]
    assert all(s.count(":") == 2 and s.startswith("src/repro/")
               for s in sites)
    assert sum(int(r[0].replace(",", "")) for r in rows[:-1]) <= resumes
