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
