"""tools/snoopoff.py prints one ``label digest snapshot-hash`` line per
run that no experiment, chaos run or bench workload covers; two calls
must print the same lines."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "snoopoff.py"
LINE = re.compile(r"^[a-z]+(-[a-z]+)? (snoop|nosnoop|noaih) "
                  r"[0-9a-f]{16} [0-9a-f]{16}$")


def test_smoke_lines_are_well_formed_and_repeat():
    proc = subprocess.run([sys.executable, str(TOOL), "--smoke"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert [ln.split()[:2] for ln in printed] == [
        ["jacobi", "nosnoop"], ["jacobi-eager", "nosnoop"],
        ["jacobi", "noaih"], ["collbench", "noaih"]]
    assert all(LINE.match(ln) for ln in printed), printed
    # A second call, in this process, prints the same lines.
    spec = importlib.util.spec_from_file_location("snoopoff", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.lines(smoke=True) == printed
