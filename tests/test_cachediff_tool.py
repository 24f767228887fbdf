"""tools/cachediff.py compares the cache model of two checkouts: it must
find a checkout identical to itself and stop at a planted difference."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cachediff.py"


def cachediff(a, b, seed="1"):
    return subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), seed, "--trials", "60"],
        capture_output=True, text=True, timeout=120)


def test_checkout_is_identical_to_itself():
    proc = cachediff(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "cache model identical over 3600 operations" in proc.stdout


def test_planted_difference_exits_1(tmp_path):
    # A copy whose range entry charges one more cycle per burst.
    memory = tmp_path / "src" / "repro" / "memory"
    memory.mkdir(parents=True)
    for name in ("cache.py", "address.py"):
        shutil.copy(ROOT / "src" / "repro" / "memory" / name, memory / name)
    source = (memory / "cache.py").read_text()
    planted = source.replace("float(n * self.l1_cycles +",
                             "float(1 + n * self.l1_cycles +")
    assert planted != source
    (memory / "cache.py").write_text(planted)
    proc = cachediff(ROOT, tmp_path)
    assert proc.returncode == 1
    assert "cache model differs:" in proc.stdout
    assert "cpu_cycles" in proc.stdout
