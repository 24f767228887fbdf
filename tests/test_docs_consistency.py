"""CI gates on the docs.

docs/observability.md's metric catalog must match what the simulator
actually registers (both directions — no stale docs, no undocumented
instrumentation).  The logic lives in tools/check_docs_metrics.py so it
can also run standalone.  DESIGN.md's module map must name only modules
that exist, and every relative link in the docs must point at a file
that exists."""

import glob
import os
import re
import sys

import pytest

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS_DIR = os.path.join(REPO_DIR, "tools")
sys.path.insert(0, TOOLS_DIR)

import check_docs_metrics  # noqa: E402


@pytest.fixture(scope="module")
def verdict():
    return check_docs_metrics.check()


def test_catalog_extraction_finds_the_known_anchors():
    documented = check_docs_metrics.documented_names()
    # spot-check one name per subsystem: if extraction regresses, these
    # vanish long before the full-set comparison gets confusing
    for anchor in ("engine.events_processed", "node0.nic.mcache.hits",
                   "node0.nic.pathfinder.matches", "node0.nic.aih.dispatches",
                   "node0.bus.snooped_writeback_words",
                   "node0.nic.adc.poll_receives", "spans.dma_ns",
                   "node0.faults.cells_dropped"):
        assert anchor in documented
    assert len(documented) > 40


def test_every_documented_metric_is_registered(verdict):
    stale, _ = verdict
    assert not stale, (
        "docs/observability.md documents metrics the simulator never "
        f"registers: {sorted(stale)}")


def test_every_registered_metric_is_documented(verdict):
    _, undocumented = verdict
    assert not undocumented, (
        "instrumentation registers metrics missing from the "
        f"docs/observability.md catalog: {sorted(undocumented)}")


def _module_map_files():
    """Every ``.py`` named in DESIGN.md §3's table, as a path under src/.

    A cell names a package (`repro/dsm/`) followed by its modules
    (`locks.py`), or a module by full path (`repro/core/adc.py`)."""
    with open(os.path.join(REPO_DIR, "DESIGN.md")) as fh:
        design = fh.read()
    section = design.split("## 3. System inventory", 1)[1].split("\n## ", 1)[0]
    files = []
    for row in section.splitlines():
        if not row.startswith("|"):
            continue
        package = None
        for name in re.findall(r"`([^`]+)`", row.split("|")[2]):
            if name.endswith("/"):
                package = name
            elif name.endswith(".py"):
                files.append(name if "/" in name else package + name)
    return files


def test_design_module_map_names_existing_files():
    files = _module_map_files()
    assert "repro/engine/simulator.py" in files and len(files) > 40
    missing = [f for f in files
               if not os.path.isfile(os.path.join(REPO_DIR, "src", f))]
    assert not missing, f"DESIGN.md §3 names missing modules: {missing}"


#: The pages whose links are checked: the top-level guides and every
#: subsystem page.
LINKED_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")

#: An inline Markdown link's target, with an optional quoted title.
_LINK_RE = re.compile(r"\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: A target with a URL scheme (``https:``, ``mailto:``) is not a file.
_SCHEME_RE = re.compile(r"[a-z][a-z0-9+.-]*:")


def _relative_links():
    """``(page, target)`` for every relative link in :data:`LINKED_DOCS`;
    a pure ``#anchor`` or a URL is skipped."""
    for pattern in LINKED_DOCS:
        for page in sorted(glob.glob(os.path.join(REPO_DIR, pattern))):
            with open(page) as fh:
                text = fh.read()
            for target in _LINK_RE.findall(text):
                if target.startswith("#") or _SCHEME_RE.match(target):
                    continue
                yield page, target


def test_relative_doc_links_resolve():
    links = list(_relative_links())
    assert len(links) > 50
    missing = [
        f"{os.path.relpath(page, REPO_DIR)}: {target}"
        for page, target in links
        if not os.path.exists(os.path.join(
            os.path.dirname(page), target.split("#", 1)[0]))]
    assert not missing, f"relative doc links to missing files: {missing}"
