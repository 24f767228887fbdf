"""Golden outcomes on every fabric.

One case per run of the outcome corpus's ``fabric`` section
(tools/outcomes.py): each small run, recomputed in this process, must
match its committed line in tests/golden/outcomes.json, so a change to
the timed fabric walk that moves a single event names the fabric it
moved on: the DOR and the minimal-adaptive torus (the adaptive path
picks each hop from live queue state), the fat-tree and the paper's
banyan switch, clean and under cell loss (the lossy run retransmits
once).  The fabric's congestion counters are part of the snapshot hash.
"""

import os
import sys

import pytest

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "tools"))

import outcomes  # noqa: E402

RUNS = outcomes.fabric_runs()


@pytest.mark.parametrize("label,spec", RUNS, ids=[lb for lb, _ in RUNS])
def test_fabric_run_outcome_is_pinned(label, spec):
    pinned = {e[0]: e for e in outcomes.committed()}
    entry = [f"fabric {label}", *outcomes._execute(spec)]
    assert entry == pinned[entry[0]]
