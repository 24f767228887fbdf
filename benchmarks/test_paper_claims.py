"""Figures 2-14 and Tables 2-5: the paper's shape claims.

One case per claim in :data:`repro.harness.paper.CLAIMS`.  A case fails
when any check of its claim fails, and its message names the failed
checks, exactly as the claim's DIVERGES line in EXPERIMENTS.md does.
"""

import pytest

from repro.harness.paper import CLAIMS


@pytest.mark.parametrize("exp_id", list(CLAIMS))
def test_paper_claim(experiment, scale, show, exp_id):
    claim = CLAIMS[exp_id]
    ids = [exp_id] + [c.needs for c in claim.checks if c.needs]
    results = {i: experiment(i) for i in ids}
    show(results[exp_id])
    verdict = claim.verdict(results, scale.name)
    assert verdict.status == "holds", verdict.evidence
