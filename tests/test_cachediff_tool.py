"""The cache model's seeded stream of every operation kind (the outcome
corpus's ``cache`` section, tools/outcomes.py), driven twice in this
process, is identical to itself and to its committed line in
tests/golden/outcomes.json."""

import os
import sys

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import outcomes  # noqa: E402


def test_checkout_is_identical_to_itself():
    first = outcomes._cache(1)
    assert outcomes._cache(1) == first
    pinned = {e[0]: e for e in outcomes.committed()}
    assert ["cache seed=1", *first] == pinned["cache seed=1"]
