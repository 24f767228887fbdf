"""The runs that no experiment, chaos run or bench workload covers
(snooping off, the eager protocol, a CNI without AIH: the outcome
corpus's ``platforms`` section, tools/outcomes.py) give one well-formed
``label digest snapshot-hash outcome`` line each; two calls give the
same lines, and they are the committed ones in
tests/golden/outcomes.json."""

import os
import re
import sys

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import outcomes  # noqa: E402

HEX16 = re.compile(r"^[0-9a-f]{16}$")
APPS = ("jacobi", "water", "cholesky", "jacobi-lazy", "jacobi-eager")


def test_smoke_lines_are_well_formed_and_repeat():
    printed = outcomes.platforms()
    assert [e[0] for e in printed] == (
        [f"platforms {app} {tag}" for tag in ("snoop", "nosnoop")
         for app in APPS]
        + [f"platforms {app} noaih" for app in APPS[:3] + ("collbench",)])
    for label, digest, snapshot, outcome in printed:
        assert HEX16.match(digest) and HEX16.match(snapshot), label
        assert outcome == ("ok" if "collbench" in label else "correct")
    # A second call, in this process, gives the same lines.
    assert outcomes.platforms() == printed
    pinned = {e[0]: e for e in outcomes.committed()}
    assert printed == [pinned[e[0]] for e in printed]
