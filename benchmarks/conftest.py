"""Shared fixtures for the paper-shape suite.

``test_paper_claims.py`` regenerates each table and figure of the paper
at the ``quick`` scale (REPRO_FULL=1 switches to the paper-sized sweeps)
and asserts the checks of its claim in :mod:`repro.harness.paper`, the
same checks whose verdicts EXPERIMENTS.md records.  The other files
assert their own shapes: Table 1's parameters, the mechanism ablations
and the extensions.  Absolute numbers are simulator-dependent and are
recorded in EXPERIMENTS.md instead.
"""

import functools

import pytest

from repro.harness import active_scale, run_experiment
from repro.harness.report import format_series, format_table


@pytest.fixture(scope="session")
def scale():
    return active_scale()


@pytest.fixture(scope="session")
def experiment(scale):
    """``experiment(exp_id)``: the experiment's result, run once per
    session, so a cross-figure check reads its companion from here."""
    return functools.lru_cache(maxsize=None)(
        lambda exp_id: run_experiment(exp_id, scale))


@pytest.fixture
def show():
    """Print a result under pytest -s / captured output."""
    def _show(result):
        from repro.harness.results import SeriesResult
        text = (format_series(result) if isinstance(result, SeriesResult)
                else format_table(result))
        print("\n" + text)
        return result
    return _show
