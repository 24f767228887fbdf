"""Option handling of the ``python -m repro.harness`` CLI: every parse
error must exit non-zero with a message on stderr — never a traceback,
never a silent success."""

import pytest

from repro.harness.runner import main


def test_bad_jobs_value_exits_nonzero(capsys):
    assert main(["--jobs", "nope", "fig2"]) == 1
    err = capsys.readouterr().err
    assert "--jobs" in err


def test_negative_jobs_value_exits_nonzero(capsys):
    assert main(["--jobs", "0", "fig2"]) == 1
    assert "--jobs" in capsys.readouterr().err


def test_flag_missing_value_exits_nonzero():
    with pytest.raises(SystemExit) as info:
        main(["fig2", "--jobs"])
    assert "--jobs needs a value" in str(info.value)


def test_unknown_experiment_id_exits_nonzero(capsys):
    assert main(["no_such_experiment"]) == 2
    err = capsys.readouterr().err
    assert "no_such_experiment" in err
    assert "fig2" in err  # the message lists the valid choices


def test_unknown_option_is_reported_as_an_option(capsys, tmp_path):
    """A mistyped flag is named as an unknown option, with the runner's
    options listed, and no experiment runs."""
    assert main(["fig2", "--job", "2", "--results", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown option --job " in err
    assert "--jobs N" in err and "--topology SPEC" in err
    assert "experiment ids" not in err
    assert list(tmp_path.iterdir()) == []


def test_bad_deadline_and_heartbeat_exit_nonzero(capsys):
    assert main(["--deadline-ns", "soon", "fig2"]) == 1
    assert "--deadline-ns" in capsys.readouterr().err
    assert main(["--heartbeat-ns", "often", "fig2"]) == 1
    assert "--heartbeat-ns" in capsys.readouterr().err


def test_bad_fault_plan_exits_nonzero(capsys):
    assert main(["--fault-plan", "gibberish((", "fig2"]) == 1
    assert "--fault-plan" in capsys.readouterr().err


def test_no_arguments_prints_usage(capsys):
    assert main([]) == 2
    assert "experiments:" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage_and_exits_zero(capsys, flag):
    assert main([flag]) == 0
    out = capsys.readouterr().out
    assert "Usage::" in out
    assert "experiments:" in out and "fig2" in out


def test_metrics_bad_nprocs_exits_nonzero(capsys):
    assert main(["metrics", "--nprocs", "zonk"]) == 2
    assert "--nprocs" in capsys.readouterr().err
    assert main(["metrics", "--nprocs", "0"]) == 2
    assert "--nprocs" in capsys.readouterr().err


def test_metrics_bad_interface_exits_nonzero(capsys):
    assert main(["metrics", "--interface", "rfc1149"]) == 2
    assert "--interface" in capsys.readouterr().err


def test_metrics_unrecognized_arguments_exit_nonzero(capsys):
    assert main(["metrics", "--frobnicate"]) == 2
    assert "--frobnicate" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_metrics_help_prints_its_options_and_exits_zero(capsys, flag):
    assert main(["metrics", flag]) == 0
    out = capsys.readouterr().out
    for option in ("--app", "--nprocs", "--interface", "--json",
                   "--topology"):
        assert option in out
    assert "experiments:" not in out   # the subcommand's text, not the runner's


@pytest.mark.parametrize("argv", [
    ["no_such_experiment"],               # exits 2, after the default is set
    ["--jobs", "2", "no_such_experiment"],
    ["--jobs", "nope", "fig2"],           # bad --jobs, exits 1
    ["--jobs", "0", "fig2"],
    ["-h"],                               # usage, exits 0
])
def test_jobs_default_is_unchanged_after_the_call(argv, capsys):
    """The CLI's ``--jobs`` default is its own: a caller's default (the
    one later in-process sweeps use) reads the same afterwards."""
    from repro.harness.parallel import default_jobs, set_default_jobs

    before = default_jobs()
    set_default_jobs(3)
    try:
        main(argv)
        assert default_jobs() == 3
    finally:
        set_default_jobs(before)
