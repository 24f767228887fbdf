"""tools/outcomes.py: the committed outcome corpus is current, the
comparison names every entry that moved, appeared or vanished, and a
wrong answer is refused."""

import dataclasses
import os
import sys

import pytest

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import outcomes  # noqa: E402
from repro.apps import WORKLOADS  # noqa: E402
from repro.memory.cache import CacheHierarchy  # noqa: E402


def test_committed_corpus_is_current(capsys):
    """Every run, recomputed on worker processes and through the warm
    pool at two jobs, matches tests/golden/outcomes.json."""
    status = outcomes.main(["check"])
    out = capsys.readouterr().out
    assert status == 0, out
    assert out.endswith("0 digests moved, 0 snapshot hashes moved, "
                        "0 outcomes moved, 0 appeared, 0 vanished\n")


OLD = [["cache seed=1", "aaaa", "bbbb", "ok"],
       ["chaos banyan:32 jacobi/clean", "cccc", "dddd", "correct"],
       ["chaos banyan:32 jacobi/loss", "eeee", "-", "DeliveryFailed"]]


def changed(index, column, value):
    new = [list(e) for e in OLD]
    new[index][column] = value
    return new


@pytest.mark.parametrize("new,named,summary", [
    pytest.param(changed(0, 1, "ffff"),
                 "moved cache seed=1: digest aaaa -> ffff",
                 "1 digests moved, 0 snapshot hashes moved",
                 id="digest-moved"),
    pytest.param(changed(1, 2, "9999"),
                 "moved chaos banyan:32 jacobi/clean: snapshot hash dddd "
                 "-> 9999", "0 digests moved, 1 snapshot hashes moved",
                 id="snapshot-moved"),
    pytest.param(OLD[:2], "vanished chaos banyan:32 jacobi/loss: eeee - "
                 "DeliveryFailed", "0 appeared, 1 vanished", id="vanished"),
    pytest.param(OLD + [["fabric x", "1111", "2222", "ok"]],
                 "appeared fabric x: 1111 2222 ok", "1 appeared, 0 vanished",
                 id="appeared"),
    pytest.param([], "vanished cache seed=1: aaaa bbbb ok",
                 "0 appeared, 3 vanished", id="nothing-recomputed"),
])
def test_check_names_each_move_and_exits_1(tmp_path, monkeypatch, capsys,
                                           new, named, summary):
    path = tmp_path / "outcomes.json"
    path.write_text(outcomes.dump(OLD))
    monkeypatch.setattr(outcomes, "compute", lambda pooled: new)
    assert outcomes.check(str(path)) == 1
    out = capsys.readouterr().out.splitlines()
    assert named in out
    assert summary in out[-1]


def test_equal_corpora_exit_0(tmp_path, monkeypatch, capsys):
    path = tmp_path / "outcomes.json"
    path.write_text(outcomes.dump(OLD))
    monkeypatch.setattr(outcomes, "compute", lambda pooled: OLD)
    assert outcomes.check(str(path)) == 0
    assert capsys.readouterr().out == (
        "3 runs: 0 digests moved, 0 snapshot hashes moved, 0 outcomes moved, "
        "0 appeared, 0 vanished\n")


def test_record_refuses_a_wrong_answer(tmp_path, monkeypatch, capsys):
    """Jacobi returns a grid with one element off by one: record names
    every run whose answer it judged and writes nothing."""
    jacobi = WORKLOADS["jacobi"]

    def perturbed(params, interface, config):
        stats, grid = jacobi.runner(params, interface, config)
        grid.flat[grid.size // 2] += 1.0
        return stats, grid

    monkeypatch.setitem(WORKLOADS, "jacobi",
                        dataclasses.replace(jacobi, runner=perturbed))
    monkeypatch.setattr(outcomes, "FABRICS", outcomes.FABRICS[:1])
    monkeypatch.setattr(outcomes, "SECTIONS", (outcomes.chaos,))
    path = tmp_path / "outcomes.json"
    assert outcomes.record(str(path)) == 1
    assert not path.exists()
    out = capsys.readouterr().out.splitlines()
    assert "refused chaos banyan:32 jacobi/clean: wrong answer" in out
    assert all(" jacobi/" in line and line.endswith(": wrong answer")
               for line in out)


def test_cache_digest_sees_one_more_cycle(monkeypatch):
    """A range burst that charges one more cycle moves the cache
    section's digest; the tags and dirty bits, and so its snapshot hash,
    stay."""
    before = outcomes._cache(1, trials=2)
    priced = CacheHierarchy.access_range

    def dearer(self, first_line, n, is_write):
        cost = priced(self, first_line, n, is_write)
        cost.cpu_cycles += 1
        return cost

    monkeypatch.setattr(CacheHierarchy, "access_range", dearer)
    after = outcomes._cache(1, trials=2)
    assert after[0] != before[0]
    assert after[1:] == before[1:]
