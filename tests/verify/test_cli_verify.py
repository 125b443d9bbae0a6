"""End-to-end tests for the ``repro verify`` CLI subcommand."""

import json

import pytest

from repro.cli import main
from repro.obs import validate_chrome_trace
from repro.verify.mutants import mutant_by_name

pytestmark = pytest.mark.tier1


def test_verify_list_names_the_corpus(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "litmus corpus" in out
    assert "wb-races-reqwt" in out


def test_verify_small_sweep_passes(capsys):
    rc = main(["verify", "--scenarios", "mp-flag-handoff",
               "--configs", "SMG,HMG", "--max-schedules", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 violation(s)" in out


def test_verify_walk_mode(capsys):
    rc = main(["verify", "--scenarios", "atomic-counter",
               "--configs", "SDD", "--mode", "walk", "--seeds", "4"])
    assert rc == 0
    assert "4 schedules" in capsys.readouterr().out


def test_verify_reports_which_pairs_were_capped(capsys):
    rc = main(["verify", "--scenarios", "two-lines-independent,"
               "mp-flag-handoff", "--configs", "SMG",
               "--max-schedules", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1 of 2 (scenario, config) pairs explored fully; " \
        "capped: mp-flag-handoff@SMG" in out

    rc = main(["verify", "--scenarios", "two-lines-independent",
               "--configs", "SMG", "--mode", "walk", "--seeds", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no (scenario, config) pair is claimed explored fully" in out
    assert "pairs explored fully;" not in out


def test_verify_coverage_report_prints(capsys):
    rc = main(["verify", "--scenarios", "mp-flag-handoff",
               "--configs", "SMG", "--max-schedules", "4",
               "--coverage"])
    assert rc == 0
    assert "FSM transition coverage" in capsys.readouterr().out


def test_verify_unknown_names_exit_2(capsys):
    assert main(["verify", "--configs", "XXX"]) == 2
    assert main(["verify", "--scenarios", "no-such-scenario"]) == 2
    capsys.readouterr()


def test_verify_failure_repro_trace_and_replay(tmp_path, capsys):
    """The full failure pipeline: explore -> shrink -> repro JSON ->
    Chrome trace -> replay (reproduces under the mutant, passes
    reverted)."""
    repro_path = tmp_path / "repro.json"
    trace_path = tmp_path / "schedule-trace.json"
    mutant = mutant_by_name("home-stale-wb-applies")
    with mutant.applied():
        rc = main(["verify", "--scenarios", "wb-races-reqwt",
                   "--configs", "SMG", "--max-schedules", "120",
                   "--repro-out", str(repro_path),
                   "--trace-out", str(trace_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "wb-races-reqwt on SMG" in err

    payload = json.loads(repro_path.read_text())
    assert payload["scenario"] == "wb-races-reqwt"
    assert payload["config"] == "SMG"
    assert len(payload["choices"]) <= len(payload["shrunk_from"])

    trace = json.loads(trace_path.read_text())
    assert not validate_chrome_trace(trace)
    assert trace["traceEvents"]

    with mutant.applied():
        assert main(["verify", "--replay", str(repro_path)]) == 3
    capsys.readouterr()
    # reverted, the same schedule must pass
    assert main(["verify", "--replay", str(repro_path)]) == 0
    assert "no longer reproduces" in capsys.readouterr().out
