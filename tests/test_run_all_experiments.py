"""Exit code and summary lines of scripts/run_all_experiments.py, with the experiments faked."""

import importlib.util
import re
import resource
from pathlib import Path

import pytest

from flatclust.experiments import ExperimentReport

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_all_experiments.py"


@pytest.fixture
def script():
    spec = importlib.util.spec_from_file_location("run_all_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(script, monkeypatch, tmp_path, checks_by_name):
    def fake_run(name):
        checks = checks_by_name[name]
        return ExperimentReport(
            name=name, config={}, seed=0, rows=[], curves={}, checks=checks, passed=all(checks.values())
        )

    monkeypatch.setattr(script, "experiment_names", lambda: list(checks_by_name))
    monkeypatch.setattr(script, "run_experiment", fake_run)
    return script.main(["--outdir", str(tmp_path)])


def test_expected_failure_alone_exits_zero(script, monkeypatch, tmp_path, capsys):
    checks = {
        "compensating": {"closed_form_ratio_in_band": False, "rate_partial_d_positive": True},
        "kde_rate": {"slope_in_band": True},
    }
    assert _run(script, monkeypatch, tmp_path, checks) == 0
    out = capsys.readouterr().out
    assert "FAIL closed_form_ratio_in_band  (expected)" in out
    assert "expected failures: compensating.closed_form_ratio_in_band" in out
    assert "unexpected" not in out


@pytest.mark.parametrize(
    "checks, culprit",
    [
        (
            {"compensating": {"closed_form_ratio_in_band": False, "rate_partial_d_positive": False}},
            "compensating.rate_partial_d_positive",
        ),
        (
            {"compensating": {"closed_form_ratio_in_band": False}, "kde_rate": {"slope_in_band": False}},
            "kde_rate.slope_in_band",
        ),
    ],
)
def test_any_other_failed_check_exits_one(script, monkeypatch, tmp_path, capsys, checks, culprit):
    assert _run(script, monkeypatch, tmp_path, checks) == 1
    assert f"unexpected failures: {culprit}" in capsys.readouterr().out


def test_unknown_only_is_a_usage_error(script, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--outdir", str(tmp_path / "o"), "--only", "bogus"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_each_experiment_line_shows_its_wall_time_and_the_peak_rss(script, monkeypatch, tmp_path, capsys):
    checks = {"kde_rate": {"slope_in_band": True}, "hartigan": {"nesting": False}}
    assert _run(script, monkeypatch, tmp_path, checks) == 1
    lines = capsys.readouterr().out.splitlines()
    peaks = []
    for name, status in (("kde_rate", "pass"), ("hartigan", "FAIL")):
        line = next(line for line in lines if line.startswith(name))
        found = re.fullmatch(rf"{name} +{status}  \(\d+\.\ds, peak RSS (\d+\.\d) MB\)", line)
        assert found, line
        peaks.append(float(found.group(1)))
    # a high-water mark: never falls, and is this process's own (KiB on Linux)
    assert 0 < peaks[0] <= peaks[1] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + 0.05
