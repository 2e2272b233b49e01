"""scripts/bench_pairs.py on a throwaway repository whose benchmark is a tiny fake."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

# Prints a line for people, then the one JSON line perfbench/run.py ends with.
# WALL is the side's speed; the seed nudges it so the quartiles differ.
FAKE_RUN = """\
import argparse, json
WALL = {wall}
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
wall = WALL + int(a.seed) / 100
print("fake benchmark", a.workload)
metrics = {{"wall_s": {{"value": wall, "unit": "s"}}, "peak_rss_mb": {{"value": 50.0, "unit": "MB"}}}}
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}}))
"""


@pytest.fixture
def script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)


# The end-to-end bounds of FAKE_RUN's two metrics, as the repository's own BENCHMARK.json gives them.
FAKE_BENCHMARK = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]
}


def _committed_repo(tmp_path, run_text: str) -> Path:
    """A repository whose one commit holds bench/run.py and BENCHMARK.json."""
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)
    (repo / "bench" / "run.py").write_text(run_text)
    (repo / "BENCHMARK.json").write_text(json.dumps(FAKE_BENCHMARK))
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "parent")
    return repo


def test_pairs_alternate_and_summary_counts_wins(script, tmp_path):
    repo = _committed_repo(tmp_path, FAKE_RUN.format(wall=2.0))
    run = repo / "bench" / "run.py"
    run.write_text(FAKE_RUN.format(wall=1.0))  # the uncommitted change is twice as fast

    out = script.bench(repo, "HEAD", ["w"], pairs=4, seconds=0.1, command=[sys.executable, "bench/run.py"])
    result = out["w"]
    assert [p["first"] for p in result["pairs"]] == ["parent", "change", "parent", "change"]
    assert [p["seed"] for p in result["pairs"]] == [1, 2, 3, 4]
    assert result["pairs"][0]["parent"] == {
        "wall_s": 2.01, "peak_rss_mb": 50.0, "passes": 3, "failed": 0, "correct": True
    }
    wall = result["summary"]["wall_s"]
    assert wall["change_lower_in_pairs"] == "4/4"
    assert wall["parent"]["median"] == 2.025 and wall["change"]["median"] == 1.025
    assert wall["parent"]["q1"] < wall["parent"]["median"] < wall["parent"]["q3"]
    assert wall["median_change_pct"] == -49.4
    assert wall["verdict"] == "gain"
    assert result["summary"]["peak_rss_mb"]["change_lower_in_pairs"] == "0/4"
    assert result["summary"]["peak_rss_mb"]["verdict"] == "within bound"
    assert result["failed_passes"] == {"parent": 0, "change": 0}
    json.dumps(out)  # the document is plain JSON


@pytest.mark.parametrize(
    "parent, change, bound, better, want",
    [
        ([2.0, 2.1, 2.2, 2.3], [1.0, 1.1, 1.2, 1.3], 0.25, "lower", "gain"),
        ([1.0, 1.1, 1.2, 1.3], [2.0, 2.1, 2.2, 2.3], 0.25, "higher", "gain"),
        ([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], 0.1, "lower", "within bound"),
        ([1.0, 1.01, 1.02, 1.03], [1.2, 1.21, 1.22, 1.23], 0.1, "lower", "worse"),
        ([1.0, 1.01, 1.02, 1.03], [0.8, 0.81, 0.82, 0.83], 0.1, "higher", "worse"),
        ([1.0, 1.5, 2.0, 2.5], [0.9, 1.4, 2.1, 2.6], 0.25, "lower", "unresolved"),
        ([2.0, 2.1, 2.2, 2.3], [2.0, 2.0, 2.0, 2.0], 0.25, "lower", "within bound"),  # lower in 3 of 4 pairs
        ([2.0, 2.1, 2.2, 2.3], [1.0, 1.1, 1.2, 1.3], None, "lower", "gain"),
        ([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], None, "lower", "no bound"),
    ],
)
def test_verdict(script, parent, change, bound, better, want):
    assert script.verdict(parent, change, bound, better) == want


def test_a_failing_run_is_an_error(script, tmp_path):
    repo = _committed_repo(tmp_path, "import sys; sys.exit(3)\n")
    with pytest.raises(RuntimeError, match="exited 3"):
        script.bench(repo, "HEAD", ["w"], pairs=1, seconds=0.1, command=[sys.executable, "bench/run.py"])
