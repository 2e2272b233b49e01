#!/usr/bin/env python3
"""Benchmark the working tree against a parent revision in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_REV --workload series_tree --workload registry \
        --pairs 10 --seconds 15 --out BENCH_x.json --change "what the change does"

The parent revision is exported with `git archive` into a temporary
directory, so nothing is registered in the repository and a killed run
leaves nothing behind but that directory. Pair N runs
`perfbench/run.py --seed N --trace 0` once on each side, one run at a time:
the parent first on odd N, the change first on even N, so a drift in the
machine's load falls on both sides alike. Every figure of a run is what the
last line of its output reports, the numbers the benchmark gates.

The JSON written holds, per workload and metric, the quartiles of each side
over the pairs, in how many pairs the change was lower, the change of the
median in percent and a verdict; then every pair, and the failed passes per
side. The verdict reads the metric's `end_to_end` bound in the working
tree's BENCHMARK.json, a fraction of the parent's median:

- "gain": the change is better in at least 9 of 10 pairs, and the medians
  differ by more than the parent's q3 - q1;
- "worse": the change's median is worse than the parent's by more than the
  bound;
- "unresolved": the parent's q3 - q1 is wider than the bound;
- "within bound": anything else ("no bound" where BENCHMARK.json gives none).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py"]


def export_revision(root: Path, rev: str, dest: Path) -> None:
    """Write the files of rev, as committed, into dest."""
    archive = subprocess.run(
        ["git", "-C", str(root), "archive", "--format=tar", rev], capture_output=True, check=True
    ).stdout
    dest.mkdir(parents=True, exist_ok=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(side: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in directory side: its metric values, passes and failures."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(argv, cwd=side, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {side} exited {done.returncode}:\n{done.stderr[-2000:]}")
    last = json.loads(lines[-1])
    out = {name: round(m["value"], 4) for name, m in last["metrics"].items()}
    out.update(passes=last["attempted"], failed=last["failed"], correct=last["correct"])
    return out


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def end_to_end_bounds(root: Path) -> dict[str, tuple[float, str]]:
    """{metric: (bound, better)} of the end_to_end metrics root's BENCHMARK.json declares."""
    doc = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (float(m["bound"]), m["better"]) for m in doc["end_to_end"]}


def verdict(parent: list[float], change: list[float], bound: float | None, better: str = "lower") -> str:
    """The change against the parent on one metric, by the rules of this script's docstring."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = statistics.median(parent), statistics.median(change)
    quartiles = _quartiles(parent)
    spread = quartiles["q3"] - quartiles["q1"]
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and sign * (p - c) > spread:
        return "gain"
    if bound is None:
        return "no bound"
    if sign * (c - p) > bound * abs(p):
        return "worse"
    if spread > bound * abs(p):
        return "unresolved"
    return "within bound"


def summarize(pairs: list[dict], metrics: list[str], bounds: dict[str, tuple[float, str]]) -> dict:
    summary = {}
    for name in metrics:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        lower = sum(c < p for p, c in zip(parent, change))
        base = statistics.median(parent)
        summary[name] = {
            "parent": _quartiles(parent),
            "change": _quartiles(change),
            "change_lower_in_pairs": f"{lower}/{len(pairs)}",
            "median_change_pct": round(100.0 * (statistics.median(change) - base) / base, 1) if base else None,
            "verdict": verdict(parent, change, *bounds.get(name, (None, "lower"))),
        }
    return summary


def bench(root: Path, parent_rev: str, workloads: list[str], pairs: int, seconds: float, command=RUN) -> dict:
    """Run the pairs of every workload, the parent from parent_rev and the change from root."""
    bounds = end_to_end_bounds(root)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        export_revision(root, parent_rev, Path(tmp))
        sides = {"parent": Path(tmp), "change": root}
        results = {}
        for workload in workloads:
            done = []
            for seed in range(1, pairs + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(sides[side], command, workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: {json.dumps(pair[side])}", file=sys.stderr)
                done.append({k: pair[k] for k in ("seed", "first", "parent", "change")})
            metrics = [k for k in done[0]["parent"] if k not in ("passes", "failed", "correct")]
            results[workload] = {
                "summary": summarize(done, metrics, bounds),
                "pairs": done,
                "failed_passes": {side: sum(p[side]["failed"] for p in done) for side in ("parent", "change")},
            }
    return results


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "memory_gb": round(memory, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "note": "shared machine: other tenants' load was not controlled",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_rev", help="the revision to compare against, e.g. HEAD~1")
    p.add_argument("--workload", action="append", required=True, help="a perfbench workload; repeatable")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="--seconds of every perfbench run")
    p.add_argument("--out", required=True, help="the JSON file to write")
    p.add_argument("--change", default="", help="one line saying what the change is")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    parent = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", args.parent_rev], capture_output=True, text=True, check=True
    ).stdout.strip()
    doc = {
        "change": args.change,
        "parent": parent,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds:g} --trace 0",
        "run_seconds": args.seconds,
        "protocol": (
            "one run at a time; pair N runs the parent and the change on seed N, the parent first on odd N, "
            "the change first on even N; every figure is what the run's last output line reports "
            "(wall_s and cpu_s: its fastest pass)"
        ),
        "machine": machine(),
        "workloads": bench(ROOT, args.parent_rev, args.workload, args.pairs, args.seconds),
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for workload, result in doc["workloads"].items():
        for name, s in result["summary"].items():
            print(
                f"{workload:12s} {name:12s} parent {s['parent']['median']:<10g} change {s['change']['median']:<10g}"
                f" lower in {s['change_lower_in_pairs']} pairs, median change {s['median_change_pct']}%: {s['verdict']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
