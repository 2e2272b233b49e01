#!/usr/bin/env python3
"""Time `cluster_tree` over every distinct ball count, the all-level tree.

    python3 scripts/ladder_levels.py --side parent=PARENT_SRC --side change=src \
        --rounds 3 --out BENCH_levels.json

The points are perfbench's `tree_family` series (m = 64, seed 1), smoothed
at s = 2, d = 4 with the default bandwidth and flattened to sd = 8. The
ladder is every distinct closed-ball count at delta 0.08, descending, so
the tree has one level per count: 81 levels at n = 1000, 305 at n = 4000.

Each side is a source directory holding the `flatclust` package. Every
(round, size, side) runs in its own subprocess, the sides alternating in
order from round to round, so one size's memory never lingers into the
next. A subprocess reports the fastest of --repeats calls, its peak
resident memory (ru_maxrss) before the first call and after the last, and
a digest of every level's labels and parents, which must agree between
sides. The JSON written holds each side's fastest and median seconds and
peak memory per size, then every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import machine  # noqa: E402

DELTA = 0.08

CHILD = """
import hashlib, resource, sys, time
import numpy as np
sys.path.insert(0, {perfbench!r})
from workloads import M_OBS, tree_family
from flatclust.clustering import cluster_tree
from flatclust.series import flatten
from flatclust.smoothing import gamma_schedule, smooth_batch
from flatclust.spatial import GridIndex
from flatclust.synthetic import sample_series_batch

batch, _, _ = sample_series_batch(tree_family(), {n}, M_OBS, 1)
points = flatten(smooth_batch(batch, 4, gamma_schedule(M_OBS)))
ks = sorted(set(GridIndex(points).counts_within_all({delta}).tolist()), reverse=True)
del batch
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
best = float("inf")
for _ in range({repeats}):
    start = time.perf_counter()
    tree = cluster_tree(points, {delta}, ks)
    best = min(best, time.perf_counter() - start)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
digest = hashlib.sha256()
for level in tree.levels:
    digest.update(np.asarray(level.labeling.assignments, dtype=np.int64).tobytes())
    digest.update(repr(level.parents).encode())
print(best, len(ks), before / 1024, after / 1024, digest.hexdigest())
"""


def run_once(src: Path, n: int, repeats: int) -> dict:
    """One subprocess: cluster_tree over every count level of n points, with the package from src."""
    code = CHILD.format(perfbench=str(ROOT / "perfbench"), n=n, delta=DELTA, repeats=repeats)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"n={n} with {src} exited {done.returncode}:\n{done.stderr[-2000:]}")
    seconds, levels, before, after, digest = done.stdout.split()
    return {
        "seconds": round(float(seconds), 4),
        "levels": int(levels),
        "rss_before_mb": round(float(before), 1),
        "peak_rss_mb": round(float(after), 1),
        "digest": digest,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--side", action="append", required=True, help="NAME=SRC_DIR; repeatable")
    p.add_argument("--sizes", type=int, nargs="+", default=[1000, 4000])
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--repeats", type=int, default=3, help="cluster_tree calls per subprocess")
    p.add_argument("--out", required=True, help="the JSON file to write")
    args = p.parse_args(argv)
    sides = dict(side.split("=", 1) for side in args.side)
    runs = []
    for r in range(args.rounds):
        names = list(sides) if r % 2 == 0 else list(reversed(sides))
        for n in args.sizes:
            for name in names:
                run = {"round": r + 1, "n": n, "side": name, **run_once(Path(sides[name]).resolve(), n, args.repeats)}
                print(json.dumps(run), flush=True)
                runs.append(run)
    summary = {}
    for n in args.sizes:
        per_side = {}
        for name in sides:
            mine = [run for run in runs if run["n"] == n and run["side"] == name]
            per_side[name] = {
                "levels": mine[0]["levels"],
                "fastest_s": min(run["seconds"] for run in mine),
                "median_s": round(statistics.median(run["seconds"] for run in mine), 4),
                "peak_rss_mb": max(run["peak_rss_mb"] for run in mine),
                "rss_before_tree_mb": max(run["rss_before_mb"] for run in mine),
            }
        digests = {run["digest"] for run in runs if run["n"] == n}
        summary[str(n)] = {**per_side, "labels_equal": len(digests) == 1}
    doc = {
        "sides": list(sides),
        "rounds": args.rounds,
        "repeats": args.repeats,
        "delta": DELTA,
        "machine": machine(),
        "summary": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0 if all(s["labels_equal"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
