#!/usr/bin/env python3
"""Time `GridIndex.pair_sq_dists`' band sweep against a kd-tree on an (n, sd) grid.

    python3 scripts/neighbour_grid.py --out neighbour_grid.json

The points are perfbench's sd-probe mixture: two triangular boxes,
[0.05, 0.45]^sd and [0.55, 0.95]^sd, drawn at seed 1. delta is 0.08 at
sd <= 2 and 0.3 above, and every (n, sd) pair is run at r = delta and at
r = 2 * delta. Each (n, sd, r) cell runs in its own subprocess, with the
package from this checkout's src/, so one cell's memory never lingers
into the next.

A cell first counts its pairs with `counts_within_all`, which holds no
pair list. A cell with more than --max-pairs is reported as skipped with
that count: its pair lists alone would hold 16 bytes a pair on each side.
Otherwise it times the fastest of --repeats calls of each side:

- sweep: `GridIndex(points).pair_sq_dists(r)`;
- tree: `scipy.spatial.cKDTree`, imported and built before the timer, asked
  for its pairs within r * (1 + 1e-9) and refiltered by the same `sq_dists`
  predicate, as pair_sq_dists once did past its scan budget.

It records each side's peak resident memory (ru_maxrss; the sweep runs
first, so the tree's reading is the peak of both), and a digest of each
side's (src, dst, sq) set, which must agree. The JSON written holds the
cells in order, each with both times, their ratio and the verdict on the
sweep within 2x of the tree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import machine  # noqa: E402

CHILD = """
import json, resource, sys, time
import numpy as np
sys.path.insert(0, {perfbench!r})
from tracing import probe_mixture
from flatclust import spatial
from flatclust.spatial import GridIndex, sq_dists

n, sd, r = {n}, {sd}, {r}
points, _ = probe_mixture(sd).sample(n, 1)
index = GridIndex(points)
pairs = int((index.counts_within_all(r).sum() - n) // 2)
if pairs > {max_pairs}:
    print(json.dumps({{"pairs": pairs, "skipped": True}}))
    sys.exit(0)


def digest(src, dst, sq):
    # an order-free digest of the (src, dst, sq) set: a wrapping sum of mixed 64-bit words
    def mix(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    total = np.uint64(0)
    with np.errstate(over="ignore"):
        for lo in range(0, src.size, 1 << 20):
            block = slice(lo, lo + (1 << 20))
            key = src[block].astype(np.uint64) * np.uint64(n) + dst[block].astype(np.uint64)
            total += mix(mix(key) ^ sq[block].view(np.uint64)).sum(dtype=np.uint64)
    return f"{{src.size}}:{{int(total):016x}}"


def tree_pairs(tree):
    found = tree.query_pairs(r * (1.0 + 1e-9), output_type="ndarray")
    src, dst = found[:, 0].astype(np.int32), found[:, 1].astype(np.int32)
    del found
    sq = np.empty(src.size)
    for lo in range(0, src.size, 1 << 16):
        sq[lo : lo + (1 << 16)] = sq_dists(points[src[lo : lo + (1 << 16)]], points[dst[lo : lo + (1 << 16)]])
    keep = sq <= r * r
    return (src, dst, sq) if keep.all() else (src[keep], dst[keep], sq[keep])


def fastest(call):
    best, out = float("inf"), None
    for _ in range({repeats}):
        out = None
        start = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - start)
    return best, out


from scipy.spatial import cKDTree

tree = cKDTree(points)
layout = spatial._layout(points, points, r, later=True)
band = int(np.sum(layout[5] - layout[4]))
del layout
rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
before = rss()
sweep_s, out = fastest(lambda: index.pair_sq_dists(r))
sweep_digest, sweep_rss = digest(*out), rss()
del out
tree_s, out = fastest(lambda: tree_pairs(tree))
tree_digest, tree_rss = digest(*out), rss()
print(json.dumps({{
    "pairs": pairs, "band_tests": band, "sweep_s": sweep_s, "tree_s": tree_s,
    "rss_before_mb": before, "sweep_peak_rss_mb": sweep_rss, "peak_rss_mb": tree_rss,
    "sweep_digest": sweep_digest, "tree_digest": tree_digest,
}}))
"""


def run_cell(n: int, sd: int, r: float, repeats: int, max_pairs: int) -> dict:
    """One subprocess: the sweep and the tree on one cell."""
    code = CHILD.format(perfbench=str(ROOT / "perfbench"), n=n, sd=sd, r=r, repeats=repeats, max_pairs=max_pairs)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"n={n} sd={sd} r={r} exited {done.returncode}:\n{done.stderr[-2000:]}")
    cell = {"n": n, "sd": sd, "r": r, **json.loads(done.stdout.strip().splitlines()[-1])}
    if cell.get("skipped"):
        return cell
    for key in ("sweep_s", "tree_s"):
        cell[key] = round(cell[key], 5)
    for key in ("rss_before_mb", "sweep_peak_rss_mb", "peak_rss_mb"):
        cell[key] = round(cell[key], 1)
    cell["digests_equal"] = cell.pop("sweep_digest") == cell.pop("tree_digest")
    cell["sweep_over_tree"] = round(cell["sweep_s"] / cell["tree_s"], 3)
    cell["within_2x"] = cell["sweep_s"] <= 2 * cell["tree_s"]
    return cell


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", type=int, nargs="+", default=[1000, 4000, 16000])
    p.add_argument("--sds", type=int, nargs="+", default=[2, 4, 8, 16])
    p.add_argument("--repeats", type=int, default=3, help="calls of each side per cell")
    p.add_argument("--max-pairs", type=int, default=1 << 25, help="cells with more pairs are reported as skipped")
    p.add_argument("--out", required=True, help="the JSON file to write")
    args = p.parse_args(argv)
    cells = []
    for n in args.sizes:
        for sd in args.sds:
            delta = 0.08 if sd <= 2 else 0.3
            for r in (delta, 2 * delta):
                cell = run_cell(n, sd, r, args.repeats, args.max_pairs)
                print(json.dumps(cell), flush=True)
                cells.append(cell)
    timed = [cell for cell in cells if not cell.get("skipped")]
    doc = {
        "points": "perfbench's probe_mixture(sd), seed 1; delta 0.08 at sd <= 2, else 0.3; r = delta and 2 * delta",
        "repeats": args.repeats,
        "max_pairs": args.max_pairs,
        "machine": machine(),
        "digests_equal": all(cell["digests_equal"] for cell in timed),
        "within_2x_where_tree_over_10ms": all(cell["within_2x"] for cell in timed if cell["tree_s"] > 0.01),
        "cells": cells,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0 if doc["digests_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
