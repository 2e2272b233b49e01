"""Correctness checks applied to every benchmark pass.

Each check takes the pass's parsed outputs plus what the benchmark knows
independently of the program (generator labels, raw observations, the
documented experiment outcomes) and returns a list of problems; an empty
list means the pass is correct. The checks never call flatclust, so a bug
in the program cannot hide itself by also breaking the check.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Max absolute deviation allowed between the smoothed grid the program
# writes and the benchmark's own numpy evaluation of the same estimator.
# Both sides sum at most m = 64 float64 products of values in [0, 1];
# only the summation order differs, which moves the result by a few ulps.
SMOOTH_TOL = 1e-12

# Documented outcome of every registry check: all pass, except the
# compensating experiment's closed-form ratio band, which fails by design
# (the published approximation misses its own defining equation).
REGISTRY_EXPECTED: dict[str, dict[str, bool]] = {
    "compensating": {
        "backsubstitution_rel_1e9": True,
        "closed_form_ratio_in_band": False,
        "rate_partial_d_positive": True,
    },
    "grid_resolution": {"counts_match_expected": True},
    "hartigan": {
        "final_frequency_ge_095": True,
        "frequency_nondecreasing_le_1_inversion": True,
    },
    "kde_rate": {"error_nonincreasing_le_1_inversion": True, "slope_in_band": True},
    "noisy_kde_gap": {
        "final_gap_below_5pct_of_peak": True,
        "gap_le_zprime_eps_over_delta": True,
        "gap_nonincreasing_le_1_inversion": True,
        "pointwise_recount_bound": True,
    },
    "sandwich": {"inclusion_frequency_is_one": True},
    "smoothing_rate": {"slope_in_band": True},
    "sym_diff_mc": {"mc_z_within_4": True, "zero_bound_violations": True},
}


def check_tree(
    tree: dict, assignments: dict[str, int], k: int, truth: dict[str, int], n_families: int
) -> list[str]:
    """Validate a `tree` run against the generator labels.

    - levels have strictly descending k and each partitions all ids into
      clusters plus noise;
    - every parent link points at a cluster of the next level that holds all
      of the child's members (nesting);
    - every cluster at every level is pure: one generator label;
    - the top level (smallest k) has one cluster per generator cluster;
    - the assignments table is the tree level at the configured k.
    """
    problems: list[str] = []
    levels = tree.get("levels", [])
    if not levels:
        return ["tree has no levels"]
    ks = [lev["k"] for lev in levels]
    if any(a <= b for a, b in zip(ks, ks[1:])):
        problems.append(f"tree ks not strictly descending: {ks}")
    ids = set(truth)
    for i, lev in enumerate(levels):
        seen: list[str] = list(lev["noise"])
        for c in lev["clusters"]:
            seen.extend(c["members"])
            labels = {truth.get(m, -1) for m in c["members"]}
            if len(labels) != 1 or -1 in labels:
                problems.append(f"k={lev['k']} cluster {c['id']} is impure: labels {sorted(labels)}")
            parent = c["parent"]
            if i + 1 == len(levels):
                if parent is not None:
                    problems.append(f"k={lev['k']} cluster {c['id']} on the top level has a parent")
                continue
            above = levels[i + 1]["clusters"]
            if not isinstance(parent, int) or not 0 <= parent < len(above):
                problems.append(f"k={lev['k']} cluster {c['id']} has invalid parent {parent!r}")
            elif not set(c["members"]) <= set(above[parent]["members"]):
                problems.append(f"k={lev['k']} cluster {c['id']} is not nested in its parent")
        if len(seen) != len(ids) or set(seen) != ids:
            problems.append(f"k={lev['k']} does not partition the series ids")
    top = levels[-1]["clusters"]
    top_labels = sorted(truth.get(c["members"][0], -1) for c in top if c["members"])
    if top_labels != list(range(n_families)):
        problems.append(f"top level recovers labels {top_labels}, want {list(range(n_families))}")
    level_k = [lev for lev in levels if lev["k"] == k]
    if not level_k:
        problems.append(f"no tree level at the configured k={k}")
    else:
        want = {frozenset(c["members"]) for c in level_k[0]["clusters"]}
        groups: dict[int, set[str]] = {}
        for sid, label in assignments.items():
            if label >= 0:
                groups.setdefault(label, set()).add(sid)
        if {frozenset(g) for g in groups.values()} != want:
            problems.append(f"assignments differ from the tree level at k={k}")
    return problems


def parse_assignments(text: str) -> dict[str, int]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["series_id", "cluster"]:
        raise ValueError("assignments header must be series_id,cluster")
    return {sid: int(label) for sid, label in rows[1:]}


def parse_grid_csv(text: str, n: int, d: int, s: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse a grid series CSV into (ids, times (n, d), values (n, d, s))."""
    rows = list(csv.reader(io.StringIO(text)))
    header = ["series_id", "time"] + [f"v{i}" for i in range(1, s + 1)]
    if not rows or rows[0] != header:
        raise ValueError(f"grid CSV header must be {','.join(header)}")
    body = rows[1:]
    if len(body) != n * d:
        raise ValueError(f"grid CSV has {len(body)} rows, want {n * d}")
    ids = [body[i * d][0] for i in range(n)]
    if any(body[i][0] != ids[i // d] for i in range(len(body))):
        raise ValueError("grid CSV rows are not grouped d per series")
    nums = np.array([[float(x) for x in row[1:]] for row in body])
    return ids, nums[:, 0].reshape(n, d), nums[:, 1:].reshape(n, d, s)


def left_epanechnikov_grid(times: np.ndarray, values: np.ndarray, d: int) -> np.ndarray:
    """Reference smoother: values (n, m, s) sampled at shared `times` (m,).

    Evaluates the left-Epanechnikov Nadaraya-Watson estimate with the
    documented bandwidth gamma = max((log m / m)^(1/3), 2/m) at t = 1/d..1,
    clipped into [0, 1]; returns shape (n, d, s).
    """
    m = times.size
    gamma = max((math.log(m) / m) ** (1.0 / 3.0), 2.0 / m)
    grid = np.arange(1, d + 1) / d
    u = (times[None, :] - grid[:, None]) / gamma
    w = np.where((u >= -1.0) & (u <= 0.0), 2.0 - 2.0 * u * u, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    return np.clip(np.einsum("jm,nms->njs", w, values), 0.0, 1.0)


def check_smooth(
    ids: list[str], grid_times: np.ndarray, grid_values: np.ndarray, want_ids: list[str], want: np.ndarray
) -> list[str]:
    """Compare the program's smoothed grid with the reference evaluation."""
    problems: list[str] = []
    if ids != want_ids:
        problems.append("smoothed series ids differ from the input ids")
    d = want.shape[1]
    if not np.array_equal(grid_times, np.broadcast_to(np.arange(1, d + 1) / d, grid_times.shape)):
        problems.append("smoothed grid times are not 1/d..1")
    if grid_values.shape != want.shape:
        return problems + [f"smoothed grid shape {grid_values.shape}, want {want.shape}"]
    err = float(np.max(np.abs(grid_values - want)))
    if not err <= SMOOTH_TOL:
        problems.append(f"smoothed grid deviates from the reference by {err:.3g} > {SMOOTH_TOL}")
    return problems


def check_registry(checks: dict[str, dict[str, bool]]) -> list[str]:
    """Every experiment check must equal its documented outcome."""
    problems: list[str] = []
    for name, want in REGISTRY_EXPECTED.items():
        got = checks.get(name)
        if got is None:
            problems.append(f"experiment {name} did not run")
            continue
        if set(got) != set(want):
            problems.append(f"{name} checks {sorted(got)}, want {sorted(want)}")
        for check, outcome in want.items():
            if check in got and bool(got[check]) != outcome:
                problems.append(f"{name}.{check} = {bool(got[check])}, documented {outcome}")
    for name in set(checks) - set(REGISTRY_EXPECTED):
        problems.append(f"unexpected experiment {name}")
    return problems
