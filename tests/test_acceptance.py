"""End-to-end acceptance checks at their declared tolerances.

Each test prints one PASS/FAIL line (visible with pytest -s) and then
asserts. Rate checks judge fitted slopes over full ladders, never single
rungs; geometry checks are exact or Monte Carlo with stated z-limits.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import lambertw

from flatclust.clustering import (
    NOISE,
    cluster_tree,
    core_points,
    dbscan_cluster,
)
from flatclust.density import KdeModel, delta_schedule, k_of_lambda, lambda_of_k
from flatclust.experiments import (
    CompensatingConfig,
    GridResolutionConfig,
    HartiganConfig,
    KdeRateConfig,
    NoisyKdeGapConfig,
    SandwichConfig,
    SmoothingRateConfig,
    SymDiffConfig,
    compensating_experiment,
    grid_resolution_experiment,
    hartigan_experiment,
    kde_rate_experiment,
    noisy_kde_gap_experiment,
    sandwich_experiment,
    smoothing_rate_experiment,
    sym_diff_mc_experiment,
)
from flatclust.geometry import ball_sym_diff_bound, ball_sym_diff_volume, reg_inc_beta
from flatclust.io import (
    PipelineConfig,
    emit_series_csv,
    ingest_series_csv,
    run_cluster,
    write_json_document,
)
from flatclust.synthetic import lipschitz_family, sample_raw_series, two_bump_mixture_1d
from oracles import ball_union_components, components_bruteforce, kde_eval


def _report(label: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _random_instances(seed, count, max_n=500):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        sd = int(rng.integers(1, 5))
        pts = rng.uniform(0, 1, size=(n, sd))
        k = int(rng.integers(1, max(2, n // 3)))
        delta = float(rng.uniform(0.01, 0.12))
        yield pts, k, delta


@pytest.mark.usefixtures("index_path")
def test_c01_dbscan_equals_bruteforce_oracle():
    t0 = time.monotonic()
    mismatches = 0
    for pts, k, delta in _random_instances(seed=101, count=1000):
        fast = dbscan_cluster(pts, k, delta)
        brute = components_bruteforce(pts, k, delta)
        if not np.array_equal(fast.assignments, brute.assignments):
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 120.0
    assert _report(
        "C1 oracle equivalence", ok, f"mismatches={mismatches}/1000, {elapsed:.1f}s (< 120s)"
    )


@pytest.mark.usefixtures("index_path")
def test_c02_ball_union_equals_dbscan_components():
    mismatches = 0
    rng = np.random.default_rng(102)
    for _ in range(500):
        n = int(rng.integers(2, 120))
        sd = int(rng.integers(1, 5))
        pts = rng.uniform(0, 1, size=(n, sd))
        k = int(rng.integers(1, max(2, n // 3)))
        delta = float(rng.uniform(0.01, 0.2))
        labeling = dbscan_cluster(pts, k, delta, link_radius=2 * delta)
        core = core_points(pts, k, delta)
        union_parts = ball_union_components(pts[core], delta)
        mapped = sorted((frozenset(core[list(g)].tolist()) for g in union_parts), key=min)
        direct = sorted(labeling.partition(), key=min)
        if mapped != direct:
            mismatches += 1
    assert _report("C2 ball-union identity", mismatches == 0, f"mismatches={mismatches}/500")


def test_c03_cluster_tree_hierarchy_invariants():
    violations = 0
    rng = np.random.default_rng(103)
    for _ in range(60):
        n = int(rng.integers(5, 200))
        sd = int(rng.integers(1, 4))
        pts = rng.uniform(0, 1, size=(n, sd))
        delta = float(rng.uniform(0.02, 0.2))
        ks = sorted({int(v) for v in rng.integers(1, n + 1, size=5)}, reverse=True)
        tree = cluster_tree(pts, delta, ks)
        for i, hi in enumerate(tree.levels):
            hi_core = set(np.nonzero(hi.labeling.assignments != NOISE)[0].tolist())
            for lo in tree.levels[i + 1 :]:
                lo_core = set(np.nonzero(lo.labeling.assignments != NOISE)[0].tolist())
                if not hi_core <= lo_core:
                    violations += 1
                lo_parts = lo.labeling.partition()
                for cluster in hi.labeling.partition():
                    relations = [
                        cluster <= other or not (cluster & other) for other in lo_parts
                    ]
                    if not all(relations) or not any(cluster <= other for other in lo_parts):
                        violations += 1
    assert _report("C3 hierarchy invariants", violations == 0, f"violations={violations}")


def test_c04_level_set_coherence_and_conversion_roundtrip():
    rng = np.random.default_rng(104)
    coherence_bad = 0
    for _ in range(50):
        n = int(rng.integers(5, 250))
        sd = int(rng.integers(1, 4))
        pts = rng.uniform(0, 1, size=(n, sd))
        k = int(rng.integers(1, max(2, n // 2)))
        delta = float(rng.uniform(0.03, 0.25))
        model = KdeModel(pts, delta=delta)
        lam = lambda_of_k(k, n, delta, sd)
        core = set(core_points(pts, k, delta).tolist())
        for i, x in enumerate(pts):
            if (kde_eval(model, x) >= lam) != (i in core):
                coherence_bad += 1
    roundtrip_bad = 0
    for _ in range(10_000):
        k = float(rng.uniform(0.5, 5_000))
        n = int(rng.integers(2, 100_000))
        delta = float(rng.uniform(1e-3, 2.0))
        sd = int(rng.integers(1, 12))
        back = k_of_lambda(lambda_of_k(k, n, delta, sd), n, delta, sd)
        if abs(back - k) > 1e-12 * max(1.0, abs(k)):
            roundtrip_bad += 1
    ok = coherence_bad == 0 and roundtrip_bad == 0
    assert _report(
        "C4 level-set coherence",
        ok,
        f"coherence violations={coherence_bad}, roundtrip failures={roundtrip_bad}/10000",
    )


def test_c05_kde_sup_error_rate():
    t0 = time.monotonic()
    report = kde_rate_experiment(KdeRateConfig())  # n = 2^8 .. 2^14, 20 trials/rung
    elapsed = time.monotonic() - t0
    medians = [row["median_sup_error"] for row in report.rows]
    inversions = sum(b > a * (1 + 1e-12) for a, b in zip(medians, medians[1:]))
    ok = (
        inversions <= 1
        and 0.1 <= report.slope <= 0.67
        and elapsed < 600.0
    )
    assert _report(
        "C5 KDE rate",
        ok,
        f"slope={report.slope:.4f} in [0.1, 0.67], inversions={inversions}, {elapsed:.1f}s (< 600s)",
    )


def test_c06_sandwich_inclusions_with_measured_epsilon():
    report = sandwich_experiment(SandwichConfig())  # n=4096, 100 trials
    freq = float(np.mean([row["ok"] for row in report.rows]))
    assert _report("C6 sandwich inclusions", freq == 1.0, f"inclusion frequency={freq} (need 1.0)")


def test_c07_hartigan_separation_trend():
    cfg = HartiganConfig()  # two bumps, n ladder to 2048, 200 trials
    margin = cfg.mixture.margin
    needed = 4.0 * delta_schedule(2048, cfg.mixture.sd)
    report = hartigan_experiment(cfg)
    freqs = [row["separation_frequency"] for row in report.rows]
    inversions = sum(b < a * (1 - 1e-12) for a, b in zip(freqs, freqs[1:]))
    ok = margin >= needed and freqs[-1] >= 0.95 and inversions <= 1
    assert _report(
        "C7 Hartigan trend",
        ok,
        f"margin={margin:.3f} >= 4*delta={needed:.3f}, final freq={freqs[-1]}, inversions={inversions}",
    )


def test_c08_smoothing_rates():
    t0 = time.monotonic()
    noiseless = smoothing_rate_experiment(
        SmoothingRateConfig(family=lipschitz_family(d=4, eps_bar=0.0))
    )
    exact_ok = noiseless.checks["noiseless_error_le_lf_gamma"] and all(
        max(row["sup_errors"]) <= row["bias_bound"] for row in noiseless.rows
    )
    noisy = smoothing_rate_experiment(SmoothingRateConfig())
    elapsed = time.monotonic() - t0
    ok = exact_ok and 0.1 <= noisy.slope <= 0.67 and elapsed < 300.0
    assert _report(
        "C8 smoothing rates",
        ok,
        f"noiseless bound exact={exact_ok}, noisy slope={noisy.slope:.4f} in [0.1, 0.67], "
        f"{elapsed:.1f}s (< 300s)",
    )


def test_c09_noisy_kde_gap():
    report = noisy_kde_gap_experiment(NoisyKdeGapConfig())
    gaps = [row["median_gap"] for row in report.rows]
    inversions = sum(b > a * (1 + 1e-12) for a, b in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] <= 0.05 * report.rows[-1]["median_peak_density"]
    ok = inversions <= 1 and final_ok
    assert _report(
        "C9 noisy-KDE gap",
        ok,
        f"inversions={inversions}, final gap={gaps[-1]:.4f} <= "
        f"{0.05 * report.rows[-1]['median_peak_density']:.4f}",
    )


def test_c10_ball_symmetric_difference_geometry():
    report = sym_diff_mc_experiment(SymDiffConfig())  # 10^4 pairs/dim, MC at 10^6
    violations = sum(row["bound_violations"] for row in report.rows)
    max_z = max(row["max_abs_z"] for row in report.rows)
    dim1_exact = ball_sym_diff_volume(1.0, 1.0, 1)
    dim1_bound = ball_sym_diff_bound(1.0, 1.0, 1)
    dim1_ok = abs(dim1_exact - 2.0) <= 1e-10 and abs(dim1_exact - dim1_bound) <= 1e-10
    ok = violations == 0 and max_z <= 4.0 and dim1_ok
    assert _report(
        "C10 symmetric-difference geometry",
        ok,
        f"bound violations={violations}, max |z|={max_z:.2f} (<= 4), dim-1 value={dim1_exact:.12f}",
    )


def test_c11_incomplete_beta_identities():
    rng = np.random.default_rng(111)
    bad_uniform = 0
    for _ in range(10_000):
        x = float(rng.uniform())
        if abs(reg_inc_beta(x, 1.0, 1.0) - x) > 1e-10:
            bad_uniform += 1
    bad_reflection = 0
    for _ in range(10_000):
        x = float(rng.uniform())
        a = float(rng.uniform(0.1, 20.0))
        b = float(rng.uniform(0.1, 20.0))
        if abs(reg_inc_beta(x, a, b) - (1.0 - reg_inc_beta(1.0 - x, b, a))) > 1e-10:
            bad_reflection += 1
    pinned = abs(reg_inc_beta(0.5, 2.0, 3.0) - 0.6875) <= 1e-10
    ok = bad_uniform == 0 and bad_reflection == 0 and pinned
    assert _report(
        "C11 incomplete beta",
        ok,
        f"uniform failures={bad_uniform}/10000, reflection failures={bad_reflection}/10000, "
        f"I_0.5(2,3)-0.6875 pinned={pinned}",
    )


def test_c12a_compensating_differential_backsubstitution():
    report = compensating_experiment(CompensatingConfig())
    worst = max(row["backsub_rel_residual"] for row in report.rows)
    ok = report.checks["backsubstitution_rel_1e9"]
    assert _report("C12a back-substitution", ok, f"worst relative residual={worst:.2e} (<= 1e-9)")


def test_c12b_compensating_closed_form_ratio_band():
    # The root of rate(n + delta, d+1) = rate(n, d) solves N / log N = A with
    # A = (n/log n)^(1 + s/(2+sd)), so N ~ A log A, while the published closed
    # form 0.74 (n/log n)^(2 + 2s/(2+sd)) - n grows like 0.74 A^2: their ratio
    # grows without bound and no correct report meets the [0.2, 5] band. The
    # test recomputes both columns without flatclust.experiments (the verbatim
    # formula, and the exact root N = -A W_{-1}(-1/A)) and checks that the
    # report tabulates them and returns the band verdict they imply.
    cfg = CompensatingConfig()
    report = compensating_experiment(cfg)
    grid = {(n, s, d) for s in cfg.s_values for d in cfg.d_values for n in cfg.n_values}
    assert {(row["n"], row["s"], row["d"]) for row in report.rows} == grid
    assert len(report.rows) == len(grid)

    def rel(a, b):
        return abs(a - b) / abs(b)

    ratios = {}
    for row in report.rows:
        n, s, d = row["n"], row["s"], row["d"]
        base = n / math.log(n)
        published = 0.74 * base ** (2.0 + 2.0 * s / (2.0 + s * d)) - n
        big_a = base ** (1.0 + s / (2.0 + s * d))
        w = lambertw(-1.0 / big_a, k=-1)
        assert w.imag == 0.0
        root = -big_a * w.real - n
        assert rel(row["closed_form"], published) <= 1e-12, (n, s, d, row["closed_form"], published)
        assert rel(row["numeric"], root) <= 1e-9, (n, s, d, row["numeric"], root)
        assert row["ratio"] == row["closed_form"] / row["numeric"]
        ratios[(n, s, d)] = published / root

    in_band = all(0.2 <= r <= 5.0 for r in ratios.values())
    verdict = report.checks["closed_form_ratio_in_band"]
    ns = sorted(cfg.n_values)
    increasing = all(
        ratios[(a, s, d)] < ratios[(b, s, d)]
        for s in cfg.s_values
        for d in cfg.d_values
        for a, b in zip(ns, ns[1:])
    )
    ok = verdict == in_band and increasing
    _report(
        "C12b closed-form ratio band",
        ok,
        f"published ratio range=[{min(ratios.values()):.3g}, {max(ratios.values()):.3g}], "
        f"required [0.2, 5]; report verdict closed_form_ratio_in_band={verdict} "
        f"(independent root gives {in_band})",
    )
    assert verdict == in_band, (
        f"report says closed_form_ratio_in_band={verdict}, but the independently "
        f"computed ratios span [{min(ratios.values()):.3g}, {max(ratios.values()):.3g}] "
        "against the required [0.2, 5]"
    )
    assert increasing, f"closed-form/root ratio is not strictly increasing in n: {ratios}"


def test_c12c_rate_partial_derivative_positive():
    report = compensating_experiment(CompensatingConfig())
    ok = report.checks["rate_partial_d_positive"]
    worst = min(row["rate_partial_d"] for row in report.rows)
    assert _report("C12c rate derivative in d", ok, f"min central difference={worst:.3e} (> 0)")


def test_c13_grid_resolution_scenario():
    report = grid_resolution_experiment(GridResolutionConfig())
    counts = [row["n_clusters"] for row in report.rows]
    ok = counts == [1, 2]
    assert _report("C13 grid resolution", ok, f"cluster counts at d=(5, 20): {counts} (need [1, 2])")


def test_c14_pinned_seed_runs_are_byte_identical(tmp_path):
    cfg = KdeRateConfig(n_ladder=(128, 256, 512), trials=3, seed=1414)
    doc_a = json.dumps(kde_rate_experiment(cfg).to_document(), sort_keys=True)
    doc_b = json.dumps(kde_rate_experiment(cfg).to_document(), sort_keys=True)
    reports_equal = doc_a == doc_b

    fam = lipschitz_family(d=4, eps_bar=0.02)
    raws, _, _ = sample_raw_series(fam, 16, 24, seed=1414)
    series_path = tmp_path / "series.csv"
    emit_series_csv(series_path, raws)
    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        out.mkdir()
        pipeline = PipelineConfig(s=1, d=4, delta=0.1, k=3, k_ladder=(8, 3, 1))
        result = run_cluster(pipeline, ingest_series_csv(series_path))
        write_json_document(out / "manifest.json", result["manifest"])
        write_json_document(out / "tree.json", result["tree"])
        blobs.append((out / "manifest.json").read_bytes() + (out / "tree.json").read_bytes())
    files_equal = blobs[0] == blobs[1]
    ok = reports_equal and files_equal
    assert _report(
        "C14 determinism",
        ok,
        f"experiment documents identical={reports_equal}, pipeline outputs identical={files_equal}",
    )
