import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.special import betainc as scipy_betainc

from flatclust import experiments, spatial
from flatclust.experiments import (
    GAP_Z_PRIME,
    REGISTRY,
    SANDWICH_C_PRIME,
    CompensatingConfig,
    GridResolutionConfig,
    HartiganConfig,
    KdeRateConfig,
    NoisyKdeGapConfig,
    SandwichConfig,
    SmoothingRateConfig,
    SymDiffConfig,
    _FLIP_TILE,
    _MC_CHUNK,
    _brentq,
    _membership_flips,
    _sym_diff_mc,
    compensating_differential,
    compensating_experiment,
    experiment_names,
    grid_resolution_experiment,
    hartigan_experiment,
    kde_rate_experiment,
    noisy_kde_gap_experiment,
    rate_fn,
    run_experiment,
    sandwich_experiment,
    smoothing_rate_experiment,
    sym_diff_mc_experiment,
)
from flatclust.geometry import RegimeWarning, ball_sym_diff_bound, ball_sym_diff_volume, ball_volume
from flatclust.spatial import sq_dists
from flatclust.synthetic import (
    Bump1D,
    ClusterTemplate,
    FunctionFamilySpec,
    MixtureComponent,
    MixtureSpec,
    TemplateComponent,
    grid_resolution_templates,
    lipschitz_family,
    single_bump_mixture_1d,
)

SMALL_KDE = KdeRateConfig(n_ladder=(64, 128, 256, 512, 1024), trials=4, seed=900)


class TestLadders:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            kde_rate_experiment(KdeRateConfig(n_ladder=(256, 128), trials=1))

    def test_rejects_non_geometric(self):
        with pytest.raises(ValueError, match="geometric"):
            kde_rate_experiment(KdeRateConfig(n_ladder=(100, 200, 300, 400), trials=1))

    def test_single_rung_flags_insufficient_data(self):
        r = kde_rate_experiment(KdeRateConfig(n_ladder=(128,), trials=2, seed=1))
        assert r.slope is None
        assert any("insufficient" in f for f in r.flags)


class TestKdeRate:
    def test_small_ladder_slope_and_checks(self):
        r = kde_rate_experiment(SMALL_KDE)
        assert r.passed
        assert 0.1 <= r.slope <= 0.67
        assert len(r.rows) == 5
        assert all(len(row["errors"]) == 4 for row in r.rows)

    def test_deterministic_documents(self):
        a = kde_rate_experiment(SMALL_KDE).to_document()
        b = kde_rate_experiment(SMALL_KDE).to_document()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_wall_clock_excluded_from_document(self):
        r = kde_rate_experiment(KdeRateConfig(n_ladder=(64, 128), trials=1, seed=2))
        assert r.wall_clock_s > 0
        assert "wall_clock_s" not in r.to_document()


class TestSandwich:
    def test_measured_epsilon_inclusions_always_hold(self):
        r = sandwich_experiment(SandwichConfig(n=512, trials=20, seed=901))
        assert r.passed
        assert all(row["ok"] for row in r.rows)

    def test_calibrated_fixed_epsilon(self):
        r = sandwich_experiment(
            SandwichConfig(n=1024, trials=20, seed=902, fixed_epsilon_constant=SANDWICH_C_PRIME)
        )
        assert r.checks["inclusion_frequency_ge_09"]

    def test_rejects_level_outside_range(self):
        spec = single_bump_mixture_1d()
        with pytest.raises(ValueError, match="strictly between"):
            sandwich_experiment(SandwichConfig(n=256, trials=1, level=spec.peak_density * 2))

    def test_lower_trivial_flagged(self):
        r = sandwich_experiment(SandwichConfig(n=512, trials=5, seed=903))
        assert all(isinstance(row["lower_trivial"], bool) for row in r.rows)


class TestHartigan:
    def test_requires_two_components(self):
        with pytest.raises(ValueError, match="two components"):
            hartigan_experiment(
                HartiganConfig(mixture=single_bump_mixture_1d(), n_ladder=(64, 128), trials=1)
            )

    def test_small_run_trend(self):
        r = hartigan_experiment(HartiganConfig(n_ladder=(128, 256, 512), trials=25, seed=904))
        freqs = [row["separation_frequency"] for row in r.rows]
        assert freqs[-1] >= 0.9
        assert r.checks["frequency_nondecreasing_le_1_inversion"]

    def test_margin_zero_unbuildable(self):
        touching = (
            MixtureComponent(bumps=(Bump1D(0.1, 0.5),)),
            MixtureComponent(bumps=(Bump1D(0.5, 0.9),)),
        )
        with pytest.raises(ValueError, match="disjoint"):
            MixtureSpec(components=touching, weights=(0.5, 0.5))


class TestSmoothingRate:
    def test_rejects_m_ladder_not_above_d(self):
        fam = lipschitz_family(d=8)
        with pytest.raises(ValueError, match="exceed"):
            smoothing_rate_experiment(
                SmoothingRateConfig(family=fam, m_ladder=(8, 16, 32), trials=1)
            )

    def test_noiseless_bias_bound(self):
        fam = lipschitz_family(d=4, eps_bar=0.0)
        r = smoothing_rate_experiment(
            SmoothingRateConfig(family=fam, m_ladder=(32, 64, 128), trials=3, series_per_trial=5, seed=905)
        )
        assert r.checks["noiseless_error_le_lf_gamma"]
        for row in r.rows:
            assert row["median_sup_error"] <= row["bias_bound"]

    def test_noisy_slope(self):
        r = smoothing_rate_experiment(
            SmoothingRateConfig(m_ladder=(32, 64, 128, 256, 512), trials=6, series_per_trial=8, seed=906)
        )
        assert r.slope is not None
        assert r.checks["slope_in_band"]


class TestNoisyKdeGap:
    def test_zero_noise_constant_templates_give_zero_gap(self):
        fam = FunctionFamilySpec(
            clusters=(
                ClusterTemplate(components=(TemplateComponent(kind="constant", offset=0.3),)),
                ClusterTemplate(components=(TemplateComponent(kind="constant", offset=0.7),)),
            ),
            weights=(0.5, 0.5),
            d=2,
            eps_bar=0.0,
        )
        r = noisy_kde_gap_experiment(
            NoisyKdeGapConfig(family=fam, n=64, m_ladder=(16, 32, 64), trials=2, seed=907, queries=128)
        )
        assert all(g == 0.0 for row in r.rows for g in row["gaps"])

    def test_small_run_checks(self):
        # the pinned geometry (family, n, ladder) with a reduced trial count
        r = noisy_kde_gap_experiment(NoisyKdeGapConfig(trials=2, seed=908))
        assert r.checks["pointwise_recount_bound"]
        assert r.checks["gap_le_zprime_eps_over_delta"]
        assert r.checks["gap_nonincreasing_le_1_inversion"]

    def test_pinned_report_is_the_same_through_whole_and_sorted_bands(self, monkeypatch):
        # the pinned config's counts are within the scan budget, so every band
        # is all of the points; a budget of 0 sends them to sorted bands, and
        # the brute-force recount holds both
        pin = json.loads((Path(__file__).parent / "pinned_reports.json").read_text())["reports"]["noisy_kde_gap"]
        docs, laid_out = [], set()
        layout = spatial._layout

        def recorded(*args, **kwargs):
            out = layout(*args, **kwargs)
            laid_out.add((budget, out[0] is not None))
            return out

        monkeypatch.setattr(spatial, "_layout", recorded)
        default = spatial._SCAN_BUDGET
        for budget in (default, 0):
            monkeypatch.setattr(spatial, "_SCAN_BUDGET", budget)
            report = run_experiment("noisy_kde_gap", pin["config"])
            assert report.checks["pointwise_recount_bound"], budget
            docs.append(json.dumps(report.to_document(), sort_keys=True))
        assert docs[0] == docs[1]
        # only the zero budget sorted, and it sorted every count it laid out
        assert laid_out == {(default, False), (0, True)}
        assert hashlib.sha256(docs[0].encode()).hexdigest() == pin["sha256"]

    # tile edges: T - 1, T, T + 1 and 2T - 1, 2T, 2T + 1 for the tile of T = 64 queries
    @pytest.mark.parametrize("queries", [1, 63, 64, 65, 127, 128, 129, 300])
    def test_membership_flips_equal_the_dense_count(self, queries):
        assert _FLIP_TILE == 64
        for sd in (2, 1, 3, 8):
            rng = np.random.default_rng(910 + queries if sd == 2 else [910 + queries, sd])
            clean = rng.integers(0, 11, size=(200, sd)) * 0.1  # lattice ties on the ball boundaries
            est = clean + rng.uniform(-0.05, 0.05, size=clean.shape)
            q = np.vstack(
                [rng.integers(0, 11, size=(queries - queries // 2, sd)) * 0.1, rng.uniform(0, 1, (queries // 2, sd))]
            )
            step = np.eye(sd)[0]
            est[0], q[0] = clean[0] + 0.05 * step, clean[0] - 0.17 * step  # point 0 leaves query 0's ball
            r2 = 0.2 * 0.2
            want = ((sq_dists(q[:, None], clean[None]) <= r2) != (sq_dists(q[:, None], est[None]) <= r2)).sum(axis=1)
            got = _membership_flips(clean, est, q, 0.2)
            assert want[0] > 0, sd
            assert np.array_equal(got, want), sd

    def test_rejects_rungs_at_or_below_d(self):
        fam = lipschitz_family(d=32, eps_bar=0.02)
        with pytest.raises(ValueError, match="exceed"):
            noisy_kde_gap_experiment(NoisyKdeGapConfig(family=fam, m_ladder=(16, 32, 64)))


class TestSymDiff:
    def test_small_run(self):
        r = sym_diff_mc_experiment(
            SymDiffConfig(dims=(1, 2, 3), pairs_per_dim=500, mc_pairs_per_dim=3, mc_budget=100_000, seed=909)
        )
        assert r.checks["zero_bound_violations"]
        assert r.checks["mc_z_within_4"]

    def test_rejects_large_dims(self):
        with pytest.raises(ValueError):
            sym_diff_mc_experiment(SymDiffConfig(dims=(7,)))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_mc_is_the_uniform_draw_bit_for_bit(self, dim):
        # budgets on both sides of one chunk, and 250_001, which crosses the
        # reference's chunk and ends in a partial one of both; dist 0 and near
        # 2*delta are the extremes of the box
        for budget in (1, 7, _MC_CHUNK - 1, _MC_CHUNK, _MC_CHUNK + 1, 100_000, 250_001):
            for dist in (0.0, 2 * 0.7 * (1 - 1e-12)):
                want_rng, got_rng = np.random.default_rng(911), np.random.default_rng(911)
                want = _uniform_sym_diff_mc(dist, 0.7, dim, budget, want_rng)
                assert _sym_diff_mc(dist, 0.7, dim, budget, got_rng) == want, (budget, dist)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_mc_keeps_the_einsum_sums_on_the_spheres(self, dim):
        """Points on both spheres, where summing the squares in column order moves some across one.

        Random points almost never fall within an ulp of a sphere, so only
        these can tell two orders of the sum apart: the count must still be
        the einsum reference's. Dims 1 and 2 have only one order.
        """
        dist, delta, n = 0.3, 0.7, _MC_CHUNK + 1000
        lo, hi = np.full(dim, -delta), np.full(dim, delta)
        hi[0] = dist + delta
        on = np.random.default_rng(dim).standard_normal((n, dim))
        on *= delta / np.linalg.norm(on, axis=1, keepdims=True)
        on[n // 2 :, 0] += dist  # the second half on ball B's sphere
        u = (on - lo) / (hi - lo)
        pts = lo + (hi - lo) * u
        moved = 0
        for centre in (0.0, dist):
            pts[:, 0] -= centre
            in_order = np.cumsum(pts * pts, axis=1)[:, -1] <= delta * delta
            moved += np.count_nonzero(in_order != (np.einsum("ij,ij->i", pts, pts) <= delta * delta))
        assert moved > 0
        want = _uniform_sym_diff_mc(dist, delta, dim, n, _Replay(u))
        assert _sym_diff_mc(dist, delta, dim, n, _Replay(u)) == want

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_array_geometry_is_the_per_pair_calls_bit_for_bit(self, dim):
        """The experiment's own pairs: one array call equals a scalar call per pair and the written-out formula.

        Doubled, the first 500 shifts also cross delta (and some 2*delta), where
        the bound warns: the array call warns when a scalar call does.
        """
        rng = np.random.default_rng([SymDiffConfig().seed, dim])
        deltas = rng.uniform(0.3, 1.2, size=10_000)
        dists = rng.uniform(0.05, 1.0, size=10_000) * deltas
        for eps, delta, outside in ((dists, deltas, False), (2.0 * dists[:500], deltas[:500], True)):
            pairs = list(zip(eps.tolist(), delta.tolist()))
            with warnings.catch_warnings(record=True) as scalar_warnings:
                warnings.simplefilter("always")
                want_exact = [ball_sym_diff_volume(e, d, dim) for e, d in pairs]
                want_bound = [ball_sym_diff_bound(e, d, dim) for e, d in pairs]
            with warnings.catch_warnings(record=True) as array_warnings:
                warnings.simplefilter("always")
                got_exact = ball_sym_diff_volume(eps, delta, dim)
                got_bound = ball_sym_diff_bound(eps, delta, dim)
            assert got_exact.tobytes() == np.array(want_exact).tobytes()
            assert got_bound.tobytes() == np.array(want_bound).tobytes()
            assert got_exact.tobytes() == np.array([_python_sym_diff(e, d, dim) for e, d in pairs]).tobytes()
            assert got_bound.tobytes() == np.array([2.0**dim * d ** (dim - 1) * e for e, d in pairs]).tobytes()
            for caught in (scalar_warnings, array_warnings):
                assert {w.category for w in caught} == ({RegimeWarning} if outside else set())


class _Replay:
    """A generator stand-in that hands out fixed uniforms, through random(out=...) or uniform(lo, hi, size)."""

    def __init__(self, u):
        self.flat = u.reshape(-1)
        self.used = 0

    def _next(self, count):
        self.used += count
        return self.flat[self.used - count : self.used]

    def random(self, *, out):
        out.reshape(-1)[:] = self._next(out.size)
        return out

    def uniform(self, lo, hi, size):
        return lo + (hi - lo) * self._next(math.prod(size)).reshape(size)


def _python_sym_diff(dist, delta, dim):
    """ball_sym_diff_volume as first written, in Python floats: the reference for its bits."""
    full = 2.0 * delta**dim * ball_volume(dim)
    if dist == 0.0:
        return 0.0
    if dist >= 2.0 * delta:
        return full
    u = (dist * dist) / (4.0 * delta * delta)
    return full * float(scipy_betainc(0.5, 0.5 * (dim + 1), u))


def _uniform_sym_diff_mc(dist, delta, dim, budget, rng):
    """_sym_diff_mc as first written, with rng.uniform and a shifted copy for ball B: the reference."""
    lo = np.full(dim, -delta)
    hi = np.full(dim, delta)
    hi[0] = dist + delta
    box_vol = float(np.prod(hi - lo))
    center_b = np.zeros(dim)
    center_b[0] = dist
    hits = done = 0
    while done < budget:
        take = min(250_000, budget - done)
        pts = rng.uniform(lo, hi, size=(take, dim))
        in_a = np.einsum("ij,ij->i", pts, pts) <= delta * delta
        d_b = pts - center_b
        in_b = np.einsum("ij,ij->i", d_b, d_b) <= delta * delta
        hits += int(np.count_nonzero(in_a != in_b))
        done += take
    p = hits / budget
    return p * box_vol, math.sqrt(max(p * (1.0 - p), 1e-12) / budget) * box_vol


class TestGridResolution:
    def test_default_scenario(self):
        r = grid_resolution_experiment(GridResolutionConfig())
        assert r.passed
        assert [row["n_clusters"] for row in r.rows] == [1, 2]

    def test_identical_templates(self):
        a, _ = grid_resolution_templates()
        r = grid_resolution_experiment(
            GridResolutionConfig(templates=(a, a), expected_counts=(1, 1))
        )
        assert r.passed

    def test_already_separated_templates_rejected_then_allowed(self):
        lo = ClusterTemplate(components=(TemplateComponent(kind="constant", offset=0.2),))
        hi = ClusterTemplate(components=(TemplateComponent(kind="constant", offset=0.8),))
        with pytest.raises(ValueError, match="coarse grid"):
            grid_resolution_experiment(GridResolutionConfig(templates=(lo, hi)))
        r = grid_resolution_experiment(
            GridResolutionConfig(templates=(lo, hi), require_coincident=False, expected_counts=(2, 2))
        )
        assert r.passed

    def test_rejects_bad_d_pair(self):
        with pytest.raises(ValueError, match="d_fine"):
            grid_resolution_experiment(GridResolutionConfig(d_pair=(20, 5)))

    @pytest.mark.parametrize("d_pair", [(5, 10**4 + 1), (5, 10**12), (10**12, 10**12 + 1)])
    def test_bounds_d_pair_before_any_grid_is_built(self, d_pair):
        with pytest.raises(ValueError, match=r"^need d_fine <= 10000, got \(.*\)$"):
            GridResolutionConfig.from_dict({"d_pair": list(d_pair)})


class TestCompensating:
    def test_rate_fn_values_and_validation(self):
        assert rate_fn(1000, 1, 1) == pytest.approx((math.log(1000) / 1000) ** (1 / 3), rel=1e-14)
        with pytest.raises(ValueError):
            rate_fn(2, 1, 1)

    def test_numeric_solves_defining_equation(self):
        for n, s, d in ((1000, 1, 1), (10_000, 1, 3), (100_000, 2, 2)):
            closed, numeric = compensating_differential(n, s, d)
            lhs = rate_fn(n + numeric, s, d + 1)
            rhs = rate_fn(n, s, d)
            assert abs(lhs - rhs) / rhs <= 1e-9

    def test_rate_derivative_positive_in_d(self):
        h = 1e-6
        for n in (100, 10_000, 1_000_000):
            for s in (1, 2):
                for d in (1, 2, 3, 4):
                    central = (rate_fn(n, s, d + h) - rate_fn(n, s, d - h)) / (2 * h)
                    assert central > 0

    def test_report_records_closed_form_discrepancy(self):
        # the published closed form overshoots the numeric solution by orders
        # of magnitude on this grid; the report must say so rather than hide it
        r = compensating_experiment(CompensatingConfig(n_values=(1000, 10_000)))
        assert r.checks["backsubstitution_rel_1e9"]
        assert r.checks["rate_partial_d_positive"]
        assert r.checks["closed_form_ratio_in_band"] is False
        assert all(row["ratio"] > 5.0 for row in r.rows)


def _outcome(solve):
    """A root's exact bits, or the type of the exception raised instead."""
    try:
        return solve().hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _both(f, a, b, xtol=2e-12, rtol=1e-13, maxiter=500):
    ours = _outcome(lambda: _brentq(f, a, b, xtol, rtol, maxiter))
    return ours, _outcome(lambda: scipy_brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter))


_COEF = st.floats(-8.0, 8.0, allow_nan=False)


class TestBrentq:
    """_brentq is scipy's brentq step for step: the same root bits, the same exception types."""

    def test_compensating_grid_keeps_scipys_roots(self, monkeypatch):
        calls = []

        def checked(f, a, b, xtol, rtol, maxiter):
            ours, theirs = _both(f, a, b, xtol, rtol, maxiter)
            calls.append((a, b))
            assert ours == theirs, (a, b)
            return _brentq(f, a, b, xtol, rtol, maxiter)

        monkeypatch.setattr(experiments, "_brentq", checked)
        grid = [(n, s, d) for n in (3, 10, 10**3, 10**4, 10**5, 10**6, 12_345) for s in (1, 2, 3) for d in range(1, 7)]
        for n, s, d in grid:
            compensating_differential(n, s, d)
        assert len(calls) == len(grid)

    @settings(max_examples=500, deadline=None)
    @given(
        coefs=st.lists(_COEF, min_size=1, max_size=6),
        a=_COEF,
        width=st.floats(1e-9, 16.0),
        at=st.floats(0.0, 1.0),
        bracketed=st.booleans(),
        xtol=st.sampled_from([5e-324, 2e-12, 1e-6]),
        rtol=st.sampled_from([4 * np.finfo(float).eps, 1e-13, 1e-5]),
        maxiter=st.integers(0, 200),
    )
    # a cubic whose extrapolation step divides by zero: scipy's C division bisects there
    @example([5.870562732349344e-115, 0.0, 0.0, 0.0], -1.0, 3.0, 0.0, False, 5e-324, 4 * np.finfo(float).eps, 2)
    @example([5.870562732349344e-115, 0.0, 0.0, 0.0], -1.0, 3.0, 0.0, False, 5e-324, 4 * np.finfo(float).eps, 500)
    def test_matches_scipy_on_polynomials(self, coefs, a, width, at, bracketed, xtol, rtol, maxiter):
        """A random polynomial p, or (x - r)(1 + p(x)^2) with its one root r inside [a, b]."""
        b, r = a + width, a + at * width

        def p(x):
            out = 0.0
            for c in coefs:
                out = out * x + c
            return out

        f = (lambda x: (x - r) * (1.0 + p(x) ** 2)) if bracketed else p
        ours, theirs = _both(f, a, b, xtol, rtol, maxiter)
        assert ours == theirs

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_zero_at_either_end_is_that_end(self, zero):
        at_a = _both(lambda x: zero if x == 1.0 else x - 1.0, 1.0, 2.0)
        at_b = _both(lambda x: zero if x == 2.0 else x - 2.0, 1.0, 2.0)
        assert at_a == ((1.0).hex(),) * 2 and at_b == ((2.0).hex(),) * 2

    @pytest.mark.parametrize(
        "f, a, b, maxiter, raised",
        [
            (lambda x: x * x + 1.0, -1.0, 1.0, 500, ValueError),  # no sign change
            (lambda x: -1.0 - x * x, -1.0, 1.0, 500, ValueError),
            (lambda x: math.nan if x == 1.0 else x, -1.0, 1.0, 500, ValueError),  # NaN at an end
            (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, 500, ValueError),  # NaN at an iterate
            (lambda x: x**3 - 2.0, 0.0, 2.0, 3, RuntimeError),  # maxiter runs out
            (lambda x: x**3 - 2.0, 0.0, 2.0, 0, RuntimeError),
        ],
        ids=["same_sign", "same_sign_negative", "nan_end", "nan_iterate", "maxiter", "no_iterations"],
    )
    def test_raises_what_scipy_raises(self, f, a, b, maxiter, raised):
        assert _both(f, a, b, maxiter=maxiter) == (raised, raised)


class TestRegistry:
    def test_names(self):
        assert "kde_rate" in experiment_names()
        assert experiment_names() == sorted(experiment_names())

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="available"):
            run_experiment("nope")

    def test_run_from_dict(self):
        r = run_experiment("kde_rate", {"n_ladder": [64, 128], "trials": 1, "seed": 3})
        assert r.name == "kde_rate"
        assert len(r.rows) == 2

    def test_run_with_nested_spec(self):
        spec = single_bump_mixture_1d().to_dict()
        r = run_experiment("sandwich", {"n": 128, "trials": 2, "seed": 4, "mixture": spec})
        assert r.name == "sandwich"

    def test_reports_keep_their_pinned_bytes(self):
        """Every experiment at a small scale, seed 1: its report document hashes to the pinned digest.

        sym_diff_mc's budget of 250_001 crosses Monte Carlo chunks and ends in
        a partial one. The digests were taken with the numpy and scipy
        versions stored beside them.
        """
        pinned = json.loads((Path(__file__).parent / "pinned_reports.json").read_text())
        versions = f"pinned with numpy {pinned['numpy']}, scipy {pinned['scipy']}"
        assert sorted(pinned["reports"]) == experiment_names()
        for name, pin in pinned["reports"].items():
            doc = json.dumps(run_experiment(name, pin["config"]).to_document(), sort_keys=True)
            assert hashlib.sha256(doc.encode()).hexdigest() == pin["sha256"], (name, versions)

    def test_all_defaults_construct(self):
        """Default and benchmark-scaled configs echo their pinned bytes and round-trip."""
        pinned = json.loads((Path(__file__).parent / "pinned_config_documents.json").read_text())
        configs = [(name, cls(), pinned["experiment_defaults"][name]) for name, (cls, _) in REGISTRY.items()]
        for name, pin in pinned["experiment_overrides"].items():
            configs.append((name, REGISTRY[name][0].from_dict(pin["document"]), pin["json"]))
        for name, cfg, want in configs:
            assert json.dumps(cfg.to_dict(), sort_keys=True) == want, name
            assert REGISTRY[name][0].from_dict(cfg.to_dict()) == cfg, name


class TestConfigChecks:
    """Each config refuses a bad value when it is built, from a document or from Python."""

    @pytest.mark.parametrize(
        "name, overrides, message",
        [
            ("kde_rate", {"trials": 0}, "trials must be >= 1, got 0"),
            ("kde_rate", {"lattice_resolution": 0}, "lattice_resolution must be >= 1, got 0"),
            ("kde_rate", {"delta_scale": 0.0}, "delta_scale must be > 0, got 0.0"),
            ("kde_rate", {"n_ladder": [1, 2]}, "n_ladder rungs must be >= 2, got (1, 2)"),
            ("sandwich", {"n": 1}, "n must be >= 2, got 1"),
            ("sandwich", {"trials": 0}, "trials must be >= 1, got 0"),
            ("sandwich", {"lattice_resolution": -3}, "lattice_resolution must be >= 1, got -3"),
            ("sandwich", {"delta_scale": -1.0}, "delta_scale must be > 0, got -1.0"),
            ("hartigan", {"trials": 0}, "trials must be >= 1, got 0"),
            ("hartigan", {"n_ladder": []}, "n_ladder must be nonempty"),
            ("hartigan", {"component_pair": [1, 1]}, "two distinct components below C=2, got [1, 1]"),
            ("hartigan", {"component_pair": [-1, 1]}, "two distinct components below C=2, got [-1, 1]"),
            ("smoothing_rate", {"trials": 0}, "trials must be >= 1, got 0"),
            ("smoothing_rate", {"series_per_trial": 0}, "series_per_trial must be >= 1, got 0"),
            ("noisy_kde_gap", {"n": 1}, "n must be >= 2, got 1"),
            ("noisy_kde_gap", {"trials": 0}, "trials must be >= 1, got 0"),
            ("noisy_kde_gap", {"queries": 0}, "queries must be >= 1, got 0"),
            ("noisy_kde_gap", {"delta_scale": 0.0}, "delta_scale must be > 0, got 0.0"),
            ("noisy_kde_gap", {"z_prime": -5.0}, "z_prime must be > 0, got -5.0"),
            ("sym_diff_mc", {"dims": []}, "dims must be a nonempty list of dimensions in 1..6, got []"),
            ("sym_diff_mc", {"dims": [1, 0]}, "dims must be a nonempty list of dimensions in 1..6, got [1, 0]"),
            ("sym_diff_mc", {"dims": [7]}, "dims must be a nonempty list of dimensions in 1..6, got [7]"),
            ("sym_diff_mc", {"pairs_per_dim": 0}, "pairs_per_dim must be >= 1, got 0"),
            ("sym_diff_mc", {"mc_budget": 0}, "mc_budget must be >= 1, got 0"),
            ("grid_resolution", {"n_per_template": 0}, "n_per_template must be >= 1, got 0"),
            ("grid_resolution", {"k": 0}, "k must be >= 1, got 0"),
            ("grid_resolution", {"delta": 0.0}, "delta must be > 0, got 0.0"),
            ("compensating", {"n_values": []}, "n_values must be a nonempty list of integers >= 3, got []"),
            ("compensating", {"n_values": [1000, 2]}, "n_values must be a nonempty list of integers >= 3"),
            ("compensating", {"s_values": [0]}, "s_values must be a nonempty list of integers >= 1, got [0]"),
            ("compensating", {"d_values": []}, "d_values must be a nonempty list of integers >= 1, got []"),
            ("sym_diff_mc", {"mc_pairs_per_dim": 0}, "mc_pairs_per_dim must be >= 1, got 0"),
            ("sym_diff_mc", {"mc_pairs_per_dim": -3}, "mc_pairs_per_dim must be >= 1, got -3"),
        ],
    )
    def test_bad_value_refused_when_built(self, name, overrides, message):
        cls, _ = REGISTRY[name]
        with pytest.raises(ValueError, match=re.escape(message)):
            cls.from_dict(overrides)
        python = {key: tuple(v) if isinstance(v, list) else v for key, v in overrides.items()}
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**python)

    def test_registered_runner_stamps_its_report(self):
        assert REGISTRY["kde_rate"][1] is kde_rate_experiment
        cfg = KdeRateConfig(n_ladder=(64, 128), trials=1, seed=3)
        r = kde_rate_experiment(cfg)
        assert (r.name, r.config, r.seed) == ("kde_rate", cfg.to_dict(), 3)
        assert r.passed == all(r.checks.values())
        assert r.wall_clock_s > 0
