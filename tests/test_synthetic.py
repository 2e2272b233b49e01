import json
import math
from pathlib import Path

import numpy as np
import pytest

from flatclust.series import grid_times
from flatclust.synthetic import (
    Bump1D,
    ClusterTemplate,
    FunctionFamilySpec,
    MixtureComponent,
    MixtureSpec,
    TemplateComponent,
    gap_family,
    grid_resolution_templates,
    jump_family,
    lipschitz_family,
    sample_raw_series,
    sample_series_batch,
    single_bump_mixture_1d,
    two_bump_mixture_1d,
)

# json.dumps(spec.to_dict(), sort_keys=True) of the pinned specs
PINNED_SPECS = json.loads((Path(__file__).parent / "pinned_config_documents.json").read_text())["specs"]


class TestBump1D:
    @pytest.mark.parametrize("kind", ["triangular", "quadratic"])
    def test_integrates_to_one(self, kind):
        b = Bump1D(0.2, 0.7, kind)
        xs = np.linspace(0.2, 0.7, 20_001)
        assert np.trapezoid(b.pdf(xs), xs) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("kind", ["triangular", "quadratic"])
    def test_vanishes_at_edges_and_outside(self, kind):
        b = Bump1D(0.3, 0.6, kind)
        assert b.pdf(0.3) == 0.0 and b.pdf(0.6) == 0.0
        assert b.pdf(0.1) == 0.0 and b.pdf(0.9) == 0.0

    @pytest.mark.parametrize("kind", ["triangular", "quadratic"])
    def test_peak_value(self, kind):
        b = Bump1D(0.0, 0.5, kind)
        xs = np.linspace(0, 0.5, 100_001)
        assert np.max(b.pdf(xs)) == pytest.approx(b.peak, rel=1e-4)

    @pytest.mark.parametrize("kind", ["triangular", "quadratic"])
    def test_ppf_inverts_cdf(self, kind):
        b = Bump1D(0.1, 0.9, kind)
        xs = np.linspace(0.1, 0.9, 200_001)
        pdf = b.pdf(xs)
        cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(xs))])
        for u in (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0):
            x = float(b.ppf(u))
            u_back = float(np.interp(x, xs, cdf))
            assert u_back == pytest.approx(u, abs=1e-5)

    @pytest.mark.parametrize("kind", ["triangular", "quadratic"])
    def test_lipschitz_certificate(self, kind):
        b = Bump1D(0.2, 0.5, kind)
        xs = np.linspace(0.15, 0.55, 40_001)
        slopes = np.abs(np.diff(b.pdf(xs)) / np.diff(xs))
        assert np.max(slopes) <= b.lipschitz + 1e-9

    def test_upper_level_sets_are_intervals(self):
        for kind in ("triangular", "quadratic"):
            b = Bump1D(0.2, 0.8, kind)
            xs = np.linspace(0, 1, 4001)
            for level in (0.3, 0.8, 1.5):
                above = b.pdf(xs) >= level
                switches = int(np.sum(np.abs(np.diff(above.astype(int)))))
                assert switches <= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Bump1D(0.5, 0.5)
        with pytest.raises(ValueError):
            Bump1D(0.1, 0.6, "boxcar")


class TestMixtureSpec:
    def test_validation(self):
        comp = MixtureComponent(bumps=(Bump1D(0.1, 0.4),))
        with pytest.raises(ValueError):
            MixtureSpec(components=(comp,), weights=(0.7,))
        overlapping = MixtureComponent(bumps=(Bump1D(0.3, 0.6),))
        with pytest.raises(ValueError):
            MixtureSpec(components=(comp, overlapping), weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            MixtureComponent(bumps=(Bump1D(-0.1, 0.4),))

    def test_density_outside_box_is_zero(self):
        spec = two_bump_mixture_1d()
        assert spec.density(np.array([0.5])) == 0.0
        assert spec.density(np.array([-0.2])) == 0.0

    def test_density_at_mode(self):
        spec = two_bump_mixture_1d()
        center = spec.components[0].box.mean(axis=1)
        assert spec.density(center) == pytest.approx(
            spec.weights[0] * spec.components[0].peak, rel=1e-12
        )

    def test_density_integrates_to_one(self):
        spec = two_bump_mixture_1d()
        rng = np.random.default_rng(40)
        budget = 400_000
        xs = rng.uniform(0, 1, size=(budget, 1))
        vals = spec.density(xs)
        integral = float(vals.mean())
        se = float(vals.std(ddof=1)) / math.sqrt(budget)
        assert abs(integral - 1.0) <= 3.0 * se

    def test_mixture_lipschitz_certificate(self):
        spec = two_bump_mixture_1d()
        rng = np.random.default_rng(41)
        xs = rng.uniform(0, 1, size=(20_000, 1))
        ys = xs + rng.uniform(-1e-4, 1e-4, size=xs.shape)
        ys = np.clip(ys, 0, 1)
        num = np.abs(spec.density(xs) - spec.density(ys))
        den = np.abs(xs - ys).ravel()
        keep = den > 0
        assert np.max(num[keep] / den[keep]) <= spec.lipschitz_bound + 1e-9

    def test_lambda_star_separates_cores_from_outside(self):
        spec = two_bump_mixture_1d()
        lam = spec.lambda_star
        for i in range(spec.C):
            core = spec.inner_core(i)
            xs = np.linspace(core[0, 0], core[0, 1], 101)[:, None]
            assert np.all(spec.density(xs) >= lam)
        outside = np.array([[0.5], [0.01], [0.99], [0.3]])
        assert np.all(spec.density(outside) < lam)

    def test_margin(self):
        spec = two_bump_mixture_1d()
        assert spec.margin == pytest.approx(0.83 - 0.17, rel=1e-12)
        assert single_bump_mixture_1d().margin == math.inf

    def test_serialization_round_trip(self):
        spec = two_bump_mixture_1d()
        assert json.dumps(spec.to_dict(), sort_keys=True) == PINNED_SPECS["two_bump_mixture_1d"]
        back = MixtureSpec.from_dict(spec.to_dict())
        assert back == spec


class TestSampleFlat:
    def test_single_component_labels(self):
        pts, labels = single_bump_mixture_1d().sample(50, seed=1)
        assert np.all(labels == 0)
        assert pts.shape == (50, 1)

    def test_zero_weight_component_never_drawn(self):
        spec = MixtureSpec(
            components=(
                MixtureComponent(bumps=(Bump1D(0.1, 0.3),)),
                MixtureComponent(bumps=(Bump1D(0.6, 0.9),)),
            ),
            weights=(1.0, 0.0),
        )
        _, labels = spec.sample(200, seed=2)
        assert np.all(labels == 0)

    def test_label_frequencies_binomial(self):
        spec = two_bump_mixture_1d()
        n = 4000
        _, labels = spec.sample(n, seed=3)
        freq = float(np.mean(labels == 0))
        assert abs(freq - 0.5) <= 3.0 * math.sqrt(0.25 / n)

    def test_points_live_in_their_boxes(self):
        spec = two_bump_mixture_1d()
        pts, labels = spec.sample(1000, seed=4)
        for i, comp in enumerate(spec.components):
            box = comp.box
            chunk = pts[labels == i]
            assert np.all(chunk >= box[:, 0]) and np.all(chunk <= box[:, 1])

    def test_deterministic_under_seed(self):
        spec = two_bump_mixture_1d()
        a = spec.sample(100, seed=5)
        b = spec.sample(100, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_two_dim_product_sampling(self):
        spec = MixtureSpec(
            components=(
                MixtureComponent(bumps=(Bump1D(0.1, 0.4, "quadratic"), Bump1D(0.5, 0.9))),
            ),
            weights=(1.0,),
        )
        pts, _ = spec.sample(500, 6)
        assert pts.shape == (500, 2)
        assert np.all(pts[:, 0] >= 0.1) and np.all(pts[:, 0] <= 0.4)
        assert np.all(pts[:, 1] >= 0.5) and np.all(pts[:, 1] <= 0.9)


class TestTemplates:
    def test_eval_shapes_and_jump(self):
        t = TemplateComponent(kind="constant", offset=0.4, jump_time=0.55, jump_size=0.3)
        out = t.eval(np.array([0.5, 0.55, 0.6]))
        assert np.allclose(out, [0.4, 0.7, 0.7])

    def test_lipschitz_values(self):
        assert TemplateComponent(kind="sine", amp=0.2, freq=2.0).lipschitz() == pytest.approx(
            2 * math.pi * 2.0 * 0.2
        )
        assert TemplateComponent(kind="linear", slope=-0.3, offset=0.5).lipschitz() == pytest.approx(0.3)
        assert TemplateComponent(kind="constant").lipschitz() == 0.0

    def test_template_validation(self):
        with pytest.raises(ValueError):
            TemplateComponent(kind="sawtooth")
        with pytest.raises(ValueError):
            TemplateComponent(jump_time=1.0)


class TestFunctionFamilySpec:
    def test_noiseless_zero_jitter_reproduces_template(self):
        fam = FunctionFamilySpec(
            clusters=(ClusterTemplate(components=(TemplateComponent(kind="linear", offset=0.2, slope=0.3),)),),
            weights=(1.0,),
            d=4,
            eps_bar=0.0,
        )
        raws, labels, grids = sample_raw_series(fam, 3, 20, seed=7)
        times = np.arange(1, 21) / 20
        expected = 0.2 + 0.3 * times
        for raw in raws:
            assert np.allclose(raw.values[:, 0], expected, atol=1e-15)
        for g in grids:
            assert np.allclose(g.values[:, 0], 0.2 + 0.3 * grid_times(4), atol=1e-15)

    def test_noise_bounds(self):
        fam = lipschitz_family(d=4, eps_bar=0.07)
        raws, _, _ = sample_raw_series(fam, 60, 128, seed=8)
        all_vals = np.concatenate([r.values for r in raws]).ravel()
        # uniform noise keeps samples within eps_bar of the template range
        assert all_vals.min() >= 0.13 - 0.07 - 1e-12
        assert all_vals.max() <= 0.87 + 0.07 + 1e-12

    def test_noise_mean_and_bound_explicit(self):
        template = ClusterTemplate(components=(TemplateComponent(kind="constant", offset=0.5),))
        fam = FunctionFamilySpec(clusters=(template,), weights=(1.0,), d=2, eps_bar=0.05)
        raws, _, _ = sample_raw_series(fam, 40, 64, seed=9)
        noise = np.concatenate([r.values - 0.5 for r in raws]).ravel()
        assert np.all(np.abs(noise) <= 0.05 + 1e-15)
        se = 0.05 / math.sqrt(3) / math.sqrt(noise.size)
        assert abs(noise.mean()) <= 3.0 * se

    def test_rejects_jump_on_grid_point(self):
        with pytest.raises(ValueError, match="grid point"):
            FunctionFamilySpec(
                clusters=(
                    ClusterTemplate(
                        components=(TemplateComponent(kind="constant", offset=0.4, jump_time=0.5, jump_size=0.2),)
                    ),
                ),
                weights=(1.0,),
                d=4,
            )

    def test_rejects_range_escape(self):
        with pytest.raises(ValueError, match="leave"):
            FunctionFamilySpec(
                clusters=(
                    ClusterTemplate(
                        components=(TemplateComponent(kind="sine", offset=0.9, amp=0.3),),
                    ),
                ),
                weights=(1.0,),
                d=4,
            )

    def test_rejects_unseparated_clusters(self):
        same = ClusterTemplate(components=(TemplateComponent(kind="constant", offset=0.5),))
        with pytest.raises(ValueError, match="separated"):
            FunctionFamilySpec(clusters=(same, same), weights=(0.5, 0.5), d=4)

    def test_rejects_m_not_greater_than_d(self):
        fam = lipschitz_family(d=8)
        with pytest.raises(ValueError):
            sample_raw_series(fam, 5, 8, seed=0)

    def test_deterministic(self):
        fam = jump_family()
        a = sample_raw_series(fam, 10, 32, seed=11)
        b = sample_raw_series(fam, 10, 32, seed=11)
        for ra, rb in zip(a[0], b[0]):
            assert np.array_equal(ra.values, rb.values)
        assert np.array_equal(a[1], b[1])

    def test_serialization_round_trip(self):
        for name, fam in [("gap_family", gap_family()), ("lipschitz_family", lipschitz_family(d=4, eps_bar=0.02))]:
            assert json.dumps(fam.to_dict(), sort_keys=True) == PINNED_SPECS[name]
            back = FunctionFamilySpec.from_dict(fam.to_dict())
            assert back == fam

    def test_pinned_families_are_valid(self):
        assert lipschitz_family().grid_margin > 0
        assert jump_family().grid_margin > 0
        assert gap_family().grid_margin > 0


class TestGridResolutionTemplates:
    def test_coincide_on_coarse_grid(self):
        a, b = grid_resolution_templates()
        coarse = grid_times(5)
        assert np.max(np.abs(a.eval(coarse) - b.eval(coarse))) < 1e-12

    def test_differ_on_fine_grid(self):
        a, b = grid_resolution_templates()
        fine = grid_times(20)
        assert np.max(np.abs(a.eval(fine) - b.eval(fine))) > 0.2


def _per_series_draws(templates, labels, m, d, eps_bar, rng):
    """The per-series sampling loop the batch sampler must reproduce bit for bit."""
    times = np.arange(1, m + 1) / m
    values, grid = [], []
    for label in labels:
        template = templates[label]
        scales, shifts = template.draw_jitter(rng)

        def at(t):
            return np.column_stack(
                [c.eval(t, amp_scale=scales[j], offset_shift=shifts[j]) for j, c in enumerate(template.components)]
            )

        noise = rng.uniform(-eps_bar, eps_bar, size=(m, template.s)) if eps_bar > 0 else 0.0
        values.append(at(times) + noise)
        grid.append(at(grid_times(d)))
    return np.stack(values), np.stack(grid)


class TestBatchSampler:
    @pytest.mark.parametrize(
        "family",
        [lipschitz_family(d=4, eps_bar=0.05), jump_family(), gap_family(), lipschitz_family(d=3, eps_bar=0.0)],
        ids=["lipschitz", "jump", "gap", "eps_bar_0"],
    )
    @pytest.mark.parametrize("n, m", [(1, 9), (64, 17), (150, 40)])
    def test_bit_identical_to_per_series_draws(self, family, n, m):
        seed = 1000 + n + m
        rng = np.random.default_rng(seed)
        labels = rng.choice(family.C, size=n, p=np.asarray(family.weights, dtype=float))
        want_values, want_grid = _per_series_draws(family.clusters, labels, m, family.d, family.eps_bar, rng)

        batch, got_labels, got_grid = sample_series_batch(family, n, m, seed)
        assert np.array_equal(got_labels, labels)
        assert np.array_equal(batch.values.reshape(n, m, family.s), want_values)
        assert np.array_equal(got_grid, want_grid)
        assert np.array_equal(batch.times, np.tile(np.arange(1, m + 1) / m, n))
        assert batch.ids == tuple(f"series{i:05d}" for i in range(n))

        raws, raw_labels, grids = sample_raw_series(family, n, m, seed)
        assert np.array_equal(raw_labels, labels)
        assert all(np.array_equal(r.values, v) for r, v in zip(raws, want_values))
        assert all(np.array_equal(g.values, v) for g, v in zip(grids, want_grid))
