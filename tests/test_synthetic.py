import dataclasses
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from flatclust import smoothing, synthetic
from flatclust.series import grid_times
from flatclust.smoothing import EmptyWindowWarning, gamma_schedule, smooth_batch
from flatclust.synthetic import (
    MAX_GRID_D,
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
    _sample_batch,
    _sample_smoothed,
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

    def test_component_bumps_share_one_kind(self):
        # the component document holds one kind for all coordinates
        with pytest.raises(ValueError, match=r"bumps must share one kind, got \['quadratic', 'triangular'\]"):
            MixtureComponent(bumps=(Bump1D(0.1, 0.4, "quadratic"), Bump1D(0.5, 0.9)))
        comp = MixtureComponent(bumps=(Bump1D(0.1, 0.4, "quadratic"), Bump1D(0.5, 0.9, "quadratic")))
        assert MixtureComponent.from_dict(comp.to_dict()) == comp

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


@pytest.mark.parametrize(
    "weights, message",
    [
        ((1.0,), "one weight per {part} required"),
        ((1.5, -0.5), "weights must be nonnegative and sum to 1"),
        ((0.5, 0.4), "weights must be nonnegative and sum to 1"),
    ],
    ids=["count", "negative", "sum"],
)
@pytest.mark.parametrize(
    "spec, part", [(two_bump_mixture_1d(), "component"), (lipschitz_family(), "cluster")], ids=["mixture", "family"]
)
def test_weights_messages(spec, part, weights, message):
    with pytest.raises(ValueError) as info:
        dataclasses.replace(spec, weights=weights)
    assert str(info.value) == message.format(part=part)


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
                MixtureComponent(bumps=(Bump1D(0.1, 0.4, "quadratic"), Bump1D(0.5, 0.9, "quadratic"))),
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
        out = ClusterTemplate(components=(t,)).eval(np.array([0.5, 0.55, 0.6]))
        assert out.shape == (3, 1)
        assert np.allclose(out[:, 0], [0.4, 0.7, 0.7])

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


def _reference_component(c, t, amp_scale, offset_shift):
    """One template component at times t, written out in full: the formula the sampler must round as."""
    if c.kind == "sine":
        out = c.offset + amp_scale * c.amp * np.sin(2.0 * math.pi * (c.freq * t + c.phase))
    elif c.kind == "linear":
        out = c.offset + amp_scale * c.slope * t
    else:
        out = c.offset + np.zeros_like(t)
    out = out + offset_shift
    if c.jump_time is not None:
        out = out + c.jump_size * (t >= c.jump_time)
    return out


def _per_series_draws(templates, labels, m, d, eps_bar, rng):
    """The per-series sampling loop the batch sampler must reproduce bit for bit."""
    times = np.arange(1, m + 1) / m
    values, grid = [], []
    for label in labels:
        template = templates[label]
        scales, shifts = template.draw_jitter(rng)

        def at(t):
            return np.column_stack(
                [_reference_component(c, t, scales[j], shifts[j]) for j, c in enumerate(template.components)]
            )

        noise = rng.uniform(-eps_bar, eps_bar, size=(m, template.s)) if eps_bar > 0 else 0.0
        values.append(at(times) + noise)
        grid.append(at(grid_times(d)))
    return np.stack(values), np.stack(grid)


def _two_sine_family():
    """Three two-component sinusoid clusters with phases and both jitters, s = 2 (a tree-workload family)."""

    def template(o1, o2, phase):
        return ClusterTemplate(
            components=(
                TemplateComponent(kind="sine", offset=o1, amp=0.1, freq=0.5, phase=phase),
                TemplateComponent(kind="sine", offset=o2, amp=0.1, freq=0.5, phase=phase + 0.25),
            ),
            offset_jitter=0.06,
            amp_jitter=0.5,
        )

    return FunctionFamilySpec(
        clusters=(template(0.22, 0.5, 0.0), template(0.5, 0.78, 0.5), template(0.78, 0.22, 0.25)),
        weights=(1 / 3, 1 / 3, 1 / 3),
        d=4,
        eps_bar=0.05,
    )


def _mixed_family():
    """Linear, constant and sine components, with jumps of both signs in only some templates."""
    return FunctionFamilySpec(
        clusters=(
            ClusterTemplate(
                components=(
                    TemplateComponent(kind="linear", offset=0.1, slope=0.2),
                    TemplateComponent(kind="constant", offset=0.3, jump_time=0.55, jump_size=0.2),
                ),
                offset_jitter=0.02,
                amp_jitter=0.3,
            ),
            ClusterTemplate(
                components=(
                    TemplateComponent(kind="constant", offset=0.6, amp=0.4),
                    TemplateComponent(kind="sine", offset=0.7, amp=0.1, freq=2.0, phase=0.3),
                ),
                offset_jitter=0.01,
            ),
            ClusterTemplate(
                components=(
                    TemplateComponent(kind="sine", offset=0.85, amp=0.05, jump_time=0.3, jump_size=-0.1),
                    TemplateComponent(kind="linear", offset=0.4, slope=-0.1),
                ),
                amp_jitter=0.2,
            ),
        ),
        weights=(0.2, 0.5, 0.3),
        d=3,
        eps_bar=0.01,
    )


class TestBatchSampler:
    @pytest.mark.parametrize(
        "family",
        [
            lipschitz_family(d=4, eps_bar=0.05),
            jump_family(),
            gap_family(),
            lipschitz_family(d=3, eps_bar=0.0),
            _two_sine_family(),
            _mixed_family(),
        ],
        ids=["lipschitz", "jump", "gap", "eps_bar_0", "two_sine", "mixed"],
    )
    @pytest.mark.parametrize("n, m", [(1, 9), (64, 17), (150, 40), (65, 17), (129, 33)])
    def test_bit_identical_to_per_series_draws(self, family, n, m):
        seed = 1000 + n + m
        rng = np.random.default_rng(seed)
        labels = rng.choice(family.C, size=n, p=np.asarray(family.weights, dtype=float))
        want_values, want_grid = _per_series_draws(family.clusters, labels, m, family.d, family.eps_bar, rng)

        batch, got_labels, got_grid = sample_series_batch(family, n, m, seed)
        assert np.array_equal(got_labels, labels)
        assert np.array_equal(batch.values.reshape(n, m, family.s), want_values)
        assert np.array_equal(got_grid, want_grid)
        # every series' times are the j/m schedule, one per observation
        schedule = np.arange(1, m + 1) / m
        assert batch.times.tobytes() == np.tile(schedule, n).tobytes()
        assert all(y.times.tobytes() == schedule.tobytes() for y in batch)
        assert batch.ids == tuple(f"series{i:05d}" for i in range(n))

        # the generator is left where the loop leaves it
        rng_batch = np.random.default_rng(seed)
        rng_batch.choice(family.C, size=n, p=np.asarray(family.weights, dtype=float))
        _sample_batch(family.clusters, labels, m, family.d, family.eps_bar, rng_batch)
        assert rng_batch.random() == rng.random()

        raws, raw_labels, grids = sample_raw_series(family, n, m, seed)
        assert np.array_equal(raw_labels, labels)
        assert all(np.array_equal(r.values, v) for r, v in zip(raws, want_values))
        assert all(np.array_equal(g.values, v) for g, v in zip(grids, want_grid))
        # the sampled grid is handed over, not copied: every GridSeries is a row of one read-only array
        assert all(g.values.base is grids[0].values.base for g in grids)
        assert not grids[0].values.base.flags.writeable


@pytest.mark.parametrize(
    "n, m, message",
    [
        (-1, 8, "n must be a nonnegative integer, got -1"),
        (2.5, 8, "n must be a nonnegative integer, got 2.5"),
        (True, 8, "n must be a nonnegative integer, got True"),
        (np.bool_(True), 8, "n must be a nonnegative integer"),
        (3, 2.5, "m must be an integer, got 2.5"),
        (3, True, "m must be an integer, got True"),
        (3, 8.0, "m must be an integer, got 8.0"),
    ],
)
@pytest.mark.parametrize("sampler", [sample_series_batch, sample_raw_series])
def test_samplers_refuse_counts_that_are_not_integers(sampler, n, m, message):
    with pytest.raises(ValueError, match=message):
        sampler(gap_family(), n, m, 1)


def test_samplers_take_numpy_counts_and_an_empty_n():
    batch, labels, grid = sample_series_batch(gap_family(), np.int64(3), np.int32(8), 1)
    assert len(batch) == 3 and batch.values.shape == (24, 1)
    batch, labels, grid = sample_series_batch(gap_family(), 0, 8, 1)
    assert len(batch) == 0 and labels.shape == (0,) and grid.shape == (0, 2, 1)
    assert list(sample_raw_series(gap_family(), 0, 8, 1)[0]) == []


def test_batch_sampler_with_a_template_missing_from_a_chunk():
    # the first chunk holds only template 0, the second also 1 and 2, the third only 2
    family = _mixed_family()
    labels = np.concatenate([np.zeros(64, dtype=np.intp), np.arange(64) % 3, np.full(5, 2)])
    want_values, want_grid = _per_series_draws(family.clusters, labels, 20, family.d, family.eps_bar, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    batch, grid = _sample_batch(family.clusters, labels, 20, family.d, family.eps_bar, rng)
    assert np.array_equal(batch.values.reshape(labels.size, 20, family.s), want_values)
    assert np.array_equal(grid, want_grid)


@pytest.mark.parametrize("family", [_two_sine_family(), _mixed_family(), jump_family()], ids=["two_sine", "mixed", "jump"])
def test_template_eval_is_the_written_out_formula(family):
    t = np.linspace(0.0, 1.0, 41)
    rng = np.random.default_rng(17)
    for template in family.clusters:
        scales, shifts = rng.uniform(0.5, 1.5, (3, template.s)), rng.uniform(-0.05, 0.05, (3, template.s))
        got = template.eval(t, scales, shifts)
        assert got.shape == (3, t.size, template.s)
        for k in range(3):
            want = np.column_stack(
                [_reference_component(c, t, scales[k, j], shifts[k, j]) for j, c in enumerate(template.components)]
            )
            assert np.array_equal(got[k], want)
            assert np.array_equal(template.eval(t, scales[k], shifts[k]), want)
        plain = np.column_stack([_reference_component(c, t, 1.0, 0.0) for c in template.components])
        assert np.array_equal(template.eval(t), plain)


def test_family_d_is_bounded_before_any_grid_is_built():
    document = lipschitz_family().to_dict()
    assert FunctionFamilySpec.from_dict({**document, "d": MAX_GRID_D}).d == MAX_GRID_D
    for d in (MAX_GRID_D + 1, 10**12):  # 10**12 raised MemoryError, building its grid
        with pytest.raises(ValueError, match=f"^d must be <= {MAX_GRID_D}, got {d}$"):
            FunctionFamilySpec.from_dict({**document, "d": d})
        with pytest.raises(ValueError, match=f"^d must be <= {MAX_GRID_D}, got {d}$"):
            dataclasses.replace(lipschitz_family(), d=d)


def _smoothed_and_warned(sample, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = sample(*args)
    empty = [w for w in caught if issubclass(w.category, EmptyWindowWarning)]
    assert {w.filename for w in empty} <= {__file__}  # raised at the sampler's caller, not inside the library
    return got, sorted(str(w.message) for w in empty)


def _batch_then_smoothed(family, n, m, seed, gamma):
    batch, labels, truth = sample_series_batch(family, n, m, seed)
    return smooth_batch(batch, family.d, gamma), labels, truth


class TestSampleSmoothed:
    """_sample_smoothed is smooth_batch on sample_series_batch's batch, bit for bit, drawn and smoothed a chunk at a time."""

    @pytest.mark.parametrize(
        "family",
        [gap_family(), lipschitz_family(d=3, eps_bar=0.0), _two_sine_family(), _mixed_family()],
        ids=["gap", "eps_bar_0", "two_sine_s2", "mixed_s2"],
    )
    # at m = 40 a chunk is _rows_per_block(40) = 409 series: n at and just past one chunk, and past two
    @pytest.mark.parametrize("n", [0, 1, 20, smoothing._rows_per_block(40), smoothing._rows_per_block(40) + 1, 850])
    def test_is_smooth_batch_of_the_sampled_batch(self, family, n):
        m = 40
        gamma = gamma_schedule(m)
        want = _batch_then_smoothed(family, n, m, 100 + n, gamma)
        got = _sample_smoothed(family, n, m, 100 + n, gamma)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert got[0].shape == got[2].shape == (n, family.d, family.s)

    @pytest.mark.parametrize("chunk", [1, 3, 32, 64])
    def test_does_not_depend_on_the_chunk_size(self, chunk, monkeypatch):
        family = _two_sine_family()
        want = _sample_smoothed(family, 70, 24, 7, 0.2)
        monkeypatch.setattr(smoothing, "_ROW_BLOCK", chunk * 24)  # chunks of `chunk` series of length 24
        got = _sample_smoothed(family, 70, 24, 7, 0.2)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in _batch_then_smoothed(family, 70, 24, 7, 0.2)]

    @pytest.mark.parametrize("chunk", [3, 64])
    def test_empty_windows_give_the_batchs_zero_slots_and_warnings(self, chunk, monkeypatch):
        # at m = 10, no sample j/10 lies in [0.21, 0.25] or [0.71, 0.75]: gamma 0.04 empties those windows
        monkeypatch.setattr(smoothing, "_ROW_BLOCK", chunk * 10)
        family = jump_family(d=4)
        want, want_warnings = _smoothed_and_warned(_batch_then_smoothed, family, 7, 10, 3, 0.04)
        got, got_warnings = _smoothed_and_warned(_sample_smoothed, family, 7, 10, 3, 0.04)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert got_warnings == want_warnings and len(got_warnings) == 2 * 7

    def test_refuses_what_the_sampler_and_smoother_refuse(self):
        with pytest.raises(ValueError, match="n must be a nonnegative integer, got -1"):
            _sample_smoothed(gap_family(), -1, 8, 1, 0.1)
        with pytest.raises(ValueError, match="need m > d, got m=2, d=2"):
            _sample_smoothed(gap_family(), 3, 2, 1, 0.1)
        with pytest.raises(ValueError, match="gamma must be a positive finite number, got inf"):
            _sample_smoothed(gap_family(), 3, 8, 1, math.inf)

    @pytest.mark.parametrize("m", [24, 5000, 20000])
    def test_chunks_are_the_smoothers_row_blocks(self, m, monkeypatch):
        family, n = gap_family(), 40

        def sizes():
            labels, times, grid = np.zeros(n, dtype=np.intp), np.arange(1, m + 1) / m, np.empty((n, family.d, 1))
            chunks = synthetic._drawn_chunks(family.clusters, labels, times, 0.02, np.random.default_rng(1), grid)
            return [stop - start for start, stop, _ in chunks]

        for row_block in (smoothing._ROW_BLOCK, 3 * m + 1):  # the helper reads _ROW_BLOCK at call time
            monkeypatch.setattr(smoothing, "_ROW_BLOCK", row_block)
            step = smoothing._rows_per_block(m)
            assert step == max(1, row_block // m)
            assert sizes() == [step] * (n // step) + ([n % step] if n % step else [])

    @staticmethod
    def _traced_peak(family, n, m):
        _sample_smoothed(family, 2, 8, 1, 0.3)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            _sample_smoothed(family, n, m, 1, gamma_schedule(m))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _budget(family, n, m):
        """A chunk's draw and values, one chunk more for temporaries, the per-time arrays, and the two grids.

        A chunk holds about _ROW_BLOCK observations, or one series when m is
        longer. The per-time arrays are the m times, the d cached weight
        rows of m weights, and one (m, s) path curve per template.
        """
        chunk = max(smoothing._ROW_BLOCK, m) * family.s * 8
        per_time = (1 + family.d + family.C * family.s) * m * 8
        return 3 * chunk + per_time + 2 * n * family.d * family.s * 8

    def test_memory_holds_a_few_chunks_not_the_batch(self):
        family, n, m = gap_family(), 512, 4096
        assert self._traced_peak(family, n, m) < self._budget(family, n, m) < n * m * family.s * 8 / 4

    def test_memory_at_a_large_m_holds_one_series_per_chunk(self):
        # chunks of a fixed 64 series peaked at 71 MB here, against this budget of 4.2 MB
        family, n, m = gap_family(), 64, 1 << 16
        assert self._traced_peak(family, n, m) < self._budget(family, n, m) < n * m * family.s * 8 / 4
