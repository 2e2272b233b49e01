import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatclust.density import (
    KdeModel,
    delta_schedule,
    evaluation_lattice,
    k_of_lambda,
    kde_counts_batch,
    kde_eval_batch,
    lambda_of_k,
)
from flatclust.geometry import ball_volume
from flatclust.synthetic import two_bump_mixture_1d
from oracles import kde_eval


class TestKdeEval:
    def test_single_point_at_itself(self):
        model = KdeModel(np.array([[0.5]]), delta=0.25)
        assert kde_eval(model, [0.5]) == pytest.approx(1.0 / (0.25 * 2.0), rel=1e-14)

    def test_far_query_is_zero(self):
        model = KdeModel(np.array([[0.2], [0.3]]), delta=0.05)
        assert kde_eval(model, [0.9]) == 0.0

    def test_three_collinear_points(self):
        delta = 0.25
        model = KdeModel(np.array([[0.0], [delta], [3 * delta]]), delta=delta)
        # query at 0 sees itself and the point at exactly delta (closed ball)
        assert kde_eval(model, [0.0]) == pytest.approx(1.0 / (3.0 * delta), rel=1e-14)

    @pytest.mark.parametrize(
        "points", [np.empty((0, 2)), np.empty(0), np.zeros((2, 2, 2))], ids=["no-rows", "empty", "3-d"]
    )
    def test_points_must_be_a_nonempty_matrix(self, points):
        with pytest.raises(ValueError, match=r"^points must be a nonempty \(n, dim\) array$"):
            KdeModel(points, delta=0.1)

    def test_dimension_mismatch(self):
        model = KdeModel(np.array([[0.5, 0.5]]), delta=0.2)
        with pytest.raises(ValueError):
            kde_eval(model, [0.5])

    @pytest.mark.usefixtures("index_path")
    def test_index_matches_full_scan_on_random_queries(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 1, size=(400, 2))
        delta = 0.07
        model = KdeModel(pts, delta=delta)
        queries = rng.uniform(-delta, 1 + delta, size=(1000, 2))
        norm = model.normalizer
        want = []
        for q in queries:
            diff = pts - q
            want.append(int(np.count_nonzero(np.einsum("ij,ij->i", diff, diff) <= delta * delta)))
            assert kde_eval(model, q) == want[-1] / norm
        assert np.array_equal(kde_counts_batch(model, queries), want)

    @pytest.mark.usefixtures("index_path")
    @pytest.mark.parametrize("sd", [1, 3])
    def test_batch_matches_single(self, sd):
        # on a line the batch counts sorted runs, off it it scans or asks the
        # kd-tree, and kde_eval always asks the kd-tree
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 1, size=(257, sd))
        model = KdeModel(pts, delta=0.2)
        queries = rng.uniform(0, 1, size=(123, sd))
        batch = kde_eval_batch(model, queries)
        single = np.array([kde_eval(model, q) for q in queries])
        assert np.array_equal(batch, single)

    @pytest.mark.usefixtures("index_path")
    def test_normalization_monte_carlo(self):
        rng = np.random.default_rng(14)
        pts = rng.uniform(0, 1, size=(150, 2))
        delta = 0.15
        model = KdeModel(pts, delta=delta)
        budget = 200_000
        box_lo, box_hi = -delta, 1 + delta
        queries = rng.uniform(box_lo, box_hi, size=(budget, 2))
        values = kde_eval_batch(model, queries)
        volume = (box_hi - box_lo) ** 2
        integral = float(values.mean()) * volume
        se = float(values.std(ddof=1)) / math.sqrt(budget) * volume
        assert abs(integral - 1.0) <= 3.0 * se


class TestSchedules:
    def test_frozen_value(self):
        assert delta_schedule(8, 1) == pytest.approx(0.638193303577099, rel=1e-12)

    def test_decreasing_in_n(self):
        values = [delta_schedule(n, 2) for n in (8, 16, 64, 256, 1024)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_increasing_in_sd(self):
        values = [delta_schedule(256, sd) for sd in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_scale(self):
        assert delta_schedule(100, 1, scale=2.0) == pytest.approx(
            2.0 * delta_schedule(100, 1), rel=1e-14
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            delta_schedule(1, 1)
        with pytest.raises(ValueError):
            delta_schedule(10, 0)
        with pytest.raises(ValueError):
            delta_schedule(10, 1, scale=0.0)


class TestLambdaK:
    def test_hand_value(self):
        # v_1 = 2, so lambda = 5 / (100 * 0.5 * 2)
        assert lambda_of_k(5, 100, 0.5, 1) == pytest.approx(0.05, rel=1e-14)

    def test_all_core_level(self):
        for n, delta, sd in ((100, 0.3, 1), (64, 0.2, 3)):
            lam = lambda_of_k(n, n, delta, sd)
            assert lam * delta**sd * ball_volume(sd) == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.integers(min_value=1, max_value=100_000),
        st.floats(min_value=1e-3, max_value=10.0),
        st.integers(min_value=1, max_value=16),
    )
    def test_roundtrip(self, k, n, delta, sd):
        lam = lambda_of_k(k, n, delta, sd)
        assert k_of_lambda(lam, n, delta, sd) == pytest.approx(k, rel=1e-12)

    @pytest.mark.parametrize(
        "n, delta, sd, mass",
        [(30, 1e-200, 4, "0.0"), (30, 1e308, 4, "inf"), (512, 1e-170, 2, "0.0"), (10, 1e200, 2, "inf")],
    )
    def test_refuses_a_ball_mass_that_is_zero_or_infinite(self, n, delta, sd, mass):
        # 1e-200**4 underflows to 0 and 1e308**4 overflows: every level would divide by 0 or by inf
        message = f"^{re.escape(f'delta={delta!r} at sd={sd}, n={n} gives n*delta^sd*v_sd={mass}')}, not a positive"
        with pytest.raises(ValueError, match=message):
            lambda_of_k(3, n, delta, sd)
        with pytest.raises(ValueError, match=message):
            k_of_lambda(1.0, n, delta, sd)
        with pytest.raises(ValueError, match=message):
            KdeModel(np.full((n, sd), 0.5), delta)

    def test_a_tiny_but_representable_ball_mass_is_kept(self):
        assert lambda_of_k(1, 2, 1e-100, 3) == 1 / (2 * 1e-100**3 * ball_volume(3))


class TestSandwichProperty:
    def test_inclusions_hold_with_measured_epsilon(self):
        spec = two_bump_mixture_1d()
        rng = np.random.default_rng(18)
        lattice = np.linspace(0, 1, 201)[:, None]
        truth = spec.density(lattice)
        lam = 0.5 * (spec.lambda_star + spec.peak_density)
        for trial in range(5):
            pts, _ = spec.sample(512, rng)
            model = KdeModel(pts, delta=delta_schedule(512, 1))
            est = kde_eval_batch(model, lattice)
            eps = float(np.max(np.abs(est - truth)))
            assert np.all(est[truth >= lam + eps] >= lam)
            assert np.all(truth[est >= lam] >= lam - eps)


class TestEvaluationLattice:
    def test_shapes(self):
        assert evaluation_lattice(1, resolution=50).shape == (50, 1)
        assert evaluation_lattice(2, resolution=30).shape == (900, 2)
        assert evaluation_lattice(4, mc_points=1000, seed=0).shape == (1000, 4)

    def test_mc_lattice_deterministic(self):
        a = evaluation_lattice(3, mc_points=500, seed=[7, 8])
        b = evaluation_lattice(3, mc_points=500, seed=[7, 8])
        assert np.array_equal(a, b)

    def test_kde_counts_batch_validates_width(self):
        model = KdeModel(np.zeros((3, 2)) + 0.5, delta=0.1)
        with pytest.raises(ValueError):
            kde_counts_batch(model, np.zeros((4, 3)))
