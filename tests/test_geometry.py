import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc as scipy_betainc

from flatclust.geometry import (
    RegimeWarning,
    ball_sym_diff_bound,
    ball_sym_diff_volume,
    ball_volume,
    log_ball_volume,
    reg_inc_beta,
)


class TestBallVolume:
    def test_interval(self):
        assert ball_volume(1) == pytest.approx(2.0, rel=1e-14)

    def test_disk(self):
        assert ball_volume(2) == pytest.approx(math.pi, rel=1e-14)

    def test_three_dim(self):
        # Gamma(5/2) = 3 sqrt(pi) / 4, so v_3 = pi^(3/2) / Gamma(5/2) = 4 pi / 3
        assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)

    @pytest.mark.parametrize("dim", list(range(1, 65)))
    def test_matches_gamma_formula_up_to_64(self, dim):
        direct = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
        assert ball_volume(dim) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("dim", list(range(2, 33)))
    def test_recurrence(self, dim):
        expected = (
            ball_volume(dim - 1)
            * math.sqrt(math.pi)
            * math.gamma((dim + 1) / 2.0)
            / math.gamma(dim / 2.0 + 1.0)
        )
        assert ball_volume(dim) == pytest.approx(expected, abs=1e-10, rel=1e-10)

    def test_log_space_consistency(self):
        for dim in (21, 40, 64):
            assert math.log(ball_volume(dim)) == pytest.approx(log_ball_volume(dim), abs=1e-12)

    @pytest.mark.parametrize("dim", [0, -1, -7])
    def test_rejects_nonpositive_dim(self, dim):
        with pytest.raises(ValueError):
            ball_volume(dim)

    @pytest.mark.parametrize("dim", [True, 3.0, np.float64(3.0), "3"])
    def test_rejects_non_integral_dim(self, dim):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            ball_volume(dim)

    @pytest.mark.parametrize("kind", [np.int8, np.int32, np.int64, np.uint16])
    def test_accepts_numpy_integer_dims(self, kind):
        for dim in (1, 3, 21):
            assert type(ball_volume(kind(dim))) is float
            assert ball_volume(kind(dim)) == ball_volume(dim)
            assert log_ball_volume(kind(dim)) == log_ball_volume(dim)
        assert ball_sym_diff_volume(0.3, 0.7, kind(3)) == ball_sym_diff_volume(0.3, 0.7, 3)
        assert ball_sym_diff_bound(0.3, 0.7, kind(3)) == ball_sym_diff_bound(0.3, 0.7, 3)
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            ball_volume(kind(0))


class TestRegIncBeta:
    def test_uniform_cdf(self):
        for x in (0.0, 0.123, 0.5, 0.987, 1.0):
            assert reg_inc_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-12)

    def test_symmetry_at_half(self):
        for a in (0.5, 1.0, 2.5, 7.0):
            assert reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-12)

    def test_polynomial_value(self):
        # 12 * integral_0^0.5 t (1-t)^2 dt by the antiderivative = 0.6875
        assert reg_inc_beta(0.5, 2.0, 3.0) == pytest.approx(0.6875, abs=1e-10)

    def test_endpoints(self):
        assert reg_inc_beta(0.0, 3.0, 4.5) == 0.0
        assert reg_inc_beta(1.0, 3.0, 4.5) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        # near the endpoints the float identity degrades for any
        # implementation (scipy shows the same deviation): rounding of the
        # complement argument is amplified by small shape parameters
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.05, max_value=20.0),
    )
    def test_reflection_identity(self, x, a, b):
        assert reg_inc_beta(x, a, b) == pytest.approx(
            1.0 - reg_inc_beta(1.0 - x, b, a), abs=1e-10
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.05, max_value=30.0),
        st.floats(min_value=0.05, max_value=30.0),
    )
    def test_against_scipy(self, x, a, b):
        assert reg_inc_beta(x, a, b) == pytest.approx(
            float(scipy_betainc(a, b, x)), abs=1e-10
        )

    def test_array_form_is_the_scalar_calls(self):
        x = np.linspace(0.0, 1.0, 101)
        got = reg_inc_beta(x, 0.5, 2.0)
        assert got.shape == x.shape
        assert got.tobytes() == np.array([reg_inc_beta(v, 0.5, 2.0) for v in x.tolist()]).tobytes()
        assert type(reg_inc_beta(0.25, 0.5, 2.0)) is float

    @pytest.mark.parametrize("x", [math.nan, -0.1, 1.1, [0.5, math.nan], [0.2, 1.5, -1.0]])
    def test_rejects_x_outside_the_unit_interval(self, x):
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\], got (nan|-0.1|1.1|1.5)$"):
            reg_inc_beta(x, 1.0, 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 1.0, -2.0)


def _interval_sym_diff(dist: float, delta: float) -> float:
    # two closed intervals of half-length delta with centers dist apart
    return 2.0 * min(dist, 2.0 * delta)


class TestBallSymDiff:
    def test_identical_balls(self):
        for dim in (1, 2, 5):
            assert ball_sym_diff_volume(0.0, 0.7, dim) == 0.0

    def test_disjoint_balls(self):
        for dim in (1, 2, 3):
            expected = 2.0 * 0.4**dim * ball_volume(dim)
            assert ball_sym_diff_volume(0.9, 0.4, dim) == pytest.approx(expected, rel=1e-12)
            assert ball_sym_diff_volume(0.8, 0.4, dim) == pytest.approx(expected, rel=1e-12)

    def test_dim1_unit_case(self):
        # [-1, 1] vs [0, 2]: the symmetric difference has total length 2
        assert ball_sym_diff_volume(1.0, 1.0, 1) == pytest.approx(2.0, abs=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.05, max_value=1.5),
    )
    def test_dim1_matches_interval_arithmetic(self, dist, delta):
        assert ball_sym_diff_volume(dist, delta, 1) == pytest.approx(
            _interval_sym_diff(dist, delta), abs=1e-10
        )

    def test_monotone_in_dist(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 3, 4, 6):
            delta = rng.uniform(0.2, 1.0)
            dists = np.sort(rng.uniform(0.0, 2.5 * delta, size=40))
            vols = [ball_sym_diff_volume(d, delta, dim) for d in dists]
            assert all(b >= a - 1e-12 for a, b in zip(vols, vols[1:]))

    def test_exact_below_bound_in_lemma_regime(self):
        rng = np.random.default_rng(8)
        for dim in range(1, 7):
            for _ in range(200):
                delta = rng.uniform(0.1, 1.5)
                dist = rng.uniform(0.0, delta)
                exact = ball_sym_diff_volume(dist, delta, dim)
                bound = ball_sym_diff_bound(dist, delta, dim)
                assert exact <= bound * (1.0 + 1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_monte_carlo_oracle(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(3):
            delta = rng.uniform(0.3, 1.0)
            dist = rng.uniform(0.1 * delta, delta)
            exact = ball_sym_diff_volume(dist, delta, dim)
            lo = np.full(dim, -delta)
            hi = np.full(dim, delta)
            hi[0] = dist + delta
            budget = 400_000
            pts = rng.uniform(lo, hi, size=(budget, dim))
            in_a = np.einsum("ij,ij->i", pts, pts) <= delta * delta
            shifted = pts.copy()
            shifted[:, 0] -= dist
            in_b = np.einsum("ij,ij->i", shifted, shifted) <= delta * delta
            p = np.count_nonzero(in_a != in_b) / budget
            box = float(np.prod(hi - lo))
            se = math.sqrt(p * (1.0 - p) / budget) * box
            assert abs(p * box - exact) <= 3.0 * se

    def test_rejects_negative_dist(self):
        with pytest.raises(ValueError):
            ball_sym_diff_volume(-0.1, 1.0, 2)

    def test_array_form(self):
        dists = np.array([[0.0, 0.3], [0.7, 1.4], [2.0, 5.0]])
        got = ball_sym_diff_volume(dists, 0.7, 3)
        assert got.shape == (3, 2)
        assert got.tobytes() == np.array([ball_sym_diff_volume(d, 0.7, 3) for d in dists.flat]).tobytes()
        assert got[0, 0] == 0.0
        assert got[2, 0] == got[2, 1] == 2.0 * 0.7**3 * ball_volume(3)
        assert type(ball_sym_diff_volume(np.float64(0.3), np.float64(0.7), 3)) is float


class TestBallSymDiffBound:
    def test_zero_eps(self):
        assert ball_sym_diff_bound(0.0, 0.5, 3) == 0.0

    def test_dim1_equality_edge(self):
        assert ball_sym_diff_bound(1.0, 1.0, 1) == pytest.approx(2.0, rel=1e-14)
        assert ball_sym_diff_volume(1.0, 1.0, 1) == pytest.approx(
            ball_sym_diff_bound(1.0, 1.0, 1), abs=1e-10
        )

    def test_hand_value(self):
        assert ball_sym_diff_bound(0.1, 0.5, 2) == pytest.approx(0.2, rel=1e-14)

    def test_warns_outside_regime(self):
        with pytest.warns(RegimeWarning):
            value = ball_sym_diff_bound(0.7, 0.5, 2)
        assert value == pytest.approx(4.0 * 0.5 * 0.7, rel=1e-14)

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            ball_sym_diff_bound(-0.2, 0.5, 2)

    def test_array_form_warns_once_naming_the_first_pair_outside(self):
        eps = np.array([0.1, 0.6, 0.9])
        with pytest.warns(RegimeWarning, match=re.escape("eps=0.6 exceeds delta=0.5")) as caught:
            got = ball_sym_diff_bound(eps, 0.5, 2)
        assert len(caught) == 1
        assert got.tobytes() == np.array([4.0 * 0.5 * e for e in eps.tolist()]).tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ball_sym_diff_bound(eps, np.array([0.1, 0.6, 0.9]), 2)
        assert type(ball_sym_diff_bound(0.1, 0.5, 2)) is float


_NON_FINITE = [
    (ball_sym_diff_volume, (math.nan, 0.5, 2), "dist must be nonnegative and finite, got nan"),
    (ball_sym_diff_volume, (math.inf, 0.5, 2), "dist must be nonnegative and finite, got inf"),
    (ball_sym_diff_volume, (0.1, math.inf, 2), "delta must be positive and finite, got inf"),
    (ball_sym_diff_volume, (0.1, math.nan, 2), "delta must be positive and finite, got nan"),
    (ball_sym_diff_volume, ([0.1, math.nan], 0.5, 2), "dist must be nonnegative and finite, got nan"),
    (ball_sym_diff_volume, ([0.1, 0.2], [0.5, -math.inf], 2), "delta must be positive and finite, got -inf"),
    (ball_sym_diff_volume, (-0.1, 0.5, 2), "dist must be nonnegative and finite, got -0.1"),
    (ball_sym_diff_volume, (0.1, 0.0, 2), "delta must be positive and finite, got 0.0"),
    (ball_sym_diff_bound, (math.nan, 0.5, 2), "eps must be nonnegative and finite, got nan"),
    (ball_sym_diff_bound, (-math.inf, 0.5, 2), "eps must be nonnegative and finite, got -inf"),
    (ball_sym_diff_bound, (0.1, math.inf, 2), "delta must be positive and finite, got inf"),
    (ball_sym_diff_bound, ([0.1, math.inf], 0.5, 2), "eps must be nonnegative and finite, got inf"),
    (ball_sym_diff_bound, (0.1, [0.5, math.nan], 2), "delta must be positive and finite, got nan"),
    (ball_sym_diff_bound, (0.1, -0.5, 2), "delta must be positive and finite, got -0.5"),
]


@pytest.mark.parametrize("fn, args, message", _NON_FINITE)
def test_refuses_non_finite_or_out_of_range_input_with_its_own_message(fn, args, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        fn(*args)
