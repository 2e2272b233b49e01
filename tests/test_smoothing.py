import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatclust.series import RawSeries, SeriesBatch, grid_times
from flatclust.smoothing import (
    EmptyWindowWarning,
    _groups,
    estimate_grid_series,
    gamma_schedule,
    kernel_le,
    kernel_symmetric,
    nw_weights,
    smooth_at,
    smooth_at_symmetric,
    smooth_batch,
)


class TestKernel:
    @pytest.mark.parametrize(
        "u,expected",
        [(0.0, 2.0), (-1.0, 0.0), (0.5, 0.0), (-0.5, 1.5), (-1.0001, 0.0), (1e-12, 0.0)],
    )
    def test_pointwise(self, u, expected):
        assert kernel_le(u) == pytest.approx(expected, abs=1e-9)

    def test_vectorized(self):
        out = kernel_le(np.array([-2.0, -1.0, -0.5, 0.0, 0.5]))
        assert np.allclose(out, [0.0, 0.0, 1.5, 2.0, 0.0])

    def test_symmetric_reference(self):
        assert kernel_symmetric(0.0) == pytest.approx(0.75)
        assert kernel_symmetric(1.0) == pytest.approx(0.0)
        assert kernel_symmetric(-0.5) == kernel_symmetric(0.5)


class TestNwWeights:
    def test_single_sample_at_t(self):
        w, empty = nw_weights(0.5, np.array([0.5]), gamma=0.1)
        assert not empty
        assert np.array_equal(w, [1.0])

    def test_empty_window(self):
        w, empty = nw_weights(0.5, np.array([0.9, 1.0]), gamma=0.1)
        assert empty
        assert np.array_equal(w, [0.0, 0.0])

    def test_two_sample_values(self):
        # kernel values 2 and 1.5, normalized
        w, empty = nw_weights(0.6, np.array([0.55, 0.6]), gamma=0.1)
        assert not empty
        assert w[1] == pytest.approx(2.0 / 3.5, rel=1e-12)
        assert w[0] == pytest.approx(1.5 / 3.5, rel=1e-12)

    @pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, 0.0, -0.1])
    def test_rejects_a_gamma_that_is_not_positive_and_finite(self, gamma):
        # (t_j - t)/inf is +0.0 for a future sample, which the left kernel would admit
        with pytest.raises(ValueError, match=f"gamma must be a positive finite number, got {gamma!r}"):
            nw_weights(0.5, np.array([0.25, 0.5, 0.75, 1.0]), gamma)

    def test_infinite_gamma_is_refused_by_every_estimator(self):
        y = RawSeries.from_uniform("step", [0.0, 0.0, 1.0, 1.0])
        assert smooth_at(y, 0.5, 10.0)[0] == 0.0  # a wide finite window still sees only the past
        for estimate in (
            lambda: smooth_at(y, 0.5, math.inf),
            lambda: smooth_batch(SeriesBatch.from_series([y]), 2, math.inf),
            lambda: estimate_grid_series(y, 2, math.inf),
        ):
            with pytest.raises(ValueError, match="gamma must be a positive finite number, got inf"):
                estimate()

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.01, max_value=0.8),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_left_sided_and_normalized(self, t, gamma, m, seed):
        times = np.sort(np.random.default_rng(seed).uniform(1e-6, 1.0, size=m))
        times = np.unique(times)
        w, empty = nw_weights(t, times, gamma)
        outside = (times > t) | (times < t - gamma)
        assert np.all(w[outside] == 0.0)
        if empty:
            assert np.all(w == 0.0)
        else:
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w >= 0.0)


class TestSmoothAt:
    def test_constant_series_exact(self):
        y = RawSeries.from_uniform("c", np.full(50, 0.37))
        for t in (0.2, 0.5, 1.0):
            assert smooth_at(y, t, 0.1)[0] == pytest.approx(0.37, abs=1e-15)

    def test_linear_bias_within_gamma(self):
        # slope-1 function: the window average lags by at most gamma
        m = 200
        y = RawSeries.from_uniform("lin", np.arange(1, m + 1) / m)
        gamma = 0.08
        for t in grid_times(10):
            est = smooth_at(y, t, gamma)[0]
            assert abs(est - t) <= gamma + 1e-12

    def test_empty_window_warns_and_returns_zero(self):
        y = RawSeries(id="e", s=2, times=[0.9, 1.0], values=[[0.5, 0.5], [0.6, 0.6]])
        with pytest.warns(EmptyWindowWarning):
            out = smooth_at(y, 0.3, 0.05)
        assert np.array_equal(out, [0.0, 0.0])

    def test_clip(self):
        y = RawSeries(id="n", s=1, times=[0.5, 0.6], values=[[1.4], [1.2]])
        assert smooth_at(y, 0.6, 0.2)[0] == 1.0
        w, _ = nw_weights(0.6, y.times, 0.2)
        assert (w @ y.values)[0] > 1.0  # the weighted average itself leaves [0, 1]

    def test_rejects_time_outside_range(self):
        y = RawSeries.from_uniform("c", np.full(10, 0.5))
        with pytest.raises(ValueError):
            smooth_at(y, 0.0, 0.1)


class TestEstimateGridSeries:
    def test_noiseless_constant(self):
        y = RawSeries.from_uniform("c", np.full(40, 0.8))
        g = estimate_grid_series(y, 5, 0.1)
        assert np.allclose(g.values, 0.8, atol=1e-15)
        assert g.d == 5 and g.id == "c"

    def test_rejects_m_not_greater_than_d(self):
        y = RawSeries.from_uniform("c", np.full(5, 0.5))
        with pytest.raises(ValueError, match="m=5"):
            estimate_grid_series(y, 5, 0.5)

    def test_no_empty_windows_when_gamma_at_least_two_over_m(self):
        import warnings

        d = 6
        m = 2 * d
        y = RawSeries.from_uniform("c", np.full(m, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", EmptyWindowWarning)
            estimate_grid_series(y, d, 2.0 / m)

    def test_output_always_in_unit_box(self):
        rng = np.random.default_rng(3)
        y = RawSeries.from_uniform("n", 0.5 + 0.8 * rng.standard_normal(64))
        g = estimate_grid_series(y, 4, 0.2)
        assert np.all(g.values >= 0.0) and np.all(g.values <= 1.0)


class TestGammaSchedule:
    def test_frozen_value(self):
        assert gamma_schedule(3) == pytest.approx(0.7154419464242339, rel=1e-12)

    def test_floor_active_for_tiny_m(self):
        assert gamma_schedule(2) == 1.0  # 2/m beats (log m / m)^(1/3)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            gamma_schedule(1)

    def test_eventually_decreasing(self):
        values = [gamma_schedule(m) for m in (8, 16, 32, 64, 128, 256, 512)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_m_gamma_grows(self):
        products = [m * gamma_schedule(m) for m in (2**k for k in range(3, 16))]
        assert all(b > a for a, b in zip(products, products[1:]))
        assert products[-1] > 100


class TestJumpRecovery:
    def _step_series(self, m):
        times = np.arange(1, m + 1) / m
        return RawSeries(id="step", s=1, times=times, values=(times >= 0.6).astype(float)[:, None])

    def test_left_kernel_recovers_after_jump(self):
        estimates = []
        for m in (128, 512, 2048):
            y = self._step_series(m)
            estimates.append(smooth_at(y, 0.8, gamma_schedule(m))[0])
        assert all(b >= a for a, b in zip(estimates, estimates[1:]))
        assert estimates[-1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_kernel_stays_biased_at_jump(self):
        for m in (512, 2048, 8192):
            y = self._step_series(m)
            est = smooth_at_symmetric(y, 0.6, gamma_schedule(m))[0]
            assert 0.35 <= est <= 0.65


def _per_slot_smoothing(raws, d, gammas):
    """One nw_weights and one `w @ values` per (series, grid time); empty windows counted."""
    out = np.zeros((len(raws), d, raws[0].s))
    empty_slots = 0
    for i, (y, gamma) in enumerate(zip(raws, gammas)):
        for j, t in enumerate(grid_times(d)):
            w, empty = nw_weights(t, y.times, gamma)
            if empty:
                empty_slots += 1
            else:
                out[i, j] = np.clip(w @ y.values, 0.0, 1.0)
    return out, empty_slots


def _irregular_series(rng, n, s):
    out = []
    for i in range(n):
        m = int(rng.integers(16, 40))
        times = np.unique(rng.uniform(1e-3, 1.0, size=m))
        if i % 3 == 0:  # a shared schedule, so some series form groups
            times = np.arange(1, 25) / 24
        if i % 5 == 0:  # a hole before t = 0.5 empties some windows
            times = np.concatenate([times[times < 0.2], times[times > 0.55]])
        out.append(RawSeries(id=f"r{i}", s=s, times=times, values=rng.normal(0.5, 0.6, size=(times.size, s))))
    return out


def _hashed_groups(batch, gammas):
    """Every series keyed by (gamma, the bytes of its times), groups in first-appearance order: the reference.

    Each series' times are sliced from the batch arrays here, not read through the batch's own views.
    """
    o = batch.offsets.tolist()
    by_key = {}
    for i, gamma in enumerate(gammas.tolist()):
        times = batch.times[o[i] : o[i + 1]] if batch.times.size == o[-1] else batch.times
        by_key.setdefault((gamma, times.tobytes()), []).append(i)
    return [(members, times, gamma) for (gamma, times), members in by_key.items()]


def _shared_batch(rng, n, s, times):
    """n series that all share one schedule, stored once, and the same series as RawSeries."""
    values = rng.normal(0.5, 0.6, size=(n, times.size, s))
    ids = [f"s{i}" for i in range(n)]
    batch = SeriesBatch(
        ids=ids, s=s, offsets=np.arange(n + 1) * times.size, times=times, values=values.reshape(-1, s)
    )
    return batch, [RawSeries(id=sid, s=s, times=times, values=v) for sid, v in zip(ids, values)]


def _smoothed_with_warnings(batch, d, gammas):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = smooth_batch(batch, d, gammas)
    return got, [(w.category, str(w.message)) for w in caught]


class TestSmoothBatch:
    @pytest.mark.parametrize("case", ["shared", "a_b_a", "ragged", "gammas_differ"])
    def test_groups_are_the_hashed_groups(self, case):
        rng = np.random.default_rng(44)
        a, b = np.arange(1, 33) / 32, np.sort(rng.uniform(1e-3, 1.0, 32))
        gammas = np.full(9, 0.1)
        if case == "shared":
            schedules = [a] * 9
        elif case == "a_b_a":  # a repeat that does not follow its first run still joins it
            schedules = [a, a, b, b, b, a, b, a, a]
        elif case == "ragged":
            schedules = [a, a, b[:20], b[:20], a, b[:20], b[:31], a, b[:31]]
        else:
            schedules = [a] * 9
            gammas = np.array([0.1, 0.1, 0.2, 0.2, 0.1, 0.3, 0.1, 0.2, 0.2])
        raws = [RawSeries(id=f"g{i}", s=1, times=t, values=np.full((t.size, 1), 0.5)) for i, t in enumerate(schedules)]
        batch = SeriesBatch.from_series(raws)
        got = [(members.tolist(), times.tobytes(), gamma) for members, times, gamma in _groups(batch, gammas)]
        assert got == _hashed_groups(batch, gammas)
        assert len(got) == {"shared": 1, "a_b_a": 2, "ragged": 3, "gammas_differ": 3}[case]

    @pytest.mark.parametrize("s", [1, 3])
    @pytest.mark.parametrize("d", [1, 4, 7])
    def test_bit_identical_to_per_slot_loop_on_uniform_times(self, s, d):
        rng = np.random.default_rng(40 + s + d)
        m = 64
        raws = [RawSeries.from_uniform(f"u{i}", rng.normal(0.5, 0.4, size=(m, s))) for i in range(50)]
        gamma = gamma_schedule(m)
        want, empty = _per_slot_smoothing(raws, d, [gamma] * len(raws))
        assert empty == 0
        got = smooth_batch(SeriesBatch.from_series(raws), d, gamma)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("s", [1, 2])
    def test_bit_identical_on_irregular_times_with_empty_windows(self, s):
        rng = np.random.default_rng(41 + s)
        raws = _irregular_series(rng, 60, s)
        gammas = rng.choice([0.05, 0.1, 0.3], size=len(raws))
        want, empty = _per_slot_smoothing(raws, 6, gammas)
        assert empty > 0
        with pytest.warns(EmptyWindowWarning) as caught:
            got = smooth_batch(SeriesBatch.from_series(raws), 6, gammas)
        assert sum(issubclass(w.category, EmptyWindowWarning) for w in caught) == empty
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("noisy", [True, False])
    def test_estimate_grid_series_is_the_one_series_batch(self, noisy):
        # noisy values leave [0, 1], so the clip acts; otherwise it is a no-op
        rng = np.random.default_rng(43)
        raws = _irregular_series(rng, 12, 2)
        if not noisy:
            raws = [RawSeries(id=y.id, s=y.s, times=y.times, values=np.clip(y.values, 0.0, 1.0)) for y in raws]
        unclipped = []
        for y in raws:
            for t in grid_times(5):
                w, empty = nw_weights(t, y.times, 0.08)
                if not empty:
                    unclipped.append(w @ y.values)
        unclipped = np.asarray(unclipped)
        assert noisy == bool(np.any((unclipped < 0.0) | (unclipped > 1.0)))
        for y in raws:
            want, _ = _per_slot_smoothing([y], 5, [0.08])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptyWindowWarning)
                got = estimate_grid_series(y, 5, 0.08)
                per_slot = [smooth_at(y, t, 0.08) for t in grid_times(5)]
            assert np.array_equal(got.values, want[0])
            assert np.array_equal(got.values, per_slot)

    def test_rejects_short_series_and_bad_gamma(self):
        raws = [RawSeries.from_uniform("long", np.full(10, 0.5)), RawSeries.from_uniform("short", np.full(4, 0.5))]
        batch = SeriesBatch.from_series(raws)
        with pytest.raises(ValueError, match="'short' has m=4 <= d=4"):
            smooth_batch(batch, 4, 0.2)
        with pytest.raises(ValueError, match="gamma must be a positive finite number, got -0.1"):
            smooth_batch(batch, 3, [0.2, -0.1])

    def test_rejects_a_gamma_count_that_is_neither_one_nor_n(self):
        batch = SeriesBatch.from_series([RawSeries.from_uniform(f"u{i}", np.full(10, 0.5)) for i in range(4)])
        with pytest.raises(ValueError, match="gammas must be one bandwidth or one per series, got 2 for 4 series"):
            smooth_batch(batch, 3, [0.2, 0.3])
        assert np.array_equal(smooth_batch(batch, 3, [0.2]), smooth_batch(batch, 3, [0.2] * 4))

    @pytest.mark.parametrize("case", ["one_gamma", "runs", "all_differ"])
    def test_groups_of_a_shared_schedule_are_the_hashed_groups(self, case):
        batch, _ = _shared_batch(np.random.default_rng(45), 5, 1, np.arange(1, 17) / 16)
        gammas = {
            "one_gamma": np.full(5, 0.2),
            "runs": np.array([0.2, 0.2, 0.3, 0.3, 0.2]),
            "all_differ": np.array([0.5, 0.4, 0.3, 0.2, 0.1]),
        }[case]
        got = [(members.tolist(), times.tobytes(), gamma) for members, times, gamma in _groups(batch, gammas)]
        assert got == _hashed_groups(batch, gammas)
        assert len(got) == {"one_gamma": 1, "runs": 2, "all_differ": 5}[case]

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("case", ["one_gamma", "runs", "empty_window"])
    def test_shared_schedule_smooths_as_its_per_observation_batch(self, case, s):
        rng = np.random.default_rng(46 + s)
        times = np.arange(1, 41) / 40
        if case == "empty_window":  # a hole before t = 0.55 empties the windows at 1/3 and 1/2
            times = np.concatenate([times[times < 0.2], times[times > 0.55]])
        batch, raws = _shared_batch(rng, 5, s, times)
        gammas = np.array([0.1, 0.1, 0.25, 0.25, 0.1]) if case == "runs" else 0.1
        per_observation = SeriesBatch.from_series(raws)
        views = batch.series()
        assert [(y.times.tobytes(), y.values.tobytes()) for y in views] == [
            (y.times.tobytes(), y.values.tobytes()) for y in raws
        ]
        assert not per_observation._shared and batch._shared
        got, got_warnings = _smoothed_with_warnings(batch, 6, gammas)
        want, want_warnings = _smoothed_with_warnings(per_observation, 6, gammas)
        assert np.array_equal(got, want)
        assert got_warnings == want_warnings
        reference, empty = _per_slot_smoothing(raws, 6, np.broadcast_to(gammas, (5,)))
        assert np.array_equal(got, reference)
        assert len(got_warnings) == empty
        assert (empty > 0) == (case == "empty_window")
        assert all(category is EmptyWindowWarning for category, _ in got_warnings)
