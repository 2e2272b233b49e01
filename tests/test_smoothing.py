import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatclust
from flatclust import smoothing
from flatclust.series import RawSeries, SeriesBatch, grid_times
from flatclust.smoothing import (
    EmptyWindowWarning,
    estimate_grid_series,
    gamma_schedule,
    kernel_le,
    nw_weights,
    smooth_at,
    smooth_batch,
)
from oracles import kernel_symmetric, smooth_at_symmetric


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

    def test_far_outside_the_support_is_zero_without_overflow(self):
        u = np.array([-1e300, -1e200, 1e300, -1.0, -0.75, -0.5, -1e-300, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # u*u overflowed at |u| > 1.3e154
            out = kernel_le(u)
        assert out[:3].tolist() == [0.0, 0.0, 0.0]
        assert out[3:].tobytes() == (2.0 - 2.0 * u[3:] * u[3:]).tobytes()

    def test_symmetric_reference(self):
        assert kernel_symmetric(0.0) == pytest.approx(0.75)
        assert kernel_symmetric(1.0) == pytest.approx(0.0)
        assert kernel_symmetric(-0.5) == kernel_symmetric(0.5)


class TestNwWeights:
    def test_single_sample_at_t(self):
        w, empty = nw_weights(0.5, np.array([0.5]), gamma=0.1)
        assert not empty
        assert np.array_equal(w, [1.0])

    def test_subnormal_gamma_keeps_only_the_sample_at_t_without_a_warning(self):
        # (t_j - t) / 1e-320 overflows to -inf for every past sample, which lies outside the support
        y = RawSeries(id="a", s=2, times=np.array([0.25, 0.5, 1.0]), values=np.array([[0.1, 0.9], [0.2, 0.8], [0.3, 0.7]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w, empty = nw_weights(1.0, y.times, 1e-320)
            est = smooth_at(y, 1.0, 1e-320)
        assert not empty and w.tolist() == [0.0, 0.0, 1.0]
        assert est.tolist() == [0.3, 0.7]

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
    """One nw_weights and one `w @ values` per (series, grid time), and the warning text of each empty window."""
    out = np.zeros((len(raws), d, raws[0].s))
    empty_slots = []
    for i, (y, gamma) in enumerate(zip(raws, gammas)):
        for j, t in enumerate(grid_times(d)):
            w, empty = nw_weights(t, y.times, gamma)
            if empty:
                empty_slots.append(f"series {y.id!r}: no samples in [{t - gamma:.6g}, {t:.6g}]")
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


def _smoothed_with_warnings(batch, d, gammas):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = smooth_batch(batch, d, gammas)
    return got, [(w.category, str(w.message)) for w in caught]


class TestSmoothBatch:
    @pytest.mark.parametrize("s", [1, 3])
    @pytest.mark.parametrize("d", [1, 4, 7])
    def test_bit_identical_to_per_slot_loop_on_uniform_times(self, s, d):
        rng = np.random.default_rng(40 + s + d)
        m = 64
        raws = [RawSeries.from_uniform(f"u{i}", rng.normal(0.5, 0.4, size=(m, s))) for i in range(50)]
        gamma = gamma_schedule(m)
        want, empty = _per_slot_smoothing(raws, d, [gamma] * len(raws))
        assert not empty
        got = smooth_batch(SeriesBatch.from_series(raws), d, gamma)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("s", [1, 2])
    def test_bit_identical_on_irregular_times_with_empty_windows(self, s):
        rng = np.random.default_rng(41 + s)
        raws = _irregular_series(rng, 60, s)
        gammas = rng.choice([0.05, 0.1, 0.3], size=len(raws))
        want, empty = _per_slot_smoothing(raws, 6, gammas)
        assert empty
        with pytest.warns(EmptyWindowWarning) as caught:
            got = smooth_batch(SeriesBatch.from_series(raws), 6, gammas)
        assert sorted(str(w.message) for w in caught if issubclass(w.category, EmptyWindowWarning)) == sorted(empty)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("row_block", [None, 600])
    def test_bit_identical_on_irregular_times_past_numpys_pairwise_block(self, row_block, monkeypatch):
        # m = 257 and 301 sum rows past numpy's 128-element pairwise block, at odd 8-byte offsets;
        # interleaved lengths make each group's rows a gathered copy, and 600 splits them in pairs
        if row_block is not None:
            monkeypatch.setattr(smoothing, "_ROW_BLOCK", row_block)
        rng = np.random.default_rng(43)
        raws = []
        for i in range(10):
            kind = "holed" if i % 4 == 0 else "irregular"
            times = _schedule(rng, kind, 257 if i % 2 else 301)
            raws.append(RawSeries(id=f"b{i}", s=2, times=times, values=rng.normal(0.5, 0.6, size=(times.size, 2))))
        gammas = rng.choice([0.05, 0.1, 0.3], size=len(raws))
        want, empty = _per_slot_smoothing(raws, 7, gammas)
        assert empty
        got, caught = _smoothed_with_warnings(SeriesBatch.from_series(raws), 7, gammas)
        assert got.tobytes() == want.tobytes()
        assert sorted(message for _, message in caught) == sorted(empty)

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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0, -0.1])
    def test_names_the_first_bad_bandwidth_of_a_per_series_list(self, bad):
        batch = SeriesBatch.from_series([RawSeries.from_uniform(f"u{i}", np.full(10, 0.5)) for i in range(4)])
        with pytest.raises(ValueError, match=f"gamma must be a positive finite number, got {bad!r}$"):
            smooth_batch(batch, 3, [0.2, bad, 0.3, -5.0])

    @pytest.mark.parametrize("case", ["all_agree", "last_times_differ", "last_gamma_differs"])
    def test_one_weight_row_serves_a_group_only_when_every_row_agrees(self, case, monkeypatch):
        # blocks of two series, so the odd one out sits in the group's last block
        monkeypatch.setattr(smoothing, "_ROW_BLOCK", 2 * 12)
        rng = np.random.default_rng(48)
        schedules = [np.arange(1, 13) / 12] * 7
        gammas = np.full(7, 0.2)
        if case == "last_times_differ":
            schedules[-1] = np.sort(rng.choice(np.arange(1, 1001) / 1000, size=12, replace=False))
        elif case == "last_gamma_differs":
            gammas[-1] = 0.35
        raws = [
            RawSeries(id=f"r{i}", s=2, times=t, values=rng.normal(0.5, 0.6, size=(12, 2)))
            for i, t in enumerate(schedules)
        ]
        want, empty = _per_slot_smoothing(raws, 5, gammas)
        got, got_warnings = _smoothed_with_warnings(SeriesBatch.from_series(raws), 5, gammas)
        assert got.tobytes() == want.tobytes()
        assert sorted(message for _, message in got_warnings) == sorted(empty)

    def test_smooth_at_and_smooth_batch_warn_alike_at_the_callers_line(self):
        # no sample in [0.3, 0.5]; the window at t = 1 holds 0.9 and 1.0
        y = RawSeries(id="gap", s=1, times=np.array([0.1, 0.9, 1.0]), values=np.full((3, 1), 0.5))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            smooth_at(y, 0.5, 0.2)
            smooth_batch(SeriesBatch.from_series([y]), 2, 0.2)
        at, batch = caught
        assert at.category is batch.category is EmptyWindowWarning
        assert str(at.message) == str(batch.message) == "series 'gap': no samples in [0.3, 0.5]"
        assert at.filename == batch.filename == __file__


# every k/1000 outside (0.2, 0.6]: a hole that empties the windows of the grid times inside it
_HOLED = np.concatenate([np.arange(1, 201), np.arange(601, 1001)]) / 1000


def _schedule(rng, kind, m):
    if kind == "uniform":
        return np.arange(1, m + 1) / m
    pool = np.arange(1, 1001) / 1000 if kind == "irregular" else _HOLED
    return np.sort(rng.choice(pool, size=m, replace=False))


@st.composite
def _mixed_batches(draw):
    """(batch, the same series as RawSeries, d, per-series gammas) over every sampling design."""
    d = draw(st.integers(1, 5))
    s = draw(st.integers(1, 2))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["uniform", "irregular", "holed"])
    if draw(st.booleans()):
        gammas = np.array(draw(st.lists(st.sampled_from([0.05, 0.1, 0.3]), min_size=n, max_size=n)))
    else:
        gammas = np.full(n, draw(st.sampled_from([0.05, 0.1, 0.3])))
    ids = [f"x{i}" for i in range(n)]
    design = draw(st.sampled_from(["shared", "own", "runs", "alternating"]))
    if design == "shared":  # one schedule for every series, repeated per observation
        times = _schedule(rng, draw(kinds), draw(st.sampled_from([d + 1, 12, 20, 257])))
        values = rng.normal(0.5, 0.6, size=(n, times.size, s))
        batch = SeriesBatch(
            ids=ids, s=s, offsets=np.arange(n + 1) * times.size, times=np.tile(times, n), values=values.reshape(-1, s)
        )
        return batch, [RawSeries(id=i, s=s, times=times, values=v) for i, v in zip(ids, values)], d, gammas
    if design == "own":  # every series its own schedule
        schedules = [_schedule(rng, draw(kinds), draw(st.sampled_from([d + 1, d + 2, 12, 20, 257]))) for _ in ids]
    else:  # a few schedules, each stored per observation, in runs or taking turns
        m = draw(st.sampled_from([d + 1, 12, 20]))
        few = [_schedule(rng, draw(kinds), draw(st.sampled_from([m, m, d + 2]))) for _ in range(draw(st.integers(2, 3)))]
        turns = np.arange(n) % len(few)
        schedules = [few[k] for k in (np.sort(turns) if design == "runs" else turns)]
    raws = [RawSeries(id=sid, s=s, times=t, values=rng.normal(0.5, 0.6, size=(t.size, s))) for sid, t in zip(ids, schedules)]
    return SeriesBatch.from_series(raws), raws, d, gammas


@settings(max_examples=200, deadline=None)
@given(_mixed_batches(), st.integers(1, 60))
def test_smooth_batch_is_the_per_slot_loop_on_every_design(case, row_block):
    batch, raws, d, gammas = case
    want, want_warnings = _per_slot_smoothing(raws, d, gammas)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smoothing, "_ROW_BLOCK", row_block)  # groups cross block boundaries
        got, got_warnings = _smoothed_with_warnings(batch, d, gammas)
    assert got.tobytes() == want.tobytes()
    assert all(category is EmptyWindowWarning for category, _ in got_warnings)
    assert sorted(message for _, message in got_warnings) == sorted(want_warnings)


def test_smoothed_bits_do_not_depend_on_blas_threads_at_the_registry_sizes():
    # m = 4096 is the registry's longest series; from m = 20000 on, OpenBLAS splits w @ block across threads
    probe = (
        "import sys; from flatclust.smoothing import gamma_schedule, smooth_batch; "
        "from flatclust.synthetic import gap_family, sample_series_batch; "
        "batch, _, _ = sample_series_batch(gap_family(), 64, 4096, 5); "
        "sys.stdout.buffer.write(smooth_batch(batch, gap_family().d, gamma_schedule(4096)).tobytes())"
    )
    src = str(Path(flatclust.__file__).resolve().parent.parent)
    digests = set()
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        )
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, check=True, timeout=120)
        assert done.stdout
        digests.add(hashlib.sha256(done.stdout).hexdigest())
    assert len(digests) == 1
