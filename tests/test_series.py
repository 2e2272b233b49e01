import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatclust.series import (
    FlatPoint,
    GridSeries,
    RawSeries,
    SeriesBatch,
    flat_array,
    flatten,
    grid_sup_distance,
    grid_times,
    unflatten,
)


class TestRawSeries:
    def test_basic_construction(self):
        y = RawSeries(id="a", s=2, times=[0.25, 0.5, 1.0], values=[[0, 1], [2, -1], [0.5, 0.5]])
        assert y.m == 3
        assert y.values.shape == (3, 2)

    def test_values_may_leave_unit_interval(self):
        RawSeries(id="a", s=1, times=[0.5, 1.0], values=[[-0.3], [1.7]])

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            RawSeries(id="a", s=1, times=[0.5, 0.4], values=[[0.0], [0.1]])

    def test_rejects_times_outside_unit_interval(self):
        with pytest.raises(ValueError):
            RawSeries(id="a", s=1, times=[0.0, 0.5], values=[[0.0], [0.1]])
        with pytest.raises(ValueError):
            RawSeries(id="a", s=1, times=[0.5, 1.5], values=[[0.0], [0.1]])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            RawSeries(id="a", s=2, times=[0.5, 1.0], values=[[0.0], [0.1]])

    def test_from_uniform(self):
        y = RawSeries.from_uniform("u", np.linspace(0, 1, 10))
        assert y.m == 10
        assert y.times[0] == pytest.approx(0.1)
        assert y.times[-1] == 1.0


class TestSeriesBatch:
    def test_read_only_view_of_writable_base_is_copied(self):
        base = np.full((6, 2), 0.5)
        values = base.reshape(6, 2)[:]
        values.setflags(write=False)
        times_base = np.array([0.5, 1.0, 0.25, 0.5, 0.75, 1.0])
        times = times_base[:]
        times.setflags(write=False)
        batch = SeriesBatch(ids=["a", "b"], s=2, offsets=[0, 2, 6], times=times, values=values)
        base[:] = -7.0
        times_base[:] = 0.0  # would break the checked (0, 1] rule
        assert np.all(batch.values == 0.5)
        assert batch.times.tolist() == [0.5, 1.0, 0.25, 0.5, 0.75, 1.0]
        assert all(np.all(y.values == 0.5) and y.times.min() > 0.0 for y in batch.series())

    def test_owned_read_only_arrays_are_kept_and_writable_ones_copied(self):
        times = np.array([0.5, 1.0])
        values = np.array([[0.1], [0.2]])
        values.setflags(write=False)
        batch = SeriesBatch(ids=["a"], s=1, offsets=[0, 2], times=times, values=values)
        assert batch.values is values
        assert batch.times is not times and not batch.times.flags.writeable
        times[0] = 0.7
        assert batch.times[0] == 0.5

    def test_checks_the_raw_series_rules(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SeriesBatch(ids=["a"], s=1, offsets=[0, 2], times=[0.5, 0.5], values=[[0.0], [0.0]])
        with pytest.raises(ValueError, match="one step per id"):
            SeriesBatch(ids=["a"], s=1, offsets=[0, 1], times=[0.5, 1.0], values=[[0.0], [0.0]])


class TestGridSeries:
    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            GridSeries(id="g", s=1, d=2, values=[[0.5], [1.2]])

    def test_times(self):
        g = GridSeries(id="g", s=1, d=4, values=[[0.1], [0.2], [0.3], [0.4]])
        assert np.allclose(g.times, [0.25, 0.5, 0.75, 1.0])


class TestFlatten:
    def test_scalar_series_is_identity(self):
        vals = [[0.1], [0.7], [0.3]]
        g = GridSeries(id="g", s=1, d=3, values=vals)
        assert np.array_equal(flatten(g).coords, [0.1, 0.7, 0.3])

    def test_time_major_block_order(self):
        g = GridSeries(id="g", s=2, d=2, values=[[0.1, 0.2], [0.3, 0.4]])
        assert np.array_equal(flatten(g).coords, [0.1, 0.2, 0.3, 0.4])

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip(self, s, d, seed):
        vals = np.random.default_rng(seed).uniform(0, 1, size=(d, s))
        g = GridSeries(id="g", s=s, d=d, values=vals)
        back = unflatten(flatten(g), s)
        assert back.s == s and back.d == d
        assert np.array_equal(back.values, vals)

    def test_flatten_preserves_sup_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s, d = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            a = GridSeries(id="a", s=s, d=d, values=rng.uniform(0, 1, (d, s)))
            b = GridSeries(id="b", s=s, d=d, values=rng.uniform(0, 1, (d, s)))
            grid_inf = np.max(np.abs(a.values - b.values))
            flat_inf = np.max(np.abs(flatten(a).coords - flatten(b).coords))
            assert grid_inf == flat_inf

    def test_unflatten_rejects_bad_split(self):
        p = FlatPoint(coords=[0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            unflatten(p, 2)

    def test_flat_point_range_check(self):
        with pytest.raises(ValueError):
            FlatPoint(coords=[0.1, 1.4])

    def test_flat_array(self):
        pts = [FlatPoint(coords=[0.1, 0.2]), FlatPoint(coords=[0.3, 0.4])]
        assert flat_array(pts).shape == (2, 2)
        assert flat_array(np.zeros(3)).shape == (1, 3)


class TestGridSupDistance:
    def test_equal_functions(self):
        f = lambda t: [math.sin(t)]
        assert grid_sup_distance(f, f, 7) == 0.0

    def test_constant_difference(self):
        c = np.array([0.3, -0.4])
        f = lambda t: np.array([t, t * t])
        g = lambda t: f(t) + c
        for d in (1, 3, 10):
            assert grid_sup_distance(f, g, d) == pytest.approx(0.5, rel=1e-12)

    def test_linear_vs_zero_peaks_at_endpoint(self):
        f = lambda t: [t]
        zero = lambda t: [0.0]
        for d in (1, 2, 5, 100):
            assert grid_sup_distance(f, zero, d) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_zero_d(self):
        with pytest.raises(ValueError):
            grid_sup_distance(lambda t: [t], lambda t: [0.0], 0)

    def test_grid_sup_bounded_by_dense_sup_and_converges(self):
        f = lambda t: [math.sin(2 * math.pi * t)]
        zero = lambda t: [0.0]
        dense = np.arange(1, 10_001) / 10_000
        dense_sup = max(abs(math.sin(2 * math.pi * t)) for t in dense)
        values = []
        for k in range(1, 13):
            d = 2**k
            m_d = grid_sup_distance(f, zero, d)
            assert m_d <= dense_sup + 1e-12
            values.append(m_d)
        assert abs(values[-1] - dense_sup) < 1e-4

    def test_grid_times_rejects_zero(self):
        with pytest.raises(ValueError):
            grid_times(0)
