import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatclust.series import (
    GridSeries,
    RawSeries,
    SeriesBatch,
    flat_array,
    flatten,
    grid_times,
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

    def test_grid_times_rejects_zero(self):
        with pytest.raises(ValueError):
            grid_times(0)


class TestFlatten:
    def test_scalar_series_is_identity(self):
        vals = [[0.1], [0.7], [0.3]]
        assert np.array_equal(flatten(np.array([vals])), [[0.1, 0.7, 0.3]])

    def test_time_major_block_order(self):
        grid = np.array([[[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.6], [0.7, 0.8]]])
        assert np.array_equal(flatten(grid), [[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]])

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip(self, n, s, d, seed):
        grid = np.random.default_rng(seed).uniform(0, 1, size=(n, d, s))
        points = flatten(grid)
        assert points.shape == (n, s * d)
        # series i, slot j, component c sits at column j*s + c
        i, j, c = np.indices(grid.shape)
        assert np.array_equal(points[i, j * s + c], grid)

    def test_flatten_preserves_sup_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n, s, d = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
            a = rng.uniform(0, 1, (n, d, s))
            b = rng.uniform(0, 1, (n, d, s))
            grid_inf = np.max(np.abs(a - b), axis=(1, 2))
            flat_inf = np.max(np.abs(flatten(a) - flatten(b)), axis=1)
            assert np.array_equal(grid_inf, flat_inf)

    def test_flat_array(self):
        assert flat_array([[0.1, 0.2], [0.3, 0.4]]).shape == (2, 2)
        assert flat_array(np.zeros(3)).shape == (1, 3)
        assert flat_array([]).shape == (0, 0)
