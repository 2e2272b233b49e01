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
    grid_series_views,
    grid_times,
)

_MIS_SIZED = "times must have one entry per observation"


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
        assert all(np.all(y.values == 0.5) and y.times.min() > 0.0 for y in batch)

    def test_every_array_a_caller_gives_is_copied(self):
        # numpy lets the owner of a read-only array make it writable again
        times = np.array([0.5, 1.0])
        times.setflags(write=False)
        values = np.array([[0.1], [0.2]])
        batch = SeriesBatch(ids=["a"], s=1, offsets=[0, 2], times=times, values=values)
        times.setflags(write=True)
        times[0] = 7.0  # would break the checked (0, 1] rule
        values[0] = -1.0
        assert batch.times.tolist() == [0.5, 1.0] and batch.values.tolist() == [[0.1], [0.2]]
        assert batch[0].times.tolist() == [0.5, 1.0]
        assert not (batch.times.flags.writeable or batch.values.flags.writeable or batch.offsets.flags.writeable)

    def test_the_package_path_keeps_its_arrays_and_checks_them(self):
        offsets, times, values = np.array([0, 2], dtype=np.intp), np.array([0.5, 1.0]), np.array([[0.1], [0.2]])
        batch = SeriesBatch._adopt(["a"], 1, offsets, times, values)
        for mine, theirs in ((batch.offsets, offsets), (batch.times, times), (batch.values, values)):
            assert np.shares_memory(mine, theirs)
        assert not (times.flags.writeable or values.flags.writeable or offsets.flags.writeable)
        with pytest.raises(ValueError, match="strictly increasing"):
            SeriesBatch._adopt(["a"], 1, np.array([0, 2]), np.array([0.5, 0.5]), np.zeros((2, 1)))
        with pytest.raises(ValueError, match=_MIS_SIZED):
            SeriesBatch._adopt(["a", "b"], 1, np.array([0, 2, 5]), np.array([0.5, 1.0]), np.zeros((5, 1)))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SeriesBatch.from_series([RawSeries.from_uniform("a", [0.1, 0.2])]),
            lambda: SeriesBatch(ids=["a"], s=1, offsets=[0, 2], times=[0.5, 1.0], values=[[0.1], [0.2]]),
        ],
        ids=["packed", "constructed"],
    )
    def test_no_array_of_a_batch_can_be_made_writable(self, make):
        b = make()
        arrays = [b.offsets, b.times, b.values, b[0].times, b[0].values]
        for a in arrays:
            with pytest.raises(ValueError, match="WRITEABLE"):
                a.setflags(write=True)
        assert b[0].times.tolist() == [0.5, 1.0]

    def test_no_array_of_a_series_can_be_made_writable(self):
        y = RawSeries.from_uniform("a", [0.1, 0.2])
        g = GridSeries(id="g", s=1, d=2, values=[[0.1], [0.2]])
        for a in (y.times, y.values, g.values):
            with pytest.raises(ValueError, match="WRITEABLE"):
                a.setflags(write=True)

    def test_refuses_a_repeated_id_naming_the_first(self):
        x12, x16, y = (RawSeries.from_uniform(sid, np.full(m, 0.5)) for sid, m in (("x", 12), ("x", 16), ("y", 8)))
        with pytest.raises(ValueError, match="^series id 'x' is repeated; every series needs its own id$"):
            SeriesBatch.from_series([y, x12, x16])
        with pytest.raises(ValueError, match="series id 'b' is repeated"):
            SeriesBatch(ids=list("abcba"), s=1, offsets=range(6), times=np.full(5, 0.5), values=np.zeros((5, 1)))

    def test_refuses_an_id_that_is_not_a_str_naming_the_first(self):
        times, values = np.full(4, 0.5), np.zeros((4, 1))
        with pytest.raises(ValueError, match="^series id 1 has type int, not str$"):
            SeriesBatch(ids=[1, 2], s=1, offsets=[0, 2, 4], times=times, values=values)
        with pytest.raises(ValueError, match=r"^series id b'b' has type bytes, not str$"):
            SeriesBatch._adopt(["a", b"b", None], 1, np.array([0, 1, 2, 4]), times.copy(), values.copy())
        with pytest.raises(ValueError, match="^series id None has type NoneType, not str$"):
            RawSeries(id=None, s=1, times=[0.5], values=[[0.0]])
        numpy_ids = SeriesBatch(ids=np.array(["a", "b"]), s=1, offsets=[0, 2, 4], times=[0.5, 1.0] * 2, values=values)
        assert numpy_ids.ids == ("a", "b")  # numpy's str_ is a str

    def test_names_the_first_empty_series(self):
        times, values = [0.2, 0.4, 0.6, 0.8], np.zeros((4, 1))
        with pytest.raises(ValueError, match="^series 'a' has no observations$"):
            SeriesBatch(ids=["a", "b"], s=1, offsets=[0, 0, 4], times=times, values=values)
        with pytest.raises(ValueError, match="^series 'b' has no observations$"):
            SeriesBatch(ids=["a", "b", "c", "d"], s=1, offsets=[0, 2, 2, 4, 4], times=times, values=values)
        with pytest.raises(ValueError, match="^offsets must not decrease$"):
            SeriesBatch(ids=["a", "b", "c"], s=1, offsets=[0, 3, 2, 4], times=times, values=values)
        with pytest.raises(ValueError, match="^times must be a nonempty 1-d array$"):
            RawSeries(id="a", s=1, times=[], values=np.zeros((0, 1)))

    def test_from_series_names_the_first_series_of_another_s(self):
        a, c = (RawSeries.from_uniform(sid, np.full(4, 0.5)) for sid in "ac")
        b, d = (RawSeries.from_uniform(sid, np.full((4, 2), 0.5)) for sid in "bd")
        with pytest.raises(ValueError, match="^series 'b' has s=2, but series 'a' has s=1$"):
            SeriesBatch.from_series([a, b, c, d])
        with pytest.raises(ValueError, match="^series 'a' has s=1, but series 'b' has s=2$"):
            SeriesBatch.from_series([b, a])

    def test_is_a_sequence_of_views(self):
        times = [0.5, 1.0, 0.2, 0.4, 0.6]
        batch = SeriesBatch(ids=["a", "b"], s=1, offsets=[0, 2, 5], times=times, values=np.zeros((5, 1)))
        views = list(batch)
        assert [y.id for y in views] == ["a", "b"] and [y.m for y in views] == [2, 3]
        for i, y in enumerate(views):
            for mine, theirs in ((batch[i], y), (batch[i - 2], y)):
                assert (mine.id, mine.s, mine.m) == (y.id, y.s, y.m)
                assert mine.times.tobytes() == y.times.tobytes() and mine.values.tobytes() == y.values.tobytes()
            assert np.shares_memory(y.values, batch.values) and np.shares_memory(y.times, batch.times)
        with pytest.raises(IndexError):
            batch[2]
        with pytest.raises(TypeError):  # a batch is indexed by position only
            batch[0:1]

    def test_checks_the_raw_series_rules(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SeriesBatch(ids=["a"], s=1, offsets=[0, 2], times=[0.5, 0.5], values=[[0.0], [0.0]])
        with pytest.raises(ValueError, match=r"^times must have one entry per observation: 2 for offsets\[-1\] = 1$"):
            SeriesBatch(ids=["a"], s=1, offsets=[0, 1], times=[0.5, 1.0], values=[[0.0], [0.0]])
        with pytest.raises(ValueError, match="one step per id"):
            SeriesBatch(ids=["a"], s=1, offsets=[1, 2], times=[0.5, 1.0], values=[[0.0], [0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_values_with_the_ingest_message(self, bad):
        values = np.full((5, 2), 0.5)
        values[3, 1] = bad
        message = rf"^non-finite value {bad} in column v2$"
        with pytest.raises(ValueError, match=message):
            SeriesBatch(ids=["a", "b"], s=2, offsets=[0, 2, 5], times=[0.5, 1.0, 0.2, 0.4, 0.6], values=values)
        with pytest.raises(ValueError, match=message):
            SeriesBatch._adopt(["a", "b"], 2, np.array([0, 2, 5]), np.array([0.5, 1.0, 0.2, 0.4, 0.6]), values)
        with pytest.raises(ValueError, match=message):
            RawSeries(id="b", s=2, times=[0.2, 0.4, 0.6], values=values[2:])


class TestSharedSchedule:
    """Series sampled at one schedule: the batch holds it once per observation, like any other times."""

    def _batch(self, schedule, offsets=(0, 3, 6), s=1, repeat=True):
        n = len(offsets) - 1
        times = np.tile(schedule, n) if repeat else schedule
        return SeriesBatch(
            ids=[f"s{i}" for i in range(n)], s=s, offsets=offsets, times=times, values=np.full((offsets[-1], s), 0.5)
        )

    @pytest.mark.parametrize(
        "times, offsets, message",
        [
            ([0.5, 1.0], (0, 2, 4), r"one entry per observation: 2 for offsets\[-1\] = 4$"),
            ([0.5, 1.0], (0, 2, 5), r"one entry per observation: 2 for offsets\[-1\] = 5$"),
            ([0.5, 1.0], (0, 3, 4), r"one entry per observation: 2 for offsets\[-1\] = 4$"),
            ([0.5, 0.4, 1.0], (0, 3, 6), "strictly increasing"),
            ([0.5, 0.5, 1.0], (0, 3, 6), "strictly increasing"),
            ([0.0, 0.5, 1.0], (0, 3, 6), r"lie in \(0, 1\]"),
            ([0.5, 0.75, 1.5], (0, 3, 6), r"lie in \(0, 1\]"),
            ([0.5, np.nan, 1.0], (0, 3, 6), r"lie in \(0, 1\]"),
        ],
        ids=["mis_sized", "unequal_steps", "short_step", "falling", "repeated", "zero", "past_one", "nan"],
    )
    def test_rejects_bad_schedules_with_the_raw_series_messages(self, times, offsets, message):
        if message.startswith("one entry per observation"):
            # the schedule once for every series, not once per observation: a ValueError, not an IndexError
            with pytest.raises(ValueError, match=message):
                self._batch(times, offsets, repeat=False)
            return
        with pytest.raises(ValueError, match=message):
            self._batch(times, offsets)
        with pytest.raises(ValueError, match=message):
            RawSeries(id="a", s=1, times=times, values=np.full((len(times), 1), 0.5))

    def test_rejects_values_that_do_not_cover_every_series(self):
        with pytest.raises(ValueError, match="values must have shape"):
            SeriesBatch(ids=["a", "b"], s=1, offsets=[0, 2, 4], times=[0.5, 1.0] * 2, values=np.full((2, 1), 0.5))


class TestGridSeries:
    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            GridSeries(id="g", s=1, d=2, values=[[0.5], [1.2]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_non_finite_and_out_of_range_values(self, bad):
        with pytest.raises(ValueError, match=r"^grid values must lie in \[0, 1\]$"):
            GridSeries(id="g", s=1, d=2, values=[[0.5], [bad]])
        grid = np.full((3, 2, 1), 0.5)
        grid[2, 1, 0] = bad
        with pytest.raises(ValueError, match=r"^grid values must lie in \[0, 1\]$"):
            grid_series_views(["a", "b", "c"], grid)

    def test_grid_series_views_keeps_a_read_only_copy(self):
        grid = np.full((2, 3, 1), 0.5)
        views = grid_series_views(["a", "b"], grid)
        grid[0] = 7.0  # the caller's array stays its own
        assert all(v.values.tolist() == [[0.5]] * 3 for v in views)
        owner = views[0].values.base
        assert not np.shares_memory(owner, grid) and not owner.flags.writeable
        assert all(v.values.base is owner for v in views)

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
