"""Data model for time series at three stages of the pipeline.

RawSeries holds the noisy observed sample of one series; GridSeries holds its
values at the d clustering timepoints t = 1/d, ..., 1. SeriesBatch holds many
raw series in columnar form, one time per observation, checked once per
batch. A batch is a sequence of RawSeries views into its arrays; every
array these types hold is a view of a read-only owner. `flatten` turns an
(n, d, s) grid array into n points of [0,1]^(s*d), time-major, the one
place that order is written down.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RawSeries",
    "SeriesBatch",
    "GridSeries",
    "grid_times",
    "flatten",
    "flat_array",
    "grid_series_views",
]


def _readonly_view(owner: np.ndarray) -> np.ndarray:
    """A view of owner, made read-only: numpy refuses write=True on a view of a read-only array."""
    owner.setflags(write=False)
    return owner.view()


def _as_readonly(a, dtype=float) -> np.ndarray:
    return _readonly_view(np.array(a, dtype=dtype))


def _unchecked(cls, **fields):
    """An instance of a frozen series type whose fields were checked elsewhere."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _check_raw(s: int, times: np.ndarray, values: np.ndarray, offsets: np.ndarray) -> None:
    """The RawSeries rules, for one series or every series of a batch at once.

    Series i owns rows offsets[i]:offsets[i+1] of times and of values.
    """
    if s < 1:
        raise ValueError(f"component count s must be >= 1, got {s}")
    if times.ndim != 1 or np.any(offsets[1:] <= offsets[:-1]):
        raise ValueError("times must be a nonempty 1-d array")
    if times.size and not (times.min() > 0.0 and times.max() <= 1.0):  # NaN fails too
        raise ValueError("times must lie in (0, 1]")
    rising = times[1:] > times[:-1]
    rising[offsets[1:-1] - 1] = True  # pairs that straddle two series
    if not np.all(rising):
        raise ValueError("times must be strictly increasing")
    if values.shape != (offsets[-1], s):
        raise ValueError(f"values must have shape (m, s) = ({offsets[-1]}, {s}), got {values.shape}")
    finite = np.isfinite(values)
    if not finite.all():
        row, col = np.unravel_index(np.argmin(finite), finite.shape)
        raise ValueError(f"non-finite value {float(values[row, col])} in column v{col + 1}")


def _check_ids(ids: tuple) -> None:
    """Refuse an id that is not a str, naming the first such id and its type."""
    for sid in ids:
        if not isinstance(sid, str):
            raise ValueError(f"series id {sid!r} has type {type(sid).__name__}, not str")


def _check_unit(values: np.ndarray) -> None:
    """Refuse grid values outside [0, 1]; NaN fails too."""
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError("grid values must lie in [0, 1]")


@dataclass(frozen=True)
class RawSeries:
    """One noisy multivariate time sample: m observations of an s-dim path.

    The id must be a str. Times must be strictly increasing and lie in
    (0, 1]. Values must be finite but may leave [0, 1]; observation noise is
    allowed to push them out.
    """

    id: str
    s: int
    times: np.ndarray
    values: np.ndarray
    m: int = field(init=False)

    def __post_init__(self):
        _check_ids((self.id,))
        times = _as_readonly(self.times)
        values = _as_readonly(self.values)
        _check_raw(self.s, times, values, np.array([0, times.size]))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "m", int(times.size))

    @classmethod
    def from_uniform(cls, id: str, values, s: int | None = None) -> "RawSeries":
        """Build a series sampled at j/m for j = 1..m."""
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        m = values.shape[0]
        return cls(id=id, s=s or values.shape[1], times=np.arange(1, m + 1) / m, values=values)


@dataclass(frozen=True, eq=False)
class SeriesBatch(Sequence):
    """n raw series in columnar form: series i owns rows offsets[i]:offsets[i+1] of values.

    values has shape (N, s), N = offsets[-1], and times holds one entry per
    observation, shape (N,): series i owns the same rows of times as of
    values. Every RawSeries rule is checked once for the whole batch, with
    the same messages except that an empty series is named, and ids must
    not repeat. The batch keeps read-only copies of the arrays it is given,
    so a later write to the caller's arrays cannot undo the check. batch[i]
    and iteration give RawSeries views into its arrays, unchecked.
    """

    ids: tuple
    s: int
    offsets: np.ndarray
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "offsets", _as_readonly(self.offsets, np.intp))
        object.__setattr__(self, "times", _as_readonly(self.times))
        object.__setattr__(self, "values", _as_readonly(self.values))
        self._check()

    @classmethod
    def _adopt(cls, ids, s: int, offsets: np.ndarray, times: np.ndarray, values: np.ndarray) -> "SeriesBatch":
        """A batch on arrays its caller in this package just made and no longer writes, kept without a copy.

        They are made read-only here, kept behind views, and checked as the
        constructor checks.
        """
        offsets, times, values = map(_readonly_view, (offsets, times, values))
        batch = _unchecked(cls, ids=tuple(ids), s=s, offsets=offsets, times=times, values=values)
        batch._check()
        return batch

    def _check(self) -> None:
        offsets, times = self.offsets, self.times
        if offsets.shape != (len(self.ids) + 1,) or offsets[0] != 0:
            raise ValueError("offsets must run from 0, one step per id")
        if times.size != offsets[-1]:
            raise ValueError(f"times must have one entry per observation: {times.size} for offsets[-1] = {offsets[-1]}")
        _check_ids(self.ids)
        steps = np.diff(offsets)
        if np.any(steps < 0):
            raise ValueError("offsets must not decrease")
        if not steps.all():
            raise ValueError(f"series {self.ids[int(np.argmin(steps))]!r} has no observations")
        _check_raw(self.s, times, self.values, offsets)
        if len(set(self.ids)) != len(self.ids):
            seen = set()
            repeated = next(sid for sid in self.ids if sid in seen or seen.add(sid))
            raise ValueError(f"series id {repeated!r} is repeated; every series needs its own id")

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> RawSeries:
        i = range(len(self))[i]  # negative indices too; IndexError past the end, TypeError on a slice
        return next(self._views(i, i + 1))

    def __iter__(self):
        return self._views(0, len(self))

    def _views(self, start: int, stop: int):
        o = self.offsets[start : stop + 1].tolist()
        return (
            _unchecked(RawSeries, id=sid, s=self.s, times=self.times[a:b], values=self.values[a:b], m=b - a)
            for sid, a, b in zip(self.ids[start:stop], o, o[1:])
        )

    @property
    def m(self) -> np.ndarray:
        """Observation count of every series."""
        return np.diff(self.offsets)

    @classmethod
    def from_series(cls, series: Sequence[RawSeries]) -> "SeriesBatch":
        """Pack one or more raw series, in order, into a batch with the first one's s.

        Every series must have that s; the first that does not is named.
        """
        first = series[0]
        odd = next((y for y in series if y.s != first.s), None)
        if odd is not None:
            raise ValueError(f"series {odd.id!r} has s={odd.s}, but series {first.id!r} has s={first.s}")
        offsets = np.cumsum([0, *(y.m for y in series)], dtype=np.intp)
        times = np.concatenate([y.times for y in series])
        values = np.concatenate([y.values for y in series])
        return cls._adopt([y.id for y in series], series[0].s, offsets, times, values)


@dataclass(frozen=True)
class GridSeries:
    """A series evaluated (or estimated) at the d clustering timepoints.

    Slot j holds the s-vector at t = (j+1)/d; every coordinate must lie in
    [0, 1].
    """

    id: str
    s: int
    d: int
    values: np.ndarray

    def __post_init__(self):
        if self.s < 1 or self.d < 1:
            raise ValueError(f"s and d must be >= 1, got s={self.s}, d={self.d}")
        values = _as_readonly(self.values)
        if values.shape != (self.d, self.s):
            raise ValueError(
                f"values must have shape (d, s) = ({self.d}, {self.s}), got {values.shape}"
            )
        _check_unit(values)
        object.__setattr__(self, "values", values)

    @property
    def times(self) -> np.ndarray:
        return grid_times(self.d)


def grid_times(d: int) -> np.ndarray:
    """The clustering grid 1/d, 2/d, ..., 1."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return np.arange(1, d + 1) / d


def grid_series_views(ids: Sequence[str], grid: np.ndarray) -> list[GridSeries]:
    """GridSeries views of the rows of a read-only copy of an (n, d, s) array, checked once as a whole."""
    return _adopt_grid(ids, np.array(grid, dtype=float))


def _adopt_grid(ids: Sequence[str], grid: np.ndarray) -> list[GridSeries]:
    """grid_series_views on an (n, d, s) float array its caller in this package just made and no longer writes.

    As in SeriesBatch._adopt, the array is kept without a copy, made
    read-only here, and checked once.
    """
    grid = _readonly_view(grid)
    n, d, s = grid.shape
    if len(ids) != n:
        raise ValueError(f"need one id per grid row, got {len(ids)} ids for {n} rows")
    _check_unit(grid)
    return [_unchecked(GridSeries, id=sid, s=s, d=d, values=row) for sid, row in zip(ids, grid)]


def flatten(grid: np.ndarray) -> np.ndarray:
    """Points of [0,1]^(s*d) from an (n, d, s) grid array, one row per series.

    Time-major: each row holds the s-block at t=1/d first, then t=2/d, ...
    """
    n, d, s = grid.shape
    return grid.reshape(n, d * s)


def flat_array(points) -> np.ndarray:
    """Flattened points as an (n, sd) float array; one 1-d point becomes one row."""
    out = np.asarray(points, dtype=float)
    if out.ndim == 1:
        return out[None, :] if out.size else out.reshape(0, 0)
    return out
