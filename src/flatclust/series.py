"""Data model for time series at three stages of the pipeline.

RawSeries holds the noisy observed sample of one series; GridSeries holds its
values at the d clustering timepoints t = 1/d, ..., 1. SeriesBatch holds many
raw series in columnar form, checked once per batch; the per-series objects
it hands out are read-only views into its arrays. `flatten` turns an
(n, d, s) grid array into n points of [0,1]^(s*d), time-major, the one place
that order is written down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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


def _as_readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _kept_readonly(a, dtype=float) -> np.ndarray:
    """a itself when it is a read-only array of dtype that owns its data, else a read-only copy.

    A read-only view is copied too: its base could still be written.
    """
    if isinstance(a, np.ndarray) and a.dtype == dtype and not a.flags.writeable and a.base is None:
        return a
    return _as_readonly(a, dtype)


def _unchecked(cls, **fields):
    """An instance of a frozen series type whose fields were checked elsewhere."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _check_raw(s: int, times: np.ndarray, values: np.ndarray, offsets: np.ndarray) -> None:
    """The RawSeries rules, for one series or every series of a batch at once.

    Series i owns rows offsets[i]:offsets[i+1] of times and values.
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
    if values.shape != (times.size, s):
        raise ValueError(f"values must have shape (m, s) = ({times.size}, {s}), got {values.shape}")


@dataclass(frozen=True)
class RawSeries:
    """One noisy multivariate time sample: m observations of an s-dim path.

    Times must be strictly increasing and lie in (0, 1]. Values may leave
    [0, 1]; observation noise is allowed to push them out.
    """

    id: str
    s: int
    times: np.ndarray
    values: np.ndarray
    m: int = field(init=False)

    def __post_init__(self):
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
class SeriesBatch:
    """n raw series in columnar form: series i owns rows offsets[i]:offsets[i+1].

    times has shape (N,) and values (N, s), N = offsets[-1]. Every RawSeries
    rule is checked once for the whole batch, with the same messages. Arrays
    that are read-only and own their data are kept as they are; others are
    copied.
    """

    ids: tuple
    s: int
    offsets: np.ndarray
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ids = tuple(self.ids)
        offsets = _kept_readonly(self.offsets, np.intp)
        times = _kept_readonly(self.times)
        values = _kept_readonly(self.values)
        if offsets.shape != (len(ids) + 1,) or offsets[0] != 0 or offsets[-1] != times.size:
            raise ValueError("offsets must run from 0 to len(times), one step per id")
        _check_raw(self.s, times, values, offsets)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def m(self) -> np.ndarray:
        """Observation count of every series."""
        return np.diff(self.offsets)

    @classmethod
    def from_series(cls, series: Sequence[RawSeries], s: int | None = None) -> "SeriesBatch":
        """Pack raw series, in order, into one batch; s defaults to the first one's."""
        if s is None:
            if not series:
                raise ValueError("an empty batch needs its component count s")
            s = series[0].s
        offsets = np.zeros(len(series) + 1, dtype=np.intp)
        np.cumsum([y.m for y in series], out=offsets[1:])
        times = np.concatenate([y.times for y in series]) if series else np.empty(0)
        values = np.concatenate([y.values for y in series]) if series else np.empty((0, s))
        for a in (offsets, times, values):
            a.setflags(write=False)  # owned here, so the batch keeps them without a copy
        return cls(ids=tuple(y.id for y in series), s=s, offsets=offsets, times=times, values=values)

    def series(self) -> list[RawSeries]:
        """Every series as a RawSeries view into the batch arrays."""
        o = self.offsets.tolist()
        return [
            _unchecked(
                RawSeries, id=sid, s=self.s, times=self.times[a:b], values=self.values[a:b], m=b - a
            )
            for sid, a, b in zip(self.ids, o, o[1:])
        ]


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
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValueError("grid values must lie in [0, 1]")
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
    """GridSeries views of the rows of an (n, d, s) array, checked once as a whole."""
    grid = _as_readonly(grid)
    n, d, s = grid.shape
    if len(ids) != n:
        raise ValueError(f"need one id per grid row, got {len(ids)} ids for {n} rows")
    if np.any(grid < 0.0) or np.any(grid > 1.0):
        raise ValueError("grid values must lie in [0, 1]")
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
