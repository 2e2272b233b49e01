"""Nadaraya-Watson smoothing with a left-side Epanechnikov kernel.

The kernel window at time t is [t - gamma, t]: only past samples enter the
estimate, so a right-continuous jump stops biasing the fit once the window
has moved past it. A symmetric Epanechnikov kernel never sheds that bias at
a jump and is kept here only as a reference for comparison tests.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .series import GridSeries, RawSeries, SeriesBatch, grid_times

__all__ = [
    "EmptyWindowWarning",
    "kernel_le",
    "kernel_symmetric",
    "nw_weights",
    "smooth_at",
    "smooth_at_symmetric",
    "estimate_grid_series",
    "smooth_batch",
    "gamma_schedule",
]


class EmptyWindowWarning(UserWarning):
    """No samples fell inside [t - gamma, t]; the 0/0 convention returned 0."""


def kernel_le(u):
    """Left-side Epanechnikov kernel: 2 - 2u^2 on [-1, 0], zero elsewhere."""
    u = np.asarray(u, dtype=float)
    out = np.where((u >= -1.0) & (u <= 0.0), 2.0 - 2.0 * u * u, 0.0)
    return out if out.ndim else float(out)


def kernel_symmetric(u):
    """Symmetric Epanechnikov kernel 0.75(1 - u^2) on [-1, 1]; a reference for tests only."""
    u = np.asarray(u, dtype=float)
    out = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    return out if out.ndim else float(out)


def nw_weights(t: float, times: np.ndarray, gamma: float) -> tuple[np.ndarray, bool]:
    """Kernel weights of each sample time for an estimate at t.

    Returns (weights, empty): weights are nonnegative, vanish outside
    [t - gamma, t], and sum to 1 unless no sample falls in the window, in
    which case all weights are zero and empty is True (0/0 := 0).
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    times = np.asarray(times, dtype=float)
    # (t_j - t)/gamma lands in the kernel support [-1, 0] exactly when
    # t_j lies in the backward window [t - gamma, t]
    raw = kernel_le((times - t) / gamma)
    total = raw.sum()
    if total <= 0.0:
        return np.zeros_like(raw), True
    return raw / total, False


def smooth_at(y: RawSeries, t: float, gamma: float) -> np.ndarray:
    """Weighted average of the observations in the window [t - gamma, t], clipped into [0, 1].

    Reference for one series at one time: the pipeline runs smooth_batch,
    which tests hold equal to this bit for bit. With an empty window the
    estimate is the zero vector and EmptyWindowWarning is raised.
    """
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t!r}")
    w, empty = nw_weights(t, y.times, gamma)
    if empty:
        warnings.warn(
            f"series {y.id!r}: no samples in [{t - gamma:.6g}, {t:.6g}]",
            EmptyWindowWarning,
            stacklevel=2,
        )
        return np.zeros(y.s)
    return np.clip(w @ y.values, 0.0, 1.0)


def smooth_at_symmetric(y: RawSeries, t: float, gamma: float) -> np.ndarray:
    """Reference estimator with the two-sided kernel, which tests compare the left kernel against.

    Not used in the pipeline.
    """
    raw = kernel_symmetric((t - y.times) / gamma)
    total = raw.sum()
    if total <= 0.0:
        return np.zeros(y.s)
    return (raw / total) @ y.values


def estimate_grid_series(y: RawSeries, d: int, gamma: float) -> GridSeries:
    """Smooth a raw series at every clustering timepoint 1/d, ..., 1.

    The one-series case of smooth_batch. Requires m > d; empty windows
    produce zero slots and one warning per slot.
    """
    grid = smooth_batch(SeriesBatch.from_series([y]), d, gamma)
    return GridSeries(id=y.id, s=y.s, d=d, values=grid[0])


def _rows(a: np.ndarray, offsets: np.ndarray, idx: np.ndarray, m: int) -> np.ndarray:
    """Rows of the series idx, all of length m, stacked: a view when they are adjacent."""
    start = offsets[idx[0]]
    if idx[-1] - idx[0] == idx.size - 1:
        return a[start : start + idx.size * m].reshape(idx.size, m, *a.shape[1:])
    return a[offsets[idx, None] + np.arange(m)]


def _groups(batch: SeriesBatch, gammas: np.ndarray):
    """(series indices, sample times, gamma) for each set of series sharing both."""
    by_key: dict[tuple, list[int]] = {}
    o = batch.offsets.tolist()
    for i, (a, b, gamma) in enumerate(zip(o, o[1:], gammas.tolist())):
        # times lie in (0, 1], so equal bytes are exactly equal values
        by_key.setdefault((gamma, batch.times[a:b].tobytes()), []).append(i)
    for (gamma, _), members in by_key.items():
        i = members[0]
        yield np.array(members), batch.times[o[i] : o[i + 1]], gamma


def smooth_batch(batch: SeriesBatch, d: int, gammas) -> np.ndarray:
    """Smooth every series of a batch at 1/d, ..., 1 into an (n, d, s) array.

    gammas is one bandwidth per series, or one for all. Series that share
    their sample times and gamma are smoothed together: at each grid time
    their (n_g, m, s) block is reduced by one nw_weights vector, `w @ block`,
    which is bit-identical to smooth_at's `w @ values` per series. (A
    windowed np.add.reduceat, or one (d, m) weight matrix for all grid
    times, sums in another order and is off by a few ulp.) Requires m > d
    for every series. Empty windows give zero slots and one
    EmptyWindowWarning per series and slot; every coordinate is clipped
    into [0, 1].
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    n = len(batch)
    m = batch.m
    short = np.nonzero(m <= d)[0]
    if short.size:
        i = short[0]
        raise ValueError(f"series {batch.ids[i]!r} has m={int(m[i])} <= d={d}; need m > d")
    gammas = np.broadcast_to(np.asarray(gammas, dtype=float), (n,))
    out = np.zeros((n, d, batch.s))
    for idx, times, gamma in _groups(batch, gammas):
        block = _rows(batch.values, batch.offsets, idx, times.size)
        for j, t in enumerate(grid_times(d)):
            w, empty = nw_weights(t, times, gamma)
            if empty:
                for i in idx:
                    warnings.warn(
                        f"series {batch.ids[i]!r}: no samples in [{t - gamma:.6g}, {t:.6g}]",
                        EmptyWindowWarning,
                        stacklevel=2,
                    )
            else:
                out[idx, j] = w @ block
    return np.clip(out, 0.0, 1.0, out=out)


def gamma_schedule(m: int) -> float:
    """Bandwidth (log m / m)^(1/3), floored at 2/m.

    The floor guarantees a nonempty left window at every grid time under
    uniform sampling at j/m; the raw schedule can fall below the sample
    spacing for small m.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    return max((math.log(m) / m) ** (1.0 / 3.0), 2.0 / m)

