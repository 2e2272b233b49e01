"""Nadaraya-Watson smoothing with a left-side Epanechnikov kernel.

The kernel window at time t is [t - gamma, t]: only past samples enter the
estimate, so a right-continuous jump stops biasing the fit once the window
has moved past it. A symmetric Epanechnikov kernel never sheds that bias at
a jump; tests/oracles.py keeps one as a reference for comparison tests.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .series import GridSeries, RawSeries, SeriesBatch, grid_times

__all__ = [
    "EmptyWindowWarning",
    "kernel_le",
    "nw_weights",
    "smooth_at",
    "estimate_grid_series",
    "smooth_batch",
    "gamma_schedule",
]


class EmptyWindowWarning(UserWarning):
    """No samples fell inside [t - gamma, t]; the 0/0 convention returned 0."""


def _warn_empty(sid: str, t: float, gamma: float, stacklevel: int) -> None:
    """Warn that series sid has no samples in [t - gamma, t]; stacklevel counts from the caller."""
    warnings.warn(
        f"series {sid!r}: no samples in [{t - gamma:.6g}, {t:.6g}]",
        EmptyWindowWarning,
        stacklevel=stacklevel + 1,
    )


def _check_bandwidths(gammas) -> None:
    """Raise nw_weights' error for the first bandwidth that is not a positive finite number."""
    gammas = np.asarray(gammas)
    ok = (gammas > 0.0) & (gammas < math.inf)
    if not ok.all():
        raise ValueError(f"gamma must be a positive finite number, got {gammas.flat[np.argmin(ok)].item()!r}")


def kernel_le(u):
    """Left-side Epanechnikov kernel: 2 - 2u^2 on [-1, 0], zero elsewhere."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):  # u*u overflows only far outside the support, where np.where drops it
        out = np.where((u >= -1.0) & (u <= 0.0), 2.0 - 2.0 * u * u, 0.0)
    return out if out.ndim else float(out)


def nw_weights(t: float, times: np.ndarray, gamma: float) -> tuple[np.ndarray, bool]:
    """Kernel weights of each sample time for an estimate at t.

    Returns (weights, empty): weights are nonnegative, vanish outside
    [t - gamma, t], and sum to 1 unless no sample falls in the window, in
    which case all weights are zero and empty is True (0/0 := 0). gamma
    must be finite: at gamma = inf, (t_j - t)/gamma is +0.0 for a future
    sample too, which the left kernel's support would admit.
    """
    _check_bandwidths(gamma)
    times = np.asarray(times, dtype=float)
    # (t_j - t)/gamma lands in the kernel support [-1, 0] exactly when
    # t_j lies in the backward window [t - gamma, t]
    with np.errstate(over="ignore"):  # under a subnormal gamma; an overflowed quotient is outside the support
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
        _warn_empty(y.id, t, gamma, stacklevel=2)
        return np.zeros(y.s)
    return np.clip(w @ y.values, 0.0, 1.0)


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


# Observations per block of series: bounds smooth_batch's (rows, m) temporaries and the sampler's chunks.
_ROW_BLOCK = 1 << 14


def _rows_per_block(m: int) -> int:
    """Series of length m per block of about _ROW_BLOCK observations, and at least one."""
    return max(1, _ROW_BLOCK // m)


def _weight_rows(times: np.ndarray, bandwidths: np.ndarray, grid: np.ndarray):
    """Yield (t, W, empty) at each grid time t: one row of nw_weights per row of times and bandwidths.

    times is (rows, m) and bandwidths (rows, 1); a one-row pair serves
    every series that shares it. empty marks the rows with no sample in
    [t - gamma, t], whose weights are all zero, and is None where no row
    is empty.
    """
    for t in grid:
        with np.errstate(over="ignore"):  # as in nw_weights
            raw = kernel_le((times - t) / bandwidths)
        total = raw.sum(axis=1, keepdims=True)
        empty = total[:, 0] <= 0.0
        total[empty] = 1.0  # an empty window's zero weights stay zero
        yield t, raw / total, empty if empty.any() else None


def _smooth_rows(out, rows, block, weights, id_of, gammas, stacklevel: int) -> None:
    """Smooth the series rows (an index array or a slice), whose (k, m, s) values are block, into out[rows, j].

    weights yields (t, W, empty) per grid time, as _weight_rows does, with
    one row of W per series or one for all. `np.matmul(W[:, None, :],
    block)` is bit-identical to smooth_at's `w @ values` per series. An
    empty window gives a zero slot and one EmptyWindowWarning for series
    id_of(i) under gammas[i]; stacklevel counts from the caller, as in
    _warn_empty.
    """
    for j, (t, w, empty) in enumerate(weights):
        slots = np.matmul(w[:, None, :], block)[:, 0]
        if empty is not None:
            empty = np.broadcast_to(empty, slots.shape[:1])
            slots[empty] = 0.0  # not 0 @ values, which is -0.0 where values are negative
            for i in np.arange(out.shape[0])[rows][empty].tolist():
                _warn_empty(id_of(i), t, gammas[i], stacklevel + 1)
        out[rows, j] = slots


def smooth_batch(batch: SeriesBatch, d: int, gammas) -> np.ndarray:
    """Smooth every series of a batch at 1/d, ..., 1 into an (n, d, s) array.

    gammas is one bandwidth for all, or one per series. Series are grouped
    by length m alone, groups in the order of their first series, and each
    group is smoothed by _smooth_rows, the one kernel. When every series of
    a group has the same times and bandwidth, one weight row serves them
    all; otherwise rows are weighted in blocks of about _ROW_BLOCK
    observations, which bounds the temporaries. (A windowed
    np.add.reduceat, or one (d, m) weight matrix for all grid times, sums
    in another order and is off by a few ulp.) Requires m > d for every
    series. Empty windows give zero slots and one EmptyWindowWarning per
    series and slot; every coordinate is clipped into [0, 1].
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    n = len(batch)
    lengths = batch.m
    short = np.nonzero(lengths <= d)[0]
    if short.size:
        i = short[0]
        raise ValueError(f"series {batch.ids[i]!r} has m={int(lengths[i])} <= d={d}; need m > d")
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim > 1 or gammas.size not in (1, n):
        raise ValueError(f"gammas must be one bandwidth or one per series, got {gammas.size} for {n} series")
    gammas = np.broadcast_to(gammas, (n,))
    _check_bandwidths(gammas)
    out = np.zeros((n, d, batch.s))
    grid = grid_times(d)
    order = np.argsort(lengths, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1) if n else []
    for idx in sorted(groups, key=lambda g: g[0]):
        m = int(lengths[idx[0]])
        step = _rows_per_block(m)
        blocks = [idx[a : a + step] for a in range(0, idx.size, step)]
        first = _rows(batch.times, batch.offsets, idx[:1], m)
        one_row = np.all(gammas[idx] == gammas[idx[0]]) and all(
            np.all(_rows(batch.times, batch.offsets, rows, m) == first) for rows in blocks
        )
        for rows in [idx] if one_row else blocks:
            times = first if one_row else _rows(batch.times, batch.offsets, rows, m)
            bandwidths = gammas[rows[:1] if one_row else rows, None]
            block = _rows(batch.values, batch.offsets, rows, m)
            _smooth_rows(out, rows, block, _weight_rows(times, bandwidths, grid), batch.ids.__getitem__, gammas, 2)
    return np.clip(out, 0.0, 1.0, out=out)


def _smooth_chunks(out: np.ndarray, chunks, times: np.ndarray, gamma: float, id_of) -> np.ndarray:
    """Smooth chunks of series that share the sample times and bandwidth gamma into out, clipped.

    out is (n, d, s); chunks yields (start, stop, values), the (k, m, s)
    observations of series start..stop-1, and may reuse one buffer for
    them all. The d weight rows, one per grid time, depend only on times,
    gamma and the grid, so they are made once, before the first chunk is
    drawn, and every chunk is smoothed by _smooth_rows with them: out is
    smooth_batch of the whole batch, bit for bit, without the batch ever
    being held. Memory holds the d rows of m weights besides the chunks.
    Empty windows warn as in smooth_batch, naming series id_of(i), at the
    line that called this function's caller.
    """
    _check_bandwidths(gamma)
    grid = grid_times(out.shape[1])
    bandwidths = np.array([[gamma]], dtype=float)
    weights = list(_weight_rows(times[None], bandwidths, grid))
    gammas = np.broadcast_to(bandwidths[0, 0], out.shape[:1])
    for start, stop, values in chunks:
        _smooth_rows(out, slice(start, stop), values, weights, id_of, gammas, 3)
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

