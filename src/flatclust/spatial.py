"""Exact closed-ball queries over a fixed point set.

Every answer is decided by `sq_dists(...) <= r * r`, the one
squared-distance kernel, which the brute-force references in
tests/oracles.py use too, so indexed, batched and brute-force answers
agree bit for bit, closed balls and ties included (<=, never <). On a
line each ball is a run of the sorted points, whose ends a searchsorted
guess finds and the predicate checks, or bisects (_line_runs). Off a line
GridIndex sweeps bands, a fixed-radius sweep as in Bentley, Stanat &
Williams (1977): each point's band, all of the points or its run on one
sorted coordinate, holds its ball, and tiles of rows test the bands with
the predicate. No answer anywhere in the pipeline is approximate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._ufuncs import row_loops

__all__ = [
    "GridIndex",
    "sq_dists",
    "checked_points",
    "sorted_line_counts",
]

# Pair tests per tile of the sweep, and pairs per block of clustering's union-find.
_PAIR_BLOCK = 1 << 16

# Work, in coordinate differences (pair tests x dim), up to which the sweep
# tests every pair with no sort: each band is all of the points. Past it the
# sweep sorts, which costs O(n log n) before any test. A whole-band count
# took 0.9-1.4 ms at 2^20 on uniform points at sd 1-16 (2-core Xeon). The
# experiment registry's indexes, up to 2^19, sit inside; the benchmark's
# series_tree pair pass, 499,500 pairs at sd 8 (about 2^22), sits outside.
_SCAN_BUDGET = 1 << 20


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of a and b, broadcast.

    Coordinates are accumulated one at a time in index order, so every
    element is the same sequence of rounded operations whatever the operand
    shapes: `sq_dists(points, x)`, `sq_dists(p[:, None], p[None])` and
    `sq_dists(p[src], p[dst])` agree bit for bit on the same pair.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return _sum_of_squares(a[..., j] - b[..., j] for j in range(a.shape[-1]))


def _sum_of_squares(diffs, out: np.ndarray | None = None) -> np.ndarray:
    """diff_0**2 + diff_1**2 + ..., accumulated left to right: the one order every path uses.

    Each diff is squared in place. Given out, a buffer of the broadcast
    shape, the sum is written there; with diffs written into one reused
    buffer, a whole sum allocates nothing, and its bits are the same.
    """
    for j, diff in enumerate(diffs):
        if j == 0:
            out = np.multiply(diff, diff, out=out)
        else:
            diff *= diff
            out += diff
    return out


def _tile_sq(a_cols: np.ndarray, b_cols: np.ndarray, diff: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[t, c] = sq_dists(a[t], b[c]) from coordinate columns a_cols (dim, h) and b_cols (dim, w).

    The differences go through the (h, w) buffer diff, so a tile allocates
    nothing. fl(a - b) is -fl(b - a), so the order of the operands keeps
    every square, and every sum, bit for bit.
    """
    return _sum_of_squares((np.subtract(a[:, None], b, out=diff) for a, b in zip(a_cols, b_cols)), out=out)


def checked_points(points) -> np.ndarray:
    """points as a float (n, dim) array; an empty, misshapen or non-finite set is an error."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a nonempty (n, dim) array")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite (no NaN or inf coordinates)")
    return points


def _checked_radius(r) -> float:
    """r as a float; a negative or NaN radius is an error, not the ball of |r|."""
    r = float(r)
    if not r >= 0.0:
        raise ValueError(f"radius must be a nonnegative number, got {r!r}")
    return r


def _checked_queries(x, dim: int, single: bool = False) -> np.ndarray:
    """x as float query vectors of length dim; a misshapen or non-finite query is an error.

    A single query is one vector of shape (dim,); otherwise a (q, dim) array.
    """
    x = np.asarray(x, dtype=float)
    if (x.shape != (dim,)) if single else (x.ndim != 2 or x.shape[1] != dim):
        raise ValueError(f"x must consist of vectors of length {dim} but has shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("'x' must be finite, check for nan or inf values")
    return x


def _line_runs(xs: np.ndarray, q: np.ndarray, r: float, split: np.ndarray | None = None):
    """(first, stop): the closed r-ball of each q[i] is the run xs[first[i]:stop[i]] of an ascending xs.

    split[i] divides xs into the points below q[i] and those above it
    (xs[:split] <= q <= xs[split:]); searchsorted finds one when it is not
    given. On a line fl(x_j - q) is monotone in x_j, so the kernel's own
    predicate, (x_j - q)**2 <= r*r, holds for a prefix of the steps away
    from split on either side. np.searchsorted at q + r and q - r guesses
    where each prefix ends. A guess is kept where the predicate holds at
    its last step and fails one step further (or that step is off the end),
    which makes it exact. Only the rows whose guess fails go through a
    vectorized bisection.
    """
    r = _checked_radius(r)
    n = xs.size
    if split is None:
        split = np.searchsorted(xs, q, "left")

    def inside(at: np.ndarray, q: np.ndarray) -> np.ndarray:
        # an index off either end is clipped; callers mask what it answers
        diff = np.take(xs, at, mode="clip") - q
        return diff * diff <= r * r

    def reach(sign: int, room: np.ndarray, guess: np.ndarray) -> np.ndarray:
        # step t from the split is xs[base + sign * t]: xs[split + t] above it, xs[split - 1 - t] below
        base = split - (sign < 0)
        guess = np.clip(guess, 0, room)
        ok = (guess == 0) | inside(base + sign * (guess - 1), q)
        ok &= (guess == room) | ~inside(base + sign * guess, q)
        rows = np.flatnonzero(~ok)
        # the predicate holds at steps 0..lo-1 from rows, and fails past step hi - 1
        base, rows_q = base[rows], q[rows]
        lo, hi = np.zeros(rows.size, dtype=np.intp), room[rows]
        while np.any(open_ := lo < hi):
            mid = (lo + hi + 1) // 2
            within = inside(base + sign * (mid - 1), rows_q)
            lo = np.where(open_ & within, mid, lo)
            hi = np.where(open_ & ~within, mid - 1, hi)
        guess[rows] = lo
        return guess

    above = reach(1, n - split, np.searchsorted(xs, q + r, "right") - split)
    below = reach(-1, split, split - np.searchsorted(xs, q - r, "left"))
    return split - below, split + above


def sorted_line_counts(xs: np.ndarray, r: float) -> np.ndarray:
    """|B(xs[i], r)| for every point of an ascending 1-D array, self included.

    Each ball is a run of consecutive points found by _line_runs, split at
    the point itself, so the counts equal counts_within_all's bit for bit.
    """
    first, stop = _line_runs(xs, xs, r, np.arange(xs.size))
    return stop - first


class GridIndex:
    """Exact radius queries over a fixed point set.

    On a line counts_within reads each ball as a run of the sorted points
    (_line_runs). Off a line counts_within and pair_sq_dists sweep bands
    (_layout, _sweep), and a single query scans every point.
    """

    def __init__(self, points: np.ndarray):
        points = checked_points(points)
        self.points = points
        self._sorted = np.sort(points[:, 0]) if points.shape[1] == 1 else None

    def indices_within(self, x, r: float) -> np.ndarray:
        """Indices (ascending) of all points with |p - x| <= r."""
        r = _checked_radius(r)
        x = _checked_queries(x, self.points.shape[1], single=True)
        return np.flatnonzero(sq_dists(self.points, x) <= r * r)

    def count_within(self, x, r: float) -> int:
        return int(self.indices_within(x, r).size)

    def counts_within(self, queries: np.ndarray, r: float) -> np.ndarray:
        """Ball counts |B(q, r)| for every row q of queries.

        On a line each count is the length of the query's run. Otherwise the
        shorter of the queries and the points make the rows of the sweep's
        tiles, so every inner loop runs along the longer side, and each count
        sums a tile's row or column.
        """
        r = _checked_radius(r)
        queries = _checked_queries(np.atleast_2d(queries), self.points.shape[1])
        if self._sorted is not None:
            first, stop = _line_runs(self._sorted, queries[:, 0], r)
            return stop - first
        by_row = queries.shape[0] <= self.points.shape[0]
        layout = _layout(*((queries, self.points) if by_row else (self.points, queries)), r)
        counts = np.zeros(queries.shape[0], dtype=np.intp)
        for (lo, hi, c0, c1), keep, _ in _sweep(layout, r):
            counts[slice(lo, hi) if by_row else slice(c0, c1)] += np.count_nonzero(keep, axis=int(by_row))
        order = layout[0 if by_row else 1]
        if order is not None:
            counts[order] = counts.copy()
        return counts

    def counts_within_all(self, r: float) -> np.ndarray:
        """Neighbor counts |B(p_i, r)| for every indexed point (self included)."""
        return self.counts_within(self.points, r)

    def pair_sq_dists(self, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(src, dst, sq) of every index pair with |p_src - p_dst| <= r.

        Each pair is listed once, src < dst, ascending by src then dst within
        the scan budget and by position along the sort past it; no caller
        needs an order. src and dst are int32 while the point count fits,
        np.intp otherwise. sq holds each pair's sq_dists value, so any
        smaller radius r' selects its own pairs exactly by `sq <= r' * r'`.

        The tiles run twice: first to count the pairs within r, then, for
        the tiles that keep any, to write them at their offset in arrays of
        exactly that size. So besides coordinate-major points and the bands,
        the call holds its tile buffers and 4 + 4 + 8 bytes per kept pair
        while n fits in int32, nothing per pair tested.
        """
        r = _checked_radius(r)
        n = self.points.shape[0]
        index = np.int32 if n <= np.iinfo(np.int32).max else np.intp
        layout = _layout(self.points, self.points, r, later=True)
        order = None if layout[0] is None else layout[0].astype(index)

        def place(positions: np.ndarray, out: np.ndarray) -> None:  # the points at these positions of the order
            if order is None:
                np.copyto(out, positions, casting="unsafe")
            else:
                np.take(order, positions, out=out)

        kept = np.fromiter((np.count_nonzero(keep) for _, keep, _ in _sweep(layout, r, True)), np.intp)
        written = kept > 0
        end = np.cumsum(kept, out=kept)  # where each tile's pairs end in the output
        src, dst, out = (np.empty(end[-1] if end.size else 0, dtype=t) for t in (index, index, float))
        tiles = itertools.compress(itertools.count(), written)  # no array of tile numbers
        for i, ((lo, _, c0, _), keep, sq) in zip(tiles, _sweep(layout, r, True, written)):
            flat = np.flatnonzero(keep)
            start = end[i] - flat.size
            # "clip": every index is in range, and the default "raise" copies
            np.take(sq.ravel(), flat, out=out[start : end[i]], mode="clip")
            # position t * w + c of the tile is the pair (lo + t, c0 + c) along the sweep's order
            a, b, w = src[start : end[i]], dst[start : end[i]], keep.shape[1]
            t = flat // w
            t += lo
            place(t, a)
            t -= lo
            t *= w
            flat -= t
            flat += c0
            place(flat, b)
            if order is not None:  # the smaller index is src
                np.maximum(a, b, out=t)
                np.minimum(a, b, out=a)
                np.copyto(b, t, casting="unsafe")
            del flat, t  # before the next tile's
        return src, dst, out


def _layout(rows: np.ndarray, columns: np.ndarray, r: float, later: bool = False):
    """(row order, column order, a, b, first, stop): row i's band is columns first[i]..stop[i]-1 in the column order.

    Every column within r of a row is in its band. Within _SCAN_BUDGET each
    band is all of the columns, in their given orders (None). Past it rows
    and columns are sorted on the coordinate of the largest spread, s, and
    each band is the row's run on s (_line_runs). That is exact: sq_dists
    adds nonnegative squares and rounding is monotone, so a pair within r
    has fl(x_s - y_s)**2 <= r*r, the run's own predicate. With later, rows
    and columns are one point set and each band starts just after its row,
    so every pair is tested once. first and stop are nondecreasing. a and b
    are the rows and columns in their orders, coordinate major: b a copy, a
    a view where no order asks a copy (a row is read once a tile row).
    """
    n = columns.shape[0]
    first = np.arange(1, n) if later else np.broadcast_to(np.intp(0), rows.shape[:1])
    if (n * (n - 1) // 2 if later else first.size * n) * columns.shape[1] <= _SCAN_BUDGET:
        b = np.ascontiguousarray(columns.T)
        return None, None, b if later else rows.T, b, first, np.broadcast_to(np.intp(n), first.shape)
    spread = np.maximum(rows.max(axis=0), columns.max(axis=0)) - np.minimum(rows.min(axis=0), columns.min(axis=0))
    s = int(np.argmax(spread))
    column_order = np.argsort(columns[:, s])
    b = np.take(columns.T, column_order, axis=1)
    if later:
        return column_order, column_order, b, b, first, _line_runs(b[s], b[s], r, np.arange(n))[1][:-1]
    row_order = np.argsort(rows[:, s])
    a = np.take(rows.T, row_order, axis=1)
    return row_order, column_order, a, b, *_line_runs(b[s], a[s], r)


def _tiles(first: np.ndarray, stop: np.ndarray):
    """(lo, hi, c0, c1): rows lo..hi-1 and a column range [c0, c1) that holds each of their bands.

    Bands are nondecreasing, so a block's columns run from its first row's
    start to its last row's stop. A block of h rows spans at most
    _PAIR_BLOCK tests: h starts from the first row's band and halves until
    it fits, down to one row, which is cut into pieces of _PAIR_BLOCK
    columns if it is longer.
    """
    lo = 0
    while lo < first.size:
        h = min(first.size - lo, max(1, _PAIR_BLOCK // max(1, int(stop[lo] - first[lo]))))
        while h > 1 and h * int(stop[lo + h - 1] - first[lo]) > _PAIR_BLOCK:
            h //= 2
        c0, c1 = int(first[lo]), int(stop[lo + h - 1])
        step = max(1, _PAIR_BLOCK if h == 1 else c1 - c0)
        for piece in range(c0, c1, step):
            yield lo, lo + h, piece, min(c1, piece + step)
        lo += h


def _sweep(layout, r: float, later: bool = False, only=None):
    """((lo, hi, c0, c1), keep, sq) per tile of the layout's bands, or per tile where only is true.

    sq[t, c] = sq_dists(a[:, lo + t], b[:, c]) and keep = sq <= r*r for
    c0 <= c < c1, with the layout's coordinate-major rows a and columns b.
    With later, as in _layout, keep holds only the columns after each row.
    Every tile goes through _tile_sq into buffers the size of the largest
    tile, made once and reused, so a consumer is done with one tile before
    it takes the next.
    """
    _, _, a, b, first, stop = layout
    size = max(((hi - lo) * (c1 - c0) for lo, hi, c0, c1 in _tiles(first, stop)), default=0)
    diff, sq = np.empty((2, size))
    inside = np.empty(size, dtype=bool)
    # a tile of h > 1 rows has h - 1 <= w columns, so h <= isqrt(size) + 1
    upper = np.tri(math.isqrt(size) + 1, dtype=bool).T if later else None  # (t, c) with c >= t
    tiles = _tiles(first, stop)
    for lo, hi, c0, c1 in tiles if only is None else itertools.compress(tiles, only):
        shape = (hi - lo, c1 - c0)
        d, s, keep = (buf[: shape[0] * shape[1]].reshape(shape) for buf in (diff, sq, inside))
        with row_loops(shape[1]):  # each row's differences are one inner loop
            _tile_sq(a[:, lo:hi], b[:, c0:c1], d, s)
            np.less_equal(s, r * r, out=keep)
            if later and shape[0] > 1:  # a block of rows is one tile, starting just after its first row
                m = min(shape)
                keep[:, :m] &= upper[: shape[0], :m]
        yield (lo, hi, c0, c1), keep, s
