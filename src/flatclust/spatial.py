"""Exact closed-ball queries over a fixed point set.

Every answer is decided by `sq_dists(...) <= r * r`, the one
squared-distance kernel, which the brute-force references in
tests/oracles.py use too, so indexed, batched and brute-force answers
agree bit for bit, closed balls and ties included (<=, never <). On a
line, one sort counts every ball: each ball is a run of the sorted
points, whose ends a searchsorted guess finds and the predicate checks,
or bisects (_line_runs), so neither
GridIndex.counts_within nor sorted_line_counts needs a tree there. A
small counts_within or pair_sq_dists tests every pair with the predicate,
tile by tile, so it neither builds a tree nor imports scipy.spatial.
Every other query goes to a kd-tree (Bentley 1975; `scipy.spatial.cKDTree`),
which only prefilters: it is asked for radii widened or narrowed by a
relative slack, and every point it cannot settle goes to the predicate.
Approximate neighbor answers are not allowed anywhere in the pipeline.
"""

from __future__ import annotations

import numpy as np

from ._ufuncs import row_loops

__all__ = [
    "GridIndex",
    "sq_dists",
    "checked_points",
    "sorted_line_counts",
]

# Relative radius slack of the kd prefilter. The tree's own distance
# arithmetic differs from sq_dists by a few ulps of the distance (about
# 1e-15 relative), far inside 1e-9, so a tree hit at r * (1 - SLACK) is
# surely within r and every point within r is a tree hit at r * (1 + SLACK).
SLACK = 1e-9

# Candidate pairs per block of pair_sq_dists' coordinate gathers, and
# elements per tile of the exact scan.
_PAIR_BLOCK = 1 << 16

# Work, in coordinate differences (pair tests x dim), up to which
# counts_within off a line and pair_sq_dists test every pair instead of
# asking the kd-tree, so they need neither the tree nor scipy.spatial's
# import (GridIndex._kdtree). A scan costs its work whatever the answer; the
# tree's cost grows with the answer. On uniform points at sd 1-16 (2-core
# Xeon, scipy 1.17, import excluded), at 2^20 a count scan took 0.9-1.4 ms
# against 4.0-5.6 ms for the tree built and asked, and a pair scan 2.5-7.4
# ms against 0.7-19 ms from sparse to dense answers; at 2^22 a pair scan
# took 9-35 ms. The experiment registry's indexes, up to 2^19, sit inside.
# The benchmark's series_tree pair pass, 499,500 pairs at sd 8 (about
# 2^22), sits outside: there the scan took 10.6 ms and the tree 6.0 ms.
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
    """x as float query vectors of length dim, refused as cKDTree refuses them when misshapen or non-finite.

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

    A kd-tree prefilters and sq_dists refilters. On a line counts_within
    reads each ball as a run of the sorted points (_line_runs) instead, and
    a counts_within off a line or a pair_sq_dists whose work is within
    _SCAN_BUDGET tests every pair with the predicate (_scan_counts,
    _scan_pairs). The first query that needs the tree builds it.
    """

    def __init__(self, points: np.ndarray):
        points = checked_points(points)
        self.points = points
        self._tree = None
        self._sorted = np.sort(points[:, 0]) if points.shape[1] == 1 else None

    def _scans(self, tests: int) -> bool:
        """Whether `tests` pair tests over the points' dimension are within _SCAN_BUDGET."""
        return tests * self.points.shape[1] <= _SCAN_BUDGET

    def _kdtree(self):
        """The kd-tree over the points, built by the first query that needs it."""
        if self._tree is None:
            # deferred: importing scipy.spatial takes about 0.35 s and 35 MB of resident
            # memory (2-core Xeon, scipy 1.17), which `import flatclust` does not pay
            from scipy.spatial import cKDTree

            self._tree = cKDTree(self.points)
        return self._tree

    def indices_within(self, x, r: float) -> np.ndarray:
        """Indices (ascending) of all points with |p - x| <= r."""
        r = _checked_radius(r)
        x = _checked_queries(x, self.points.shape[1], single=True)
        cand = np.asarray(self._kdtree().query_ball_point(x, r * (1.0 + SLACK)), dtype=np.intp)
        return np.sort(cand[sq_dists(self.points[cand], x) <= r * r])

    def count_within(self, x, r: float) -> int:
        return int(self.indices_within(x, r).size)

    def counts_within(self, queries: np.ndarray, r: float) -> np.ndarray:
        """Ball counts |B(q, r)| for every row q of queries.

        On a line each count is the length of the query's run. Within the
        scan budget every (query, point) pair is tested (_scan_counts).
        Otherwise the tree counts each ball at r * (1 - SLACK), all surely
        inside, and at r * (1 + SLACK), a superset; where the two agree that
        is the count. Only the rows that differ fetch their candidates for
        the exact refilter, so no full pair list is ever built.
        """
        r = _checked_radius(r)
        queries = _checked_queries(np.atleast_2d(queries), self.points.shape[1])
        if self._sorted is not None:
            first, stop = _line_runs(self._sorted, queries[:, 0], r)
            return stop - first
        if self._scans(queries.shape[0] * self.points.shape[0]):
            return self._scan_counts(queries, r)
        tree = self._kdtree()
        lo = tree.query_ball_point(queries, r * (1.0 - SLACK), return_length=True)
        hi = tree.query_ball_point(queries, r * (1.0 + SLACK), return_length=True)
        counts = np.asarray(lo, dtype=np.intp)
        rows = np.nonzero(lo != hi)[0]
        if rows.size:
            cand = tree.query_ball_point(queries[rows], r * (1.0 + SLACK))
            owner = np.repeat(rows, [len(c) for c in cand])
            idx = np.concatenate(cand).astype(np.intp)
            inside = sq_dists(self.points[idx], queries[owner]) <= r * r
            counts[rows] = np.bincount(owner[inside], minlength=queries.shape[0])[rows]
        return counts

    def _scan_counts(self, queries: np.ndarray, r: float) -> np.ndarray:
        """counts_within by testing every (query, point) pair with the sq_dists predicate.

        Tiles of at most _PAIR_BLOCK pairs go through _tile_sq into buffers
        made once, so besides a coordinate-major copy of the points the call
        holds its tile buffers and the counts.
        """
        n = self.points.shape[0]
        width = min(n, _PAIR_BLOCK)
        rows = max(1, min(queries.shape[0], _PAIR_BLOCK // width))
        columns = np.ascontiguousarray(self.points.T)
        diff, sq = np.empty((2, rows, width))
        inside = np.empty((rows, width), dtype=bool)
        counts = np.zeros(queries.shape[0], dtype=np.intp)
        with row_loops(width):  # each query's row of differences is one inner loop
            for lo in range(0, queries.shape[0], rows):
                block = queries[lo : lo + rows].T
                for start in range(0, n, width):
                    tile = (slice(0, block.shape[1]), slice(0, min(width, n - start)))
                    _tile_sq(block, columns[:, start : start + width], diff[tile], sq[tile])
                    np.less_equal(sq[tile], r * r, out=inside[tile])
                    counts[lo : lo + block.shape[1]] += np.count_nonzero(inside[tile], axis=1)
        return counts

    def counts_within_all(self, r: float) -> np.ndarray:
        """Neighbor counts |B(p_i, r)| for every indexed point (self included)."""
        return self.counts_within(self.points, r)

    def pair_sq_dists(self, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(src, dst, sq) of every index pair with |p_src - p_dst| <= r.

        Each pair is listed once, src < dst, in the tree's own order or, on
        the scan path, ascending by src then dst: no caller needs another.
        src and dst are int32 while the point count fits, np.intp otherwise.
        sq holds each pair's sq_dists value, so any smaller radius r'
        selects its own pairs exactly by `sq <= r' * r'`. Within the scan
        budget every pair is tested (_scan_pairs). Otherwise the tree is
        asked once, and the refilter gathers one coordinate column at a
        time: the same rounded operations as sq_dists(p[src], p[dst]),
        without gathering whole rows.

        Per candidate pair the refilter holds src and dst, 4 bytes each
        while n fits in int32, and sq, 8 bytes. The tree's own (P, 2) pair
        array goes once its columns are copied, and the coordinate gathers
        go through two buffers of _PAIR_BLOCK pairs that every block and
        coordinate reuses. When every candidate is within r, as all are but
        ties at the slack, the arrays are returned without a compacting copy.
        """
        r = _checked_radius(r)
        n = self.points.shape[0]
        index = np.int32 if n <= np.iinfo(np.int32).max else np.intp
        if self._scans(n * (n - 1) // 2):
            return self._scan_pairs(r, index)
        pairs = self._kdtree().query_pairs(r * (1.0 + SLACK), output_type="ndarray")
        src = pairs[:, 0].astype(index)
        dst = pairs[:, 1].astype(index)
        del pairs
        sq = np.empty(src.size)
        a, b = np.empty((2, min(src.size, _PAIR_BLOCK)))
        columns = np.ascontiguousarray(self.points.T)
        for lo in range(0, src.size, _PAIR_BLOCK):
            s, d = src[lo : lo + _PAIR_BLOCK], dst[lo : lo + _PAIR_BLOCK]
            ga, gb = a[: s.size], b[: s.size]
            # every index is in range, so "clip" changes nothing; the default "raise" buffers out in a copy
            diffs = (
                np.subtract(np.take(col, s, out=ga, mode="clip"), np.take(col, d, out=gb, mode="clip"), out=ga)
                for col in columns
            )
            _sum_of_squares(diffs, out=sq[lo : lo + s.size])
        keep = sq <= r * r
        if keep.all():
            return src, dst, sq
        src = src[keep]  # one copy at a time
        dst = dst[keep]
        return src, dst, sq[keep]

    def _scan_pairs(self, r: float, index) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """pair_sq_dists by testing every pair i < j with the sq_dists predicate.

        Row strips, each against every later point, go through _tile_sq in
        tiles of at most _PAIR_BLOCK pairs (one row, if longer), into
        buffers made once. The strips run twice: first to count the pairs
        within r, then to write them into arrays of exactly that size. So
        besides a coordinate-major copy of the points the call holds its
        tile buffers and the kept pairs, 4 + 4 + 8 bytes each while n fits
        in int32, and nothing per pair tested.
        """
        n = self.points.shape[0]
        rows = max(1, _PAIR_BLOCK // max(1, n - 1))
        columns = np.ascontiguousarray(self.points.T)
        diff, sq = np.empty((2, min(rows, n - 1) * (n - 1)))
        inside = np.empty(sq.size, dtype=bool)
        later = np.tri(min(rows, n - 1), dtype=bool).T  # (t, c) with c >= t

        def strips():
            for lo in range(0, n - 1, rows):
                # rows lo..lo+h-1 against points lo+1..n-1: (t, c) is the pair (lo + t, lo + 1 + c)
                h, w = min(rows, n - 1 - lo), n - 1 - lo
                d, s, keep = (buf[: h * w].reshape(h, w) for buf in (diff, sq, inside))
                _tile_sq(columns[:, lo : lo + h], columns[:, lo + 1 :], d, s)
                np.less_equal(s, r * r, out=keep)
                keep[:, :h] &= later[:h, :h]  # each pair once, j > i
                yield lo, s, keep

        with row_loops(n - 1):  # each row's differences to the later points are one inner loop
            size = sum(int(np.count_nonzero(keep)) for _, _, keep in strips())
            src, dst, out = np.empty(size, dtype=index), np.empty(size, dtype=index), np.empty(size)
            at = 0
            for lo, s, keep in strips():
                flat = np.flatnonzero(keep)  # t * w + c
                t = np.repeat(np.arange(keep.shape[0]), np.count_nonzero(keep, axis=1))
                stop = at + flat.size
                np.take(s.ravel(), flat, out=out[at:stop], mode="clip")  # "clip": see pair_sq_dists
                np.add(t, lo, out=src[at:stop], casting="unsafe")
                t *= keep.shape[1]
                flat -= t
                np.add(flat, lo + 1, out=dst[at:stop], casting="unsafe")
                at = stop
        return src, dst, out
