"""Exact closed-ball queries over a fixed point set.

A kd-tree (Bentley 1975; `scipy.spatial.cKDTree`) only prefilters: it is
asked for radii widened or narrowed by a relative slack, and every point it
cannot settle is decided by `sq_dists(...) <= r * r`, the one
squared-distance kernel shared with the brute-force paths. Indexed, batched
and brute-force answers therefore agree bit for bit, closed balls and ties
included (<=, never <). Approximate neighbor answers are not allowed
anywhere in the pipeline.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GridIndex", "sq_dists", "brute_indices_within", "brute_count_within"]

# Relative radius slack of the kd prefilter. The tree's own distance
# arithmetic differs from sq_dists by a few ulps of the distance (about
# 1e-15 relative), far inside 1e-9, so a tree hit at r * (1 - SLACK) is
# surely within r and every point within r is a tree hit at r * (1 + SLACK).
SLACK = 1e-9


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of a and b, broadcast.

    Coordinates are accumulated one at a time in index order, so every
    element is the same sequence of rounded operations whatever the operand
    shapes: `sq_dists(points, x)`, `sq_dists(p[:, None], p[None])` and
    `sq_dists(p[src], p[dst])` agree bit for bit on the same pair.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = a[..., 0] - b[..., 0]
    acc = diff * diff
    for j in range(1, a.shape[-1]):
        diff = a[..., j] - b[..., j]
        acc += diff * diff
    return acc


def _checked_radius(r) -> float:
    """r as a float; a negative or NaN radius is an error, not the ball of |r|."""
    r = float(r)
    if not r >= 0.0:
        raise ValueError(f"radius must be a nonnegative number, got {r!r}")
    return r


def brute_indices_within(points: np.ndarray, x, r: float) -> np.ndarray:
    """Indices of all points with |p - x| <= r, by full scan.

    The reference GridIndex.indices_within is tested against.
    """
    r = _checked_radius(r)
    return np.nonzero(sq_dists(points, x) <= r * r)[0]


def brute_count_within(points: np.ndarray, x, r: float) -> int:
    """|B(x, r)| by full scan: the reference GridIndex's counts are tested against."""
    r = _checked_radius(r)
    return int(np.count_nonzero(sq_dists(points, x) <= r * r))


class GridIndex:
    """Exact radius queries: a kd-tree prefilter plus the sq_dists refilter."""

    def __init__(self, points: np.ndarray):
        from scipy.spatial import cKDTree  # deferred: adds ~0.1 s to `import flatclust`

        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a nonempty (n, dim) array")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite (no NaN or inf coordinates)")
        self.points = points
        self.dim = points.shape[1]
        self._tree = cKDTree(points)

    def __len__(self) -> int:
        return self.points.shape[0]

    def indices_within(self, x, r: float) -> np.ndarray:
        """Indices (ascending) of all points with |p - x| <= r."""
        r = _checked_radius(r)
        x = np.asarray(x, dtype=float)
        cand = np.asarray(self._tree.query_ball_point(x, r * (1.0 + SLACK)), dtype=np.intp)
        return np.sort(cand[sq_dists(self.points[cand], x) <= r * r])

    def count_within(self, x, r: float) -> int:
        return int(self.indices_within(x, r).size)

    def counts_within(self, queries: np.ndarray, r: float) -> np.ndarray:
        """Ball counts |B(q, r)| for every row q of queries.

        The tree counts each ball at r * (1 - SLACK), all surely inside, and
        at r * (1 + SLACK), a superset; where the two agree that is the
        count. Only the rows that differ fetch their candidates for the exact
        refilter, so no full pair list is ever built.
        """
        r = _checked_radius(r)
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        lo = self._tree.query_ball_point(queries, r * (1.0 - SLACK), return_length=True)
        hi = self._tree.query_ball_point(queries, r * (1.0 + SLACK), return_length=True)
        counts = np.asarray(lo, dtype=np.intp)
        rows = np.nonzero(lo != hi)[0]
        if rows.size:
            cand = self._tree.query_ball_point(queries[rows], r * (1.0 + SLACK))
            owner = np.repeat(rows, [len(c) for c in cand])
            idx = np.concatenate(cand).astype(np.intp)
            inside = sq_dists(self.points[idx], queries[owner]) <= r * r
            counts[rows] = np.bincount(owner[inside], minlength=queries.shape[0])[rows]
        return counts

    def counts_within_all(self, r: float) -> np.ndarray:
        """Neighbor counts |B(p_i, r)| for every indexed point (self included)."""
        return self.counts_within(self.points, r)

    def pairs_within(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """All index pairs with |p_src - p_dst| <= r, src < dst, in no set order."""
        r = _checked_radius(r)
        src, dst = self._tree.query_pairs(r * (1.0 + SLACK), output_type="ndarray").T
        keep = sq_dists(self.points[src], self.points[dst]) <= r * r
        return src[keep], dst[keep]
