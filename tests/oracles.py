"""Brute-force references that the tests hold the pipeline equal to.

Each one decides its answer the slow, obvious way: a full pairwise
distance matrix and a naive union-find, a full scan per ball, one kd-tree
query per density estimate, a two-sided kernel. They import from
flatclust only the distance kernel, the parameter checks and the data
types (tests/test_exports.py keeps that list), so a refactor of the code
they check cannot change them along with it. kde_eval's count comes from
GridIndex.count_within, the kd-tree's single-query path, which no
pipeline query takes.
"""

from __future__ import annotations

import numpy as np

from flatclust.clustering import NOISE, Labeling, _checked_link
from flatclust.density import KdeModel
from flatclust.series import RawSeries, flat_array
from flatclust.spatial import _checked_radius, sq_dists

_BRUTE_GUARD = 5_000


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def ball_union_components(core_pts, delta: float) -> list[frozenset]:
    """Partition core points by connectivity of the union of their delta-balls.

    Two closed delta-balls meet iff their centers are within 2*delta, so the
    partition comes from that pairwise predicate over all center pairs. A
    reference for tests: with link_radius = 2*delta, dbscan_cluster's
    clusters must equal these components (acceptance c02).
    """
    pts = flat_array(core_pts)
    n = pts.shape[0]
    if n == 0:
        return []
    uf = _UnionFind(n)
    for i in range(n):
        touch = sq_dists(pts[i + 1 :], pts[i]) <= (2.0 * delta) ** 2
        for off in np.nonzero(touch)[0]:
            uf.union(i, int(i + 1 + off))
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return [frozenset(g) for g in sorted(groups.values(), key=min)]


def components_bruteforce(points, k: int, delta: float, link_radius: float | None = None) -> Labeling:
    """O(n^2) oracle: full pairwise distance matrix plus naive union-find.

    A reference for tests only: dbscan_cluster's labels must equal its labels
    bit for bit (acceptance c01).
    """
    pts = flat_array(points)
    n = pts.shape[0]
    if n > _BRUTE_GUARD:
        raise ValueError(f"brute-force oracle refused for n={n} > {_BRUTE_GUARD}")
    link = _checked_link((k,), delta, link_radius)
    if n == 0:
        return Labeling(np.empty(0, dtype=np.int64), k=k, delta=delta, link_radius=link)
    sq = sq_dists(pts[:, None, :], pts[None, :, :])
    counts = (sq <= delta * delta).sum(axis=1)
    core = np.nonzero(counts >= k)[0]
    is_core = np.zeros(n, dtype=bool)
    is_core[core] = True
    linked = (sq <= link * link) & np.triu(np.ones((n, n), dtype=bool), 1)
    linked &= is_core[:, None] & is_core[None, :]
    uf = _UnionFind(n)
    for i, j in zip(*np.nonzero(linked)):
        uf.union(int(i), int(j))
    assignments = np.full(n, NOISE, dtype=np.int64)
    root_to_id: dict[int, int] = {}
    for i in core:  # ascending, so a root is first seen at its smallest member
        root = uf.find(int(i))
        if root not in root_to_id:
            root_to_id[root] = len(root_to_id)
        assignments[i] = root_to_id[root]
    return Labeling(assignments=assignments, k=k, delta=delta, link_radius=link)


def kernel_symmetric(u):
    """Symmetric Epanechnikov kernel 0.75(1 - u^2) on [-1, 1]; a reference for tests only."""
    u = np.asarray(u, dtype=float)
    out = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    return out if out.ndim else float(out)


def smooth_at_symmetric(y: RawSeries, t: float, gamma: float) -> np.ndarray:
    """Reference estimator with the two-sided kernel, which tests compare the left kernel against.

    Not used in the pipeline.
    """
    raw = kernel_symmetric((t - y.times) / gamma)
    total = raw.sum()
    if total <= 0.0:
        return np.zeros(y.s)
    return (raw / total) @ y.values


def kde_eval(model: KdeModel, x) -> float:
    """Density estimate |B(x, delta) n sample| / (n delta^sd v_sd) at one point.

    Reference implementation: tests hold kde_eval_batch and the core-point
    sets of the clustering equal to it. Its count comes from the index's
    kd-tree, on a line and at any size too, so kde_eval_batch's sorted runs
    and exact scan are checked against an independent path.
    """
    return model.index.count_within(x, model.delta) / model.normalizer


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
