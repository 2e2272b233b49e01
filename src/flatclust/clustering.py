"""Simplified DBSCAN and cluster-tree estimation over flattened points.

Core points are samples whose closed delta-ball contains at least k samples,
the point itself included. Clusters are connected components of the graph
linking core points within link_radius; everything else is NOISE. With the
default link_radius = 2*delta the components coincide exactly with the
connected components of the union of delta-balls around core points.

One neighbour pass lists the linked pairs once; one blocked union-find
then runs down a k-ladder, each level hooking only the pairs it adds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import flat_array
from .spatial import _PAIR_BLOCK, GridIndex, checked_points, sorted_line_counts

__all__ = [
    "NOISE",
    "Labeling",
    "TreeLevel",
    "ClusterTree",
    "ClusterRef",
    "core_points",
    "dbscan_cluster",
    "cluster_tree",
    "smallest_containing_cluster",
    "hartigan_disjoint",
]

NOISE = -1

@dataclass(frozen=True)
class Labeling:
    """Per-point cluster assignment: ids contiguous from 0, NOISE = -1."""

    assignments: np.ndarray
    k: int
    delta: float
    link_radius: float

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "assignments", a)

    @property
    def n_clusters(self) -> int:
        return int(self.assignments.max(initial=NOISE) + 1)

    def members(self, cluster_id: int) -> np.ndarray:
        return np.nonzero(self.assignments == cluster_id)[0]

    def partition(self) -> list[frozenset]:
        """The clusters as index sets, independent of id assignment."""
        return [frozenset(self.members(c).tolist()) for c in range(self.n_clusters)]


@dataclass(frozen=True)
class TreeLevel:
    k: int
    labeling: Labeling
    # parents[c] = id of the cluster at the next-smaller-k level containing c
    parents: tuple[int, ...]


@dataclass(frozen=True)
class ClusterTree:
    """Nested labelings over a descending ladder of k values."""

    ks: tuple[int, ...]
    levels: tuple[TreeLevel, ...]
    delta: float
    link_radius: float


@dataclass(frozen=True)
class ClusterRef:
    """One cluster of one tree level; that level's labeling.members(cluster_id) lists its points."""

    k: int
    cluster_id: int


def _roots_of_joins(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(smaller, larger) roots of the pairs (a, b) whose ends lie in different trees.

    Every pointer of parent points at its root, so one gather finds it.
    np.take casts int32 indices to intp in one pass, about twice as fast
    as indexing's buffered cast, for a transient block-sized copy.
    """
    a = np.take(parent, a)
    b = np.take(parent, b)
    small = np.minimum(a, b)
    large = np.maximum(a, b, out=b)
    del a
    joins = small != large
    return small[joins], large[joins]


def _ladder_roots(counts: np.ndarray, ks, src: np.ndarray, dst: np.ndarray):
    """Each level's roots, k descending: a core point's smallest component member, else the point itself.

    Level k links the pairs whose smaller end count is at least k, a set
    that grows as k falls, so one union-find (Tarjan 1975) runs down the
    whole ladder and each level hooks only the pairs that join at it. A
    pair joins at the later of its two ends' first core levels, computed
    once for all pairs, a byte or two each. The union-find hooks and jumps
    pointers as in Shiloach & Vishkin (1982), one block of _PAIR_BLOCK
    pairs at a time: the block's new pairs hook the larger root of their
    ends under the smaller, every pointer then jumps to its root, and the
    pairs that still join two roots go round again. Pointers only ever
    decrease, so each root is its component's smallest point. Beside the n
    pointers and the pair levels, a few block-sized arrays are all the
    memory a level takes, whatever the pair count; the pairs need no order.
    """
    # the first level at which each point is core, len(ks) if none
    first_level = len(ks) - np.searchsorted(np.asarray(ks)[::-1], counts, "right")
    first_level = first_level.astype(np.min_scalar_type(len(ks)))
    pair_level = np.empty(src.size, dtype=first_level.dtype)
    blocks = range(0, src.size, _PAIR_BLOCK)
    for start in blocks:
        block = slice(start, start + _PAIR_BLOCK)
        np.maximum(np.take(first_level, src[block]), np.take(first_level, dst[block]), out=pair_level[block])
    parent = np.arange(counts.size, dtype=src.dtype)
    for level in range(len(ks)):
        for start in blocks:
            block = slice(start, start + _PAIR_BLOCK)
            new = pair_level[block] == level
            small, large = _roots_of_joins(parent, src[block][new], dst[block][new])
            del new
            while small.size:
                np.minimum.at(parent, large, small)
                while True:
                    jumped = np.take(parent, parent)
                    if np.array_equal(jumped, parent):
                        break
                    parent = jumped
                small, large = _roots_of_joins(parent, small, large)
        yield parent.copy()


def _line_roots(order: np.ndarray, sorted_x: np.ndarray, counts: np.ndarray, ks, link: float):
    """_ladder_roots for points on a line, every level in one set of array passes.

    In one dimension a pair of core points is linked through the graph iff
    every consecutive core-to-core gap between them passes the same squared
    predicate, so runs of consecutive core points reproduce the generic
    components bit for bit. Runs nest as k falls: for sorted points
    fl(x_m - x_a) <= fl(x_b - x_a), so a point that turns core inside a
    gap splits it into no larger gaps. Every level's core points, in sorted
    order and one level after another, make one sequence; a run ends where
    the level changes or a gap fails, and its root is its smallest member.
    """
    level, pos = np.nonzero(counts[order] >= np.asarray(ks)[:, None])
    starts = np.ones(pos.size, dtype=bool)
    gaps = np.diff(sorted_x[pos])
    starts[1:] = (np.diff(level) != 0) | (gaps * gaps > link * link)
    starts = np.flatnonzero(starts)
    members = order[pos]
    roots = np.tile(np.arange(order.size), (len(ks), 1))
    roots[level, members] = np.repeat(np.minimum.reduceat(members, starts), np.diff(starts, append=pos.size))
    return iter(roots)


def _checked_link(ks, delta: float, link_radius: float | None = None) -> float:
    """Validate the parameters every clustering entry point shares.

    Returns the link radius, 2*delta when link_radius is None.
    """
    for k in ks:
        if isinstance(k, (bool, np.bool_)) or not (k >= 1 and float(k).is_integer()):
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    link = 2.0 * delta if link_radius is None else float(link_radius)
    if not link > 0:
        raise ValueError(f"link_radius must be positive, got {link!r}")
    return link


def core_points(points, k: int, delta: float) -> np.ndarray:
    """Indices whose closed delta-ball holds at least k samples (self counted)."""
    pts = flat_array(points)
    _checked_link((k,), delta)
    return np.nonzero(GridIndex(pts).counts_within_all(delta) >= k)[0]


def dbscan_cluster(points, k: int, delta: float, link_radius: float | None = None) -> Labeling:
    """Cluster the core points by link_radius connectivity; rest are NOISE."""
    return cluster_tree(points, delta, (k,), link_radius).levels[0].labeling


def _neighbour_pass(pts: np.ndarray, delta: float, link: float):
    """(counts, ladder_roots): every point's closed delta-ball count, and the roots of a k-ladder.

    Off a line, one pair query at the larger of link and delta yields both:
    the pairs within delta, each counted at both ends, give the counts, and
    the pairs within link are the graph. On a line, one sort yields both:
    each ball is a run of consecutive points, and the link components are
    runs of consecutive core points, which avoids the pair list that dense
    1-D samples make quadratic.

    Off a line, sq and the masks are released once the counts and links are
    taken, and ladder_roots keeps only the linked pairs, in pair_sq_dists'
    own order and index type: two int32 indices per pair while n fits in
    int32, two np.intp otherwise. Its union-find then adds n pointers, a
    byte or so per point for the levels, and a few block-sized arrays.
    """
    n = pts.shape[0]
    if pts.shape[1] == 1:
        order = np.argsort(pts[:, 0])
        sorted_x = pts[order, 0]
        counts = np.empty(n, dtype=np.intp)
        counts[order] = sorted_line_counts(sorted_x, delta)
        return counts, lambda ks: _line_roots(order, sorted_x, counts, ks, link)
    src, dst, sq = GridIndex(pts).pair_sq_dists(max(link, delta))
    near = sq <= delta * delta
    counts = 1 + np.bincount(src[near], minlength=n) + np.bincount(dst[near], minlength=n)
    del near
    linked = sq <= link * link
    del sq
    if not linked.all():  # all are at link >= delta, the default 2*delta among them
        src, dst = src[linked], dst[linked]
    del linked
    return counts, lambda ks: _ladder_roots(counts, ks, src, dst)


def cluster_tree(points, delta: float, ks, link_radius: float | None = None) -> ClusterTree:
    """One labeling per k, k strictly descending, with containment links.

    One neighbour pass and one union-find serve every level: core sets
    and their links only grow as k falls, so every cluster nests in one
    cluster of the next level. Each cluster's id ranks its root, its
    smallest member, and the root's label one level finer is its parent.
    """
    pts = flat_array(points)
    ks = tuple(ks)
    if len(ks) == 0:
        raise ValueError("ks must be a nonempty list of positive integers")
    link = _checked_link(ks, delta, link_radius)
    ks = tuple(int(k) for k in ks)
    if any(k1 <= k2 for k1, k2 in zip(ks[:-1], ks[1:])):
        raise ValueError(f"ks must be strictly descending, got {ks}")
    counts, ladder_roots = _neighbour_pass(checked_points(pts), delta, link)
    roots = np.stack(tuple(ladder_roots(ks)))
    core = counts >= np.asarray(ks)[:, None]
    # every level at once: a cluster's id ranks its root among its level's
    # roots, and its parent is its root's cluster one level finer
    level, first = np.nonzero(core & (roots == np.arange(counts.size)))
    ids = np.zeros(roots.shape, dtype=np.int64)
    ids[level, first] = np.arange(level.size) - np.searchsorted(level, level)
    assignments = np.take_along_axis(ids, roots, axis=1)
    del ids, roots
    assignments[~core] = NOISE
    assignments.setflags(write=False)
    finer = assignments[np.minimum(level + 1, len(ks) - 1), first]
    parents = [tuple(p.tolist()) for p in np.split(finer, np.searchsorted(level, np.arange(1, len(ks))))]
    parents[-1] = ()
    levels = tuple(
        TreeLevel(k=k, labeling=Labeling(labels, k=k, delta=delta, link_radius=link), parents=p)
        for k, labels, p in zip(ks, assignments, parents)
    )
    return ClusterTree(ks=ks, levels=levels, delta=delta, link_radius=link)


def smallest_containing_cluster(tree: ClusterTree, sample_indices) -> ClusterRef | None:
    """The cluster at the largest k whose members contain all given indices.

    Every index must be an integer point index in [0, n): a fraction is not
    rounded and a negative index does not count from the end.
    """
    idx = np.asarray(sample_indices)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("sample_indices must be a nonempty list of point indices")
    n = tree.levels[0].labeling.assignments.size
    ok = (idx >= 0) & (idx < n) if idx.dtype.kind in "iu" else np.zeros(idx.size, dtype=bool)
    if not ok.all():
        raise ValueError(f"sample index {idx[~ok].tolist()[0]!r} is not an integer in [0, {n})")
    for level in tree.levels:  # ks descend: the first hit is the smallest cluster
        labels = level.labeling.assignments[idx]
        first = labels[0]
        if first != NOISE and np.all(labels == first):
            return ClusterRef(k=level.k, cluster_id=int(first))
    return None


def hartigan_disjoint(tree: ClusterTree, a_indices, a_prime_indices) -> bool:
    """Whether the smallest containing clusters exist and share no points.

    The tree's clusters nest: the finer cluster lies inside one cluster of
    the coarser level, so it meets the coarser cluster exactly when that
    level labels one of the finer query's indices with the coarser id.
    """
    ref_a = smallest_containing_cluster(tree, a_indices)
    ref_b = smallest_containing_cluster(tree, a_prime_indices)
    if ref_a is None or ref_b is None:
        return False
    coarse, finer_query = (ref_a, a_prime_indices) if ref_a.k <= ref_b.k else (ref_b, a_indices)
    labels = tree.levels[tree.ks.index(coarse.k)].labeling.assignments
    return int(labels[np.asarray(finer_query)[0]]) != coarse.cluster_id
