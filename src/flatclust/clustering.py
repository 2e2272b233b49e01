"""Simplified DBSCAN and cluster-tree estimation over flattened points.

Core points are samples whose closed delta-ball contains at least k samples,
the point itself included. Clusters are connected components of the graph
linking core points within link_radius; everything else is NOISE. With the
default link_radius = 2*delta the components coincide exactly with the
connected components of the union of delta-balls around core points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _sparse_cc

from .series import flat_array
from .spatial import GridIndex, sq_dists

__all__ = [
    "NOISE",
    "Labeling",
    "TreeLevel",
    "ClusterTree",
    "ClusterRef",
    "core_points",
    "dbscan_cluster",
    "ball_union_components",
    "cluster_tree",
    "smallest_containing_cluster",
    "hartigan_disjoint",
    "components_bruteforce",
]

NOISE = -1

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

    def level_for_k(self, k: int) -> TreeLevel:
        return self.levels[self.ks.index(k)]


@dataclass(frozen=True)
class ClusterRef:
    """One cluster of one tree level, with its member index set."""

    k: int
    cluster_id: int
    members: frozenset


def _assignments_for_core(
    n: int, core: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Component labels on the core subgraph, ids ordered by smallest member."""
    assignments = np.full(n, NOISE, dtype=np.int64)
    if core.size == 0:
        return assignments
    is_core = np.zeros(n, dtype=bool)
    is_core[core] = True
    keep = is_core[src] & is_core[dst]
    graph = coo_matrix(
        (np.ones(int(keep.sum()), dtype=np.int8), (src[keep], dst[keep])), shape=(n, n)
    )
    _, labels = _sparse_cc(graph, directed=False)
    core_labels = labels[core]
    vals, first = np.unique(core_labels, return_index=True)
    rank = np.empty(vals.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(vals.size)
    assignments[core] = rank[np.searchsorted(vals, core_labels)]
    return assignments


def _assignments_1d(
    order: np.ndarray,
    sorted_x: np.ndarray,
    is_core: np.ndarray,
    link: float,
) -> np.ndarray:
    """Link components on a line: runs of consecutive core points.

    In one dimension a pair of core points is linked through the graph iff
    every consecutive core-to-core gap between them passes the same squared
    predicate, so runs reproduce the generic components bit for bit.
    """
    n = order.size
    assignments = np.full(n, NOISE, dtype=np.int64)
    core_sorted = is_core[order]
    core_pos = np.nonzero(core_sorted)[0]
    if core_pos.size == 0:
        return assignments
    x = sorted_x[core_pos]
    gaps = np.diff(x)
    boundary = gaps * gaps > link * link
    comp = np.concatenate([[0], np.cumsum(boundary)])
    original = order[core_pos]
    n_comp = int(comp[-1]) + 1
    mins = np.full(n_comp, n, dtype=np.int64)
    np.minimum.at(mins, comp, original)
    rank = np.empty(n_comp, dtype=np.int64)
    rank[np.argsort(mins, kind="stable")] = np.arange(n_comp)
    assignments[original] = rank[comp]
    return assignments


def _checked_link(ks, delta: float, link_radius: float | None = None) -> float:
    """Validate the parameters every clustering entry point shares.

    Returns the link radius, 2*delta when link_radius is None.
    """
    for k in ks:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    link = 2.0 * delta if link_radius is None else float(link_radius)
    if not link > 0:
        raise ValueError(f"link_radius must be positive, got {link!r}")
    return link


def _labelings(pts: np.ndarray, delta: float, ks, link: float) -> list[Labeling]:
    """One labeling per k from one index: counts once, link components per k.

    On a line the link components are runs of consecutive core points, which
    avoids the pair list that dense 1-D samples make quadratic.
    """
    index = GridIndex(pts)
    counts = index.counts_within_all(delta)
    if pts.shape[1] == 1:
        order = np.argsort(pts[:, 0], kind="stable")
        sorted_x = pts[order, 0]

        def assign(k):
            return _assignments_1d(order, sorted_x, counts >= k, link)

    else:
        src, dst = index.pairs_within(link)

        def assign(k):
            return _assignments_for_core(pts.shape[0], np.nonzero(counts >= k)[0], src, dst)

    return [Labeling(assignments=assign(k), k=k, delta=delta, link_radius=link) for k in ks]


def core_points(points, k: int, delta: float) -> np.ndarray:
    """Indices whose closed delta-ball holds at least k samples (self counted)."""
    pts = flat_array(points)
    _checked_link((k,), delta)
    return np.nonzero(GridIndex(pts).counts_within_all(delta) >= k)[0]


def dbscan_cluster(points, k: int, delta: float, link_radius: float | None = None) -> Labeling:
    """Cluster the core points by link_radius connectivity; rest are NOISE."""
    pts = flat_array(points)
    link = _checked_link((k,), delta, link_radius)
    return _labelings(pts, delta, (k,), link)[0]


def ball_union_components(core_pts, delta: float) -> list[frozenset]:
    """Partition core points by connectivity of the union of their delta-balls.

    Two closed delta-balls meet iff their centers are within 2*delta, so the
    partition comes from that pairwise predicate over all center pairs.
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


def cluster_tree(points, delta: float, ks, link_radius: float | None = None) -> ClusterTree:
    """One labeling per k, k strictly descending, with containment links.

    Neighbor counts and the link graph are computed once and shared by all
    levels; only the core set changes with k, and core sets grow as k falls.
    """
    pts = flat_array(points)
    ks = tuple(int(k) for k in ks)
    if len(ks) == 0:
        raise ValueError("ks must be a nonempty list of positive integers")
    if any(k1 <= k2 for k1, k2 in zip(ks[:-1], ks[1:])):
        raise ValueError(f"ks must be strictly descending, got {ks}")
    link = _checked_link(ks, delta, link_radius)
    labelings = _labelings(pts, delta, ks, link)
    levels = []
    for i, lab in enumerate(labelings):
        if i + 1 < len(labelings):
            finer = labelings[i + 1].assignments
            parents = []
            for c in range(lab.n_clusters):
                owners = np.unique(finer[lab.members(c)])
                if owners.size != 1 or owners[0] == NOISE:
                    raise AssertionError("cluster not nested in a single parent")
                parents.append(int(owners[0]))
            levels.append(TreeLevel(k=lab.k, labeling=lab, parents=tuple(parents)))
        else:
            levels.append(TreeLevel(k=lab.k, labeling=lab, parents=()))
    return ClusterTree(ks=ks, levels=tuple(levels), delta=delta, link_radius=link)


def smallest_containing_cluster(tree: ClusterTree, sample_indices) -> ClusterRef | None:
    """The cluster at the largest k whose members contain all given indices."""
    idx = np.asarray(sample_indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("sample_indices must be nonempty")
    for level in tree.levels:  # ks descend: the first hit is the smallest cluster
        labels = level.labeling.assignments[idx]
        first = labels[0]
        if first != NOISE and np.all(labels == first):
            return ClusterRef(
                k=level.k,
                cluster_id=int(first),
                members=frozenset(level.labeling.members(int(first)).tolist()),
            )
    return None


def hartigan_disjoint(tree: ClusterTree, a_indices, a_prime_indices) -> bool:
    """Whether the smallest containing clusters exist and share no points."""
    ref_a = smallest_containing_cluster(tree, a_indices)
    ref_b = smallest_containing_cluster(tree, a_prime_indices)
    if ref_a is None or ref_b is None:
        return False
    return not (ref_a.members & ref_b.members)


def components_bruteforce(points, k: int, delta: float, link_radius: float | None = None) -> Labeling:
    """O(n^2) oracle: full pairwise distance matrix plus naive union-find."""
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
