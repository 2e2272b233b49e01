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


def _ids_by_smallest_member(comp: np.ndarray, members: np.ndarray, n: int) -> np.ndarray:
    """Assignments of n points: members[i] joins component comp[i], rest NOISE.

    Component ids are renumbered from 0 in order of their smallest member.
    """
    assignments = np.full(n, NOISE, dtype=np.int64)
    vals, inverse = np.unique(comp, return_inverse=True)
    smallest = np.full(vals.size, n, dtype=np.int64)
    np.minimum.at(smallest, inverse, members)
    rank = np.empty(vals.size, dtype=np.int64)
    rank[np.argsort(smallest)] = np.arange(vals.size)
    assignments[members] = rank[inverse]
    return assignments


def _assignments_for_core(is_core: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component labels on the subgraph of link pairs between core points."""
    n = is_core.size
    keep = is_core[src] & is_core[dst]
    graph = coo_matrix(
        (np.ones(int(keep.sum()), dtype=np.int8), (src[keep], dst[keep])), shape=(n, n)
    )
    _, labels = _sparse_cc(graph, directed=False)
    core = np.nonzero(is_core)[0]
    return _ids_by_smallest_member(labels[core], core, n)


def _assignments_1d(order: np.ndarray, sorted_x: np.ndarray, is_core: np.ndarray, link: float) -> np.ndarray:
    """Link components on a line: runs of consecutive core points.

    In one dimension a pair of core points is linked through the graph iff
    every consecutive core-to-core gap between them passes the same squared
    predicate, so runs reproduce the generic components bit for bit.
    """
    core_pos = np.nonzero(is_core[order])[0]
    gaps = np.diff(sorted_x[core_pos])
    comp = np.zeros(core_pos.size, dtype=np.int64)
    comp[1:] = np.cumsum(gaps * gaps > link * link)
    return _ids_by_smallest_member(comp, order[core_pos], order.size)


def _parents(coarse: Labeling, finer: Labeling) -> tuple[int, ...]:
    """Each coarse cluster's label one level finer, which all its members share."""
    a, b = coarse.assignments, finer.assignments
    core = a != NOISE
    parents = np.full(coarse.n_clusters, NOISE, dtype=np.int64)
    parents[a[core]] = b[core]
    if np.any(parents == NOISE) or np.any(parents[a[core]] != b[core]):
        raise AssertionError("cluster not nested in a single parent")
    return tuple(parents.tolist())


def _checked_link(ks, delta: float, link_radius: float | None = None) -> float:
    """Validate the parameters every clustering entry point shares.

    Returns the link radius, 2*delta when link_radius is None.
    """
    for k in ks:
        if not (k >= 1 and float(k).is_integer()):
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


def cluster_tree(points, delta: float, ks, link_radius: float | None = None) -> ClusterTree:
    """One labeling per k, k strictly descending, with containment links.

    Neighbor counts and the link graph are computed once and shared by all
    levels; only the core set changes with k, and core sets grow as k falls.
    On a line the link components are runs of consecutive core points, which
    avoids the pair list that dense 1-D samples make quadratic.
    """
    pts = flat_array(points)
    ks = tuple(ks)
    if len(ks) == 0:
        raise ValueError("ks must be a nonempty list of positive integers")
    link = _checked_link(ks, delta, link_radius)
    ks = tuple(int(k) for k in ks)
    if any(k1 <= k2 for k1, k2 in zip(ks[:-1], ks[1:])):
        raise ValueError(f"ks must be strictly descending, got {ks}")
    index = GridIndex(pts)
    counts = index.counts_within_all(delta)
    if pts.shape[1] == 1:
        order = np.argsort(pts[:, 0], kind="stable")
        sorted_x = pts[order, 0]

        def assign(is_core):
            return _assignments_1d(order, sorted_x, is_core, link)

    else:
        src, dst = index.pairs_within(link)

        def assign(is_core):
            return _assignments_for_core(is_core, src, dst)

    labelings = [Labeling(assign(counts >= k), k=k, delta=delta, link_radius=link) for k in ks]
    parents = [_parents(lab, finer) for lab, finer in zip(labelings[:-1], labelings[1:])] + [()]
    levels = tuple(TreeLevel(k=lab.k, labeling=lab, parents=p) for lab, p in zip(labelings, parents))
    return ClusterTree(ks=ks, levels=levels, delta=delta, link_radius=link)


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
