import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatclust import clustering, spatial
from flatclust.clustering import (
    NOISE,
    _ladder_roots,
    _neighbour_pass,
    cluster_tree,
    core_points,
    dbscan_cluster,
    hartigan_disjoint,
    smallest_containing_cluster,
)
from flatclust.density import KdeModel, lambda_of_k
from flatclust.spatial import GridIndex, sq_dists
from flatclust.synthetic import two_bump_mixture_1d
from oracles import ball_union_components, components_bruteforce, kde_eval


def _random_instance(rng, max_n=200, max_sd=4):
    n = int(rng.integers(2, max_n))
    sd = int(rng.integers(1, max_sd + 1))
    pts = rng.uniform(0, 1, size=(n, sd))
    k = int(rng.integers(1, max(2, n // 4)))
    delta = float(rng.uniform(0.02, 0.25))
    return pts, k, delta


class TestCorePoints:
    def test_k_one_everything_is_core(self):
        pts = np.random.default_rng(0).uniform(0, 1, size=(25, 2))
        assert np.array_equal(core_points(pts, 1, 0.01), np.arange(25))

    def test_isolated_point_excluded(self):
        pts = np.array([[0.0], [0.5], [0.51]])
        assert np.array_equal(core_points(pts, 2, 0.05), [1, 2])

    def test_chain_spaced_exactly_delta(self):
        delta = 0.1
        pts = np.array([[0.0], [delta], [2 * delta]])
        # closed balls include the neighbor at distance exactly delta
        assert np.array_equal(core_points(pts, 2, delta), [0, 1, 2])

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            core_points(np.zeros((3, 1)), 0, 0.1)


_PARAM_PTS = np.random.default_rng(35).uniform(0, 1, size=(20, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: cluster_tree(_PARAM_PTS, 0.06, [2, 1], link_radius=-1.0),
        lambda: cluster_tree(_PARAM_PTS, 0.06, [2, 1], link_radius=0.0),
        lambda: cluster_tree(_PARAM_PTS, -0.06, [2, 1]),
        lambda: cluster_tree(_PARAM_PTS, 0.06, [2, 0]),
        lambda: components_bruteforce(_PARAM_PTS, 2, -0.06),
        lambda: components_bruteforce(_PARAM_PTS, 2, 0.06, link_radius=-1.0),
        lambda: components_bruteforce(_PARAM_PTS, 2, 0.06, link_radius=0.0),
        lambda: dbscan_cluster(_PARAM_PTS, 2, 0.06, link_radius=-1.0),
        lambda: core_points(_PARAM_PTS, 2, float("nan")),
    ],
    ids=[
        "tree-negative-link",
        "tree-zero-link",
        "tree-negative-delta",
        "tree-zero-k",
        "brute-negative-delta",
        "brute-negative-link",
        "brute-zero-link",
        "dbscan-negative-link",
        "core-nan-delta",
    ],
)
def test_bad_parameters_rejected(call):
    with pytest.raises(ValueError, match="must be"):
        call()


@pytest.mark.parametrize("k", [True, np.True_], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize(
    "call",
    [
        lambda k: dbscan_cluster(_PARAM_PTS, k, 0.06),
        lambda k: cluster_tree(_PARAM_PTS, 0.06, [k]),
        lambda k: core_points(_PARAM_PTS, k, 0.06),
        lambda k: components_bruteforce(_PARAM_PTS, k, 0.06),
    ],
    ids=["dbscan", "tree", "core", "brute"],
)
def test_bool_k_rejected(call, k):
    # a bool is no count, as the codec already holds for documents; True once clustered as k = 1
    with pytest.raises(ValueError, match=r"^k must be an integer >= 1, got (np\.)?True_?$"):
        call(k)


class TestDbscan:
    def test_two_coincident_groups(self):
        delta = 0.03
        pts = np.array([[0.1, 0.1]] * 5 + [[0.1 + 10 * delta, 0.1]] * 5)
        lab = dbscan_cluster(pts, k=3, delta=delta)
        assert lab.n_clusters == 2
        assert not np.any(lab.assignments == NOISE)
        assert len(set(lab.assignments[:5])) == 1
        assert len(set(lab.assignments[5:])) == 1

    def test_all_identical(self):
        pts = np.full((12, 3), 0.4)
        lab = dbscan_cluster(pts, k=12, delta=0.01)
        assert lab.n_clusters == 1

    def test_chain_connectivity_depends_on_link_radius(self):
        delta = 0.05
        pts = (np.arange(10) * delta)[:, None]
        wide = dbscan_cluster(pts, k=2, delta=delta, link_radius=2 * delta)
        assert wide.n_clusters == 1
        narrow = dbscan_cluster(pts, k=2, delta=delta, link_radius=0.5 * delta)
        assert narrow.n_clusters == 10
        assert all(len(m) == 1 for m in narrow.partition())

    def test_noise_labeling(self):
        pts = np.array([[0.1], [0.11], [0.12], [0.9]])
        lab = dbscan_cluster(pts, k=2, delta=0.05)
        assert lab.assignments[3] == NOISE
        assert lab.assignments[0] == 0

    def test_deterministic_ids_by_smallest_member(self):
        pts = np.array([[0.9], [0.91], [0.1], [0.11]])
        lab = dbscan_cluster(pts, k=2, delta=0.05)
        # the cluster containing index 0 gets id 0 even though it sits right
        assert lab.assignments[0] == 0 and lab.assignments[2] == 1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            pts, k, delta = _random_instance(rng)
            perm = rng.permutation(pts.shape[0])
            base = dbscan_cluster(pts, k, delta)
            shuffled = dbscan_cluster(pts[perm], k, delta)
            mapped = [frozenset(perm[list(m)].tolist()) for m in shuffled.partition()]
            assert sorted(mapped, key=min) == sorted(base.partition(), key=min)


class TestOracleEquivalence:
    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(22)
        for _ in range(150):
            pts, k, delta = _random_instance(rng)
            link = float(rng.choice([delta, 2 * delta, 3.3 * delta]))
            fast = dbscan_cluster(pts, k, delta, link_radius=link)
            brute = components_bruteforce(pts, k, delta, link_radius=link)
            assert np.array_equal(fast.assignments, brute.assignments)

    def test_bruteforce_empty(self):
        lab = components_bruteforce(np.empty((0, 2)), k=1, delta=0.1)
        assert lab.assignments.size == 0
        assert lab.n_clusters == 0

    def test_bruteforce_singleton(self):
        lab = components_bruteforce(np.array([[0.5]]), k=1, delta=0.1)
        assert np.array_equal(lab.assignments, [0])

    def test_bruteforce_guard(self):
        with pytest.raises(ValueError, match="refused"):
            components_bruteforce(np.zeros((5001, 1)), k=1, delta=0.1)


class TestBallUnionComponents:
    def test_touching_at_exactly_two_delta(self):
        delta = 0.2
        pts = np.array([[0.0], [2 * delta]])
        assert ball_union_components(pts, delta) == [frozenset({0, 1})]

    def test_separated_just_past_two_delta(self):
        delta = 0.2
        pts = np.array([[0.0], [2 * delta + 1e-9]])
        assert ball_union_components(pts, delta) == [frozenset({0}), frozenset({1})]

    def test_equals_dbscan_partition_on_random_core_sets(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 50))
            sd = int(rng.integers(1, 4))
            pts = rng.uniform(0, 1, size=(n, sd))
            delta = float(rng.uniform(0.02, 0.3))
            lab = dbscan_cluster(pts, k=1, delta=delta)  # k=1: all points core
            union_parts = ball_union_components(pts, delta)
            assert sorted(union_parts, key=min) == sorted(lab.partition(), key=min)

    def test_empty(self):
        assert ball_union_components(np.empty((0, 2)), 0.1) == []


class TestClusterTree:
    def test_single_level(self):
        pts = np.random.default_rng(24).uniform(0, 1, size=(30, 1))
        tree = cluster_tree(pts, 0.05, [2])
        assert tree.ks == (2,)
        assert tree.levels[0].parents == ()

    def test_extreme_levels(self):
        n = 20
        pts = np.random.default_rng(25).uniform(0, 1, size=(n, 2))
        tree = cluster_tree(pts, 0.1, [n + 1, 1])
        top, bottom = tree.levels
        assert top.labeling.n_clusters == 0
        assert np.all(top.labeling.assignments == NOISE)
        ref = dbscan_cluster(pts, 1, 0.1)
        assert np.array_equal(bottom.labeling.assignments, ref.assignments)

    def test_rejects_non_descending(self):
        pts = np.zeros((5, 1)) + 0.5
        with pytest.raises(ValueError):
            cluster_tree(pts, 0.1, [2, 2])
        with pytest.raises(ValueError):
            cluster_tree(pts, 0.1, [1, 3])

    def test_blob_merge_across_levels(self):
        rng = np.random.default_rng(26)
        blob_a = rng.uniform(0.05, 0.2, size=(40, 1))
        blob_b = rng.uniform(0.8, 0.95, size=(40, 1))
        sparse = np.array([[0.35], [0.45], [0.55], [0.65]])
        pts = np.vstack([blob_a, blob_b, sparse])
        tree = cluster_tree(pts, 0.08, [10, 1])
        assert tree.levels[0].labeling.n_clusters == 2
        assert tree.levels[1].labeling.n_clusters == 1

    def test_levels_match_direct_dbscan(self):
        rng = np.random.default_rng(27)
        for _ in range(25):
            pts, _, delta = _random_instance(rng, max_n=120)
            n = pts.shape[0]
            ks = sorted({int(k) for k in rng.integers(1, n + 1, size=4)}, reverse=True)
            tree = cluster_tree(pts, delta, ks)
            for level in tree.levels:
                ref = dbscan_cluster(pts, level.k, delta)
                assert np.array_equal(level.labeling.assignments, ref.assignments)

    def test_hierarchy_invariants(self):
        rng = np.random.default_rng(28)
        for _ in range(25):
            pts, _, delta = _random_instance(rng, max_n=120)
            n = pts.shape[0]
            ks = sorted({int(k) for k in rng.integers(1, n + 1, size=5)}, reverse=True)
            tree = cluster_tree(pts, delta, ks)
            for hi, lo in zip(tree.levels[:-1], tree.levels[1:]):
                hi_core = set(np.nonzero(hi.labeling.assignments != NOISE)[0].tolist())
                lo_core = set(np.nonzero(lo.labeling.assignments != NOISE)[0].tolist())
                assert hi_core <= lo_core
                for members in hi.labeling.partition():
                    owners = {lo.labeling.assignments[i] for i in members}
                    assert len(owners) == 1 and NOISE not in owners

    def test_parent_links_point_to_containing_cluster(self):
        rng = np.random.default_rng(29)
        pts = rng.uniform(0, 1, size=(80, 2))
        tree = cluster_tree(pts, 0.1, [8, 3, 1])
        for level, finer in zip(tree.levels[:-1], tree.levels[1:]):
            for c, parent in enumerate(level.parents):
                members = level.labeling.members(c)
                assert set(finer.labeling.assignments[members]) == {parent}

    def test_core_counts_match_kde_levels(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            pts, k, delta = _random_instance(rng, max_n=100)
            model = KdeModel(pts, delta=delta)
            lam = lambda_of_k(k, pts.shape[0], delta, pts.shape[1])
            core = set(core_points(pts, k, delta).tolist())
            for i, x in enumerate(pts):
                assert (kde_eval(model, x) >= lam) == (i in core)


def _per_cluster_parents(labelings):
    """Parent links by a per-cluster loop over every member, for reference."""
    out = []
    for labeling, finer in zip(labelings[:-1], labelings[1:]):
        parents = []
        for c in range(labeling.n_clusters):
            owners = np.unique(finer.assignments[labeling.members(c)])
            assert owners.size == 1 and owners[0] != NOISE
            parents.append(int(owners[0]))
        out.append(tuple(parents))
    return out + [()]


@pytest.mark.parametrize("sd", [1, 2, 3, 6])
def test_parents_match_per_cluster_loop_with_empty_levels(sd):
    rng = np.random.default_rng(36 + sd)
    multi = 0
    for _ in range(30):
        n = int(rng.integers(2, 160))
        centers = rng.uniform(0.2, 0.8, size=(int(rng.integers(1, 4)), sd))
        pts = np.clip(centers[rng.integers(0, len(centers), n)] + rng.normal(0, 0.08, (n, sd)), 0, 1)
        delta = float(rng.uniform(0.03, 0.2))
        # k above n leaves the top levels with no core point at all
        ks = sorted({n + 2, n + 1, *(int(k) for k in rng.integers(1, n + 1, size=4))}, reverse=True)
        tree = cluster_tree(pts, delta, ks)
        assert tree.levels[0].labeling.n_clusters == 0
        labelings = [level.labeling for level in tree.levels]
        assert [level.parents for level in tree.levels] == _per_cluster_parents(labelings)
        multi += any(level.labeling.n_clusters > 1 for level in tree.levels)
    tree = cluster_tree(pts, delta, [n + 2, n + 1])
    assert [level.parents for level in tree.levels] == [(), ()]
    assert multi > 0


@pytest.mark.parametrize("sd", [1, 8])
def test_cluster_tree_is_one_sweep(monkeypatch, sd):
    # one neighbour pass: off a line one pair query yields counts and links,
    # on a line the sort alone does, with no index at all
    calls = []
    for name in ("__init__", "counts_within", "counts_within_all", "pair_sq_dists"):
        method = getattr(GridIndex, name)

        def counted(self, *args, _method=method, _name=name, **kwargs):
            calls.append(_name)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(GridIndex, name, counted)
    rng = np.random.default_rng(5)
    centers = rng.uniform(0.25, 0.75, size=(3, sd))
    pts = np.clip(centers[rng.integers(0, 3, 1000)] + rng.normal(0, 0.05, (1000, sd)), 0, 1)
    tree = cluster_tree(pts, 0.1 * np.sqrt(sd), (40, 10, 3))
    assert len(tree.levels) == 3
    assert calls == (["__init__", "pair_sq_dists"] if sd > 1 else [])


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("sd, n, delta", [(2, 2000, 0.1), (8, 1000, 0.5)])
def test_cluster_tree_peak_bytes_per_candidate_pair(sd, n, delta):
    # The neighbour pass sets cluster_tree's peak on dense points. Per
    # kept pair it holds int32 src and dst and sq, written into arrays of
    # exactly that size by the band sweep, whose tiles go through
    # block-sized buffers; an int64 sort key and whole-size gathers once took
    # 57 traced bytes. The ladder's union-find holds n pointers and a few
    # block-sized arrays, 7-10 bytes a pair here for its first level.
    rng = np.random.default_rng(60 + sd)
    pts = rng.uniform(0.0, 1.0, size=(n, sd))
    assert n * (n - 1) // 2 * sd > spatial._SCAN_BUDGET  # the pairs come from sorted bands
    index = GridIndex(pts)
    pairs = index.pair_sq_dists(2 * delta)[0].size
    assert pairs >= 10**5
    # about nine points in ten are core at the top level, so its labeler
    # masks pairs out of every block; at k = 1 all are core
    ks = (int(np.percentile(index.counts_within_all(delta), 10)), 1)
    cluster_tree(pts[:50], delta, (3,))  # first-call allocations are not the pass's memory
    tree, peak = _traced_peak(lambda: cluster_tree(pts, delta, ks))
    assert 0 < np.count_nonzero(tree.levels[0].labeling.assignments != NOISE) < n
    assert peak / pairs < 30
    counts, ladder_roots = _neighbour_pass(pts, delta, 2 * delta)
    root, peak = _traced_peak(lambda: next(ladder_roots(ks)))
    core = counts >= ks[0]
    ids = np.unique(root[core], return_inverse=True)[1]
    assert np.array_equal(ids, tree.levels[0].labeling.assignments[core])
    assert peak / pairs < 12


def _roots_by_csgraph(is_core, src, dst):
    """Reference roots: scipy's components of the core-to-core pairs, each named by its smallest member.

    A point that is not core is its own root.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = is_core.size
    keep = is_core[src] & is_core[dst]
    graph = coo_matrix((np.ones(np.count_nonzero(keep)), (src[keep], dst[keep])), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    want = np.arange(n)
    smallest: dict[int, int] = {}
    for i in np.nonzero(is_core)[0]:  # ascending, so a component is first seen at its smallest member
        want[i] = smallest.setdefault(int(comp[i]), int(i))
    return want


@pytest.mark.parametrize("block", [1, 5, clustering._PAIR_BLOCK])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_union_find_equals_connected_components(block, data):
    # any pairs in any order, self pairs and repeats included, any counts, any descending ks
    n = data.draw(st.integers(1, 40), label="n")
    ends = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(ends, ends), max_size=120), label="pairs")
    counts = np.array(data.draw(st.lists(st.integers(1, 12), min_size=n, max_size=n), label="counts"))
    ks = sorted(data.draw(st.sets(st.integers(1, 14), min_size=1, max_size=6), label="ks"), reverse=True)
    index = data.draw(st.sampled_from([np.int32, np.intp]), label="dtype")
    src, dst = np.array(pairs, dtype=index).reshape(-1, 2).T
    with mock.patch.object(clustering, "_PAIR_BLOCK", block):
        levels = list(zip(ks, _ladder_roots(counts, ks, src, dst), strict=True))
    for k, root in levels:
        assert np.array_equal(root, _roots_by_csgraph(counts >= k, src, dst)), k


@pytest.mark.parametrize(
    "counts, ks, pairs, want",
    [
        ([1] * 4, (1,), [], [[0, 1, 2, 3]]),
        ([1] * 4, (2,), [(0, 1), (1, 2), (2, 3)], [[0, 1, 2, 3]]),
        ([1], (1,), [], [[0]]),
        ([3, 1, 3, 2], (3, 2, 1), [(2, 3), (0, 3), (1, 0)], [[0, 1, 2, 3], [0, 1, 0, 0], [0, 0, 0, 0]]),
    ],
    ids=["no-pairs", "no-core-point", "single-point", "three-levels"],
)
def test_union_find_edge_cases(counts, ks, pairs, want):
    src, dst = np.array(pairs, dtype=np.int32).reshape(-1, 2).T
    assert [root.tolist() for root in _ladder_roots(np.array(counts), ks, src, dst)] == want


def test_union_find_random_order_path_is_one_component():
    # the deepest case for hooking: every round joins a root only to its path neighbours
    n = 10**5
    order = np.random.default_rng(7).permutation(n)
    src, dst = np.sort(np.stack([order[:-1], order[1:]]), axis=0).astype(np.int32)
    (root,) = _ladder_roots(np.ones(n, dtype=np.intp), (1,), src, dst)
    assert np.array_equal(root, np.zeros(n, dtype=np.int32))


@pytest.mark.parametrize("sd", [2, 8])
def test_ladder_hooks_each_pair_once(monkeypatch, sd):
    # a pair joins the graph at the level of its smaller end count and stays:
    # the ladder hands it to the union-find at that level only
    rng = np.random.default_rng(8 + sd)
    centers = rng.uniform(0.25, 0.75, size=(3, sd))
    pts = np.clip(centers[rng.integers(0, 3, 600)] + rng.normal(0, 0.05, (600, sd)), 0, 1)
    delta, ks = 0.08 * np.sqrt(sd), (40, 10, 3)
    first_round, returned = [], []
    roots_of_joins = clustering._roots_of_joins

    def counted(parent, a, b):
        if not any(a is r for r in returned):  # a later round passes the last round's roots
            first_round.append(a.size)
        returned.extend(result := roots_of_joins(parent, a, b))
        return result

    monkeypatch.setattr(clustering, "_roots_of_joins", counted)
    monkeypatch.setattr(clustering, "_PAIR_BLOCK", 5000)
    cluster_tree(pts, delta, ks)
    sq = sq_dists(pts[:, None, :], pts[None, :, :])
    counts = (sq <= delta * delta).sum(axis=1)
    i, j = np.nonzero(np.triu(sq <= (2 * delta) ** 2, 1))
    assert i.size > 5000
    assert sum(first_round) == np.count_nonzero(np.minimum(counts[i], counts[j]) >= ks[-1])


@pytest.mark.parametrize("sd", [1, 2, 5])
@pytest.mark.parametrize("link_factor", [0.5, 1.0, 2.0])
def test_cluster_tree_equals_oracle_for_any_link_radius(sd, link_factor):
    # the one pair query runs at max(link, delta): a link radius below,
    # at and above delta must each give the oracle's labels and parents
    rng = np.random.default_rng(int(40 + sd + 10 * link_factor))
    for case in range(8):
        n = int(rng.integers(20, 150))
        pts = rng.integers(0, 9, size=(n, sd)) * 0.1
        pts[: n // 4] = pts[n // 4 : 2 * (n // 4)]  # duplicates
        delta = int(rng.integers(1, 4)) * 0.1
        link = delta * link_factor
        ks = (9, 5, 3, 2, 1)
        tree = cluster_tree(pts, delta, ks, link_radius=link)
        oracle = [components_bruteforce(pts, k, delta, link_radius=link) for k in ks]
        for level, want in zip(tree.levels, oracle):
            assert np.array_equal(level.labeling.assignments, want.assignments), (case, level.k)
        assert [level.parents for level in tree.levels] == _per_cluster_parents(oracle), case


class TestSmallestContainingCluster:
    def _tree(self):
        rng = np.random.default_rng(31)
        blob_a = rng.uniform(0.0, 0.15, size=(30, 1))
        blob_b = rng.uniform(0.85, 1.0, size=(30, 1))
        pts = np.vstack([blob_a, blob_b])
        return pts, cluster_tree(pts, 0.05, [20, 5, 1])

    def test_rejects_empty(self):
        _, tree = self._tree()
        with pytest.raises(ValueError):
            smallest_containing_cluster(tree, [])

    @pytest.mark.parametrize(
        "indices, bad",
        [([0.5], "0.5"), ([-1], "-1"), ([3, 60], "60"), ([True], "True"), ([2, 1.5], "2.0")],
        ids=["fraction", "negative", "past-the-end", "bool", "float-array"],
    )
    def test_rejects_non_integer_or_out_of_range_index(self, indices, bad):
        # a fraction is not rounded to a point, nor does -1 name the last one
        _, tree = self._tree()
        with pytest.raises(ValueError, match=rf"^sample index {bad} is not an integer in \[0, 60\)$"):
            smallest_containing_cluster(tree, indices)
        with pytest.raises(ValueError, match=rf"^sample index {bad} "):
            hartigan_disjoint(tree, [0], indices)

    def test_singleton(self):
        pts, tree = self._tree()
        ref = smallest_containing_cluster(tree, [0])
        assert ref is not None
        best_k = max(
            level.k
            for level in tree.levels
            if level.labeling.assignments[0] != NOISE
        )
        assert ref.k == best_k
        assert 0 in tree.levels[tree.ks.index(ref.k)].labeling.members(ref.cluster_id)

    def test_spanning_indices_return_none(self):
        pts, tree = self._tree()
        assert smallest_containing_cluster(tree, [0, 30]) is None

    def test_matches_exhaustive_scan(self):
        pts, tree = self._tree()
        rng = np.random.default_rng(32)
        for _ in range(20):
            idx = rng.choice(30, size=rng.integers(1, 5), replace=False)
            got = smallest_containing_cluster(tree, idx)
            best = None
            for level in tree.levels:
                for c in range(level.labeling.n_clusters):
                    members = set(level.labeling.members(c).tolist())
                    if set(idx.tolist()) <= members:
                        if best is None or level.k > best[0]:
                            best = (level.k, c, members)
            if best is None:
                assert got is None
            else:
                members = tree.levels[tree.ks.index(got.k)].labeling.members(got.cluster_id)
                assert (got.k, got.cluster_id, set(members.tolist())) == best


class TestHartiganDisjoint:
    def test_same_set_is_never_disjoint(self):
        pts = np.random.default_rng(33).uniform(0, 1, size=(40, 1))
        tree = cluster_tree(pts, 0.1, [5, 1])
        assert not hartigan_disjoint(tree, [0, 1], [0, 1])

    def test_separated_blobs_are_disjoint(self):
        rng = np.random.default_rng(34)
        blob_a = rng.uniform(0.0, 0.1, size=(20, 1))
        blob_b = rng.uniform(0.9, 1.0, size=(20, 1))
        pts = np.vstack([blob_a, blob_b])
        tree = cluster_tree(pts, 0.04, [5, 1])
        assert hartigan_disjoint(tree, [0, 1, 2], [20, 21])

    def test_missing_cluster_fails(self):
        pts, tree = np.array([[0.1], [0.9]]), cluster_tree(np.array([[0.1], [0.9]]), 0.05, [2, 1])
        # at k=2 nothing is core; indices that span blobs have no cluster
        assert not hartigan_disjoint(tree, [0, 1], [0])

    @pytest.mark.parametrize("sd", [1, 2])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_member_set_intersection(self, sd, data):
        # the definition: both smallest containing clusters exist and their
        # member sets do not meet, for every pair of one-point queries, whose
        # clusters sit at one level or at two nested levels of a random
        # ladder, and for queries of a few points
        n = data.draw(st.integers(2, 24), label="n")
        coords = st.integers(0, 10).map(lambda i: i * 0.1)
        pts = np.array(data.draw(st.lists(st.tuples(*[coords] * sd), min_size=n, max_size=n), label="pts"))
        ks = sorted(data.draw(st.sets(st.integers(1, 12), min_size=1, max_size=5), label="ks"), reverse=True)
        tree = cluster_tree(pts, data.draw(st.sampled_from([0.1, 0.2, 0.3]), label="delta"), ks)

        def members(query):
            ref = smallest_containing_cluster(tree, query)
            return None if ref is None else set(tree.levels[tree.ks.index(ref.k)].labeling.members(ref.cluster_id))

        query = st.lists(st.integers(0, n - 1), min_size=2, max_size=3, unique=True)
        queries = [[i] for i in range(n)] + data.draw(st.lists(query, max_size=4), label="queries")
        sets = [members(q) for q in queries]
        for a, set_a in zip(queries, sets):
            for b, set_b in zip(queries, sets):
                want = set_a is not None and set_b is not None and not (set_a & set_b)
                assert hartigan_disjoint(tree, a, b) == want, (a, b)


@pytest.mark.parametrize("sd", [1, 2, 5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_count_level_equals_oracle(sd, data):
    # the whole tree over every distinct ball count, as the all-level tree asks
    # for it: each level's labels and parents are the brute-force oracle's
    n = data.draw(st.integers(1, 40), label="n")
    grid = data.draw(st.sampled_from([0.1, 0.25, None]), label="grid")
    if grid is None:
        coords = st.floats(0.0, 1.0, allow_nan=False)
    else:
        coords = st.integers(0, int(1 / grid)).map(lambda i: i * grid)  # ties at the ball's edge
    pts = np.array(data.draw(st.lists(st.tuples(*[coords] * sd), min_size=n, max_size=n), label="pts"))
    delta = data.draw(st.sampled_from([0.1, 0.2, 0.25, 0.3]), label="delta")
    link = delta * data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="link_factor")
    counts, _ = _neighbour_pass(pts, delta, link)
    ks = sorted(set(counts.tolist()), reverse=True)
    tree = cluster_tree(pts, delta, ks, link_radius=link)
    oracle = [components_bruteforce(pts, k, delta, link_radius=link) for k in ks]
    for level, want in zip(tree.levels, oracle, strict=True):
        assert np.array_equal(level.labeling.assignments, want.assignments), level.k
    assert [level.parents for level in tree.levels] == _per_cluster_parents(oracle)


@pytest.mark.parametrize("sd", [1, 2])
def test_ks_beyond_any_integer_array_label_as_ks_above_n(sd):
    # no count exceeds n, so a k of 2**63 or 2**70, which no int64 array
    # holds, makes the empty level a k of n + 1 does
    pts = np.random.default_rng(9).uniform(0.0, 1.0, size=(40, sd))
    huge = cluster_tree(pts, 0.2, (2**70, 2**63, 5, 1))
    above = cluster_tree(pts, 0.2, (42, 41, 5, 1))
    assert huge.ks == (2**70, 2**63, 5, 1)
    for got, want in zip(huge.levels, above.levels, strict=True):
        assert np.array_equal(got.labeling.assignments, want.labeling.assignments)
        assert got.parents == want.parents
    assert huge.levels[0].labeling.n_clusters == 0 < huge.levels[2].labeling.n_clusters
