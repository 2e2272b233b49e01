import numpy as np
import pytest

from flatclust.clustering import cluster_tree, components_bruteforce, dbscan_cluster
from flatclust.density import KdeModel, kde_counts_batch
from flatclust.spatial import GridIndex, brute_count_within, brute_indices_within, sq_dists


def _brute_pairs(pts, r):
    return {(i, int(j)) for i in range(pts.shape[0]) for j in brute_indices_within(pts, pts[i], r) if j > i}


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        GridIndex(np.empty((0, 2)))
    with pytest.raises(ValueError):
        GridIndex(np.zeros(3))


@pytest.mark.parametrize("r", [-0.3, -0.0 - 1e-300, np.nan])
@pytest.mark.parametrize(
    "query",
    [
        lambda pts, r: GridIndex(pts).indices_within(pts[0], r),
        lambda pts, r: GridIndex(pts).count_within(pts[0], r),
        lambda pts, r: GridIndex(pts).counts_within(pts[:3], r),
        lambda pts, r: GridIndex(pts).counts_within_all(r),
        lambda pts, r: GridIndex(pts).pairs_within(r),
        lambda pts, r: brute_indices_within(pts, pts[0], r),
        lambda pts, r: brute_count_within(pts, pts[0], r),
    ],
    ids=[
        "indices_within",
        "count_within",
        "counts_within",
        "counts_within_all",
        "pairs_within",
        "brute_indices_within",
        "brute_count_within",
    ],
)
def test_negative_or_nan_radius_rejected(query, r):
    # squaring the radius, or the tree's own distance bound, would answer for |r|
    pts = np.random.default_rng(29).uniform(0.0, 1.0, size=(30, 2))
    with pytest.raises(ValueError, match="radius must be a nonnegative number"):
        query(pts, r)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "build",
    [
        GridIndex,
        lambda pts: dbscan_cluster(pts, k=2, delta=0.1),
        lambda pts: cluster_tree(pts, 0.1, [3, 1]),
        lambda pts: KdeModel(pts, 0.1),
    ],
    ids=["GridIndex", "dbscan_cluster", "cluster_tree", "KdeModel"],
)
def test_non_finite_points_rejected(build, bad):
    pts = np.random.default_rng(30).uniform(0.0, 1.0, size=(20, 3))
    pts[7, 1] = bad
    with pytest.raises(ValueError, match="points must be finite"):
        build(pts)


def test_index_equals_brute_force_exactly():
    rng = np.random.default_rng(31)
    for case in range(40):
        dim = int(rng.integers(1, 6))
        n = int(rng.integers(1, 300))
        pts = rng.uniform(-0.2, 1.2, size=(n, dim))
        index = GridIndex(pts)
        for _ in range(25):
            x = rng.uniform(-0.4, 1.4, size=dim)
            r = float(rng.uniform(0.0, 0.8))
            got = index.indices_within(x, r)
            want = brute_indices_within(pts, x, r)
            assert np.array_equal(got, want), (case, dim, n, r)
            assert index.count_within(x, r) == brute_count_within(pts, x, r)


def test_boundary_ties_are_included_identically():
    # queries placed exactly at radius distance from stored points
    pts = np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.4], [1.0, 1.0]])
    index = GridIndex(pts)
    for r in (0.3, 0.4, 0.5):
        got = index.indices_within(np.zeros(2), r)
        want = brute_indices_within(pts, np.zeros(2), r)
        assert np.array_equal(got, want)
    assert index.count_within(np.zeros(2), 0.3) == 2  # self plus the tie at 0.3
    assert index.count_within(np.zeros(2), 0.5) == 3  # (0.3, 0) and (0, 0.4) both closed
    assert set(zip(*map(np.ndarray.tolist, index.pairs_within(0.5)))) == {(0, 1), (0, 2), (1, 2)}


def test_counts_within_all_matches_per_point_queries():
    rng = np.random.default_rng(32)
    for _ in range(15):
        dim = int(rng.integers(1, 5))
        n = int(rng.integers(2, 400))
        pts = rng.uniform(0.0, 1.0, size=(n, dim))
        r = float(rng.uniform(0.01, 0.6))
        index = GridIndex(pts)
        want = np.array([brute_count_within(pts, p, r) for p in pts])
        assert np.array_equal(index.counts_within_all(r), want)
        src, dst = index.pairs_within(r)
        assert np.all(src < dst)
        assert set(zip(src.tolist(), dst.tolist())) == _brute_pairs(pts, r)
        assert src.size == (want.sum() - n) // 2


def test_high_dimension_matches_brute_force():
    rng = np.random.default_rng(33)
    for dim in (12, 16):
        pts = rng.uniform(0.0, 1.0, size=(60, dim))
        index = GridIndex(pts)
        for _ in range(10):
            x = rng.uniform(0.0, 1.0, size=dim)
            r = float(rng.uniform(0.3, 1.2))
            assert np.array_equal(index.indices_within(x, r), brute_indices_within(pts, x, r))
            want = np.array([brute_count_within(pts, p, r) for p in pts])
            assert np.array_equal(index.counts_within_all(r), want)


@pytest.mark.parametrize("sd", [1, 2, 3, 4, 8, 16])
def test_lattice_ties_every_path_agrees(sd):
    # Coordinates and radii on a 0.1 lattice put many pairs at exactly the
    # radius, where a distance summed in another order than sq_dists' can
    # round to the other side of r*r; every path must answer as sq_dists does.
    rng = np.random.default_rng(34 + sd)
    for case in range(50):
        n = int(rng.integers(2, 120))
        pts = rng.integers(0, 11, size=(n, sd)) * 0.1
        queries = np.vstack([pts, rng.integers(0, 11, size=(20, sd)) * 0.1])
        r = int(rng.integers(1, 8)) * 0.1
        index = GridIndex(pts)
        want = [brute_indices_within(pts, q, r) for q in queries]
        counts = np.array([w.size for w in want])
        for q, w in zip(queries, want):
            assert np.array_equal(index.indices_within(q, r), w), (sd, case)
            assert index.count_within(q, r) == w.size
        assert np.array_equal(index.counts_within_all(r), counts[:n]), (sd, case)
        assert np.array_equal(index.counts_within(queries, r), counts), (sd, case)
        assert np.array_equal(kde_counts_batch(KdeModel(pts, r), queries), counts), (sd, case)
        src, dst = index.pairs_within(r)
        assert set(zip(src.tolist(), dst.tolist())) == _brute_pairs(pts, r), (sd, case)
        k = int(rng.integers(1, 6))
        link = r * int(rng.integers(1, 3))
        brute = components_bruteforce(pts, k, r, link_radius=link)
        assert np.array_equal(brute.assignments >= 0, counts[:n] >= k), (sd, case)
        assert np.array_equal(dbscan_cluster(pts, k, r, link).assignments, brute.assignments), (sd, case)


def test_sq_dists_shape():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert np.allclose(sq_dists(pts, np.zeros(2)), [0.0, 25.0])
    rng = np.random.default_rng(35)
    p = rng.uniform(0.0, 1.0, size=(30, 7))
    full = sq_dists(p[:, None, :], p[None, :, :])
    assert full.shape == (30, 30)
    for i in range(30):
        assert np.array_equal(full[i], sq_dists(p, p[i]))
    i, j = np.triu_indices(30, 1)
    assert np.array_equal(sq_dists(p[i], p[j]), full[i, j])
