import math
import tracemalloc

import numpy as np
import pytest

from flatclust import spatial
from flatclust.clustering import _neighbour_pass, cluster_tree, dbscan_cluster
from flatclust.density import KdeModel, kde_counts_batch
from flatclust.spatial import GridIndex, _sum_of_squares, sorted_line_counts, sq_dists
from oracles import brute_count_within, brute_indices_within, components_bruteforce, kde_eval


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
        lambda pts, r: GridIndex(pts).pair_sq_dists(r),
        lambda pts, r: brute_indices_within(pts, pts[0], r),
        lambda pts, r: brute_count_within(pts, pts[0], r),
    ],
    ids=[
        "indices_within",
        "count_within",
        "counts_within",
        "counts_within_all",
        "pair_sq_dists",
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


@pytest.mark.usefixtures("index_path")
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
    src, dst, _ = index.pair_sq_dists(0.5)
    assert set(zip(src.tolist(), dst.tolist())) == {(0, 1), (0, 2), (1, 2)}


@pytest.mark.usefixtures("index_path")
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
        src, dst, _ = index.pair_sq_dists(r)
        assert np.all(src < dst)
        assert set(zip(src.tolist(), dst.tolist())) == _brute_pairs(pts, r)
        assert src.size == (want.sum() - n) // 2


@pytest.mark.usefixtures("index_path")
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


@pytest.mark.usefixtures("index_path")
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
        src, dst, _ = index.pair_sq_dists(r)
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


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_sq_dists_keeps_its_bits_through_the_shared_kernel(dim):
    rng = np.random.default_rng(36 + dim)
    a, b = rng.uniform(-1.0, 1.0, size=(40, dim)), rng.uniform(-1.0, 1.0, size=(25, dim))
    want = (a[:, None, 0] - b[None, :, 0]) * (a[:, None, 0] - b[None, :, 0])
    for j in range(1, dim):
        want += (a[:, None, j] - b[None, :, j]) * (a[:, None, j] - b[None, :, j])
    assert np.array_equal(sq_dists(a[:, None], b[None]), want)
    out, diff = np.full((40, 25), np.nan), np.full((40, 25), np.nan)
    cols = zip(np.ascontiguousarray(a.T)[:, :, None], np.ascontiguousarray(b.T))
    assert _sum_of_squares((np.subtract(p, q, out=diff) for p, q in cols), out) is out
    assert np.array_equal(out, want)
    assert np.array_equal(sq_dists(a[3], b[4]), want[3, 4])


def _hard_point_sets(rng, sd):
    """Point sets built to land pairs on a ball's boundary, with radii to match.

    0.1-lattice ties, exact duplicates, far outliers (up to 1e6) among unit
    points, and clusters spaced at a tiny radius (down to 1e-7).
    """
    lattice = rng.integers(0, 11, size=(80, sd)) * 0.1
    yield lattice, 0.3
    yield lattice, 0.1
    dup = np.repeat(rng.uniform(0.0, 1.0, size=(25, sd)), 3, axis=0)
    yield dup, 0.2
    yield dup, 0.0
    out = np.vstack([rng.uniform(0.0, 1.0, size=(60, sd)), rng.uniform(-1e6, 1e6, size=(6, sd)), np.full((2, sd), 1e6)])
    yield out, 0.25
    yield out, 2e6
    tiny = rng.integers(0, 4, size=(60, sd)) * 1e-7 + 0.5
    yield tiny, 1e-7
    yield tiny, 2e-7
    far = rng.integers(0, 4, size=(60, sd)) * 1e-7 + 1e6
    yield far, 1e-7


@pytest.mark.usefixtures("index_path")
@pytest.mark.parametrize("sd", [1, 2, 3, 8])
def test_counts_from_one_pass_equal_every_counting_path(sd):
    # the counts cluster_tree takes from its one pair query (or, on a line,
    # from the sort) agree with the per-point scan and the index count
    rng = np.random.default_rng(36 + sd)
    for case, (pts, r) in enumerate(_hard_point_sets(rng, sd)):
        want = np.array([brute_count_within(pts, p, r) for p in pts])
        assert np.array_equal(GridIndex(pts).counts_within_all(r), want), (sd, case)
        for link in (r / 2, r, 2 * r):
            counts, _ = _neighbour_pass(pts, r, link)
            assert np.array_equal(counts, want), (sd, case, link)
        if sd == 1:
            order = np.argsort(pts[:, 0], kind="stable")
            assert np.array_equal(sorted_line_counts(pts[order, 0], r), want[order]), case


@pytest.mark.parametrize("sd", [2, 3, 8, 16])
def test_scan_and_tree_answer_as_brute_force(index_path, sd):
    # lattice ties at exactly r, duplicates, outliers and tiny spacings, with
    # other queries than the points (q != n) and answers that are empty
    rng = np.random.default_rng(70 + sd)
    cases = list(_hard_point_sets(rng, sd))
    cases.append((rng.uniform(0.0, 1.0, size=(40, sd)), 0.0))  # distinct points: no pair at r = 0
    empty = 0
    for case, (pts, r) in enumerate(cases):
        queries = np.vstack([pts[::3], rng.integers(0, 11, size=(17, sd)) * 0.1, np.full((2, sd), 50.0)])
        index = GridIndex(pts)
        want = np.array([brute_count_within(pts, q, r) for q in queries])
        assert np.array_equal(index.counts_within(queries, r), want), (sd, case)
        empty += int(np.count_nonzero(want == 0))
        src, dst, sq = index.pair_sq_dists(r)
        pairs = list(zip(src.tolist(), dst.tolist()))
        assert len(set(pairs)) == len(pairs) and np.all(src < dst), (sd, case)
        assert set(pairs) == _brute_pairs(pts, r), (sd, case)
        assert np.array_equal(sq, sq_dists(pts[src], pts[dst])), (sd, case)
        assert src.dtype == dst.dtype == np.int32
        assert (index._tree is None) == (index_path == "scan"), (sd, case)
    assert empty > 0 and GridIndex(cases[-1][0]).pair_sq_dists(0.0)[0].size == 0


def test_scan_budget_routes_each_query():
    # work is pair tests times coordinates: each query's own work decides
    # its path, and only a query past the budget builds the tree
    rng = np.random.default_rng(42)
    budget = spatial._SCAN_BUDGET
    n = next(n for n in range(2, 10**4) if (n + 1) * n // 2 * 4 > budget)  # the largest n whose pairs scan
    inside = GridIndex(rng.uniform(0.0, 1.0, size=(n, 4)))
    assert inside._tree is None
    inside.pair_sq_dists(0.3)
    inside.counts_within(inside.points[: budget // (4 * n)], 0.3)
    assert inside._tree is None
    inside.counts_within(inside.points[: budget // (4 * n) + 1], 0.3)
    assert inside._tree is not None
    outside = GridIndex(rng.uniform(0.0, 1.0, size=(n + 1, 4)))
    assert outside._tree is None
    outside.pair_sq_dists(0.3)
    assert outside._tree is not None
    line = GridIndex(rng.uniform(0.0, 1.0, size=(5000, 1)))
    line.counts_within(line.points, 0.1)
    assert line._tree is None  # a line counts runs of its sort, whatever the work


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("block", [1 << 10, 1 << 16])
@pytest.mark.parametrize("sd", [2, 8, 16])
def test_scan_memory_is_its_tiles_and_its_answer(monkeypatch, block, sd):
    # pair_sq_dists holds its tile buffers and the kept pairs, 4 + 4 + 8
    # bytes each, and counts_within its tile buffers and the counts, besides
    # a coordinate-major copy of the points; nothing is held per pair
    # tested, which blocks of 2^10 would show, at any size within the budget
    monkeypatch.setattr(spatial, "_PAIR_BLOCK", block)
    budget = spatial._SCAN_BUDGET
    rng = np.random.default_rng(43 + sd)
    GridIndex(rng.uniform(size=(5, sd))).pair_sq_dists(0.5)  # first-call allocations stay out of the count
    widest = max(n for n in range(2, 2000) if n * (n - 1) // 2 * sd <= budget)
    for n in (2, 40, widest):
        pts = rng.uniform(0.0, 1.0, size=(n, sd))
        index = GridIndex(pts)
        rows = max(1, block // (n - 1))
        tile = min(rows, n - 1) * (n - 1)
        for r in (0.0, 0.5 * np.sqrt(sd), 2.0 * np.sqrt(sd)):  # none, some and every pair kept
            (src, _, _), peak = _traced_peak(lambda: index.pair_sq_dists(r))
            # diff, sq and keep buffers, the strip's index temporaries, and the points' columns
            assert peak <= 40 * tile + 8 * n * sd + 16 * src.size + 16384, (n, r, peak, src.size)
    square = math.isqrt(budget // sd)
    for q, n in ((1, budget // sd), (square, square), (budget // (sd * 300), 300)):
        pts = rng.uniform(0.0, 1.0, size=(n, sd))
        queries = rng.uniform(0.0, 1.0, size=(q, sd))
        index = GridIndex(pts)
        index._tree = None  # past the budget for its own pairs, __init__ built one; the scan needs none
        width = min(n, block)
        tile = max(1, min(q, block // width)) * width
        counts, peak = _traced_peak(lambda: index.counts_within(queries, 0.5))
        assert index._tree is None
        # diff, sq and the inside mask, the row sums' cast buffer, and the points' columns
        assert peak <= 25 * tile + 8 * n * sd + 8 * counts.size + 16384, (q, n, peak)


def test_sorted_line_counts_small_cases():
    assert sorted_line_counts(np.array([0.5]), 0.1).tolist() == [1]
    assert sorted_line_counts(np.array([0.0, 0.0, 0.0]), 0.0).tolist() == [3, 3, 3]
    # 0.4 - 0.1 rounds above 0.3, so the closed 0.3-ball of 0.1 misses 0.4;
    # 0.6 - 0.3 rounds to 0.3, so the ball of 0.3 holds 0.6
    xs = np.array([0.1, 0.3, 0.4, 0.6])
    assert sorted_line_counts(xs, 0.3).tolist() == [2, 4, 3, 3]
    assert sorted_line_counts(xs, 0.3).tolist() == [brute_count_within(xs[:, None], [x], 0.3) for x in xs]
    with pytest.raises(ValueError, match="radius must be a nonnegative number"):
        sorted_line_counts(xs, -1.0)


def _line_cases(rng):
    """Sorted lines whose searchsorted run ends are off by a step, with those that are not."""
    lattice = np.sort(rng.integers(0, 11, 80) * 0.1)
    yield lattice, 0.3  # x + 0.3 rounds past points that (x - y)**2 <= 0.09 keeps out, and the reverse
    yield lattice, 0.2
    yield lattice, 0.0
    yield np.sort(np.concatenate([rng.uniform(0, 1, 60), [-1e6, -1e6 + 1e-7, 1e6, 1e6]])), 1e-7
    yield np.sort(rng.integers(0, 4, 60) * 1e-7 + 1e6), 1e-7  # 1e6 + 1e-7 rounds to a neighbour
    yield np.full(7, 0.3), 0.0
    yield np.full(7, 0.3), 0.5
    yield np.array([0.5]), 0.1


def test_sorted_line_counts_exact_where_searchsorted_guesses_wrong():
    rng = np.random.default_rng(38)
    wrong = 0
    for case, (xs, r) in enumerate(_line_cases(rng)):
        guess = np.searchsorted(xs, xs + r, "right") - np.searchsorted(xs, xs - r, "left")
        want = np.array([brute_count_within(xs[:, None], [x], r) for x in xs])
        wrong += int(np.count_nonzero(guess != want))
        assert np.array_equal(sorted_line_counts(xs, r), want), case
    assert wrong > 50  # the guesses alone would fail


@pytest.mark.usefixtures("index_path")
def test_pair_sq_dists_lists_each_pair_once_with_exact_sq():
    rng = np.random.default_rng(37)
    for sd in (2, 3, 8):
        pts = rng.integers(0, 6, size=(150, sd)) * 0.1
        src, dst, sq = GridIndex(pts).pair_sq_dists(0.3)
        pairs = list(zip(src.tolist(), dst.tolist()))
        assert src.size and len(set(pairs)) == len(pairs) and np.all(src < dst)
        assert set(pairs) == _brute_pairs(pts, 0.3)
        assert np.array_equal(sq, sq_dists(pts[src], pts[dst]))
        assert src.dtype == dst.dtype == np.int32


@pytest.mark.usefixtures("index_path")
@pytest.mark.parametrize("block", [1, 5, 1 << 16])
def test_pair_sq_dists_blocks_keep_every_bit(monkeypatch, block):
    # the refilter gathers _PAIR_BLOCK candidate pairs at a time; blocks of
    # one or five pairs give the pairs, order and sq bits of one whole gather
    rng = np.random.default_rng(39)
    pts = np.vstack([rng.integers(0, 6, size=(120, 3)) * 0.1, rng.uniform(0.0, 0.5, size=(60, 3))])
    want = GridIndex(pts).pair_sq_dists(0.3)
    monkeypatch.setattr(spatial, "_PAIR_BLOCK", block)
    got = GridIndex(pts).pair_sq_dists(0.3)
    assert got[0].size > 1000  # hundreds of blocks at the small sizes
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    src, dst, sq = got
    assert set(zip(src.tolist(), dst.tolist())) == _brute_pairs(pts, 0.3)
    assert np.array_equal(sq, sq_dists(pts[src], pts[dst]))


@pytest.mark.parametrize("sd", [1, 2])
@pytest.mark.parametrize(
    "query",
    [
        lambda model, x: model.index.counts_within(x, 0.3),
        lambda model, x: model.index.indices_within(x, 0.3),
        lambda model, x: model.index.count_within(x, 0.3),
        kde_eval,
        kde_counts_batch,
    ],
    ids=["counts_within", "indices_within", "count_within", "kde_eval", "kde_counts_batch"],
)
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "too-long", "too-short", "too-wide", "too-deep"])
def test_bad_queries_refused_on_and_off_a_line(query, sd, bad):
    # a NaN query must not count 0, nor a query of the wrong shape answer for
    # part of it; the index is the one place a query is checked
    model = KdeModel(np.random.default_rng(40).uniform(0.0, 1.0, size=(30, sd)), delta=0.3)
    if bad in ("nan", "inf", "-inf"):
        x = np.full(sd, 0.5)
        x[-1] = float(bad)
        match = "'x' must be finite"
    else:
        shape = {"too-long": (sd + 1,), "too-short": (sd - 1,), "too-wide": (3, sd + 1), "too-deep": (2, 3, sd)}[bad]
        x = np.full(shape, 0.5)
        match = f"x must consist of vectors of length {sd}"
    with pytest.raises(ValueError, match=match):
        query(model, x)


def _line_index_cases(rng):
    """Lines with duplicates, points exactly r from a query, r = 0, and _line_cases' off-by-a-step runs."""
    for xs, r in _line_cases(rng):
        yield xs, r, np.concatenate([xs, xs + r, xs - r, rng.uniform(xs.min() - 1, xs.max() + 1, 20)])
    dup = np.repeat(rng.integers(0, 11, 15) * 0.1, 4)
    yield dup, 0.2, np.concatenate([dup, dup + 0.2, dup - 0.2, [0.05, 1.5, -0.5]])
    yield dup, 0.0, np.concatenate([dup, dup + 1e-17, [0.25]])
    yield rng.permutation(np.arange(12) * 0.25), 0.25, np.arange(-4, 52) * 0.0625


@pytest.mark.usefixtures("index_path")
def test_line_index_equals_brute_force_exactly():
    rng = np.random.default_rng(41)
    for case, (xs, r, queries) in enumerate(_line_index_cases(rng)):
        pts = rng.permutation(xs)[:, None]
        index = GridIndex(pts)
        want = [brute_indices_within(pts, [q], r) for q in queries]
        assert np.array_equal(index.counts_within(queries[:, None], r), [w.size for w in want]), case
        for q, w in zip(queries, want):
            assert np.array_equal(index.indices_within([q], r), w), (case, q)
            assert index.count_within([q], r) == brute_count_within(pts, [q], r) == w.size
        counts = np.array([brute_count_within(pts, p, r) for p in pts])
        assert np.array_equal(index.counts_within_all(r), counts), case
        src, dst, sq = index.pair_sq_dists(r)
        pairs = list(zip(src.tolist(), dst.tolist()))
        assert len(set(pairs)) == len(pairs) and set(pairs) == _brute_pairs(pts, r), case
        assert src.dtype == dst.dtype == np.int32
        assert np.array_equal(sq, sq_dists(pts[src], pts[dst])), case
