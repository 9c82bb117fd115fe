"""Differential tests of the nearest-point paths of the geometry layer.

Sets of more than `geometry.KDTREE_MIN` points are queried through a
KD-tree, smaller ones by brute force.  Patching the constant forces either
path on small sets; the brute-force references live in `oracle.py`.
"""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import directed_hausdorff

from metricfourier import geometry
from metricfourier.fixtures import disc_net
from metricfourier.geometry import (PointSet, dist_point_set,
                                    enumerate_metric_chains, hausdorff,
                                    min_dists, project_rows)
from metricfourier.oracle import (_all_chains, _pairs, oracle_dedup,
                                  oracle_dist_point_set, oracle_min_dists)

ATOL = 1e-12
NORMS = ("l1", "l2", "linf")
# KDTREE_MIN values that force the tree path and the brute-force path.
FORCE = {"tree": 0, "brute": 10 ** 9}


@st.composite
def tied_instance(draw, dim):
    """A query point and a set of distinct grid points holding planted ties:
    sign flips and rotations of one offset around the query lie at the same
    distance from it in every norm."""
    scale = draw(st.sampled_from([1.0, 0.1, 0.37]))
    cell = st.lists(st.integers(-6, 6), min_size=dim, max_size=dim)
    q = np.array(draw(cell), dtype=float)
    off = np.array(draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim)))
    signs = [[1] * dim, [-1] * dim, [(-1) ** k for k in range(dim)]]
    planted = {tuple(q + np.array(s) * np.roll(off, r))
               for s in signs for r in range(dim)}
    rest = {tuple(r) for r in draw(st.lists(cell, max_size=40))}
    order = draw(st.permutations(sorted(planted | rest)))
    return scale * q, scale * np.array(order, dtype=float)


dims = st.integers(1, 3)


@settings(max_examples=80, deadline=None)
@given(dims.flatmap(tied_instance), st.sampled_from(NORMS),
       st.sampled_from(sorted(FORCE)))
def test_dist_point_set_matches_oracle(inst, norm, path):
    q, Q = inst
    ref_d, ref_idx = oracle_dist_point_set(q, Q, norm)
    with mock.patch.object(geometry, "KDTREE_MIN", FORCE[path]):
        d, w = dist_point_set(q, PointSet.of(Q, dedup_tol=0), norm)
    assert abs(d - ref_d) <= ATOL
    index = {tuple(r): i for i, r in enumerate(Q)}
    assert [index[tuple(r)] for r in w.points] == ref_idx.tolist()


@settings(max_examples=80, deadline=None)
@given(dims.flatmap(tied_instance), st.sampled_from(NORMS),
       st.sampled_from(sorted(FORCE)))
def test_project_rows_matches_oracle(inst, norm, path):
    """Each row's distance and the index of its lexicographically smallest
    witness."""
    q, Q = inst
    P = np.vstack([q, Q[:3], q[::-1] if q.size > 1 else -q])
    with mock.patch.object(geometry, "KDTREE_MIN", FORCE[path]):
        dist, picks = project_rows(P, PointSet.of(Q, dedup_tol=0), norm)
    for p, d, pick in zip(P, dist, Q[picks]):
        ref_d, ref_idx = oracle_dist_point_set(p, Q, norm)
        w = Q[ref_idx]
        assert abs(d - ref_d) <= ATOL
        assert np.array_equal(pick, w[np.lexsort(w.T[::-1])[0]])


@settings(max_examples=60, deadline=None)
@given(dims.flatmap(lambda d: st.tuples(tied_instance(d), tied_instance(d))),
       st.sampled_from(NORMS), st.sampled_from(sorted(FORCE)))
def test_min_dists_matches_oracle(pair, norm, path):
    P, Q = pair[0][1], pair[1][1]
    with mock.patch.object(geometry, "KDTREE_MIN", FORCE[path]):
        got = min_dists(P, Q, norm)
    assert np.allclose(got, oracle_min_dists(P, Q, norm), rtol=0, atol=ATOL)


coords = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
cloud2 = st.lists(st.tuples(coords, coords), min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(cloud2, cloud2, st.sampled_from(sorted(FORCE)))
def test_hausdorff_matches_scipy_directed_hausdorff(a, b, path):
    A, B = np.array(a), np.array(b)
    ref = max(directed_hausdorff(A, B)[0], directed_hausdorff(B, A)[0])
    with mock.patch.object(geometry, "KDTREE_MIN", FORCE[path]):
        got = hausdorff(PointSet.of(A, dedup_tol=0), PointSet.of(B, dedup_tol=0))
    assert abs(got - ref) <= ATOL


def test_paths_agree_at_the_cutoff():
    """Sizes on both sides of the real constant, with four points tied at
    distance 1 from the query in every norm and all others farther."""
    rng = np.random.default_rng(7)
    q = np.array([0.25, -0.5])
    ring = q + np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    for m in (geometry.KDTREE_MIN, geometry.KDTREE_MIN + 1):
        far = rng.uniform(-5.0, 5.0, (2 * m, 2))
        far = far[np.abs(far - q).max(axis=1) > 1.5][:m - len(ring)]
        Q = np.vstack([far[:m // 2], ring, far[m // 2:]])
        B = PointSet.of(Q, dedup_tol=0)
        P = rng.uniform(-6.0, 6.0, (50, 2))
        for norm in NORMS:
            ref_d, ref_idx = oracle_dist_point_set(q, Q, norm)
            d, w = dist_point_set(q, B, norm)
            assert abs(d - ref_d) <= ATOL
            assert len(ref_idx) == len(ring)
            assert np.array_equal(w.points, Q[ref_idx])
            assert np.allclose(min_dists(P, Q, norm),
                               oracle_min_dists(P, Q, norm), rtol=0, atol=ATOL)
        A = PointSet.of(rng.uniform(-5.0, 5.0, (m, 2)), dedup_tol=0)
        ref = max(directed_hausdorff(A.points, Q)[0],
                  directed_hausdorff(Q, A.points)[0])
        assert abs(hausdorff(A, B) - ref) <= ATOL


@pytest.mark.parametrize("block", [1, 7 * 40])
def test_row_blocks_match_one_block(block):
    """Brute force in row blocks of at most `_BLOCK` entries (one row when
    the set alone is larger) gives the distances and witnesses of one block,
    on a grid with many ties."""
    rng = np.random.default_rng(3)
    B = PointSet.of(rng.integers(-3, 4, (40, 2)) * 0.5, dedup_tol=0)
    P = rng.integers(-3, 4, (30, 2)) * 0.5
    with mock.patch.object(geometry, "KDTREE_MIN", FORCE["brute"]):
        one = geometry._nearest(P, B, "l2", geometry.TIE_TOL)
        with mock.patch.object(geometry, "_BLOCK", block):
            blocks = geometry._nearest(P, B, "l2", geometry.TIE_TOL)
            assert np.array_equal(geometry._nearest(P, B, "l2"), one[0])
    assert one[1].size > len(P)
    for a, b in zip(one, blocks):
        assert np.array_equal(a, b)


def test_witnesses_are_read_only():
    """Witness sets share no writeable buffer, on either path, tied or not."""
    Q = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [3.0, 3.0]])
    for path in sorted(FORCE):
        with mock.patch.object(geometry, "KDTREE_MIN", FORCE[path]):
            for q in ([0.0, 0.0], [0.0, 5.0]):
                _, w = dist_point_set(q, PointSet.of(Q, dedup_tol=0))
                assert not w.points.flags.writeable


def test_tree_is_built_once_per_set():
    B = PointSet.of(np.arange(12.0).reshape(6, 2))
    assert B.tree is B.tree


def test_hausdorff_reuses_the_cached_trees():
    """`PointSet.of` builds no tree, so building two large sets and a first
    `hausdorff` build one tree per set, for the query against it, and a
    second `hausdorff` builds none."""
    nets = [disc_net(c, 1.0, 0.02).points for c in ((0.0, 0.0), (0.5, 0.0))]
    with mock.patch.object(geometry, "cKDTree", wraps=cKDTree) as build:
        A, B = (PointSet.of(P) for P in nets)
        first = hausdorff(A, B)
    assert min(len(A), len(B)) > geometry.KDTREE_MIN
    assert build.call_count == 2
    with mock.patch.object(geometry, "cKDTree",
                           side_effect=AssertionError("tree rebuilt")):
        assert hausdorff(A, B) == first


# ---------------------------------------------------------------------------
# The grouped query: small groups in one padded kernel, bitwise as `cdist`

TIE = geometry.TIE_TOL


@st.composite
def grouped_instance(draw):
    """Rows, each paired with one of 1-4 sets of 1-12 grid points (one-point
    sets included) in d = 1-3, at scales from 1e-3 to 1e4.  One set holds
    points at distances 1 and 1 + TIE_TOL (1 + s) from a row, s within a
    few ulps of 0, so that row's tie is decided at the tolerance's edge."""
    dim = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 0.37, 1e-3, 1e4]))
    cell = st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)
    sets = [np.array(draw(st.lists(cell, min_size=1, max_size=draw(
        st.integers(1, 12)))), dtype=float) * scale
        for _ in range(draw(st.integers(1, 4)))]
    rows = [np.array(draw(cell), dtype=float) * scale
            for _ in range(draw(st.integers(1, 12)))]
    owner = [draw(st.integers(0, len(sets) - 1)) for _ in rows]
    q = rows[0]
    s = draw(st.sampled_from([-1e-6, 0.0, 1e-6, 1e-3]))
    e = np.eye(dim)[draw(st.integers(0, dim - 1))]
    sets[owner[0]] = np.vstack([sets[owner[0]], q + e,
                                q - (1.0 + TIE * (1.0 + s)) * e])
    return np.array(rows), np.array(owner), sets


# A 3-point and a 4-point set share the kernel's width, so the first is
# padded, and the first row's witness is its last point.
PADDED = (np.array([[2.25], [0.0]]), np.array([0, 1]),
          [np.array([[0.0], [1.0], [2.0]]),
           np.array([[0.0], [1.0], [2.0], [3.0]])])


@settings(max_examples=150, deadline=None)
@given(grouped_instance(), st.sampled_from(NORMS),
       st.sampled_from([0, 8, 10 ** 9]))
@example(PADDED, "l2", 10 ** 9)
def test_grouped_query_matches_queries_per_group(inst, norm, group_max):
    """`_nearest_groups` and `project_groups`, with groups sent to the
    padded kernel or to `_nearest` by the patched GROUP_MAX, against
    `_nearest` and `project_rows` on each group alone through `cdist`:
    the same distances, witnesses and picks, bit for bit."""
    P, owner, sets = inst
    psets = [PointSet.of(S, dedup_tol=0) for S in sets]
    with mock.patch.object(geometry, "GROUP_MAX", group_max):
        dist, rows, cols, wit = geometry._nearest_groups(P, owner, psets,
                                                         norm, TIE)
        pdist, picks = geometry.project_groups(P, owner, psets, norm)
    assert np.array_equal(dist, pdist)
    assert np.array_equal(wit, np.concatenate(
        [psets[owner[r]].points[c][None] for r, c in zip(rows, cols)]))
    assert np.all(np.diff(rows * 100 + cols) > 0)
    with mock.patch.object(geometry, "GROUP_MAX", 0), \
            mock.patch.object(geometry, "KDTREE_MIN", FORCE["brute"]):
        for g, B in enumerate(psets):
            mine = np.flatnonzero(owner == g)
            if not mine.size:
                continue
            d, i, j = geometry._nearest(P[mine], B, norm, TIE)
            assert np.array_equal(dist[mine], d)
            got = np.isin(rows, mine)
            assert np.array_equal(rows[got], mine[i])
            assert np.array_equal(cols[got], j)
            d, k = project_rows(P[mine], B, norm)
            assert np.array_equal(pdist[mine], d)
            assert np.array_equal(picks[mine], k)
    for p, g, d, k in zip(P, owner, pdist, picks):
        ref_d, ref_idx = oracle_dist_point_set(p, sets[g], norm)
        w = sets[g][ref_idx]
        assert d == ref_d
        assert np.array_equal(sets[g][k], w[np.lexsort(w.T[::-1])[0]])


def test_grouped_query_ties_at_the_tolerance():
    """The planted pairs decide both ways: a point at 1 + TIE_TOL (1 - 1e-3)
    is a witness and one at 1 + TIE_TOL (1 + 1e-3) is not, on both paths,
    and the lexicographic pick prefers the smaller point."""
    P = np.array([[0.0], [0.0]])
    sets = [PointSet.of([[1.0], [-1.0 - TIE * (1 - 1e-3)]], dedup_tol=0),
            PointSet.of([[1.0], [-1.0 - TIE * (1 + 1e-3)]], dedup_tol=0)]
    for group_max in (0, 10 ** 9):
        with mock.patch.object(geometry, "GROUP_MAX", group_max):
            _, rows, cols, _ = geometry._nearest_groups(
                P, np.array([0, 1]), sets, "l2", TIE)
            _, picks = geometry.project_groups(P, np.array([0, 1]), sets)
        assert rows.tolist() == [0, 0, 1] and cols.tolist() == [0, 1, 0]
        assert picks.tolist() == [1, 0]


@pytest.mark.parametrize("dim", [1, 3, 8, 20])
def test_kernel_distances_equal_cdist_bitwise(dim):
    """Random rows and sets over fifteen decades: the kernel adds the
    coordinates in order, so its distances equal `cdist`'s bit for bit at
    every width, also from 8 coordinates on, where numpy's `sum` would add
    them pairwise."""
    rng = np.random.default_rng(dim)
    for scale in 10.0 ** np.arange(-9, 6):
        P = rng.normal(size=(20, dim)) * scale
        sets = [PointSet.of(rng.normal(size=(5, dim)) * scale, dedup_tol=0)
                for _ in range(4)]
        owner = np.arange(20) % 4
        for norm in NORMS:
            dist = geometry._nearest_groups(P, owner, sets, norm, TIE)[0]
            for g, B in enumerate(sets):
                assert np.array_equal(dist[owner == g],
                                      oracle_min_dists(P[owner == g],
                                                       B.points, norm))


# ---------------------------------------------------------------------------
# Hausdorff by cell bounds: only the rows that can reach the maximum

# d(a, B) for a = (2.72, 2.72) exceeds the computed bound d(r, B) + |a - r|
# through r = (0.366, 0.366) by two ulps, and the row (0, -100), in a cell
# of its own, sits at the float between them.  A bound without its rounding
# margin prunes the maximum, which is at a row that is not a representative.
_GAP = float(np.nextafter(3.8466608896548182, np.inf))
OFF_REP = ([[0.366, 0.366], [2.72, 2.72], [0.0, -100.0]],
           [[0.0, 0.0], [-_GAP, -100.0]])


@st.composite
def point_cloud(draw, dim, offset):
    """Lattice points or points on one line, scaled and moved to `offset`;
    up to 80 rows, so a set spans one cell or several."""
    scale = draw(st.sampled_from([1.0, 0.1, 0.37]))
    n = draw(st.integers(1, 80))
    if draw(st.booleans()):
        v = np.array(draw(st.lists(st.integers(-3, 3), min_size=dim,
                                   max_size=dim)), dtype=float)
        v[0] = draw(st.integers(1, 3))
        t = np.array(draw(st.lists(st.integers(-60, 60), min_size=n,
                                   max_size=n)))
        rows = t[:, None] * v
    else:
        rows = np.array(draw(st.lists(
            st.lists(st.integers(-12, 12), min_size=dim, max_size=dim),
            min_size=n, max_size=n)))
    return rows * scale + offset


@st.composite
def hausdorff_case(draw):
    dim = draw(st.integers(1, 3))
    offset = draw(st.sampled_from([0.0, 1e4]))
    A = draw(point_cloud(dim, offset))
    # One case in four compares a set with itself.
    B = A if draw(st.integers(0, 3)) == 0 else draw(point_cloud(dim, offset))
    return A.tolist(), B.tolist()


@settings(max_examples=150, deadline=None)
@given(hausdorff_case(), st.sampled_from(NORMS), st.sampled_from(sorted(FORCE)))
@example(OFF_REP, "l2", "tree")
@example(([[1e4, 1e4]], [[1e4 + 0.1, 1e4 - 0.3]]), "l1", "tree")
@example(([[0.5, 1e4]] * 40, [[0.1 * k, 1e4] for k in range(40)]),
         "linf", "tree")
def test_hausdorff_equals_the_brute_force_maximum(case, norm, path):
    """Bitwise the maximum over every row of the `cdist` distances, on one
    point, one cell, lines, identical sets and coordinates near 1e4, and
    with the maximum at a row that is not a representative."""
    A, B = (np.array(X, dtype=float) for X in case)
    ref = max(oracle_min_dists(A, B, norm).max(),
              oracle_min_dists(B, A, norm).max())
    with mock.patch.object(geometry, "KDTREE_MIN", FORCE[path]):
        got = hausdorff(PointSet.of(A, dedup_tol=0),
                        PointSet.of(B, dedup_tol=0), norm)
    assert got == ref


def test_hausdorff_cases_reach_the_pruned_rows():
    """The explicit examples above do what they are there for: the maximum
    of OFF_REP is at a row that is not a representative, and 40 equal rows
    form one cell."""
    A, B = (np.array(X) for X in OFF_REP)
    rows, bounds, _ = PointSet.of(A).cells
    assert np.argmax(oracle_min_dists(A, B)) not in rows[bounds[:-1]]
    same = PointSet.of([[0.5, 1e4]] * 40, dedup_tol=0)
    assert same.cells[1].tolist() == [0, 40]


@pytest.mark.parametrize("norm", NORMS)
def test_hausdorff_of_a_large_set_and_small_ones(norm):
    """A large set's cells against sets queried by brute force: a disc net
    and its rim with a few points off it, bitwise the `cdist` maximum."""
    net = disc_net((0.0, 0.0), 1.0, 0.02).points
    rng = np.random.default_rng(5)
    rim = net[np.abs(np.linalg.norm(net, axis=1) - 1.0) < 0.01]
    for B in (rng.uniform(-1.5, 1.5, (16, 2)), net[::700],
              np.vstack([rim[::40], [[0.0, 0.0]]])):
        ref = max(oracle_min_dists(net, B, norm).max(),
                  oracle_min_dists(B, net, norm).max())
        assert len(net) > geometry.KDTREE_MIN >= len(B)
        assert hausdorff(PointSet.of(net), PointSet.of(B), norm) == ref


def test_hausdorff_queries_few_rows_of_large_nets():
    """On two 8,201-point disc nets 4 apart, each direction passes at most
    1,000 rows to `_nearest`."""
    A = disc_net((-2.0, 2.0), 1.0, 0.02)
    B = disc_net((2.0, 2.0), 1.0, 0.02)
    assert len(A) == len(B) == 8201
    real = geometry._nearest

    def counted(P, S, *args):
        rows[id(S)] += len(P)
        return real(P, S, *args)

    for norm in NORMS:
        rows = {id(A): 0, id(B): 0}
        with mock.patch.object(geometry, "_nearest", counted):
            assert hausdorff(A, B, norm) == 4.0
        assert 0 < min(rows.values()) and max(rows.values()) <= 1000, norm


# ---------------------------------------------------------------------------
# Metric pairs and chains: two witness queries, no |A| x |B| matrix

@settings(max_examples=60, deadline=None)
@given(dims.flatmap(lambda d: st.lists(tied_instance(d), min_size=2,
                                       max_size=3)),
       st.sampled_from(sorted(FORCE)))
def test_pairs_and_chains_match_oracle(insts, path):
    """Each set holds ties planted around a query point, which is added to
    the set before it, so that point has several nearest partners."""
    sets = [np.vstack([Q, q]) for (_, Q), (q, _) in zip(insts, insts[1:])]
    sets.append(insts[-1][1])
    psets = [PointSet.of(S, dedup_tol=0) for S in sets]
    with mock.patch.object(geometry, "KDTREE_MIN", FORCE[path]):
        for A, B, S, T in zip(psets, psets[1:], sets, sets[1:]):
            (i, j), = geometry._pair_indices([A, B], "l2", geometry.TIE_TOL)
            assert list(zip(i.tolist(), j.tolist())) == sorted(_pairs(S, T))
        chains = enumerate_metric_chains(psets)
    ref = _all_chains(sets, limit=10 ** 6)
    expect = np.stack([np.stack([S[i] for S, i in zip(sets, ch)])
                       for ch in sorted(ref)])
    assert np.array_equal(chains, expect)


@settings(max_examples=60, deadline=None)
@given(dims.flatmap(lambda d: st.lists(tied_instance(d), min_size=2,
                                       max_size=4)),
       st.sampled_from(NORMS), st.sampled_from([0, 8, 10 ** 9]))
def test_batched_links_match_links_alone(insts, norm, group_max):
    """The links of a list of sets, from one grouped query (its groups sent
    to the padded kernel or to `_nearest` by the patched GROUP_MAX), equal
    `_pair_indices` of each two consecutive sets alone on the `cdist`
    path; in l2 they are the oracle's pairs, and the chains are the
    oracle's chains in its order."""
    sets = [np.vstack([Q, q]) for (_, Q), (q, _) in zip(insts, insts[1:])]
    sets.append(insts[-1][1])
    psets = [PointSet.of(S, dedup_tol=0) for S in sets]
    with mock.patch.object(geometry, "GROUP_MAX", group_max):
        links = geometry._pair_indices(psets, norm, geometry.TIE_TOL)
        chains = enumerate_metric_chains(psets, norm)
    with mock.patch.object(geometry, "GROUP_MAX", 0), \
            mock.patch.object(geometry, "KDTREE_MIN", FORCE["brute"]):
        alone = [geometry._pair_indices([A, B], norm, geometry.TIE_TOL)[0]
                 for A, B in zip(psets, psets[1:])]
    assert len(links) == len(alone) == len(sets) - 1
    for (i, j), (i2, j2) in zip(links, alone):
        assert np.array_equal(i, i2) and np.array_equal(j, j2)
    if norm == "l2":
        for (i, j), S, T in zip(links, sets, sets[1:]):
            assert list(zip(i.tolist(), j.tolist())) == sorted(_pairs(S, T))
        ref = _all_chains(sets, limit=10 ** 5)
        expect = np.stack([np.stack([S[i] for S, i in zip(sets, ch)])
                           for ch in sorted(ref)])
        assert np.array_equal(chains, expect)


def test_chains_of_large_nets_stay_small():
    """Pair enumeration on two 8,201-point nets builds no |A| x |B| matrix
    (that alone is 538 MB)."""
    A = disc_net((0.0, 0.0), 1.0, 0.02)
    B = disc_net((0.01, 0.0), 1.0, 0.02)
    tracemalloc.start()
    try:
        chains = enumerate_metric_chains([A, B])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chains) >= max(len(A), len(B))
    assert peak < 100 * 2 ** 20


# ---------------------------------------------------------------------------
# PointSet.of dedup: one keep-first rule at every size

def test_dedup_independent_of_set_size():
    tol = geometry.DEDUP_TOL
    near_zero = 0.6 * tol
    assert len(PointSet.of([0.0, near_zero])) == 1
    big = PointSet.of(list(range(5000)) + [near_zero])
    assert len(big) == 5000
    assert big.tree.n == 5000
    assert np.array_equal(big.points[:, 0], np.arange(5000.0))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3),
                          st.integers(0, 1)), min_size=1, max_size=40))
@example([(0, 0, 0), (0, 1, 0), (0, 2, 0)])
def test_dedup_tree_path_matches_loop(cells):
    """Near-duplicate chains: a row within tol of a dropped row only is kept,
    so the rule is keep-first, not the connected components."""
    tol = 1e-3
    arr = np.array([[x + k * 0.8 * tol, y] for x, k, y in cells])
    ref = oracle_dedup(arr, tol)
    for path in sorted(FORCE):
        with mock.patch.object(geometry, "KDTREE_MIN", FORCE[path]):
            assert np.array_equal(PointSet.of(arr, dedup_tol=tol).points, ref)


@st.composite
def near_duplicates(draw):
    """Clusters planted around lattice points: copies moved by 0, +-tol/2
    or +-tol on each axis (all signs equal included, where the projection
    gap is exactly tol), at coordinates near 0, 1e4 or 1e8."""
    dim = draw(st.integers(1, 3))
    tol = draw(st.sampled_from([2.0 ** -10, 2.0 ** -20]))
    offset = draw(st.sampled_from([0.0, 1e4, 1e8]))
    step = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        centre = np.array(draw(st.lists(st.integers(-3, 3), min_size=dim,
                                        max_size=dim))) * 4 * tol + offset
        sign = draw(st.sampled_from([1.0, -1.0]))
        rows.append(centre)
        rows.append(centre + sign * tol)
        for _ in range(draw(st.integers(0, 4))):
            rows.append(centre + tol * np.array(
                draw(st.lists(step, min_size=dim, max_size=dim))))
    order = draw(st.permutations(range(len(rows))))
    return np.array(rows)[list(order)], tol


@settings(max_examples=150, deadline=None)
@given(near_duplicates())
@example((np.array([[9999.953125, 9999.96875],
                   [9999.953125 + 2.0 ** -10, 9999.96875 + 2.0 ** -10]]),
          2.0 ** -10))
def test_dedup_projection_path_matches_oracle(inst):
    """The sorted-projection windows of large sets find every pair within
    tol, exactly at tol included, at any coordinate size."""
    arr, tol = inst
    with mock.patch.object(geometry, "KDTREE_MIN", 0):
        got = PointSet.of(arr, dedup_tol=tol).points
    assert np.array_equal(got, oracle_dedup(arr, tol))


def test_dedup_of_large_nets_builds_no_tree():
    """Above KDTREE_MIN rows the dedup sorts projections: an 8,201-point net
    keeps every row without building a tree, and a planted near copy of
    each row is dropped."""
    net = disc_net((0.3, -0.2), 1.0, 0.02).points
    near = net + geometry.DEDUP_TOL / 2
    with mock.patch.object(geometry, "cKDTree",
                           side_effect=AssertionError("tree built")):
        assert np.array_equal(PointSet.of(net).points, net)
        assert np.array_equal(PointSet.of(np.vstack([net, near])).points, net)
