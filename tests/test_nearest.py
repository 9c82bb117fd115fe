"""Differential tests of the nearest-point paths of the geometry layer.

Sets of more than `geometry.GRID_MIN` points are queried on their cached
cell grid, smaller ones by brute force.  Patching the constant forces
either path on small sets; the brute-force references live in `oracle.py`.
"""
import itertools
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import directed_hausdorff

from metricfourier import geometry
from metricfourier.fixtures import disc_net
from metricfourier.geometry import (PointSet, dist_point_set,
                                    enumerate_metric_chains, hausdorff,
                                    min_dists, project_groups)
from metricfourier.oracle import (_all_chains, _pairs, oracle_dedup,
                                  oracle_dist_point_set, oracle_min_dists)

ATOL = 1e-12
NORMS = ("l1", "l2", "linf")
# GRID_MIN values that force the grid path and the brute-force path.
FORCE = {"grid": 0, "brute": 10 ** 9}


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
    with mock.patch.object(geometry, "GRID_MIN", FORCE[path]):
        d, w = dist_point_set(q, PointSet.of(Q, dedup_tol=0), norm)
    assert abs(d - ref_d) <= ATOL
    index = {tuple(r): i for i, r in enumerate(Q)}
    assert [index[tuple(r)] for r in w.points] == ref_idx.tolist()


@settings(max_examples=80, deadline=None)
@given(dims.flatmap(tied_instance), st.sampled_from(NORMS),
       st.sampled_from(sorted(FORCE)))
def test_project_rows_matches_oracle(inst, norm, path):
    """Projection onto one set: each row's distance and the index of its
    lexicographically smallest witness."""
    q, Q = inst
    P = np.vstack([q, Q[:3], q[::-1] if q.size > 1 else -q])
    with mock.patch.object(geometry, "GRID_MIN", FORCE[path]):
        dist, picks = project_groups(P, np.zeros(len(P), dtype=np.intp),
                                     [PointSet.of(Q, dedup_tol=0)], norm)
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
    with mock.patch.object(geometry, "GRID_MIN", FORCE[path]):
        got = min_dists(P, Q, norm)
    assert np.allclose(got, oracle_min_dists(P, Q, norm), rtol=0, atol=ATOL)


coords = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
cloud2 = st.lists(st.tuples(coords, coords), min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(cloud2, cloud2, st.sampled_from(sorted(FORCE)))
def test_hausdorff_matches_scipy_directed_hausdorff(a, b, path):
    A, B = np.array(a), np.array(b)
    ref = max(directed_hausdorff(A, B)[0], directed_hausdorff(B, A)[0])
    with mock.patch.object(geometry, "GRID_MIN", FORCE[path]):
        got = hausdorff(PointSet.of(A, dedup_tol=0), PointSet.of(B, dedup_tol=0))
    assert abs(got - ref) <= ATOL


def test_paths_agree_at_the_cutoff():
    """Sizes on both sides of the real constant, with four points tied at
    distance 1 from the query in every norm and all others farther."""
    rng = np.random.default_rng(7)
    q = np.array([0.25, -0.5])
    ring = q + np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    for m in (geometry.GRID_MIN, geometry.GRID_MIN + 1):
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
    with mock.patch.object(geometry, "GRID_MIN", FORCE["brute"]):
        one = geometry._nearest(P, B, "l2", witnesses=True)
        with mock.patch.object(geometry, "_BLOCK", block):
            blocks = geometry._nearest(P, B, "l2", witnesses=True)
            assert np.array_equal(geometry._nearest(P, B, "l2"), one[0])
    assert one[1].size > len(P)
    for a, b in zip(one, blocks):
        assert np.array_equal(a, b)


def test_witnesses_are_read_only():
    """Witness sets share no writeable buffer, on either path, tied or not."""
    Q = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [3.0, 3.0]])
    for path in sorted(FORCE):
        with mock.patch.object(geometry, "GRID_MIN", FORCE[path]):
            for q in ([0.0, 0.0], [0.0, 5.0]):
                _, w = dist_point_set(q, PointSet.of(Q, dedup_tol=0))
                assert not w.points.flags.writeable


def test_grid_is_built_once_per_set():
    B = PointSet.of(np.arange(12.0).reshape(6, 2))
    assert B.cells is B.cells


def test_hausdorff_reuses_the_cached_grids():
    """`PointSet.of` builds no grid, so building two large sets and a first
    `hausdorff` build one grid per set, and a second `hausdorff` builds
    none."""
    nets = [disc_net(c, 1.0, 0.02).points for c in ((0.0, 0.0), (0.5, 0.0))]
    with mock.patch.object(geometry, "_grid",
                           wraps=geometry._grid) as build:
        A, B = (PointSet.of(P) for P in nets)
        first = hausdorff(A, B)
    assert min(len(A), len(B)) > geometry.GRID_MIN
    assert build.call_count == 2
    with mock.patch.object(geometry, "_grid",
                           side_effect=AssertionError("grid rebuilt")):
        assert hausdorff(A, B) == first


# ---------------------------------------------------------------------------
# The grouped query: small groups in one `_scan`, bitwise as `cdist`

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


# A 3-point and a 4-point set laid end to end as two cells: the first row's
# witness is the last point of its set, beside the first of the next.
END_TO_END = (np.array([[2.25], [0.0]]), np.array([0, 1]),
              [np.array([[0.0], [1.0], [2.0]]),
               np.array([[0.0], [1.0], [2.0], [3.0]])])


@settings(max_examples=150, deadline=None)
@given(grouped_instance(), st.sampled_from(NORMS),
       st.sampled_from([0, 8, 10 ** 9]))
@example(END_TO_END, "l2", 10 ** 9)
def test_grouped_query_matches_queries_per_group(inst, norm, group_max):
    """`_nearest_groups` and `project_groups`, with groups sent to
    `_scan` or to `_nearest` by the patched GROUP_MAX, against
    `_nearest` and `project_groups` on each group alone by brute force:
    the same distances, witnesses and picks, bit for bit."""
    P, owner, sets = inst
    psets = [PointSet.of(S, dedup_tol=0) for S in sets]
    with mock.patch.object(geometry, "GROUP_MAX", group_max):
        dist, rows, cols, wit = geometry._nearest_groups(P, owner, psets,
                                                         norm)
        pdist, picks = geometry.project_groups(P, owner, psets, norm)
    assert np.array_equal(dist, pdist)
    assert np.array_equal(wit, np.concatenate(
        [psets[owner[r]].points[c][None] for r, c in zip(rows, cols)]))
    assert np.all(np.diff(rows * 100 + cols) > 0)
    with mock.patch.object(geometry, "GROUP_MAX", 0), \
            mock.patch.object(geometry, "GRID_MIN", FORCE["brute"]):
        for g, B in enumerate(psets):
            mine = np.flatnonzero(owner == g)
            if not mine.size:
                continue
            d, i, j = geometry._nearest(P[mine], B, norm, witnesses=True)
            assert np.array_equal(dist[mine], d)
            got = np.isin(rows, mine)
            assert np.array_equal(rows[got], mine[i])
            assert np.array_equal(cols[got], j)
            d, k = project_groups(P[mine], np.zeros_like(mine), [B], norm)
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
                P, np.array([0, 1]), sets, "l2")
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
            dist = geometry._nearest_groups(P, owner, sets, norm)[0]
            for g, B in enumerate(sets):
                assert np.array_equal(dist[owner == g],
                                      oracle_min_dists(P[owner == g],
                                                       B.points, norm))


# ---------------------------------------------------------------------------
# `_nearest`'s brute-force blocks: the kernel in every block, bit for bit
# the oracle's `cdist`

@pytest.mark.parametrize("scale", [1e-3, 0.37, 1.0, 1e4])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("norm", NORMS)
def test_nearest_blocks_match_oracle_bitwise(norm, dim, scale):
    """Half-integer rows against integer grid sets, so that many rows are
    tied, in blocks of just below and just above GROUP_MAX entries (none
    at all for a set of GROUP_MAX + 1 points), and over two blocks of
    _BLOCK entries for the larger sets: the distances and the witnesses of
    the oracle's `cdist` rows, bit for bit, all through the kernel."""
    rng = np.random.default_rng(dim)
    most = geometry.GROUP_MAX
    for n in (1, 7, most, most + 1, geometry.GRID_MIN):
        Q = rng.integers(-4, 5, size=(n, dim)) * scale
        B = PointSet.of(Q, dedup_tol=0)
        sizes = (most // n, most // n + 1)
        if n >= most:
            sizes += (geometry._BLOCK // n + 1,)
        for m in sizes:
            P = rng.integers(-10, 11, size=(m, dim)) / 2 * scale
            with mock.patch.object(geometry, "_dist_matrix",
                                   wraps=geometry._dist_matrix) as kernel:
                dist = geometry._nearest(P, B, norm)
                d, i, j = geometry._nearest(P, B, norm, witnesses=True)
            blocks = 1 if m * n <= geometry._BLOCK else 2
            assert kernel.call_count == 2 * blocks
            assert np.array_equal(dist, oracle_min_dists(P, Q, norm))
            assert np.array_equal(d, dist)
            refs = [oracle_dist_point_set(p, Q, norm)[1] for p in P]
            assert np.array_equal(i, np.repeat(np.arange(m),
                                               [r.size for r in refs]))
            assert np.array_equal(j, np.concatenate([[], *refs]))


@pytest.mark.parametrize("norm", NORMS)
def test_nearest_of_no_rows_and_min_dists_of_non_finite_rows(norm):
    """A query of no rows gives empty arrays, on the kernel and the grid.
    `min_dists` refuses a NaN or infinite coordinate, in the rows or in the
    set, with one answer on every path: ValueError in one block, in several
    blocks and on the grid."""
    small = PointSet.of([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    large = disc_net((0.0, 0.0), 1.0, 0.02)
    assert len(large) > geometry.GRID_MIN
    for B in (small, large):
        d, i, j = geometry._nearest(np.empty((0, 2)), B, norm, witnesses=True)
        assert d.shape == i.shape == j.shape == (0,)
        assert geometry._nearest(np.empty((0, 2)), B, norm).shape == (0,)
        assert min_dists(np.empty((0, 2)), B.points, norm).shape == (0,)
    for bad in (np.nan, np.inf, -np.inf):
        for Q in (small.points, large.points):
            for m in (2, geometry.GROUP_MAX, geometry._BLOCK // len(Q) + 1):
                P = np.resize([[0.5, 0.5], [bad, 0.0]], (m, 2))
                assert min_dists(P[::2], Q, norm).shape == (-(-m // 2),)
                with pytest.raises(ValueError, match="non-finite"):
                    min_dists(P, Q, norm)
            with pytest.raises(ValueError, match="non-finite"):
                min_dists(small.points, np.vstack([Q, [[0.0, bad]]]), norm)


# ---------------------------------------------------------------------------
# Hausdorff by cell bounds: only the rows that can reach the maximum

# d(a, B) for a = (2.72, 2.72) exceeds the computed d(r, B) + |a - r|
# through r = (0.366, 0.366) by two ulps, and the row (0, -100), in a cell
# of its own, sits at the float between them.  A bound of that form without
# a rounding margin prunes the maximum, which is at a row that is not a
# representative.
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
@given(hausdorff_case(), st.sampled_from(NORMS),
       st.sampled_from(sorted(FORCE) + ["split"]))
@example(OFF_REP, "l2", "grid")
@example(OFF_REP, "l2", "split")
@example(([[1e4, 1e4]], [[1e4 + 0.1, 1e4 - 0.3]]), "l1", "grid")
@example(([[0.5, 1e4]] * 40, [[0.1 * k, 1e4] for k in range(40)]),
         "linf", "grid")
def test_hausdorff_equals_the_brute_force_maximum(case, norm, path):
    """Bitwise the maximum over every row of the `cdist` distances, on one
    point, one cell, lines, identical sets and coordinates near 1e4, and
    with the maximum at a row that is not a representative.  The "split"
    path sets GRID_MIN to the smaller size, so the larger set is bounded
    through its representatives against the smaller one."""
    A, B = (np.array(X, dtype=float) for X in case)
    ref = max(oracle_min_dists(A, B, norm).max(),
              oracle_min_dists(B, A, norm).max())
    grid_min = FORCE.get(path, min(len(A), len(B)))
    with mock.patch.object(geometry, "GRID_MIN", grid_min):
        got = hausdorff(PointSet.of(A, dedup_tol=0),
                        PointSet.of(B, dedup_tol=0), norm)
    assert got == ref


def test_hausdorff_cases_reach_the_pruned_rows():
    """The explicit examples above do what they are there for: the maximum
    of OFF_REP is at a row that is not a representative, and 40 equal rows
    form one cell."""
    A, B = (np.array(X) for X in OFF_REP)
    rows, bounds = PointSet.of(A).cells[:2]
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
        assert len(net) > geometry.GRID_MIN >= len(B)
        assert hausdorff(PointSet.of(net), PointSet.of(B), norm) == ref


@pytest.mark.parametrize("norm", NORMS)
def test_representative_bound_is_tight(norm):
    """A cell whose far end lies exactly at its bound, and whose
    representative lies one ulp nearer to B than that end: the cell is
    scanned because its bound exceeds the lower bound, by one ulp.  The
    representative's first witness, -5e-10, is within TIE_TOL of its
    distance but is not its nearest point, and still bounds the cell."""
    top = np.nextafter(1.0, 0.0)
    A = PointSet.of(np.r_[top, np.linspace(0.0, 0.5, 40), 1.0][:, None],
                    dedup_tol=0)
    rows, bounds = A.cells[:2]
    assert rows[bounds[-2]] == 0 and rows[-1] == 41
    for B in ([[0.0]], [[-5e-10], [0.0]]):
        with mock.patch.object(geometry, "GRID_MIN", 16):
            assert geometry._sup_dist(A, PointSet.of(B), norm) == 1.0


def test_hausdorff_queries_few_rows_of_large_nets():
    """On two 8,201-point disc nets 4 apart, each direction computes exact
    distances for at most 1,000 rows, counted once per `_scan`."""
    A = disc_net((-2.0, 2.0), 1.0, 0.02)
    B = disc_net((2.0, 2.0), 1.0, 0.02)
    assert len(A) == len(B) == 8201
    real = geometry._scan

    def counted(P, bounds, cols, cells, prow, *args):
        rows[id(bounds)] += np.unique(prow).size
        return real(P, bounds, cols, cells, prow, *args)

    for norm in NORMS:
        rows = {id(A.cells.bounds): 0, id(B.cells.bounds): 0}
        with mock.patch.object(geometry, "_scan", counted):
            assert hausdorff(A, B, norm) == 4.0
        assert 0 < min(rows.values()) and max(rows.values()) <= 1000, norm


def _work(A, B, norm):
    """hausdorff(A, B) and the entries of every box bound and distance it
    computed."""
    real_box, real_kernel = geometry._box_bounds, geometry._dist_matrix
    entries = [0]

    def box(*args):
        out = real_box(*args)
        entries[0] += out[0].size
        return out

    def kernel(*args):
        out = real_kernel(*args)
        entries[0] += out.size
        return out

    with mock.patch.object(geometry, "_box_bounds", box), \
            mock.patch.object(geometry, "_dist_matrix", kernel):
        value = hausdorff(A, B, norm)
    return value, entries[0]


@pytest.mark.parametrize("norm", NORMS)
def test_hausdorff_of_far_nets_prunes_cell_pairs(norm):
    """Two 8,201-point nets 4 apart: the cell pairs pruned by their boxes
    leave under 150,000 box bounds and distances for both directions (the
    cell pairs alone are about 200,000, the point pairs 67 million)."""
    A = disc_net((-2.0, 2.0), 1.0, 0.02)
    B = disc_net((2.0, 2.0), 1.0, 0.02)
    value, entries = _work(A, B, norm)
    assert value == 4.0
    assert entries < 150_000


# ---------------------------------------------------------------------------
# The cell grid: exact nearest neighbours, bit for bit the oracle's `cdist`

@st.composite
def grid_instance(draw):
    """A set of 40-300 lattice points in d = 1-3 (duplicates kept, one axis
    constant in some, five times as many copies of one point in others),
    at scales from 1e-3 to 1e4, and rows that test the
    grid: members, half-lattice rows, rows 50 times outside the set, the
    zero row, and a row with points at distances 1 and 1 + TIE_TOL (1 + s),
    s within a few ulps of 0, so its tie is decided at the tolerance's
    edge."""
    dim = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1e-3, 0.37, 1.0, 1e4]))
    n = draw(st.integers(40, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Q = rng.integers(-6, 7, size=(n, dim)).astype(float)
    if dim > 1 and draw(st.booleans()):
        Q[:, draw(st.integers(0, dim - 1))] = 2.0
    q = rng.integers(-6, 7, size=dim).astype(float)
    s = draw(st.sampled_from([-1e-6, 0.0, 1e-6, 1e-3]))
    e = np.eye(dim)[draw(st.integers(0, dim - 1))]
    Q = np.vstack([Q, q + e, q - (1.0 + TIE * (1.0 + s)) * e])
    if draw(st.booleans()):
        # Copies of one point crowd one cell.
        Q = np.vstack([Q, np.repeat(Q[:1], 5 * n, axis=0)])
    P = np.vstack([Q[rng.integers(0, len(Q), 8)],
                   rng.integers(-14, 15, size=(24, dim)) / 2,
                   50 * Q[rng.integers(0, len(Q), 4)],
                   np.zeros((1, dim)), q])
    return P * scale, Q * scale


@settings(max_examples=120, deadline=None)
@given(grid_instance(), st.sampled_from(NORMS))
def test_grid_queries_match_oracle_bitwise(inst, norm):
    """`_nearest` on the grid (GRID_MIN 0): each row's distance and its
    witnesses, in index order, are the oracle's `cdist` ones, bit for bit,
    with and without witnesses, and `project_groups` picks the same
    points."""
    P, Q = inst
    B = PointSet.of(Q, dedup_tol=0)
    with mock.patch.object(geometry, "GRID_MIN", 0):
        dist = geometry._nearest(P, B, norm)
        d, i, j = geometry._nearest(P, B, norm, witnesses=True)
        picks = project_groups(P, np.zeros(len(P), dtype=np.intp), [B],
                               norm)[1]
    refs = [oracle_dist_point_set(p, Q, norm)[1] for p in P]
    assert np.array_equal(dist, oracle_min_dists(P, Q, norm))
    assert np.array_equal(d, dist)
    assert np.array_equal(i, np.repeat(np.arange(len(P)),
                                       [r.size for r in refs]))
    assert np.array_equal(j, np.concatenate(refs))
    for k, r in zip(picks, refs):
        w = Q[r]
        assert np.array_equal(Q[k], w[np.lexsort(w.T[::-1])[0]])


@pytest.mark.parametrize("norm", NORMS)
def test_grid_on_a_disc_net_matches_oracle_bitwise(norm):
    """An 8,201-point net on its real grid: members, rows near it, rows in
    the empty corners of its box, far rows and the zero row, in one call
    of more rows than one block holds, all bitwise the oracle's."""
    net = disc_net((0.3, -0.2), 1.0, 0.02)
    Q = net.points
    rng = np.random.default_rng(11)
    P = np.vstack([Q[rng.integers(0, len(Q), 250)],
                   Q[rng.integers(0, len(Q), 250)]
                   + rng.normal(scale=0.03, size=(250, 2)),
                   rng.uniform(-1.0, 1.6, (250, 2)),
                   50 * Q[rng.integers(0, len(Q), 20)], [[0.0, 0.0]]])
    assert len(P) > geometry._BLOCK // (4 * net.cells.count.max())
    d, i, j = geometry._nearest(P, net, norm, witnesses=True)
    assert np.array_equal(d, oracle_min_dists(P, Q, norm))
    refs = [oracle_dist_point_set(p, Q, norm)[1] for p in P]
    assert np.array_equal(i, np.repeat(np.arange(len(P)),
                                       [r.size for r in refs]))
    assert np.array_equal(j, np.concatenate(refs))


def test_grid_reach_covers_the_rounding_of_positions():
    """A 1-d set from -1e4 to 0, whose cells are 416.67 wide: b lies
    below the computed edge of the cells around p, yet rounds into the
    cell beyond them, and w, inside them, is farther from p than b by less
    than that rounding.  Without its rounding margin the reach of p's
    cells would exceed d(p, w), and p would take d(p, w) as its
    distance."""
    b, w, p = -2399.999999999997, -2879.9999999999945, -2639.9999999999955
    Q = np.array([-1e4] * 200 + [0.0] * 200 + [b, w])[:, None]
    B = PointSet.of(Q, dedup_tol=0)
    G = B.cells
    corner = geometry._corner(G, np.array([[p]]))[0, 0]
    pos = np.floor((np.array([b, w]) - G.origin[0]) / G.side)
    assert pos.tolist() == [corner + 2, corner]
    assert abs(p - b) < abs(p - w) < G.origin[0] + (corner + 2) * G.side - p
    with mock.patch.object(geometry, "GRID_MIN", 0):
        for norm in NORMS:
            assert geometry._nearest(np.array([[p]]), B, norm) == abs(p - b)
            d, i, j = geometry._nearest(np.array([[p]]), B, norm, True)
            # w ties with b within TIE_TOL, so both are witnesses.
            assert d[0] == abs(p - b) and j.tolist() == [400, 401]


def test_hausdorff_of_sets_of_two_dimensions_raises():
    """Sets in different dimensions raise DimensionMismatch at every size,
    on the brute-force path, on one grid and on two."""
    small = (PointSet.of([[0.0, 0.0], [1.0, 1.0]]), PointSet.of([0.0, 2.0]))
    large = (disc_net((0.0, 0.0), 1.0, 0.035),
             PointSet.of(np.linspace(0.0, 1.0, 3000)))
    assert min(len(large[0]), len(large[1])) > geometry.GRID_MIN
    for A, B in itertools.product(small + large, repeat=2):
        if A.dim != B.dim:
            with pytest.raises(geometry.DimensionMismatch):
                hausdorff(A, B)


def _nets():
    """Pairs of nets of more than GRID_MIN points: 4 apart, nested (a small
    disc inside a large one) and interleaved (one net moved by half its
    spacing)."""
    big = disc_net((0.0, 0.0), 1.0, 0.035)
    return {"apart": (big, disc_net((4.0, 0.0), 1.0, 0.035)),
            "nested": (big, disc_net((0.1, 0.2), 0.5, 0.0175)),
            "interleaved": (big, disc_net((0.0175, 0.0175), 1.0, 0.035))}


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("case", ["apart", "nested", "interleaved"])
def test_hausdorff_of_large_nets_equals_brute_force(case, norm):
    """`hausdorff` of two sets on their grids, both ways round, equals the
    brute-force value (GRID_MIN 10^9) bit for bit."""
    A, B = _nets()[case]
    assert min(len(A), len(B)) > geometry.GRID_MIN
    got = (hausdorff(A, B, norm), hausdorff(B, A, norm))
    A, B = (PointSet.of(S.points) for S in (A, B))
    with mock.patch.object(geometry, "GRID_MIN", 10 ** 9):
        ref = hausdorff(A, B, norm)
    assert got == (ref, ref)


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
    with mock.patch.object(geometry, "GRID_MIN", FORCE[path]):
        for A, B, S, T in zip(psets, psets[1:], sets, sets[1:]):
            (i, j), = geometry._pair_indices([A, B], "l2")
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
    to `_scan` or to `_nearest` by the patched GROUP_MAX), equal
    `_pair_indices` of each two consecutive sets alone on the `cdist`
    path; in l2 they are the oracle's pairs, and the chains are the
    oracle's chains in its order."""
    sets = [np.vstack([Q, q]) for (_, Q), (q, _) in zip(insts, insts[1:])]
    sets.append(insts[-1][1])
    psets = [PointSet.of(S, dedup_tol=0) for S in sets]
    with mock.patch.object(geometry, "GROUP_MAX", group_max):
        links = geometry._pair_indices(psets, norm)
        chains = enumerate_metric_chains(psets, norm)
    with mock.patch.object(geometry, "GROUP_MAX", 0), \
            mock.patch.object(geometry, "GRID_MIN", FORCE["brute"]):
        alone = [geometry._pair_indices([A, B], norm)[0]
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
    assert big.cells.bounds[-1] == 5000
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
    """The sorted-projection windows find every pair within tol, exactly at
    tol included, at any coordinate size, in a set of the planted rows and
    in sets of them repeated to 12800 / d rows and one more."""
    arr, tol = inst
    ref = oracle_dedup(arr, tol)
    assert np.array_equal(PointSet.of(arr, dedup_tol=tol).points, ref)
    d = arr.shape[1]
    m = math.isqrt(12800 // d)
    for rows in (np.resize(arr, (m, d)), np.resize(arr, (m + 1, d))):
        assert np.array_equal(PointSet.of(rows, dedup_tol=tol).points,
                              oracle_dedup(rows, tol))


def test_dedup_clusters_take_linear_time():
    """Each row is tested only against the kept rows in its window, so
    20,000 equal rows, and 20,000 rows in 200 clusters spread below tol
    and shuffled, keep exactly the reference's rows within 2 s (a test of
    every near pair took about a minute)."""
    rng = np.random.default_rng(5)
    tol = geometry.DEDUP_TOL
    centres = np.repeat(rng.uniform(-5.0, 5.0, (200, 2)), 100, axis=0)
    clusters = centres + rng.uniform(0.0, tol / 4, centres.shape)
    for arr in (np.full((20000, 2), 0.25),
                clusters[rng.permutation(len(clusters))]):
        start = time.perf_counter()
        got = PointSet.of(arr).points
        elapsed = time.perf_counter() - start
        assert np.array_equal(got, oracle_dedup(arr, tol))
        assert elapsed < 2.0


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                       min_size=1, max_size=40)),
       st.one_of(st.just("all"), st.integers(1, 45)),
       st.lists(st.booleans(), min_size=40, max_size=40))
def test_lex_ranks_match_full_lexsort(rows, y_seeds, negate):
    """The seed picks' ranks equal the full lexsort's, index for index, on
    deduplicated sets with ties in the leading coordinates, and on the raw
    rows, where equal rows (0.0 and -0.0 among them) go by index."""
    raw = 0.5 * np.array(rows, dtype=float)
    raw[np.array(negate[:len(raw)])] *= -1.0
    for P in (PointSet.of(raw).points, raw):
        m = len(P)
        ranks = (np.arange(m) if y_seeds == "all" or y_seeds >= m else
                 np.linspace(0, m - 1, y_seeds).round().astype(int))
        assert np.array_equal(geometry.lex_ranks(P, ranks),
                              np.lexsort(P.T[::-1])[ranks])


def test_dedup_of_large_nets_builds_no_tree():
    """The dedup sorts projections: an 8,201-point net keeps every row
    without building a grid (or any other search structure), and a planted
    near copy of each row is dropped."""
    net = disc_net((0.3, -0.2), 1.0, 0.02).points
    near = net + geometry.DEDUP_TOL / 2
    with mock.patch.object(geometry, "_grid",
                           side_effect=AssertionError("grid built")):
        assert np.array_equal(PointSet.of(net).points, net)
        assert np.array_equal(PointSet.of(np.vstack([net, near])).points, net)
