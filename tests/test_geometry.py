"""Unit tests for distances, projections, metric pairs, chains, and hulls.

Derived expectations are recomputed here by independent brute force
(plain double loops over the point lists) before being compared.
"""
import math

import numpy as np
import pytest

from metricfourier.geometry import (ChainExplosion, DimensionMismatch,
                                    PointSet, convex_hull, dist_point_set,
                                    enumerate_metric_chains, hausdorff,
                                    hull_contains, is_metric_pair,
                                    metric_average, metric_linear_combination,
                                    metric_pairs, minkowski_combination,
                                    project, set_norm, vec_norm)

ATOL = 1e-12


def brute_hausdorff(A, B):
    """Independent max of directed sup-min distances, plain loops."""
    def directed(P, Q):
        return max(min(np.linalg.norm(p - q) for q in Q) for p in P)

    return max(directed(A.points, B.points), directed(B.points, A.points))


def pset(*vals):
    return PointSet.of(list(vals))


# ---------------------------------------------------------------------------
# dist_point_set / project

def test_dist_identity():
    d, w = dist_point_set(0.0, pset(0.0))
    assert d == 0.0
    assert np.allclose(w.points, [[0.0]])


def test_dist_two_points():
    d, w = dist_point_set(0.3, pset(-1.0, 1.0))
    assert abs(d - 0.7) < ATOL
    assert np.allclose(w.points, [[1.0]])


def test_dist_tie_witnesses():
    d, w = dist_point_set(0.0, pset(-1.0, 1.0))
    assert abs(d - 1.0) < ATOL
    assert len(w) == 2


def test_project_matches_witnesses():
    w = project((0.0, 0.0), PointSet.of([(1.0, 0.0), (3.0, 0.0)]))
    assert np.allclose(w.points, [[1.0, 0.0]])


def test_dist_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dist_point_set((0.0, 0.0), pset(1.0))


# ---------------------------------------------------------------------------
# hausdorff / set_norm

def test_hausdorff_identity():
    A = pset(0.3, -1.2, 5.0)
    assert hausdorff(A, A) == 0.0


def test_hausdorff_singletons():
    assert abs(hausdorff(pset(0.0), pset(1.0)) - 1.0) < ATOL


def test_hausdorff_three_vs_two():
    A = pset(-0.25, 0.0, 0.25)
    B = pset(-1.0, 1.0)
    expect = brute_hausdorff(A, B)
    assert abs(expect - 1.0) < ATOL
    assert abs(hausdorff(A, B) - expect) < ATOL


def test_hausdorff_norm_variants():
    A = PointSet.of([(0.0, 0.0)])
    B = PointSet.of([(1.0, 1.0)])
    assert abs(hausdorff(A, B, "l1") - 2.0) < ATOL
    assert abs(hausdorff(A, B, "l2") - math.sqrt(2.0)) < ATOL
    assert abs(hausdorff(A, B, "linf") - 1.0) < ATOL


def test_set_norm():
    assert set_norm(pset(0.0)) == 0.0
    assert abs(set_norm(pset(-1.0, 1.0)) - 1.0) < ATOL
    assert abs(set_norm(PointSet.of([(3.0, 4.0)])) - 5.0) < ATOL


def test_vec_norm_variants():
    assert abs(vec_norm((3.0, 4.0)) - 5.0) < ATOL
    assert abs(vec_norm((3.0, 4.0), "l1") - 7.0) < ATOL
    assert abs(vec_norm((3.0, 4.0), "linf") - 4.0) < ATOL


# ---------------------------------------------------------------------------
# metric pairs

def test_metric_pairs_identity():
    pairs = metric_pairs(pset(2.0), pset(2.0))
    assert len(pairs) == 1


def test_metric_pairs_three_vs_two():
    A = pset(-0.25, 0.0, 0.25)
    B = pset(-1.0, 1.0)
    pairs = metric_pairs(A, B)
    got = {(float(a[0]), float(b[0])) for a, b in pairs}
    assert got == {(-0.25, -1.0), (0.25, 1.0), (0.0, -1.0), (0.0, 1.0)}


def test_metric_pairs_cover_both_sets():
    rng = np.random.default_rng(7)
    A = PointSet.of(rng.normal(size=(5, 2)))
    B = PointSet.of(rng.normal(size=(4, 2)))
    pairs = metric_pairs(A, B)
    a_seen = {tuple(a) for a, _ in pairs}
    b_seen = {tuple(b) for _, b in pairs}
    assert all(tuple(a) in a_seen for a in A.points)
    assert all(tuple(b) in b_seen for b in B.points)


def test_hausdorff_equals_max_over_pairs():
    rng = np.random.default_rng(11)
    for _ in range(25):
        A = PointSet.of(rng.normal(size=(rng.integers(1, 6), 2)))
        B = PointSet.of(rng.normal(size=(rng.integers(1, 6), 2)))
        pairs = metric_pairs(A, B)
        m = max(np.linalg.norm(a - b) for a, b in pairs)
        assert abs(m - hausdorff(A, B)) < 1e-9


def test_is_metric_pair_agrees_with_enumeration():
    A = pset(-0.25, 0.0, 0.25)
    B = pset(-1.0, 1.0)
    pairs = {(float(a[0]), float(b[0])) for a, b in metric_pairs(A, B)}
    for a in A.points:
        for b in B.points:
            expected = (float(a[0]), float(b[0])) in pairs
            assert is_metric_pair(a, b, A, B) == expected


# ---------------------------------------------------------------------------
# metric average

def test_metric_average_endpoints():
    A = pset(-0.25, 0.0, 0.25)
    B = pset(-1.0, 1.0)
    assert hausdorff(metric_average(0.0, A, B), A) < ATOL
    assert hausdorff(metric_average(1.0, A, B), B) < ATOL


def test_metric_average_lines_example():
    A = pset(-0.25, 0.0, 0.25)
    B = pset(-1.0, 1.0)
    got = np.sort(metric_average(0.5, A, B).points[:, 0])
    assert np.allclose(got, [-0.625, -0.5, 0.5, 0.625], atol=ATOL)


def test_metric_average_singletons():
    got = metric_average(0.5, pset(0.0), pset(2.0))
    assert np.allclose(got.points, [[1.0]])


def test_metric_average_range_check():
    with pytest.raises(ValueError):
        metric_average(1.5, pset(0.0), pset(1.0))


# ---------------------------------------------------------------------------
# chains and combinations

def test_chains_singletons():
    chains = enumerate_metric_chains([pset(1.0), pset(2.0)])
    assert len(chains) == 1
    assert np.allclose(chains[0], [[1.0], [2.0]])


def test_chains_zero_pm1_zero():
    chains = enumerate_metric_chains([pset(0.0), pset(-1.0, 1.0), pset(0.0)])
    got = {tuple(float(p[0]) for p in ch) for ch in chains}
    assert got == {(0.0, -1.0, 0.0), (0.0, 1.0, 0.0)}


def test_chain_count_equals_pair_count():
    A = pset(-0.25, 0.0, 0.25)
    B = pset(-1.0, 1.0)
    chains = enumerate_metric_chains([A, B])
    assert len(chains) == len(metric_pairs(A, B))


def test_chains_all_singletons_one_chain():
    sets = [pset(float(k)) for k in range(5)]
    assert len(enumerate_metric_chains(sets)) == 1


def test_chain_explosion():
    rng = np.random.default_rng(3)
    sets = [PointSet.of(rng.normal(size=(4, 1))) for _ in range(6)]
    with pytest.raises(ChainExplosion):
        enumerate_metric_chains(sets, limit=2)


def test_mlc_single_set():
    A = pset(-1.0, 2.0)
    got = metric_linear_combination([1.0], [A])
    assert hausdorff(got, A) < ATOL


def test_mlc_two_sets_is_metric_average():
    A = pset(-0.25, 0.0, 0.25)
    B = pset(-1.0, 1.0)
    got = metric_linear_combination([0.5, 0.5], [A, B])
    assert hausdorff(got, metric_average(0.5, A, B)) < ATOL


def test_mlc_sum_weights():
    got = metric_linear_combination([1.0, 1.0], [pset(0.0), pset(-1.0, 1.0)])
    assert np.allclose(np.sort(got.points[:, 0]), [-1.0, 1.0])


def test_minkowski_cartesian_product():
    A = pset(-0.25, 0.0, 0.25)
    B = pset(-1.0, 1.0)
    # Independent brute force over the full product.
    expect = sorted({round(0.5 * a + 0.5 * b, 15)
                     for a in (-0.25, 0.0, 0.25) for b in (-1.0, 1.0)})
    got = np.sort(minkowski_combination([0.5, 0.5], [A, B]).points[:, 0])
    assert np.allclose(got, expect, atol=ATOL)
    assert len(got) == 6


def test_minkowski_single_set_scales():
    got = minkowski_combination([2.0], [pset(-1.0, 3.0)])
    assert np.allclose(np.sort(got.points[:, 0]), [-2.0, 6.0])


def test_minkowski_zero_difference():
    got = minkowski_combination([1.0, -1.0], [pset(0.0), pset(0.0)])
    assert np.allclose(got.points, [[0.0]])


def test_metric_subset_of_minkowski():
    A = pset(-0.25, 0.0, 0.25)
    B = pset(-1.0, 1.0)
    metric = metric_average(0.5, A, B)
    mink = minkowski_combination([0.5, 0.5], [A, B])
    gaps, _ = zip(*(dist_point_set(p, mink) for p in metric))
    assert max(gaps) < ATOL


# ---------------------------------------------------------------------------
# hulls

def test_hull_interval():
    got = convex_hull(pset(-1.0, 1.0, 0.0))
    assert np.allclose(np.sort(got.points[:, 0]), [-1.0, 1.0])


def test_hull_square():
    sq = PointSet.of([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    got = convex_hull(sq)
    assert len(got) == 4


def test_hull_drops_interior_point():
    A = PointSet.of([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.2, 0.2)])
    got = convex_hull(A)
    assert len(got) == 3
    assert not any(np.allclose(p, [0.2, 0.2]) for p in got.points)


def test_hull_contains_interval():
    hull = pset(-1.0, 1.0)
    assert hull_contains(hull, 0.0)
    assert hull_contains(hull, 1.0)
    assert not hull_contains(hull, 1.1)


def test_hull_contains_polygon():
    tri = PointSet.of([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    assert hull_contains(tri, (0.2, 0.2))
    assert hull_contains(tri, (0.5, 0.5))
    assert not hull_contains(tri, (0.6, 0.6))


def test_hull_contains_segment():
    seg = PointSet.of([(0.0, 0.0), (2.0, 2.0)])
    assert hull_contains(seg, (1.0, 1.0))
    assert not hull_contains(seg, (1.0, 1.5))


def test_hull_unsupported_dimension():
    A = PointSet.of([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])
    with pytest.raises(ValueError):
        convex_hull(A)


# ---------------------------------------------------------------------------
# PointSet plumbing

def test_pointset_dedup():
    A = PointSet.of([0.5, 0.5 + 1e-15, 1.0])
    assert len(A) == 2


def test_pointset_rejects_empty():
    with pytest.raises(ValueError):
        PointSet.of([])


def test_pointset_rejects_mixed_dims():
    with pytest.raises(DimensionMismatch):
        PointSet.of([[0.0], [0.0, 1.0]])


def test_pointset_of_list_and_array_agree():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(40, 2))
    pts[10] = pts[3] + 1e-14          # a near-duplicate to drop
    for arr in (pts, pts[:, :1], pts[:, 0]):
        want = PointSet.of(arr).points
        assert np.array_equal(PointSet.of(arr.tolist()).points, want)
    assert PointSet.of(pts).points.shape == (39, 2)
    assert PointSet.of(pts[:, 0]).points.shape == (39, 1)


def test_pointset_rejects_nan():
    with pytest.raises(ValueError):
        PointSet.of([float("nan")])
