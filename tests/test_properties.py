"""Property-based tests of the metric-geometry invariants."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from metricfourier.geometry import (PointSet, convex_hull, dist_point_set,
                                    hausdorff, hull_contains, is_metric_pair,
                                    metric_average, metric_linear_combination,
                                    metric_pairs, minkowski_combination)

coord = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)


def set_strategy(dim):
    elem = st.lists(coord, min_size=dim, max_size=dim) if dim > 1 else coord
    return st.lists(elem, min_size=1, max_size=5).map(PointSet.of)


sets1 = set_strategy(1)
sets2 = set_strategy(2)


@settings(max_examples=60, deadline=None)
@given(sets1, sets1)
def test_hausdorff_symmetry_1d(A, B):
    assert abs(hausdorff(A, B) - hausdorff(B, A)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(sets2, sets2)
def test_hausdorff_symmetry_2d(A, B):
    assert abs(hausdorff(A, B) - hausdorff(B, A)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(sets2)
def test_hausdorff_identity(A):
    assert hausdorff(A, A) == 0.0


@settings(max_examples=60, deadline=None)
@given(sets2, sets2, sets2)
def test_hausdorff_triangle_inequality(A, B, C):
    assert hausdorff(A, C) <= hausdorff(A, B) + hausdorff(B, C) + 1e-9


@settings(max_examples=60, deadline=None)
@given(sets2, sets2)
def test_hausdorff_equals_max_over_metric_pairs(A, B):
    pairs = metric_pairs(A, B)
    m = max(float(np.linalg.norm(a - b)) for a, b in pairs)
    assert abs(m - hausdorff(A, B)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(sets1, sets1)
def test_metric_average_subset_of_minkowski(A, B):
    avg = metric_average(0.5, A, B)
    mink = minkowski_combination([0.5, 0.5], [A, B])
    for p in avg.points:
        d, _ = dist_point_set(p, mink)
        assert d < 1e-9


@settings(max_examples=60, deadline=None)
@given(sets2, sets2)
def test_metric_pairs_are_metric_pairs(A, B):
    for a, b in metric_pairs(A, B):
        assert is_metric_pair(a, b, A, B)


@settings(max_examples=40, deadline=None)
@given(sets1, sets1, st.floats(min_value=0.0, max_value=1.0))
def test_convex_combination_in_hull_of_union(A, B, t):
    combo = metric_linear_combination([1.0 - t, t], [A, B])
    hull = convex_hull(PointSet.of(np.vstack([A.points, B.points]),
                                   dedup_tol=0))
    for p in combo.points:
        assert hull_contains(hull, p, tol=1e-9)


@settings(max_examples=40, deadline=None)
@given(sets1, sets1, sets1)
def test_three_set_metric_combination_in_hull(A, B, C):
    combo = metric_linear_combination([1 / 3, 1 / 3, 1 / 3], [A, B, C])
    hull = convex_hull(PointSet.of(
        np.vstack([A.points, B.points, C.points]), dedup_tol=0))
    for p in combo.points:
        assert hull_contains(hull, p, tol=1e-9)
