"""Unit tests for weighted metric Riemann sums, the weighted metric integral,
the Aumann baseline, and the inclusion report."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricfourier import metric_integral
from metricfourier.fixtures import (balls_fixture, constant_set_fixture,
                                    lines_fixture, parse_svf,
                                    singleton_fixture, zero_union_sine)
from metricfourier.fourier import (dirichlet, dirichlet_antiderivative,
                                   metric_fourier)
from metricfourier.geometry import (PointSet, convex_hull, hausdorff,
                                    hull_contains, min_dists, set_norm)
from metricfourier.metric_integral import (WeightFunction,
                                           aumann_integral_convex,
                                           inclusion_check, integrate_weight,
                                           right_weighted_metric_riemann_sum,
                                           weighted_metric_integral,
                                           weighted_metric_riemann_sum)
from metricfourier.svf import (MetricSelection, Partition,
                               SetValuedFunction, exhaustive_chain_family,
                               selection_family)

PI = math.pi
ATOL = 1e-12


# ---------------------------------------------------------------------------
# weights

def test_constant_weight():
    k = WeightFunction.constant(2.5)
    assert k(0.3) == 2.5
    assert abs(integrate_weight(k, 0.0, 2.0) - 5.0) < ATOL


def test_integrate_weight_quadrature_matches_closed_form():
    # Same cosine with and without a declared antiderivative.
    exact = WeightFunction(np.cos, 4.0, 1.0, antiderivative=np.sin)
    quad_only = WeightFunction(np.cos, 4.0, 1.0)
    for u, v in [(0.0, 1.0), (-1.2, 2.3)]:
        assert abs(integrate_weight(exact, u, v)
                   - integrate_weight(quad_only, u, v)) < 1e-9


def test_integrate_weight_splits_at_discontinuities():
    k = WeightFunction(lambda x: 0.0 if x < 0.5 else 1.0, 1.0, 1.0,
                       discontinuities=(0.5,))
    assert abs(integrate_weight(k, 0.0, 1.0) - 0.5) < 1e-9


# ---------------------------------------------------------------------------
# Riemann sums

def test_riemann_singleton_constant():
    F = constant_set_fixture([2.0], 0.0, 1.0)
    chi = Partition.uniform(0.0, 1.0, 4)
    got = weighted_metric_riemann_sum(F, WeightFunction.constant(1.0), chi)
    assert np.allclose(got.points, [[2.0]])


def test_riemann_two_constant_branches():
    F = constant_set_fixture([-1.0, 1.0], 0.0, 1.0)
    chi = Partition.uniform(0.0, 1.0, 5)
    got = weighted_metric_riemann_sum(F, WeightFunction.constant(1.0), chi)
    # Mixed chains are excluded: projections preserve each branch.
    assert np.allclose(np.sort(got.points[:, 0]), [-1.0, 1.0])


def test_riemann_zero_weight():
    F = constant_set_fixture([-1.0, 1.0], 0.0, 1.0)
    chi = Partition.uniform(0.0, 1.0, 4)
    got = weighted_metric_riemann_sum(F, WeightFunction.constant(0.0), chi)
    assert np.allclose(got.points, [[0.0]])


def test_left_right_gap_exactly_one_over_n():
    # k(x)=x, F={1} on [0,1]: gap between left and right sums is 1/n.
    F = constant_set_fixture([1.0], 0.0, 1.0)
    k = WeightFunction(lambda x: x, 1.0, 1.0,
                       antiderivative=lambda x: x * x / 2.0)
    for n in (4, 16, 64):
        chi = Partition.uniform(0.0, 1.0, n)
        left = weighted_metric_riemann_sum(F, k, chi)
        right = right_weighted_metric_riemann_sum(F, k, chi)
        assert abs(hausdorff(left, right) - 1.0 / n) < ATOL


def test_family_mode_matches_exact_on_exhaustive_chains():
    F = lines_fixture()
    chi = Partition.dyadic(F.a, F.b, 3, forced=(0.5,))
    k = WeightFunction.constant(1.0)
    exact = weighted_metric_riemann_sum(F, k, chi)
    fam = exhaustive_chain_family(F, chi)
    via_family = weighted_metric_riemann_sum(F, k, chi, family=fam)
    assert hausdorff(exact, via_family) < 1e-9


def test_left_right_discrepancy_bound_lines():
    F = lines_fixture()
    k = WeightFunction.constant(1.0)
    chi = Partition.dyadic(F.a, F.b, 5, forced=(0.5,))
    left = weighted_metric_riemann_sum(F, k, chi)
    right = right_weighted_metric_riemann_sum(F, k, chi)
    bound = chi.norm * (1.0 * F.variation_hint + F.sup_hint * 0.0)
    assert hausdorff(left, right) <= bound + 1e-9


# ---------------------------------------------------------------------------
# weighted metric integral

def test_integral_singleton():
    F = constant_set_fixture([2.0], 0.0, 1.0)
    fam = selection_family(F, 3, 2, 4)
    res = weighted_metric_integral(F, WeightFunction.constant(1.0), fam)
    assert np.allclose(res.points, [[2.0]])


def test_integral_two_branches():
    F = constant_set_fixture([-1.0, 1.0], 0.0, 1.0)
    fam = selection_family(F, 3, 2, 4)
    res = weighted_metric_integral(F, WeightFunction.constant(1.0), fam)
    assert np.allclose(np.sort(res.points[:, 0]), [-1.0, 1.0])


def test_integral_matches_fine_riemann_sum():
    F = lines_fixture()
    k = WeightFunction.constant(1.0)
    chi = Partition.dyadic(F.a, F.b, 6, forced=(0.5,))
    exact = weighted_metric_riemann_sum(F, k, chi)
    fam = exhaustive_chain_family(F, chi)
    res = weighted_metric_integral(F, k, fam)
    # Selections are chains on chi; the integral replaces dx by exact cell
    # masses, identical here because k is constant.
    assert hausdorff(exact, res) < 1e-9


@st.composite
def chain_families(draw):
    """1-4 selections of one dimension d in {1, 2}, each a chain on a random
    partition of [-pi, pi] with random values."""
    d = draw(st.sampled_from([1, 2]))
    coord = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)
    selections = []
    for _ in range(draw(st.integers(1, 4))):
        inner = draw(st.lists(st.floats(-PI, PI, exclude_min=True,
                                        exclude_max=True), max_size=30))
        chi = Partition.of(sorted({-PI, PI, *inner}))
        vals = np.array(draw(st.lists(coord, min_size=len(chi) * d,
                                      max_size=len(chi) * d)))
        vals = vals.reshape(len(chi), d)
        selections.append(MetricSelection(chi, vals, (-PI, vals[0]), 0, 0.0))
    return d, tuple(selections)


@settings(max_examples=100, deadline=None)
@given(chain_families(), st.integers(1, 512), st.floats(-PI, PI))
def test_metric_fourier_is_the_dirichlet_weighted_integral(dfam, n, x):
    """S_nF(x) is the weighted metric integral of F against D_n(x - .)/pi,
    whose antiderivative in t is -Phi_n(x - t)/pi."""
    d, fam = dfam
    F = constant_set_fixture([[0.0] * d])
    k = WeightFunction(
        lambda t: dirichlet(n, x - t) / PI, 0.0, (n + 0.5) / PI,
        antiderivative=lambda t: -dirichlet_antiderivative(n, x - t) / PI)
    approx = metric_fourier(F, n, x, fam)
    assert hausdorff(approx, weighted_metric_integral(F, k, fam)) <= 1e-12


@pytest.mark.parametrize("fn,K,jumps", [
    (np.cos, np.sin, ()),
    (lambda t: 1.0 + t * t, lambda t: t + t ** 3 / 3.0, ()),
    (lambda t: float(t >= 0.5), lambda t: np.maximum(t - 0.5, 0.0), (0.5,)),
])
def test_integral_quadrature_matches_declared_antiderivative(fn, K, jumps):
    F = lines_fixture()
    fam = selection_family(F, 7, 4, 6)
    exact = weighted_metric_integral(
        F, WeightFunction(fn, 1.0, 1.0, jumps, antiderivative=K), fam)
    quad = weighted_metric_integral(F, WeightFunction(fn, 1.0, 1.0, jumps),
                                    fam)
    assert exact.points.shape == quad.points.shape
    assert np.max(np.abs(exact.points - quad.points)) <= 1e-9


def test_declared_antiderivative_takes_no_quadrature():
    F = lines_fixture()
    fam = selection_family(F, 7, 4, 6)
    with mock.patch.object(metric_integral, "integrate_weight",
                           wraps=integrate_weight) as spy:
        weighted_metric_integral(
            F, WeightFunction(np.cos, 4.0, 1.0, antiderivative=np.sin), fam)
        assert spy.call_count == 0
        weighted_metric_integral(F, WeightFunction(np.cos, 4.0, 1.0), fam)
        assert spy.call_count > 0


def test_integral_diameter_bound():
    F = constant_set_fixture([-1.0, 1.0], 0.0, 1.0)
    fam = selection_family(F, 3, 2, 4)
    res = weighted_metric_integral(F, WeightFunction.constant(1.0), fam)
    diam = 2.0 * set_norm(res)
    assert diam <= (1.0 - 0.0) * 1.0 * 1.0 * 2.0 + 1e-9


# ---------------------------------------------------------------------------
# Aumann baseline and convexification witness

def test_aumann_interval():
    F = constant_set_fixture([-1.0, 1.0], 0.0, 1.0)
    chi = Partition.uniform(0.0, 1.0, 64)
    got = aumann_integral_convex(F, WeightFunction.constant(1.0), chi)
    assert np.allclose(np.sort(got.points[:, 0]), [-1.0, 1.0])
    assert hull_contains(got, 0.0)


def test_aumann_singleton():
    F = constant_set_fixture([2.0], 0.0, 1.0)
    chi = Partition.uniform(0.0, 1.0, 16)
    got = aumann_integral_convex(F, WeightFunction.constant(1.0), chi)
    assert np.allclose(got.points, [[2.0]])


def test_aumann_scaled_hull_for_constant_set():
    # Fixed A with k >= 0: the integral is (integral of k) * co(A).
    F = constant_set_fixture([-1.0, 0.5], 0.0, 1.0)
    k = WeightFunction(lambda x: x, 1.0, 1.0,
                       antiderivative=lambda x: x * x / 2.0)
    chi = Partition.uniform(0.0, 1.0, 4096)
    got = np.sort(aumann_integral_convex(F, k, chi).points[:, 0])
    assert np.allclose(got, [-0.5, 0.25], atol=2e-4)


def test_aumann_planar_square():
    F = constant_set_fixture([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                             0.0, 1.0)
    chi = Partition.uniform(0.0, 1.0, 32)
    got = aumann_integral_convex(F, WeightFunction.constant(1.0), chi)
    assert len(got) == 4
    assert hull_contains(got, (0.5, 0.5))


@st.composite
def planar_cells(draw):
    """1-6 cells, each with a set of 1-6 points on the quarter grid of
    [-2, 2]^2 and a weight in [-2, 2] of either sign."""
    n = draw(st.integers(1, 6))
    coord = st.integers(-8, 8).map(lambda i: i / 4.0)
    sets = [PointSet.of(draw(st.lists(st.tuples(coord, coord), min_size=1,
                                      max_size=6))) for _ in range(n)]
    weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return sets, weights


@settings(max_examples=60, deadline=None)
@given(planar_cells())
def test_aumann_support_function_is_the_weighted_sum(cells):
    """The support function of the sum of the w_i conv F(x_i) is the sum of
    the support functions of the w_i F(x_i), on 360 directions."""
    sets, weights = cells
    n = len(sets)
    F = SetValuedFunction(0.0, float(n),
                          lambda ts: [sets[min(int(t), n - 1)] for t in ts])
    k = WeightFunction(lambda t: weights[min(int(t), n - 1)], 2.0, 2.0)
    chi = Partition.uniform(0.0, float(n), n)
    got = aumann_integral_convex(F, k, chi)
    ang = np.linspace(0.0, 2.0 * PI, 360, endpoint=False)
    U = np.stack([np.cos(ang), np.sin(ang)])
    w = np.diff(chi.nodes) * np.array(weights)
    want = sum((wi * S.points @ U).max(axis=0) for wi, S in zip(w, sets))
    assert np.abs((got.points @ U).max(axis=0) - want).max() <= ATOL


def per_cell_aumann(F, k, chi):
    """The Aumann baseline with one `convex_hull`, edge pass and support
    pass per cell."""
    nodes = chi.nodes[:-1]
    weights = np.diff(chi.nodes) * np.array([k(x) for x in nodes])
    hulls = [w * convex_hull(S).points
             for w, S in zip(weights, F.sample(nodes))]
    if hulls[0].shape[1] == 1:
        dirs = np.array([[-1.0], [1.0]])
    else:
        edges = np.vstack([np.roll(H, -1, axis=0) - H for H in hulls])
        normals = np.sort(np.arctan2(-edges[:, 0], edges[:, 1]))
        gaps = np.diff(normals, append=normals[0] + 2.0 * np.pi)
        keep = gaps > metric_integral.ANGLE_TOL
        mids = normals[keep] + gaps[keep] / 2.0
        dirs = np.column_stack([np.cos(mids), np.sin(mids)])
    support = [H[np.argmax(H @ dirs.T, axis=0)] for H in hulls]
    return convex_hull(PointSet.of(np.cumsum(support, axis=0)[-1]))


@st.composite
def mixed_cells(draw):
    """1-12 cells in d = 1 or 2, each a set of 1-4 points with real
    coordinates, or two points 1e-13 apart kept by dedup_tol=0; weights of
    either sign."""
    n, d = draw(st.integers(1, 12)), draw(st.sampled_from([1, 2]))
    point = st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)
    sets = []
    for _ in range(n):
        if draw(st.booleans()):
            p = np.array(draw(point))
            sets.append(PointSet.of([p, p + 1e-13], dedup_tol=0))
        else:
            sets.append(PointSet.of(draw(st.lists(point, min_size=1,
                                                  max_size=4))))
    weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return sets, weights


@settings(max_examples=80, deadline=None)
@given(st.one_of(planar_cells(), mixed_cells()))
def test_aumann_equals_the_per_cell_hull_pass(cells):
    # Sets of at most two points skip `convex_hull`, and hulls of one size
    # share their edge and support passes: the vertices stay bit for bit.
    sets, weights = cells
    n = len(sets)
    F = SetValuedFunction(0.0, float(n),
                          lambda ts: [sets[min(int(t), n - 1)] for t in ts])
    k = WeightFunction(lambda t: weights[min(int(t), n - 1)], 2.0, 2.0)
    chi = Partition.uniform(0.0, float(n), n)
    got = aumann_integral_convex(F, k, chi).points
    want = per_cell_aumann(F, k, chi).points
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_aumann_balls_has_the_sixteen_vertices_of_its_hulls():
    """Both discs' 0.5-nets have 16-gon hulls with the same edge normals,
    so their Minkowski sum over 256 cells is a 16-gon; rounding leaves no
    near-collinear vertices."""
    F = balls_fixture(eps=0.5)
    got = aumann_integral_convex(F, WeightFunction.constant(1.0),
                                 Partition.uniform(F.a, F.b, 256))
    assert len(got) == 16


def test_convexification_witness():
    # The metric integral of {-1,1} has two points; the Aumann integral is
    # the whole interval [-1,1] -- it contains 0 while the metric one does not.
    F = constant_set_fixture([-1.0, 1.0], 0.0, 1.0)
    fam = selection_family(F, 3, 2, 4)
    metric = weighted_metric_integral(F, WeightFunction.constant(1.0), fam)
    chi = Partition.uniform(0.0, 1.0, 64)
    aumann = aumann_integral_convex(F, WeightFunction.constant(1.0), chi)
    assert len(metric) == 2
    assert hull_contains(aumann, 0.0)
    assert min(abs(float(p[0])) for p in metric) >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# inclusion property

def test_inclusion_constant_fixture():
    F = constant_set_fixture([-1.0, 0.5])
    fam = selection_family(F, 3, 2, 4)
    report = inclusion_check(F, WeightFunction.constant(1.0), fam)
    assert not report.vacuous
    assert report.passed
    # Normalized integral of a constant-set fixture is the set itself.
    assert hausdorff(report.normalized, F(0.0)) < 1e-9


def test_inclusion_zero_union_sine():
    F = zero_union_sine()
    fam = selection_family(F, 7, 4, 7)
    report = inclusion_check(F, WeightFunction.constant(1.0), fam)
    assert not report.vacuous
    assert np.allclose(np.sort(report.intersection.points[:, 0]), [0.0])
    assert report.passed
    # The constant selection 0 puts 0 in the normalized integral.
    assert min(abs(float(p[0])) for p in report.normalized) < 1e-9


def test_inclusion_lines_vacuous_lower():
    F = lines_fixture()
    fam = selection_family(F, 7, 4, 6)
    report = inclusion_check(F, WeightFunction.constant(1.0), fam)
    assert report.vacuous
    assert report.lower_ok and report.upper_ok


@pytest.mark.parametrize("make", [
    zero_union_sine, lines_fixture, lambda: balls_fixture(eps=0.25),
    lambda: parse_svf({"domain": [0.0, 1.0], "pieces": [
        {"end": 0.5, "points": [[0.0], [1.0], [2.0]]},
        {"points": [[0.0], [1.0 + 5e-10], [2.0 + 1.5e-9]]}]})],
    ids=["zero-union-sine", "lines", "balls", "near-INTER_TOL"])
def test_inclusion_sets_equal_the_per_set_loop(make):
    """The intersection from one grouped query of the distinct sampled sets,
    and the union hull of the distinct sets, equal those of one `min_dists`
    call and one stacked copy per sampled point."""
    F = make()
    fam = selection_family(F, 3, 2, 4)
    report = inclusion_check(F, WeightFunction.constant(1.0), fam)
    xs = sorted(set(np.linspace(F.a, F.b, metric_integral.INCLUSION_GRID))
                | set(map(float, F.jump_points)))
    sampled = [F(x) for x in xs]
    cands = F(F.a).points
    keep = np.ones(len(cands), dtype=bool)
    for S in sampled:
        keep &= min_dists(cands, S.points) <= metric_integral.INTER_TOL
    if keep.any():
        assert np.array_equal(report.intersection.points, cands[keep])
    else:
        assert report.intersection is None
    union = convex_hull(PointSet.of(np.vstack([S.points for S in sampled]),
                                    dedup_tol=1e-9))
    assert np.array_equal(report.union_hull.points, union.points)


def test_inclusion_rejects_zero_mass():
    F = constant_set_fixture([1.0], 0.0, 1.0)
    fam = selection_family(F, 3, 2, 4)
    with pytest.raises(ValueError):
        inclusion_check(F, WeightFunction.constant(0.0), fam)


def test_singleton_sine_integral_value():
    F = singleton_fixture(math.sin, 0.0, PI)
    fam = selection_family(F, 5, 2, 8)
    res = weighted_metric_integral(F, WeightFunction.constant(1.0), fam)
    # Riemann sum of sin over [0, pi] at depth 8: within one-cell error of 2.
    assert abs(float(res.points[0, 0]) - 2.0) < 0.05


def test_riemann_sum_rejects_unknown_side():
    F = constant_set_fixture([1.0], 0.0, 1.0)
    chi = Partition.uniform(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        weighted_metric_riemann_sum(F, WeightFunction.constant(1.0), chi,
                                    side="middle")


def test_right_sum_is_the_right_side():
    F = lines_fixture()
    chi = Partition.dyadic(F.a, F.b, 3, forced=(0.5,))
    k = WeightFunction(np.cos, 4.0, 1.0, antiderivative=np.sin)
    fam = exhaustive_chain_family(F, chi)
    for family in (None, fam):
        right = right_weighted_metric_riemann_sum(F, k, chi, family)
        sided = weighted_metric_riemann_sum(F, k, chi, family, side="right")
        assert np.array_equal(right.points, sided.points)
    assert hausdorff(right_weighted_metric_riemann_sum(F, k, chi),
                     right_weighted_metric_riemann_sum(F, k, chi, fam)) < 1e-9
