"""Unit tests for kernels, coefficients, partial sums, the set-valued
approximants, and the jump-error bounds."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad_vec

from metricfourier import fourier
from metricfourier.fixtures import (SCALAR_FIXTURES, constant_set_fixture,
                                    lines_fixture, sawtooth,
                                    singleton_fixture, square_wave,
                                    step_fixture, trig_poly, two_branch_sine)
from metricfourier.fourier import (QTOL, chain_coefficients,
                                   class_membership, delta_grid,
                                   dirichlet, dirichlet_antiderivative,
                                   dirichlet_cos_sum, djordan_bound_rhs,
                                   family_coefficients, fit_K,
                                   fourier_coefficients, limit_set_AF,
                                   metric_fourier, min_djordan_bound,
                                   modified_dirichlet,
                                   modified_dirichlet_antiderivative,
                                   partial_sum_of_chain,
                                   partial_sum_of_selection, quasi_moduli,
                                   selection_coefficients, svf_bound_rhs,
                                   svf_jump_omega, trig_eval)
from metricfourier.geometry import PointSet, hausdorff
from metricfourier.oracle import oracle_fourier, oracle_fourier_coefficients
from metricfourier.fixtures import step_svf
from metricfourier.svf import (MetricChain, Partition,
                               approximate_selection, local_moduli,
                               selection_family)

PI = math.pi


# ---------------------------------------------------------------------------
# kernels

def test_dirichlet_at_zero():
    for n in (1, 5, 17):
        assert abs(dirichlet(n, 0.0) - (n + 0.5)) < 1e-12


def test_dirichlet_at_pi():
    assert abs(dirichlet(1, PI) - (-0.5)) < 1e-12


def test_dirichlet_matches_cos_sum():
    rng = np.random.default_rng(5)
    x = rng.uniform(-PI, PI, 200)
    for n in (1, 8, 33):
        assert np.max(np.abs(dirichlet(n, x) - dirichlet_cos_sum(n, x))) < 1e-12


def test_dirichlet_unit_mass():
    for n in (1, 7, 64):
        mass = (dirichlet_antiderivative(n, PI)
                - dirichlet_antiderivative(n, -PI)) / PI
        assert abs(float(mass) - 1.0) < 1e-12


def test_modified_dirichlet_at_zero():
    for n in (1, 4, 12):
        assert abs(modified_dirichlet(n, 0.0) - n) < 1e-12


def test_kernel_difference_identity():
    rng = np.random.default_rng(6)
    x = rng.uniform(-PI, PI, 500)
    for n in (1, 9, 40):
        diff = dirichlet(n, x) - modified_dirichlet(n, x)
        assert np.max(np.abs(diff - 0.5 * np.cos(n * x))) < 1e-12


def test_antiderivative_values():
    for n in (1, 8):
        assert abs(float(dirichlet_antiderivative(n, 0.0))) < 1e-12
        span = (dirichlet_antiderivative(n, PI)
                - dirichlet_antiderivative(n, -PI))
        assert abs(float(span) - PI) < 1e-12


def test_antiderivative_finite_difference():
    h = 1e-5
    x = 0.7
    fd = (dirichlet_antiderivative(8, x + h)
          - dirichlet_antiderivative(8, x - h)) / (2.0 * h)
    assert abs(float(fd) - dirichlet(8, x)) < 1e-6


def test_modified_antiderivative_finite_difference():
    h = 1e-5
    x = -1.3
    fd = (modified_dirichlet_antiderivative(6, x + h)
          - modified_dirichlet_antiderivative(6, x - h)) / (2.0 * h)
    assert abs(float(fd) - modified_dirichlet(6, x)) < 1e-6


# ---------------------------------------------------------------------------
# coefficients and classical partial sums

def test_coefficients_cos3t_orthogonality():
    a, b = fourier_coefficients(lambda t: np.cos(3.0 * t), 5)
    assert abs(a[3] - 1.0) < 1e-9
    a[3] = 0.0
    assert np.max(np.abs(a)) < 1e-9
    assert np.max(np.abs(b)) < 1e-9


def test_square_wave_quadrature_matches_closed_form():
    f = square_wave()
    a, b = fourier_coefficients(np.vectorize(f.fn, otypes=[float]), 8,
                                breakpoints=f.breakpoints)
    ae, be = f.coefficients(8)
    assert abs(b[1] - 4.0 / PI) < 1e-9
    assert np.max(np.abs(a - ae)) < 1e-9
    assert np.max(np.abs(b - be)) < 1e-9


def test_step_quadrature_matches_closed_form():
    f = step_fixture()
    a, b = fourier_coefficients(np.vectorize(f.fn, otypes=[float]), 6,
                                breakpoints=f.breakpoints)
    ae, be = f.coefficients(6)
    assert np.max(np.abs(a - ae)) < 1e-9
    assert np.max(np.abs(b - be)) < 1e-9


def test_trig_polynomial_reproduction():
    f = trig_poly()
    for n in (3, 5):
        for x in np.linspace(-2.9, 2.9, 7):
            got = trig_eval(*f.coefficients(n), float(x), n)
            assert abs(got - f.fn(x)) < 1e-12


def test_square_wave_odd_symmetry_at_zero():
    f = square_wave()
    for n in (1, 9, 33):
        got = trig_eval(*f.coefficients(n), 0.0, n)
        assert abs(got) < 1e-12


def test_partial_sum_matches_dense_quadrature_oracle():
    f = square_wave()
    got = trig_eval(*f.coefficients(9), PI / 10.0, 9)
    ref = oracle_fourier(f.fn, 9, PI / 10.0, breakpoints=f.breakpoints)
    assert abs(got - ref) < 1e-6


# ---------------------------------------------------------------------------
# exact partial sums of chains

def test_chain_partial_sum_constant_reproduces():
    chi = Partition.of([-PI, 0.3, PI])
    c = MetricChain(chi, ((2.0,), (2.0,), (2.0,)))
    for n in (1, 6, 20):
        for x in (-2.0, 0.0, 1.7):
            assert abs(float(partial_sum_of_chain(c, n, x)[0]) - 2.0) < 1e-12


def test_chain_partial_sum_matches_step_coefficients():
    # Indicator of [1, pi) as a two-piece chain vs its closed-form series.
    f = step_fixture()
    chi = Partition.of([-PI, 1.0, PI])
    c = MetricChain(chi, ((0.0,), (1.0,), (1.0,)))
    for n in (2, 7, 25):
        a, b = f.coefficients(n)
        for x in (-1.0, 0.2, 2.5):
            got = float(partial_sum_of_chain(c, n, x)[0])
            assert abs(got - trig_eval(a, b, x, n)) < 1e-10


def test_chain_partial_sum_requires_full_period():
    chi = Partition.of([0.0, 1.0])
    c = MetricChain(chi, ((1.0,), (1.0,)))
    with pytest.raises(ValueError):
        partial_sum_of_chain(c, 3, 0.5)


def test_sampled_cos_chain_approaches_cos():
    F = singleton_fixture(math.cos)
    errs = []
    for depth in (6, 10):
        s = approximate_selection(F, (0.0, 1.0), depth)
        got = float(partial_sum_of_chain(s, 5, 0.3)[0])
        errs.append(abs(got - math.cos(0.3)))
    assert errs[0] < 0.1
    assert errs[1] < errs[0]


def phi_partial_sum(c, n, x):
    """Reference S_n c(x) = (1/pi) sum_i y_i (Phi_n(x - t_i) - Phi_n(x - t_{i+1}))."""
    phi = dirichlet_antiderivative(n, x - c.nodes)
    return (phi[:-1] - phi[1:]) @ c.values[:-1] / PI


def test_chain_partial_sum_matches_phi_formula():
    rng = np.random.default_rng(11)
    for _ in range(4):
        inner = np.sort(rng.uniform(-PI, PI, int(rng.integers(1, 60))))
        chi = Partition.of(np.concatenate([[-PI], inner, [PI]]))
        c = MetricChain(chi, rng.uniform(-2.0, 2.0, (len(chi), 2)))
        for n in (1, 16, 256):
            for x in rng.uniform(-PI, PI, 5):
                got = partial_sum_of_chain(c, n, float(x))
                assert np.max(np.abs(got - phi_partial_sum(c, n, x))) < 1e-12


def test_trig_eval_matrix_matches_columns():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(9, 3, 2)), rng.normal(size=(9, 3, 2))
    got = trig_eval(a, b, 0.7, 5)
    assert got.shape == (3, 2)
    for i in range(3):
        for j in range(2):
            assert abs(got[i, j] - trig_eval(a[:, i, j], b[:, i, j], 0.7, 5)) < 1e-13


def test_selection_quadrature_uses_the_given_breakpoints():
    # Coefficients are recomputed per call, with the breakpoints passed.
    f = step_fixture()
    F = singleton_fixture(f.fn)
    s = approximate_selection(F, (0.0, 0.0), 6)
    for bp in ((), f.breakpoints):
        a, b = fourier_coefficients(np.vectorize(f.fn, otypes=[float]), 6,
                                    breakpoints=bp)
        got_a, got_b = selection_coefficients(s, 6, breakpoints=bp)
        assert np.array_equal(got_a[:, 0], a) and np.array_equal(got_b[:, 0], b)
        got = partial_sum_of_selection(s, 6, 0.4, breakpoints=bp)
        assert abs(got[0] - trig_eval(a, b, 0.4)) < 1e-14


def piecewise_case(bps, columns):
    """(f, breakpoints, columns) for sorted breakpoints and, per coordinate,
    one piece (c, A, w, p) per panel: c + A sin(wt + p) between them, so f
    jumps at each breakpoint.  One coordinate gives a scalar f, two a
    point-valued f."""
    cols = []
    for pieces in columns:

        def col(t, pieces=pieces):
            c, amp, w, p = pieces[int(np.searchsorted(bps, t, side="right"))]
            return c + amp * math.sin(w * t + p)

        cols.append(col)
    if len(cols) == 1:
        return cols[0], bps, cols
    return (lambda t: np.array([g(t) for g in cols])), bps, cols


@st.composite
def piecewise_smooth(draw):
    """A `piecewise_case` with 0-3 breakpoints in one or two coordinates."""
    bps = sorted(x / 10.0 for x in draw(st.lists(
        st.integers(-30, 30), max_size=3, unique=True)))
    coef = st.floats(-2.0, 2.0)
    piece = st.tuples(coef, coef, st.floats(0.5, 4.0), st.floats(-3.0, 3.0))
    pieces = st.lists(piece, min_size=len(bps) + 1, max_size=len(bps) + 1)
    return piecewise_case(bps, [draw(pieces) for _ in
                                range(draw(st.sampled_from([1, 2])))])


@settings(max_examples=30, deadline=None)
@given(piecewise_smooth(), st.integers(0, 40))
# sin(3t + 6e-8) at n = 9: one 21-point `quad` panel of cos(9t) f(t) has an
# error estimate of 9.8e-11 and a true error of 1.4e-8, which the oracle
# must not accept.
@example(piecewise_case([], [[(0.0, 1.0, 3.0, 5.960464477539063e-08)]]), 9)
def test_vector_quadrature_matches_per_harmonic_quad(case, n):
    f, bps, cols = case
    a, b = fourier_coefficients(lambda ts: np.array([f(t) for t in ts]), n,
                                breakpoints=bps)
    shape = (n + 1,) if f is cols[0] else (n + 1, len(cols))
    assert a.shape == b.shape == shape
    a, b = a.reshape(n + 1, -1), b.reshape(n + 1, -1)
    for i, g in enumerate(cols):
        ao, bo = oracle_fourier_coefficients(g, n, breakpoints=bps)
        assert np.max(np.abs(a[:, i] - ao)) <= 1e-9
        assert np.max(np.abs(b[:, i] - bo)) <= 1e-9


@pytest.mark.parametrize("c", [0.3, -1.1, 2.0])
def test_vector_quadrature_converges_on_an_undeclared_kink(c):
    # |t - c| has a kink at c that no breakpoint announces.
    cols = (lambda t: abs(t - c), lambda t: t * abs(t - c))
    a, b = fourier_coefficients(
        lambda ts: np.column_stack([g(ts) for g in cols]), 40)
    for i, g in enumerate(cols):
        ao, bo = oracle_fourier_coefficients(g, 40)
        assert np.max(np.abs(a[:, i] - ao)) <= 1e-9
        assert np.max(np.abs(b[:, i] - bo)) <= 1e-9


def test_coefficients_ignore_the_value_at_a_breakpoint():
    # f = 1 on (0.2, 2.2) and 5 elsewhere, the breakpoints included: a rule
    # that evaluated f at a panel end would mix in the neighbour's value.
    f = lambda t: np.where((0.2 < t) & (t < 2.2), 1.0, 5.0)
    a, b = fourier_coefficients(f, 16, breakpoints=(0.2, 2.2))
    k = np.arange(1, 17)
    assert abs(a[0] - (10.0 * PI - 8.0) / PI) <= 1e-12
    assert np.max(np.abs(a[1:] + 4.0 * (np.sin(2.2 * k) - np.sin(0.2 * k))
                         / (PI * k))) <= 1e-12
    assert np.max(np.abs(b[1:] - 4.0 * (np.cos(2.2 * k) - np.cos(0.2 * k))
                         / (PI * k))) <= 1e-12


def reference_chain_coefficients(c, n):
    """A chain's exact coefficients from its own nodes alone: each
    antiderivative evaluated on them, as one chain at a time computed it."""
    ks = np.arange(1, n + 1)
    scale = (PI * ks)[:, None]
    a0 = c.integral(lambda t: t) / PI
    a = c.integral(lambda t: np.sin(np.multiply.outer(t, ks))) / scale
    b = c.integral(lambda t: -np.cos(np.multiply.outer(t, ks))) / scale
    return np.vstack([a0, a]), np.vstack([np.zeros_like(a0), b])


@pytest.mark.parametrize("n", [4, 40])
def test_family_coefficients_match_per_selection(n):
    """The family's one trigonometric table gives every chain selection the
    coefficients of `chain_coefficients` and of the per-chain reference, bit
    for bit, and every singleton selection its quadrature coefficients, on
    a family that mixes both, at an order below and above the chains' node
    count (10 or 11 nodes at depth 3)."""
    F = lines_fixture()
    chains = selection_family(F, 4, 3, 3)
    single = selection_family(singleton_fixture(math.cos), 3, 1, 3)
    fam = chains[:2] + single + chains[2:]
    assert len({id(s.partition) for s in chains}) > 1
    assert {s.smooth_fn is None for s in fam} == {True, False}
    got = family_coefficients(F, n, fam)
    assert got[0].shape == (n + 1, len(fam), 1)
    for j, s in enumerate(fam):
        if s.smooth_fn is None:
            want, one = reference_chain_coefficients(s, n), chain_coefficients(s, n)
        else:
            want = one = fourier_coefficients(s.smooth_fn, n, F.jump_points)
        for g, w, o in zip(got, want, one):
            assert np.array_equal(g[:, j], w)
            assert np.array_equal(o, w)


def test_singleton_coefficients_evaluate_F_once_per_node():
    F = step_svf()
    fn, points, calls = F.fn, [0], [0]

    def counted(ts):
        points[0] += len(ts)
        calls[0] += 1
        return fn(ts)

    F = dataclasses.replace(F, fn=counted)
    fam = selection_family(F, 7, 4, 9)
    points[0] = calls[0] = 0
    a, b = family_coefficients(F, 32, fam)
    assert points[0] < 1000
    # F is sampled once per refinement round of the quadrature, on the
    # nodes of every panel (378 one-point calls when quad_vec took one node
    # at a time).
    assert calls[0] <= 40
    # The step {0} -> {1} at x0: a_k = (sin k pi - sin k x0) / (pi k),
    # b_k = (cos k x0 - cos k pi) / (pi k), a_0 = (pi - x0) / pi.
    x0, k = 0.5, np.arange(1, 33)
    assert a.shape == b.shape == (33, 1, 1)
    assert abs(a[0, 0, 0] - (PI - x0) / PI) <= 1e-13 and b[0, 0, 0] == 0.0
    assert np.max(np.abs(a[1:, 0, 0] - (np.sin(k * PI) - np.sin(k * x0))
                         / (PI * k))) <= 1e-13
    assert np.max(np.abs(b[1:, 0, 0] - (np.cos(k * x0) - np.cos(k * PI))
                         / (PI * k))) <= 1e-13


def quad_vec_coefficients(f, n, breakpoints=()):
    """The coefficients as `scipy.integrate.quad_vec` gives them, one panel
    at a time and one node at a time, for a per-point f, and the number of
    nodes it evaluated."""
    cuts = sorted({-PI, PI} | {float(t) for t in breakpoints if -PI < t < PI})
    ks = np.arange(n + 1)

    def integrand(t):
        return np.multiply.outer(np.stack([np.cos(ks * t), np.sin(ks * t)]),
                                 f(t))

    total, nodes = 0.0, 0
    for u, v in zip(cuts, cuts[1:]):
        val, _, info = quad_vec(integrand, u, v, epsabs=QTOL, epsrel=QTOL,
                                norm="max", full_output=True)
        assert info.success
        total, nodes = total + val, nodes + info.neval
    return total / PI, nodes


@pytest.mark.parametrize("n", [32, 256, 1024])
@pytest.mark.parametrize("case", ["step-svf", "piecewise", "kink"])
def test_coefficients_match_quad_vec(case, n):
    # The rule, the error estimate, the acceptance and the choice of the
    # intervals to bisect are quad_vec's, so the two bisect the same
    # intervals; only the order of the node sums differs.  (The estimate
    # is so pessimistic that the values alone would not show a changed
    # acceptance: the node count does.)
    if case == "step-svf":
        F = step_svf()
        s = selection_family(F, 7, 4, 9)[0]
        g, bps = s.smooth_fn, F.jump_points
        f = lambda t: s.smooth_fn(np.array([t]))[0]
    elif case == "piecewise":
        f, bps, _ = piecewise_case([0.4], [[(0.5, 1.0, 2.0, 0.3),
                                            (-1.0, 0.5, 1.5, -1.0)]])
        g = np.vectorize(f, otypes=[float])
    else:
        f, g, bps = (lambda t: abs(t - 0.3)), (lambda t: np.abs(t - 0.3)), ()
    nodes = [0]

    def counted(ts):
        nodes[0] += len(ts)
        return g(ts)

    got = np.stack(fourier_coefficients(counted, n, bps))
    want, want_nodes = quad_vec_coefficients(f, n, bps)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14
    assert nodes[0] == want_nodes


def test_coefficients_warn_at_the_interval_limit(monkeypatch):
    # cos(40 t) against cos(40 t) needs more than 4 intervals.
    monkeypatch.setattr(fourier, "QUAD_LIMIT", 4)
    with pytest.warns(IntegrationWarning, match="precision not reached"):
        a, _ = fourier_coefficients(lambda t: np.cos(40.0 * t), 40)
    assert abs(a[40] - 1.0) > QTOL


# ---------------------------------------------------------------------------
# set-valued approximants

def test_metric_fourier_constant_set():
    F = constant_set_fixture([-1.0, 1.0])
    fam = selection_family(F, 3, 2, 5)
    for n in (1, 8):
        for x in (-1.0, 0.5):
            approx = metric_fourier(F, n, x, fam)
            assert hausdorff(approx, F(x)) < 1e-9


def test_metric_fourier_singleton_trig_poly():
    f = trig_poly()
    F = singleton_fixture(f.fn)
    fam = selection_family(F, 3, 2, 6)
    for x in (-2.0, 0.0, 1.3):
        approx = metric_fourier(F, 4, x, fam)
        assert hausdorff(approx, PointSet.of([f.fn(x)])) < 1e-8


@pytest.mark.parametrize("F", [two_branch_sine(),
                               singleton_fixture(trig_poly().fn)])
def test_metric_fourier_reuses_higher_order_coefficients(F):
    fam = selection_family(F, 3, 2, 6)
    coeffs = family_coefficients(F, 64, fam)
    for x in (-2.0, 0.0, 1.3):
        got = metric_fourier(F, 16, x, fam, coeffs=coeffs).points
        want = metric_fourier(F, 16, x, fam).points
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-13


def test_limit_set_continuous_point():
    F = two_branch_sine()
    fam = selection_family(F, 5, 3, 7)
    AF = limit_set_AF(F, 0.4, fam)
    assert hausdorff(AF, F(0.4)) < 1e-2


def test_limit_set_interior_only():
    F = lines_fixture()
    fam = selection_family(F, 3, 2, 4)
    with pytest.raises(ValueError):
        limit_set_AF(F, F.a, fam)


def test_limit_set_lines_excludes_half():
    F = lines_fixture()
    fam = selection_family(F, 9, 5, 8)
    AF = limit_set_AF(F, 0.5, fam)
    assert float(np.min(np.abs(AF.points[:, 0] - 0.5))) >= 0.125 - 1e-9


def test_limit_set_inside_minkowski_average():
    # A_F(x) is contained in (F(x-0) + F(x+0)) / 2.
    F = lines_fixture()
    fam = selection_family(F, 9, 5, 8)
    AF = limit_set_AF(F, 0.5, fam)
    left = np.array([-0.25, 0.0, 0.25])
    right = np.array([-1.0, 1.0])
    mink = {0.5 * l + 0.5 * r for l in left for r in right}
    for p in AF.points:
        assert min(abs(float(p[0]) - m) for m in mink) < 1e-9


# ---------------------------------------------------------------------------
# bounds

def test_djordan_rhs_omega_zero_delta_pi():
    assert abs(djordan_bound_rhs(3.0, 10, PI, 0.0)
               - 2.0 * 3.0 / (PI * 10)) < 1e-12


def test_djordan_rhs_zero_variation():
    assert abs(djordan_bound_rhs(0.0, 7, 0.5, 0.5)
               - 8.0 * 2.0 * 0.5) < 1e-12


def test_djordan_rhs_pinned_formula():
    n = 100
    cot = math.cos(PI / 8.0) / math.sin(PI / 8.0)
    expect = (4.0 / (PI * n)) * (1.0 + 6.0 * cot) + 16.0 * PI / 40.0
    assert abs(djordan_bound_rhs(2.0, n, PI / 4.0, PI / 40.0)
               - expect) < 1e-12


def test_bound_params_validation():
    with pytest.raises(ValueError):
        djordan_bound_rhs(1.0, 10, 4.0, 0.0)
    with pytest.raises(ValueError):
        djordan_bound_rhs(-1.0, 10, 1.0, 0.0)


def test_min_djordan_bound_improves_on_fixed_delta():
    deltas = delta_grid()
    best = min_djordan_bound(4.0, deltas, 64, deltas)
    assert best <= djordan_bound_rhs(4.0, 64, PI, PI) + 1e-12


def test_svf_bound_rhs_monotone_in_n():
    omega = 0.0
    vals = [svf_bound_rhs(2.0, n, 1.0, omega, 3.0) for n in (8, 16, 32)]
    assert vals[0] > vals[1] > vals[2]
    with pytest.raises(ValueError):
        svf_bound_rhs(2.0, 8, 1.0, omega, -1.0)
    with pytest.raises(ValueError):
        svf_bound_rhs(2.0, 8, 5.0, omega, 1.0)


def test_delta_grid_shape():
    d = delta_grid()
    assert len(d) == 32
    assert d[0] > 1e-3
    assert abs(d[-1] - PI) < 1e-12


def test_quasi_moduli_lines_jump():
    F = lines_fixture()
    omega = svf_jump_omega(F.variation_function, 0.5, F.a, F.b)
    assert abs(omega(0.2) - 0.2) < 1e-6
    lq, rq = quasi_moduli(F.variation_function, 0.5, 0.2, F.a, F.b)
    assert lq < 1e-9
    assert abs(rq - 0.2) < 1e-6


def test_class_membership_constant():
    report = class_membership(lambda t: 2.0, 0.0, 0.0, lambda d: 0.0,
                              lambda t: 0.0)
    assert report.member
    assert report.variation < 1e-9


def test_class_membership_square_wave():
    f = square_wave()
    # omega == 0 works away from the periodization jump at delta = pi.
    report = class_membership(f.fn, 4.0, 0.0, lambda d: 0.0, f.vf,
                              deltas=delta_grid(hi=3.0))
    assert report.member


def test_class_membership_sawtooth():
    f = sawtooth()
    report = class_membership(f.fn, 4.0 * PI, 0.0, lambda d: d, f.vf)
    assert report.member


def test_class_membership_detects_excess():
    f = square_wave()
    # Claiming too small a variation budget must fail.
    report = class_membership(f.fn, 1.0, 0.0, lambda d: 0.0, f.vf,
                              deltas=delta_grid(hi=3.0))
    assert not report.member


def test_fit_K():
    assert abs(fit_K([(2.0, 1.0), (3.0, 2.0)]) - 2.0) < 1e-12
    assert fit_K([(0.0, 0.0)]) == 0.0
    with pytest.raises(ValueError):
        fit_K([(1.0, 0.0)])


def test_scalar_fixture_registry():
    assert set(SCALAR_FIXTURES) == {"square-wave", "sawtooth", "step",
                                    "trig-poly"}


def local_moduli_jump_omega(vf, x, lo, hi):
    """The jump modulus composed from the full `local_moduli` report."""
    def omega(delta):
        left = local_moduli(vf, x, min(2.0 * delta, x - lo), lo, hi
                            ).left_quasi if x > lo else 0.0
        right = local_moduli(vf, x, min(delta, hi - x), lo, hi
                             ).right_quasi if x < hi else 0.0
        return max(left, right)
    return omega


@pytest.mark.parametrize("make", [step_svf, lines_fixture])
def test_svf_jump_omega_matches_local_moduli(make):
    F = make()
    x = float(F.jump_points[0])
    vf = F.variation_function
    got = svf_jump_omega(vf, x, F.a, F.b)
    want = local_moduli_jump_omega(vf, x, F.a, F.b)
    for d in delta_grid():
        assert got(d) == want(d)
    m = local_moduli(vf, x, 0.1, F.a, F.b)
    assert quasi_moduli(vf, x, 0.1, F.a, F.b) == (m.left_quasi, m.right_quasi)
