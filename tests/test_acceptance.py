"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test ends with a single PASS line; assertion failures mark the
criterion failed.  Derived expectations are recomputed independently
(closed forms, brute-force enumeration, dense quadrature) inside the tests.
"""
import math
import time

import numpy as np
import pytest

from metricfourier import fixtures as fx
from metricfourier.cli import selection_depth
from metricfourier.fourier import (delta_grid, dirichlet,
                                   dirichlet_antiderivative,
                                   dirichlet_cos_sum, djordan_bound_rhs,
                                   limit_set_AF, metric_fourier,
                                   modified_dirichlet,
                                   modified_dirichlet_antiderivative,
                                   quasi_moduli)
from metricfourier.geometry import (PointSet, as_point, dist_point_set,
                                    hausdorff, is_metric_pair, metric_average)
from metricfourier.metric_integral import (WeightFunction,
                                           inclusion_check,
                                           right_weighted_metric_riemann_sum,
                                           weighted_metric_riemann_sum)
from metricfourier.oracle import TinyInstance, oracle_AF, oracle_riemann_set
from metricfourier.svf import (Partition, approximate_selection,
                               exhaustive_chain_family, greedy_chain,
                               local_moduli, selection_family,
                               total_variation)

PI = math.pi


@pytest.fixture
def report(capsys):
    # Bypass pytest's capture so each criterion's line shows in plain runs.
    def _report(msg: str) -> None:
        with capsys.disabled():
            print(msg)

    return _report


def trig_eval_trunc(a, b, x, n):
    ks = np.arange(1, n + 1)
    return float(a[0] / 2.0 + a[1:n + 1] @ np.cos(ks * x)
                 + b[1:n + 1] @ np.sin(ks * x))


# ---------------------------------------------------------------------------

def test_criterion_01_kernel_identities(report):
    rng = np.random.default_rng(101)
    x = rng.uniform(-PI, PI, 1000)
    dirichlet(2, x)  # warm the code paths before timing
    start = time.perf_counter()
    worst_sum = worst_diff = worst_mass = 0.0
    for n in range(1, 65):
        D = dirichlet(n, x)
        worst_sum = max(worst_sum, float(np.max(np.abs(
            D - dirichlet_cos_sum(n, x)))))
        Ds = modified_dirichlet(n, x)
        worst_diff = max(worst_diff, float(np.max(np.abs(
            D - Ds - 0.5 * np.cos(n * x)))))
        mass = (dirichlet_antiderivative(n, PI)
                - dirichlet_antiderivative(n, -PI)) / PI
        worst_mass = max(worst_mass, abs(float(mass) - 1.0))
    elapsed = time.perf_counter() - start
    assert worst_sum < 1e-10
    assert worst_diff < 1e-10
    assert worst_mass < 1e-10
    assert elapsed < 1.0
    report(f"PASS: criterion 1 kernel identities "
          f"(max dev {max(worst_sum, worst_diff, worst_mass):.2e}, "
          f"{elapsed:.2f}s)")


def test_criterion_02_modified_kernel_integral_constant(report):
    start = time.perf_counter()
    xi = np.linspace(0.0, PI, 1000)
    worst = 0.0
    for n in range(1, 513):
        vals = (2.0 / PI) * np.abs(modified_dirichlet_antiderivative(n, xi))
        worst = max(worst, float(vals.max()))
    elapsed = time.perf_counter() - start
    assert worst <= 2.0 + 1e-6
    assert elapsed < 30.0
    report(f"PASS: criterion 2 |(2/pi) int D*_n| <= 2 "
          f"(max {worst:.6f}, {elapsed:.1f}s)")


def test_criterion_03_coefficient_decay(report):
    for fixture in (fx.square_wave(), fx.sawtooth()):
        a, b = fixture.coefficients(512)
        V = fixture.variation
        for n in range(1, 513):
            bound = 2.0 * V / (PI * n) + 1e-9
            assert abs(a[n]) <= bound
            assert abs(b[n]) <= bound
    report("PASS: criterion 3 coefficient decay 2V/(pi n) on square wave "
          "and sawtooth, n <= 512")


def test_criterion_04_refined_jump_bound(report):
    orders = [2 ** k for k in range(3, 10)]  # 8 .. 512
    deltas = delta_grid()
    for fixture in (fx.square_wave(), fx.sawtooth(), fx.step_fixture()):
        a, b = fixture.coefficients(max(orders))
        omega = np.maximum(*quasi_moduli(fixture.vf, fixture.jump, deltas,
                                         -PI, PI))
        for n in orders:
            observed = abs(trig_eval_trunc(a, b, fixture.jump, n)
                           - fixture.midpoint)
            bound = djordan_bound_rhs(fixture.variation, n, deltas,
                                      omega).min()
            assert observed <= bound, (fixture.name, n, observed, bound)
    report("PASS: criterion 4 refined jump bound with C=2 on square wave, "
          "sawtooth, step (n in 8..512)")


def test_criterion_05_lines_example(report):
    A = PointSet.of([-0.25, 0.0, 0.25])
    B = PointSet.of([-1.0, 1.0])
    got = np.sort(metric_average(0.5, A, B).points[:, 0])
    assert len(got) == 4
    assert np.allclose(got, [-0.625, -0.5, 0.5, 0.625], atol=1e-12)
    F = fx.lines_fixture()
    fam = selection_family(F, 9, 5, 8)
    AF = limit_set_AF(F, 0.5, fam)
    gap = float(np.min(np.abs(AF.points[:, 0] - 0.5)))
    assert gap >= 0.125 - 1e-9
    agreement = hausdorff(AF, oracle_AF(F, 0.5))
    assert agreement <= 1e-9
    report(f"PASS: criterion 5 lines example (gap {gap:.3f}, "
          f"oracle agreement {agreement:.1e})")


def test_criterion_06_balls_example(report):
    eps = 1e-3
    F = fx.balls_fixture(eps=eps)
    left = F(0.5 - 1e-6)
    d, w = dist_point_set((0.0, 0.0), left)
    target = np.array([-2.0 + math.sqrt(2) / 2.0, 2.0 - math.sqrt(2) / 2.0])
    proj_err = float(np.linalg.norm(w.points[0] - target))
    assert proj_err <= 2.0 * eps
    assert abs(d - (2.0 * math.sqrt(2) - 1.0)) <= 2.0 * eps
    s = approximate_selection(F, (0.5, (0.0, 0.0)), 3)
    s_minus = s.one_sided_limit(0.5, "-")
    s_plus = s.one_sided_limit(0.5, "+")
    mid = (s_minus + s_plus) / 2.0
    mid_err = float(np.linalg.norm(mid - [0.0, 2.0 - math.sqrt(2) / 2.0]))
    assert mid_err <= 2.0 * eps
    assert not is_metric_pair(s_minus, s_plus, left, F(0.5 + 1e-6))
    report(f"PASS: criterion 6 balls example (projection err {proj_err:.1e}, "
          f"midpoint err {mid_err:.1e}, non-pair confirmed)")


def step_weight(inst):
    nodes, weights = inst.nodes, inst.weights

    def k(x):
        i = int(np.searchsorted(nodes, x, side="right")) - 1
        return float(weights[min(max(i, 0), len(weights) - 1)])

    return WeightFunction(k, 0.0, float(np.max(np.abs(weights))),
                          discontinuities=tuple(nodes[1:-1]))


def test_criterion_07_oracle_equivalence(report):
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        inst = TinyInstance.random(rng)
        F = inst.svf()
        chi = inst.partition()
        k = step_weight(inst)
        exact = weighted_metric_riemann_sum(F, k, chi)
        fam = exhaustive_chain_family(F, chi)
        via_family = weighted_metric_riemann_sum(F, k, chi, family=fam)
        ref = PointSet.of(oracle_riemann_set(inst))
        worst = max(worst, hausdorff(exact, via_family),
                    hausdorff(exact, ref))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    report(f"PASS: criterion 7 oracle equivalence on 50 instances "
          f"(worst gap {worst:.1e}, {elapsed:.2f}s)")


def test_criterion_08_riemann_discrepancy_bound(report):
    const1 = WeightFunction.constant(1.0)
    cosw = WeightFunction(np.cos, 4.0, 1.0, antiderivative=np.sin)
    cases = [fx.lines_fixture(), fx.two_branch_sine(), fx.zero_union_sine(),
             fx.step_svf(), fx.constant_set_fixture([-1.0, 1.0])]
    for F in cases:
        chi = Partition.dyadic(F.a, F.b, 5, forced=tuple(F.jump_points))
        sup_F = max(float(np.max(np.linalg.norm(F(x).points, axis=1)))
                    for x in chi.nodes)
        for k in (const1, cosw):
            left = weighted_metric_riemann_sum(F, k, chi)
            right = right_weighted_metric_riemann_sum(F, k, chi)
            gap = hausdorff(left, right)
            bound = chi.norm * (k.sup_hint * F.variation_hint
                                + sup_F * k.variation_hint)
            assert gap <= bound + 1e-9, (gap, bound)
    report("PASS: criterion 8 left/right Riemann gap within "
          "|chi|(sup|k| V(F) + sup|F| V(k)) on all fixtures")


def test_criterion_09_inclusion_property(report):
    k = WeightFunction.constant(1.0)
    # Constant two-point set: nonempty intersection equal to the set.
    F1 = fx.constant_set_fixture([-1.0, 0.5])
    r1 = inclusion_check(F1, k, selection_family(F1, 5, 3, 5))
    assert not r1.vacuous and r1.passed
    # {0} union {2+sin x}: intersection is the constant selection value 0.
    F2 = fx.zero_union_sine()
    r2 = inclusion_check(F2, k, selection_family(F2, 7, 4, 7))
    assert not r2.vacuous and r2.passed
    # Lines fixture: empty intersection, upper inclusion still checked.
    F3 = fx.lines_fixture()
    r3 = inclusion_check(F3, k, selection_family(F3, 7, 4, 6))
    assert r3.vacuous and r3.passed
    report("PASS: criterion 9 inclusion property on 3 fixtures "
          "(2 with nonempty intersection)")


def test_criterion_10_convergence(report):
    start = time.perf_counter()
    F = fx.lines_fixture()
    errs = {}
    for n in (16, 256):
        fam = selection_family(F, 7, 4, selection_depth(n))
        approx = metric_fourier(F, n, 0.5, fam)
        errs[n] = hausdorff(approx, limit_set_AF(F, 0.5, fam))
    assert errs[256] < 0.5 * errs[16], errs
    G = fx.two_branch_sine()
    grid = np.linspace(-PI + 0.3, PI - 0.3, 21)
    maxerr = {}
    for n in (16, 256):
        fam = selection_family(G, 7, 4, selection_depth(n))
        maxerr[n] = max(hausdorff(metric_fourier(G, n, float(x), fam),
                                  G(float(x))) for x in grid)
    elapsed = time.perf_counter() - start
    assert maxerr[256] < maxerr[16]
    assert maxerr[256] < 0.05
    assert elapsed < 120.0
    report(f"PASS: criterion 10 convergence (lines {errs[16]:.4f} -> "
          f"{errs[256]:.4f}; two-branch-sine {maxerr[16]:.4f} -> "
          f"{maxerr[256]:.5f}; {elapsed:.0f}s)")


def test_criterion_11_singleton_reproduction(report):
    f = fx.trig_poly()
    F = fx.singleton_fixture(f.fn)
    fam = selection_family(F, 3, 2, 6)
    worst = 0.0
    for n in range(8, 2, -1):
        for x in np.linspace(-2.9, 2.9, 9):
            approx = metric_fourier(F, n, float(x), fam)
            worst = max(worst,
                        hausdorff(approx, PointSet.of([f.fn(float(x))])))
    assert worst < 1e-8
    report(f"PASS: criterion 11 trig-polynomial reproduction "
          f"(worst {worst:.1e})")


# ---------------------------------------------------------------------------
# criterion 12: selection invariants

def chain_cumvar(s):
    """Nodes and cumulative variation of a selection's chain."""
    nodes = s.nodes
    vals = [as_point(v) for v in s.values]
    inc = [float(np.linalg.norm(v2 - v1)) for v1, v2 in zip(vals, vals[1:])]
    return nodes, np.concatenate([[0.0], np.cumsum(inc)])


def node_index(nodes, x):
    i = int(np.searchsorted(nodes, x, side="right")) - 1
    return min(max(i, 0), len(nodes) - 1)


CASES = [
    (fx.lines_fixture(), 0.5),
    (fx.step_svf(), 0.5),
    (fx.two_branch_sine(), 0.7),
]
DELTAS = (0.15, 0.45)
TOL = 1e-8


def test_criterion_12_selection_invariants(report):
    for F, x_star in CASES:
        vf = F.variation_function
        fam = selection_family(F, 5, 3, 8)
        chi_norm = max(float(np.diff(s.nodes).max()) for s in fam)
        for s in fam:
            # Chain variation and sup-norm dominated by those of F.
            v_s, _ = total_variation(s)
            assert v_s <= F.variation_hint + TOL
            sup_s = max(float(np.linalg.norm(as_point(v))) for v in s.values)
            assert sup_s <= F.sup_hint + TOL
            # Selection membership at every chain node.
            for x in s.nodes[:: max(1, len(s.nodes) // 64)]:
                d, _ = dist_point_set(as_point(s(float(x))), F(float(x)))
                assert d <= 1e-9
            # Moduli of the selection against moduli of v_F, with the
            # delta argument widened by the partition norm (discretization).
            for delta in DELTAS:
                m_s = local_moduli(s, x_star, delta, F.a, F.b)
                w = chi_norm
                left_vf = local_moduli(vf, x_star, 2.0 * delta + w,
                                       F.a, F.b).left
                assert m_s.left <= left_vf + TOL                # Theorem 4.7
                two_vf = local_moduli(vf, x_star, 4.0 * delta + 2.0 * w,
                                      F.a, F.b).two_sided
                assert m_s.right <= 2.0 * two_vf + TOL          # Theorem 4.8
                full_vf = local_moduli(vf, x_star, 2.0 * delta + w,
                                       F.a, F.b)
                assert m_s.two_sided <= max(full_vf.left, full_vf.right,
                                            full_vf.two_sided) + TOL  # 4.9
            # Quasi-moduli of the selection's variation function v_s,
            # restricted to chain nodes, with the one-sided limits of the
            # ideal selection (jump at x* itself, not one cell later).
            nodes, cum = chain_cumvar(s)
            i_star = node_index(nodes, x_star)
            v_left = float(cum[max(i_star - 1, 0)])
            jump_right = float(np.linalg.norm(
                s.one_sided_limit(x_star, "+") - as_point(s(x_star))))
            v_right = float(cum[i_star]) + jump_right
            for delta in DELTAS:
                w = chi_norm
                lq = max((abs(v_left - float(cum[i]))
                          for i in range(len(nodes))
                          if x_star - delta <= nodes[i] < x_star - 1e-12),
                         default=0.0)
                lq_vf = local_moduli(vf, x_star, 2.0 * delta + w,
                                     F.a, F.b).left_quasi
                assert lq <= lq_vf + 2.0 * w + TOL              # Lemma 6.4
                rq = max((abs(v_right - float(cum[i]))
                          for i in range(len(nodes))
                          if x_star + 1e-12 < nodes[i] <= x_star + delta),
                         default=0.0)
                rq_vf = local_moduli(vf, x_star, delta + w,
                                     F.a, F.b).right_quasi
                assert rq <= rq_vf + 2.0 * w + TOL              # Lemma 6.5
        # Coarse chain functions: left modulus against v_F at delta + |chi|.
        chi = Partition.dyadic(F.a, F.b, 4, forced=tuple(F.jump_points)
                               + (x_star,))
        for y_hat in F(x_star).points:
            c = greedy_chain(F, chi, (x_star, y_hat))
            for delta in DELTAS:
                m_c = local_moduli(c, x_star, delta, F.a, F.b)
                rhs = local_moduli(vf, x_star, delta + chi.norm,
                                   F.a, F.b).left
                assert m_c.left <= rhs + TOL                    # Lemma 4.4
    # Perturbed-seed limit: selections seeded ever closer to the jump from
    # the left converge to (and equal) the greedy selection seeded far left.
    F = fx.lines_fixture()
    probe = np.linspace(F.a + 0.1, F.b - 0.1, 33)
    reference = approximate_selection(F, (0.2, 0.0), 8)
    for k in range(6):
        x_hat = 0.5 - 0.3 * 2.0 ** (-k)
        s_k = approximate_selection(F, (x_hat, 0.0), 8)
        for x in probe:
            assert np.allclose(as_point(s_k(float(x))),
                               as_point(reference(float(x))), atol=1e-12)
    report("PASS: criterion 12 selection invariants "
          "(variation, sup, moduli, quasi-moduli, membership, seed limits)")
