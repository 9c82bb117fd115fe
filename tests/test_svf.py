"""Unit tests for partitions, chain functions, greedy selections, variation
and moduli analyzers."""
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metricfourier.fixtures import (balls_fixture, constant_set_fixture,
                                    lines_fixture, parse_svf,
                                    singleton_fixture, step_svf,
                                    two_branch_sine)
from metricfourier.geometry import PointSet, as_point
from metricfourier import geometry, svf
from metricfourier.oracle import (oracle_dyadic_nodes, oracle_greedy_chain,
                                  oracle_selection_family)
from metricfourier.svf import (GreedySeedError, MetricChain, Partition,
                               SetValuedFunction,
                               approximate_selection, greedy_chain,
                               local_moduli, one_sided_moduli, one_sided_value,
                               selection_family, total_variation,
                               variation_function_samples,
                               variation_on_partition)

PI = math.pi
ATOL = 1e-12


# ---------------------------------------------------------------------------
# Partition

def test_partition_of_sorts_and_validates():
    chi = Partition.of([1.0, 0.0, 0.5])
    assert np.allclose(chi.nodes, [0.0, 0.5, 1.0])
    assert abs(chi.norm - 0.5) < ATOL
    with pytest.raises(ValueError):
        Partition.of([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        Partition.of([0.0])


def test_partition_dyadic_forces_nodes():
    chi = Partition.dyadic(0.0, 1.0, 2, forced=(0.3,))
    assert 0.3 in set(chi.nodes)
    assert len(chi) == 6
    # Forcing an existing node does not duplicate it.
    chi2 = Partition.dyadic(0.0, 1.0, 2, forced=(0.5,))
    assert len(chi2) == 5


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(0.0, 1.0), (-math.pi, math.pi), (-3.0, 1e4)]),
       st.integers(0, 10), st.data())
def test_partition_dyadic_matches_node_loop(ab, depth, data):
    # Forced points near grid nodes and near each other, within and just
    # beyond the 1e-13 threshold, plus points on and outside [a, b].
    a, b = ab
    grid = np.linspace(a, b, 2 ** depth + 1)
    offsets = st.sampled_from([0.0, 3e-14, -5e-14, 1e-13, -1e-13, 1.5e-13,
                               -2e-13, 1e-12])
    anchor = st.one_of(st.sampled_from(list(grid)),
                       st.floats(a - 1.0, b + 1.0))
    forced = []
    for base, off in data.draw(st.lists(st.tuples(anchor, offsets),
                                        max_size=12)):
        forced.append(base + off)
        if data.draw(st.booleans()):
            forced.append(forced[-1] + data.draw(offsets))
    got = Partition.dyadic(a, b, depth, tuple(forced)).nodes
    want = oracle_dyadic_nodes(a, b, depth, forced)
    assert np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_seeded_partitions_match_oracle_nodes(data):
    """`Partition.dyadic_seeded`, and the partitions of a family's jobs, are
    `oracle_dyadic_nodes(a, b, k, (x_hat,) + jumps)` bitwise, with the
    abscissae and the jumps planted on grid nodes, within NODE_TOL of them,
    and within SEED_NODE_TOL of nodes and of each other; equal abscissae
    share one Partition."""
    a, b = data.draw(st.sampled_from([(-PI, PI), (0.0, 1.0), (-1.0, 3.0)]))
    depth = data.draw(st.integers(1, 6))
    grid = np.linspace(a, b, 2 ** depth + 1)
    offsets = st.sampled_from([0.0, 0.5 * svf.NODE_TOL, svf.NODE_TOL,
                               -svf.NODE_TOL, 1.5 * svf.NODE_TOL,
                               -0.5 * svf.SEED_NODE_TOL, svf.SEED_NODE_TOL,
                               2 * svf.SEED_NODE_TOL])
    anchor = st.one_of(st.sampled_from(list(grid)), st.floats(a, b))

    def planted(earlier):
        near = st.sampled_from(earlier) if earlier else anchor
        at = data.draw(st.one_of(anchor, near)) + data.draw(offsets)
        return min(max(float(at), a), b)

    jumps: list = []
    for _ in range(data.draw(st.integers(0, 3))):
        jumps.append(planted(jumps))
    xs: list = []
    for _ in range(data.draw(st.integers(1, 5))):
        xs.append(planted(jumps + xs))
    jumps = tuple(jumps)
    parts = Partition.dyadic_seeded(a, b, depth, xs, jumps)
    for x, chi in zip(xs, parts):
        assert np.array_equal(chi.nodes,
                              oracle_dyadic_nodes(a, b, depth, (x,) + jumps))
        assert not chi.nodes.flags.writeable
    for x, chi in zip(xs, parts):
        assert all(c is chi for y, c in zip(xs, parts) if y == x)
    # The jobs of a family seeded at these jumps: its depth, then one less.
    F = dataclasses.replace(constant_set_fixture([0.0, 1.0], a, b),
                            jump_points=jumps)
    with mock.patch.object(svf, "_greedy_chains",
                           wraps=svf._greedy_chains) as spy:
        selection_family(F, 3, 1, depth)
    jobs = spy.call_args.args[1]
    half = len(jobs) // 2 if depth > 1 else len(jobs)
    for i, (chi, (x_hat, _)) in enumerate(jobs):
        k = depth if i < half else depth - 1
        assert np.array_equal(chi.nodes,
                              oracle_dyadic_nodes(a, b, k, (x_hat,) + jumps))


# ---------------------------------------------------------------------------
# MetricChain evaluation

def chain_on(nodes, values):
    return MetricChain(Partition.of(nodes),
                       tuple(np.atleast_1d(v) for v in values))


def test_chain_function_rules():
    c = chain_on([0.0, 1.0, 2.0], [10.0, 20.0, 30.0])
    assert c(0.0)[0] == 10.0          # value at a node
    assert c(0.5)[0] == 10.0          # interior of first cell
    assert c(1.0)[0] == 20.0          # right-closed at the left node
    assert c(1.99)[0] == 20.0
    assert c(2.0)[0] == 30.0          # value at b is the last value
    with pytest.raises(ValueError):
        c(-0.1)


# ---------------------------------------------------------------------------
# greedy_chain

def test_greedy_constant_set():
    F = constant_set_fixture([-1.0, 0.0, 2.0])
    chi = Partition.uniform(F.a, F.b, 8)
    ch = greedy_chain(F, chi, (chi.nodes[3], 2.0))
    assert all(abs(v[0] - 2.0) < ATOL for v in ch.values)


def test_greedy_lines_rightward_picks_lower_branch():
    F = lines_fixture()
    chi = Partition.dyadic(F.a, F.b, 5, forced=(0.5,))
    ch = greedy_chain(F, chi, (0.5, 0.0))
    nodes = chi.nodes
    for t, v in zip(nodes, ch.values):
        if t > 0.5:
            assert abs(v[0] - (-1.0 + t - 0.5)) < ATOL
        elif t < 0.5:
            assert abs(v[0]) < ATOL


def test_greedy_left_piece_keeps_seed_value():
    F = lines_fixture()
    chi = Partition.dyadic(F.a, F.b, 5, forced=(0.5, -1.0))
    ch = greedy_chain(F, chi, (-1.0, 0.25))
    for t, v in zip(chi.nodes, ch.values):
        if t < 0.5:
            assert abs(v[0] - 0.25) < ATOL


def test_greedy_rejects_bad_seed():
    F = lines_fixture()
    chi = Partition.dyadic(F.a, F.b, 3, forced=(0.5,))
    with pytest.raises(GreedySeedError):
        greedy_chain(F, chi, (0.5, 0.4))


def test_greedy_seed_must_be_node():
    F = lines_fixture()
    chi = Partition.uniform(F.a, F.b, 4)
    with pytest.raises(ValueError):
        greedy_chain(F, chi, (0.123456, 0.0))


# ---------------------------------------------------------------------------
# approximate_selection

def test_selection_singleton_tracks_function():
    F = singleton_fixture(math.cos)
    s = approximate_selection(F, (0.0, 1.0), 7)
    chi_norm = 2.0 * PI / 2 ** 7
    for x in np.linspace(-PI, PI, 41):
        assert abs(s(x)[0] - math.cos(x)) <= chi_norm + ATOL
    assert s.smooth_fn is not None
    assert abs(s.smooth_fn(np.array([0.3]))[0, 0] - math.cos(0.3)) < ATOL


def test_selection_constant_zero_defect():
    F = constant_set_fixture([-1.0, 1.0])
    s = approximate_selection(F, (0.0, 1.0), 5)
    assert s.cauchy_defect == 0.0
    assert s.smooth_fn is None  # multi-valued: no single-valued evaluator


def test_selection_one_sided_limits_lines():
    F = lines_fixture()
    s = approximate_selection(F, (0.5, 0.0), 8)
    assert abs(s.one_sided_limit(0.5, "-")[0] - 0.0) < 1e-10
    assert abs(s.one_sided_limit(0.5, "+")[0] - (-1.0)) < 1e-10
    with pytest.raises(ValueError):
        s.one_sided_limit(0.5, "x")


# ---------------------------------------------------------------------------
# selection_family

def test_family_singleton_size_one():
    F = singleton_fixture(math.sin)
    fam = selection_family(F, 5, 3, 4)
    assert len(fam) == 1


def test_family_constant_two_branches():
    F = constant_set_fixture([-1.0, 1.0])
    fam = selection_family(F, 5, 3, 4)
    assert len(fam) == 2
    vals = sorted(float(s(0.0)[0]) for s in fam)
    assert np.allclose(vals, [-1.0, 1.0])


def test_family_lines_contains_lower_branch_selection():
    F = lines_fixture()
    fam = selection_family(F, 7, 5, 7)
    chi_norm = 2.0 * PI / 2 ** 7
    found = False
    for s in fam:
        if abs(s(0.0)[0]) < ATOL and abs(s(2.0)[0] - 0.5) <= chi_norm:
            found = True
    assert found


def test_family_rejects_bad_counts():
    F = singleton_fixture(math.sin)
    with pytest.raises(ValueError):
        selection_family(F, 0, 1, 3)


# ---------------------------------------------------------------------------
# variation

def test_variation_constant_zero():
    chi = Partition.uniform(0.0, 1.0, 10)
    assert variation_on_partition(lambda x: 1.5, chi) == 0.0


def test_variation_sign_straddle():
    chi = Partition.of([-1.0, -0.1, 0.1, 1.0])
    v = variation_on_partition(lambda t: math.copysign(1.0, t), chi)
    assert abs(v - 2.0) < ATOL


def test_chain_variation_below_svf_variation():
    F = lines_fixture()
    chi = Partition.dyadic(F.a, F.b, 5, forced=(0.5,))
    ch = greedy_chain(F, chi, (0.5, 1.0))
    assert variation_on_partition(ch, chi) <= variation_on_partition(F, chi) + 1e-9


def test_total_variation_monotone():
    v, converged = total_variation(lambda t: t ** 3, -1.0, 2.0)
    assert converged
    assert abs(v - 9.0) < 1e-9


def test_total_variation_square_wave_with_forced_jump():
    v, _ = total_variation(lambda t: math.copysign(1.0, t), -PI, PI,
                           forced=(0.0,))
    assert abs(v - 2.0) < 1e-9


def test_total_variation_of_selection_is_exact_node_sum():
    F = step_svf()
    s = approximate_selection(F, (0.5, 1.0), 6)
    v, converged = total_variation(s)
    assert converged
    assert abs(v - 1.0) < ATOL


def test_total_variation_lines_fixture():
    F = lines_fixture()
    v, _ = total_variation(F, depth=11)
    # Exact value carried by the fixture; dyadic refinement approaches it
    # from below with the residual of one cell of linear motion.
    assert v <= F.variation_hint + 1e-9
    assert v >= F.variation_hint - 0.05


# ---------------------------------------------------------------------------
# one-sided values and local moduli

def test_one_sided_value_linear_exact():
    g = lambda t: 3.0 * t - 1.0
    assert abs(one_sided_value(g, 0.5, "-", lo=0.0, hi=1.0)[0] - 0.5) < 1e-9
    assert abs(one_sided_value(g, 0.5, "+", lo=0.0, hi=1.0)[0] - 0.5) < 1e-9


def test_one_sided_value_step():
    g = lambda t: 0.0 if t < 0.5 else 1.0
    assert abs(one_sided_value(g, 0.5, "-", lo=0.0, hi=1.0)[0]) < 1e-9
    assert abs(one_sided_value(g, 0.5, "+", lo=0.0, hi=1.0)[0] - 1.0) < 1e-9


def test_moduli_constant_all_zero():
    m = local_moduli(lambda t: 2.0, 0.0, 0.5, -1.0, 1.0)
    assert m.two_sided == m.left == m.right == 0.0
    assert m.left_quasi == m.right_quasi == 0.0


def test_moduli_monotone_left_quasi():
    g = lambda t: t ** 3
    delta = 0.25
    m = local_moduli(g, 0.5, delta, -1.0, 1.0)
    expect = abs(g(0.5) - g(0.5 - delta))
    assert abs(m.left_quasi - expect) < 1e-6


def test_moduli_sign_at_zero():
    g = lambda t: math.copysign(1.0, t) if t != 0.0 else 1.0
    m = local_moduli(g, 0.0, 0.3, -1.0, 1.0)
    assert abs(m.left - 2.0) < ATOL       # g(0)=1 vs -1 on the left
    assert m.right == 0.0
    # Quasi-moduli measure from the one-sided limits: locally constant sides.
    assert m.left_quasi < 1e-9
    assert m.right_quasi < 1e-9
    assert abs(m.two_sided - 2.0) < ATOL


def test_moduli_set_valued():
    F = two_branch_sine()
    m = local_moduli(F, 0.0, 0.2, -PI, PI)
    # hausdorff({sin x, sin x + 2}, {0, 2}) = |sin x|; sup over the window.
    assert abs(m.left - math.sin(0.2)) < 1e-3
    assert abs(m.right - math.sin(0.2)) < 1e-3


def test_variation_function_samples():
    chi = Partition.of([-1.0, -0.5, 0.1, 0.7, 1.0])
    rows = variation_function_samples(lambda t: math.copysign(1.0, t), chi)
    xs, vs = zip(*rows)
    assert vs[0] == 0.0
    assert all(v2 >= v1 for v1, v2 in zip(vs, vs[1:]))
    # Step of height 2 lands at the first node after the sign change.
    assert abs(vs[2] - 2.0) < ATOL
    assert abs(vs[-1] - 2.0) < ATOL


def test_variation_function_monotone_function():
    chi = Partition.uniform(0.0, 1.0, 8)
    rows = variation_function_samples(lambda t: 2.0 * t, chi)
    for x, v in rows:
        assert abs(v - 2.0 * x) < 1e-12


def test_svf_domain_check():
    F = lines_fixture()
    with pytest.raises(ValueError):
        F(4.0)
    assert isinstance(F(0.5), PointSet)


# ---------------------------------------------------------------------------
# chain storage: one read-only (N, d) array

def test_metric_chain_coerces_values_to_read_only_array():
    chi = Partition.of([0.0, 0.5, 1.0])
    for values in (((1.0,), (2.0,), (3.0,)), (1.0, 2.0, 3.0),
                   tuple(np.array([v]) for v in (1.0, 2.0, 3.0))):
        ch = MetricChain(chi, values)
        assert isinstance(ch.values, np.ndarray)
        assert ch.values.shape == (3, 1)
        assert np.array_equal(ch.values[:, 0], [1.0, 2.0, 3.0])
        assert not ch.values.flags.writeable
        with pytest.raises(ValueError):
            ch.values[0, 0] = 5.0


def test_metric_chain_copies_its_input():
    src = np.zeros((3, 2))
    ch = MetricChain(Partition.of([0.0, 0.5, 1.0]), src)
    src[0, 0] = 1.0
    assert ch.values[0, 0] == 0.0


def test_metric_chain_rejects_length_mismatch():
    chi = Partition.of([0.0, 1.0])
    with pytest.raises(ValueError):
        MetricChain(chi, ((1.0,), (2.0,), (3.0,)))
    with pytest.raises(ValueError):
        MetricChain(chi, ((1.0,),))


def test_equality_is_identity():
    """Twins with equal arrays compare unequal without raising, hash, and
    work with `in`; their contents compare with `np.array_equal`."""
    F = lines_fixture()
    chi = Partition.dyadic(F.a, F.b, 3, (0.5,))
    pairs = [(chi, Partition.of(chi.nodes)),
             (F(0.0), PointSet.of(F(0.0).points))]
    pairs += [tuple(greedy_chain(F, chi, (0.5, 0.0)) for _ in range(2)),
              tuple(approximate_selection(F, (0.5, 0.0), 3) for _ in range(2))]
    for x, twin in pairs:
        assert x == x and x != twin
        assert hash(x) == hash(x)
        assert x in [twin, x] and x not in [twin]
        assert len({x, twin}) == 2
        assert all(np.array_equal(getattr(x, f.name), getattr(twin, f.name))
                   for f in dataclasses.fields(x)
                   if isinstance(getattr(x, f.name), np.ndarray))


def test_chain_function_evaluates_arrays_like_scalars():
    c = chain_on([0.0, 1.0, 2.0], [10.0, 20.0, 30.0])
    xs = [0.0, 0.5, 1.0, 1.99, 2.0]
    got = c(xs)
    assert got.shape == (5, 1)
    assert np.array_equal(got, np.array([c(x) for x in xs]))
    with pytest.raises(ValueError):
        c([0.5, 2.5])


def test_greedy_chain_values_are_one_array():
    F = lines_fixture()
    chi = Partition.dyadic(F.a, F.b, 4, forced=(0.5,))
    ch = greedy_chain(F, chi, (0.5, 0.0))
    assert ch.values.shape == (len(chi), 1)
    assert not ch.values.flags.writeable


def test_approximate_selection_builds_two_depths():
    F = lines_fixture()
    seed = (0.5, 0.0)
    with mock.patch.object(svf, "_greedy_chains",
                           wraps=svf._greedy_chains) as spy:
        s = approximate_selection(F, seed, 5)
    # One sweep builds the chains of both depths.
    assert spy.call_count == 1
    assert [chi.nodes.tolist() for chi, _ in spy.call_args.args[1]] == [
        Partition.dyadic(F.a, F.b, k, (0.5, 0.5)).nodes.tolist()
        for k in (5, 4)]
    ref = greedy_chain(F, Partition.dyadic(F.a, F.b, 5, (0.5, 0.5)), seed)
    assert np.array_equal(s.values, ref.values)
    coarse = greedy_chain(F, Partition.dyadic(F.a, F.b, 4, (0.5, 0.5)), seed)
    probe = Partition.dyadic(F.a, F.b, 5, (0.5, 0.5)).nodes
    assert s.cauchy_defect == max(abs(float(s(x)[0] - coarse(x)[0]))
                                  for x in probe)


def test_analyzer_samples_are_one_array():
    """Scalars and vectors become one (m, d) array with the values of
    `as_point`; non-finite and ragged samples raise ValueError."""
    xs = [0.0, 0.25, 0.5]
    got = svf._values(lambda t: 3.0 * t, xs)
    assert got.shape == (3, 1) and got[:, 0].tolist() == [0.0, 0.75, 1.5]
    vec = svf._values(lambda t: (t, -t), xs)
    assert np.array_equal(vec, np.array([as_point((t, -t)) for t in xs]))
    mixed = svf._values(lambda t: np.array([t]) if t else 0.0, xs)
    assert np.array_equal(mixed, np.array([[0.0], [0.25], [0.5]]))
    for g in (lambda t: math.inf if t else 0.0,
              lambda t: [t, math.nan],
              lambda t: [t] * (1 + (t > 0.25)),
              lambda t: [[t]],
              lambda t: []):
        with pytest.raises(ValueError):
            svf._values(g, xs)
        with pytest.raises(ValueError):
            local_moduli(g, 0.25, 0.1, 0.0, 1.0)


def test_one_sided_moduli_match_local_moduli():
    cases = [(lambda t: t ** 3, 0.5, 0.25, -1.0, 1.0),
             (lambda t: 0.0 if t < 0.5 else 1.0 + t, 0.5, 0.7, 0.0, 1.0),
             (lines_fixture(), 0.5, 0.4, -PI, PI),
             (lambda t: abs(t), -1.0, 0.3, -1.0, 1.0)]
    for g, x, delta, lo, hi in cases:
        m = local_moduli(g, x, delta, lo, hi)
        assert one_sided_moduli(g, x, delta, lo, hi, "-") == (m.left,
                                                              m.left_quasi)
        assert one_sided_moduli(g, x, delta, lo, hi, "+") == (m.right,
                                                              m.right_quasi)
    with pytest.raises(ValueError):
        one_sided_moduli(abs, 0.0, 0.0, -1.0, 1.0, "-")
    with pytest.raises(ValueError):
        one_sided_moduli(abs, 0.0, 0.5, -1.0, 1.0, "both")


def per_delta_moduli(g, x, delta, lo, hi, side, norm):
    """`one_sided_moduli` of one delta from its own probe grid, sampled on
    its own: the maxima that an array of deltas must reproduce."""
    if (x <= lo) if side == "-" else (x >= hi):
        return 0.0, 0.0
    u, v = (max(lo, x - delta), x) if side == "-" else (x, min(hi, x + delta))
    xs = svf._probe_grid(x, u, v)
    off = xs < x - svf.NODE_TOL if side == "-" else xs > x + svf.NODE_TOL
    vals = svf._values(g, xs)
    plain = svf._rhos(vals, svf._values(g, [x])[0], norm).max(initial=0.0)
    inner = [vals[i] for i in np.flatnonzero(off)] if isinstance(vals, list) \
        else vals[off]
    quasi = svf._rhos(inner, one_sided_value(g, x, side, lo, hi),
                      norm).max(initial=0.0) if len(inner) else 0.0
    return float(plain), float(quasi)


@pytest.mark.parametrize("side", ["-", "+"])
def test_one_sided_moduli_of_many_deltas_equal_a_per_delta_loop(side):
    # One union of probes serves every delta, and each delta's maxima are
    # taken over its own probes: bit for bit the per-delta values.
    deltas = np.geomspace(1e-3, PI, 33)[1:]
    cases = [(step_svf().variation_function, 0.5, -PI, PI, "l2"),
             (lambda t: 1.0 if t >= 0.0 else -1.0, 0.0, -PI, PI, "l2"),
             (lines_fixture(), 0.5, -PI, PI, "linf"),
             (lambda t: (t, t * t), 0.3, -1.0, 1.0, "l1"),
             (abs, -1.0, -1.0, 1.0, "l2"),
             (abs, 1.0, -1.0, 1.0, "l2")]
    for g, x, lo, hi, norm in cases:
        plain, quasi = one_sided_moduli(g, x, deltas, lo, hi, side, norm)
        want = [per_delta_moduli(g, x, d, lo, hi, side, norm)
                for d in deltas.tolist()]
        assert plain.tolist() == [p for p, _ in want]
        assert quasi.tolist() == [q for _, q in want]
        assert [one_sided_moduli(g, x, d, lo, hi, side, norm)
                for d in deltas.tolist()] == want


@st.composite
def step_function(draw):
    """A piecewise-constant scalar g on [-1, 1], jumping on the 1/8 grid
    between multiples of 1/4."""
    jumps = sorted({k / 8.0 for k in draw(st.lists(st.integers(-7, 7),
                                                    max_size=4))})
    levels = draw(st.lists(st.integers(-8, 8), min_size=len(jumps) + 1,
                           max_size=len(jumps) + 1))
    return lambda t: levels[int(np.searchsorted(jumps, t, side="right"))] / 4.0


@settings(max_examples=25, deadline=None)
@given(step_function(), st.integers(-16, 16).map(lambda k: k / 16.0),
       st.sampled_from([0.1, 0.5]), st.sampled_from(["l1", "l2", "linf"]))
@example(lambda t: 2.0 * t, 0.3, 0.1, "l1")
@example(lambda t: 2.0 * t, 0.3, 0.1, "l2")
@example(lambda t: 2.0 * t, 0.3, 0.1, "linf")
def test_analyzers_agree_on_scalars_and_singleton_sets(g, x, delta, norm):
    # Scalars and singleton sets take their one-sided limits by the same
    # extrapolation.  When sets took their sample at offset h, the linear
    # g gave quasi-moduli 0.2 for g and 0.1999999980926514 for {g}.
    G = lambda t: PointSet.of([g(t)])
    chi = Partition.dyadic(-1.0, 1.0, 5)
    assert variation_on_partition(g, chi, norm) \
        == variation_on_partition(G, chi, norm)
    assert variation_function_samples(g, chi, norm) \
        == variation_function_samples(G, chi, norm)
    for side in "-+":
        assert one_sided_moduli(g, x, delta, -1.0, 1.0, side, norm=norm) \
            == one_sided_moduli(G, x, delta, -1.0, 1.0, side, norm=norm)
    assert local_moduli(g, x, delta, -1.0, 1.0, norm=norm) \
        == local_moduli(G, x, delta, -1.0, 1.0, norm=norm)


# ---------------------------------------------------------------------------
# the batched chain engine against the per-seed reference in oracle.py

@st.composite
def svf_instance(draw):
    """A piecewise F on [a, b] whose pieces are 1-4 points (duplicates
    allowed, so seeds repeat) of a half-integer grid, each moving at a
    velocity of 0 or +-1/4 per unit; pieces at rest plant exact ties, and
    some add a cluster of 3-4 points spaced 0.6 TIE_TOL apart.  At a jump F
    is the next piece, or the union of both sides."""
    a, b = draw(st.sampled_from([(-1.0, 1.0), (-math.pi, math.pi)]))
    dim = draw(st.integers(1, 2))
    cuts = sorted(set(draw(st.lists(
        st.sampled_from([0.25, 0.5, 0.3, 0.61]), max_size=2))))
    jumps = [a + (b - a) * c for c in cuts]
    coord = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    pieces = []
    for _ in range(len(jumps) + 1):
        pts = 0.5 * np.array(draw(st.lists(coord, min_size=1, max_size=4)),
                             dtype=float)
        vel = 0.25 * np.array(draw(st.lists(coord.map(np.sign), min_size=len(pts),
                                            max_size=len(pts))), dtype=float)
        vel = vel * draw(st.sampled_from([0.0, 1.0]))
        if not vel.any() and draw(st.booleans()):
            # A tie cluster at rest: a chain on its top point drifts down
            # node by node, so runs of this set fall back to stepping.
            step = np.eye(dim)[0] * 0.6 * geometry.TIE_TOL
            cluster = pts[0] + np.outer(np.arange(1, draw(st.integers(3, 4))),
                                        step)
            pts = np.vstack([pts, cluster])
            vel = np.zeros_like(pts)
        pieces.append((pts, vel))
    union_at_jump = draw(st.booleans())

    def piece(k, t):
        pts, vel = pieces[k]
        return pts + (t - a) * vel

    def image(t):
        k = int(np.searchsorted(jumps, t, side="right"))
        here = piece(k, t)
        if union_at_jump and k > 0 and t == jumps[k - 1]:
            here = np.vstack([piece(k - 1, t), here])
        return PointSet.of(here, dedup_tol=0)

    return SetValuedFunction(a, b, lambda ts: [image(t) for t in ts],
                             jump_points=tuple(jumps))


def assert_same_family(got, ref):
    assert len(got) == len(ref)
    for s, r in zip(got, ref):
        assert np.array_equal(s.nodes, r.nodes)
        assert np.array_equal(s.values, r.values)
        assert s.cauchy_defect == r.cauchy_defect
        assert s.seed[0] == r.seed[0]
        assert np.array_equal(s.seed[1], r.seed[1])
        assert s.refinement_depth == r.refinement_depth
        assert (s.smooth_fn is None) == (r.smooth_fn is None)


@settings(max_examples=60, deadline=None)
@given(svf_instance(), st.sampled_from(["l1", "l2", "linf"]),
       st.sampled_from([0, 10 ** 9]), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 5))
def test_selection_family_matches_per_seed_reference(F, norm, grid_min,
                                                     x_seeds, y_seeds, depth):
    # x_seeds >= 2 seeds at a and at b; jumps are always seeded.
    with mock.patch.object(geometry, "GRID_MIN", grid_min):
        got = selection_family(F, x_seeds, y_seeds, depth, norm)
        ref = oracle_selection_family(F, x_seeds, y_seeds, depth, norm)
    assert_same_family(got, ref)


# Three points up to 0.5, then an 81-point disc net: a wave steps the
# chains left of the jump through the dense small-set maps while those to
# its right step through the lazy large-set cache.
MIXED = parse_svf({"domain": [-PI, PI], "pieces": [
    {"end": 0.5, "points": [[0, 0], [0, 2], [1, 1]]},
    {"disc": {"center": [0, 1], "radius": 1, "eps": 0.25}}]})


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
@pytest.mark.parametrize("grid_min", [0, 10 ** 9])
def test_mixed_wave_matches_per_seed_reference(norm, grid_min):
    assert [len(MIXED(x)) for x in (0.0, 1.0)] == [3, 81]
    with mock.patch.object(geometry, "GRID_MIN", grid_min):
        got = selection_family(MIXED, 5, 3, 5, norm)
        ref = oracle_selection_family(MIXED, 5, 3, 5, norm)
    assert_same_family(got, ref)


# A tie cluster spaced below TIE_TOL: a chain on 3h drifts to h, then 0,
# so a run of this set may not copy its first value.
H = 2.0 ** -31
DRIFT = constant_set_fixture([0.0, H, 2 * H, 3 * H, 5.0], -1.0, 1.0)


@pytest.mark.parametrize("grid_min", [0, 10 ** 9])
def test_batched_chains_match_chains_built_alone(grid_min):
    for F in (lines_fixture(), DRIFT):
        jobs = []
        for depth in (1, 3, 4):
            for x_hat in (F.a, 0.5, F.b, 0.5):      # 0.5 twice: duplicates
                chi = Partition.dyadic(F.a, F.b, depth, (x_hat, 0.5))
                jobs += [(chi, (x_hat, y)) for y in F(x_hat).points]
        with mock.patch.object(geometry, "GRID_MIN", grid_min):
            chains = svf._greedy_chains(F, jobs, "l2")
            for (chi, seed), ch in zip(jobs, chains):
                ref = oracle_greedy_chain(F, chi, seed, "l2")
                assert np.array_equal(ch.partition.nodes, chi.nodes)
                assert np.array_equal(ch.values, ref.values)
    # The drift itself: chains seeded on 3h at the left end read h, 0, 0.
    drifted = [ch.values[:3, 0].tolist() for (_, (x_hat, y)), ch
               in zip(jobs, chains) if x_hat == F.a and y[0] == 3 * H]
    assert drifted == [[H, 0.0, 0.0]] * 3


# A longer cluster: a chain on 6h drifts to 4h, 2h, then 0.
DRIFT7 = constant_set_fixture([k * H for k in range(7)] + [5.0], -1.0, 1.0)


def seeded_jobs(F):
    """Chains from every point of F at both ends and at 0.5 (twice), on
    dyadic partitions of depths 1, 3 and 4."""
    jobs = []
    for depth in (1, 3, 4):
        for x_hat in (F.a, 0.5, F.b, 0.5):
            chi = Partition.dyadic(F.a, F.b, depth, (x_hat, 0.5))
            jobs += [(chi, (x_hat, y)) for y in F(x_hat).points]
    return jobs


def test_lazy_maps_match_chains_built_alone():
    """The same jobs with every map filled lazily (GROUP_MAX 0), on the
    grid and by brute force: a run of one set is skipped while its map fixes
    every index, and the drift through a tie cluster, where it does not,
    steps node by node."""
    for grid_min in (0, 10 ** 9):
        for F in (lines_fixture(), DRIFT, DRIFT7):
            jobs = seeded_jobs(F)
            with mock.patch.object(geometry, "GRID_MIN", grid_min), \
                    mock.patch.object(geometry, "GROUP_MAX", 0):
                chains = svf._greedy_chains(F, jobs, "l2")
                for (chi, seed), ch in zip(jobs, chains):
                    ref = oracle_greedy_chain(F, chi, seed, "l2")
                    assert np.array_equal(ch.values, ref.values)
    drifted = [ch.values[:4, 0].tolist() for (_, (x_hat, y)), ch
               in zip(jobs, chains) if x_hat == F.a and y[0] == 6 * H]
    assert drifted == [[4 * H, 2 * H, 0.0, 0.0]] * 3


@st.composite
def moving_svf(draw):
    """F on [0, 1] with an image of 1-5 points that differs at every node
    and changes cardinality: a first point moves at a nonzero velocity, and
    rows of a half-integer grid, some at rest (planted ties), join and
    leave as t crosses multiples of 1/period."""
    dim = draw(st.integers(1, 2))
    coord = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    base = 0.5 * np.array(draw(st.lists(coord, min_size=5, max_size=5)),
                          dtype=float)
    vel = 0.25 * np.array(draw(st.lists(coord, min_size=5, max_size=5)),
                          dtype=float)
    vel[0, 0] = draw(st.sampled_from([-0.75, 0.5, 1.0]))
    period = draw(st.sampled_from([3, 5, 8]))
    counts = draw(st.lists(st.integers(1, 5), min_size=period,
                           max_size=period))

    def image(t):
        m = counts[min(int(t * period), period - 1)]
        return PointSet.of(base[:m] + t * vel[:m], dedup_tol=0)

    return SetValuedFunction(0.0, 1.0, lambda ts: [image(t) for t in ts])


@settings(max_examples=60, deadline=None)
@given(moving_svf(), st.sampled_from(["l1", "l2", "linf"]),
       st.sampled_from([0, 10 ** 9]), st.sampled_from([0, 10 ** 9]),
       st.lists(st.tuples(st.integers(1, 5), st.integers(0, 4)),
                min_size=1, max_size=4))
def test_index_maps_match_the_reference_chains(F, norm, grid_min,
                                               group_max, specs):
    """Every chain of one `_greedy_chains` call equals `oracle_greedy_chain`
    bitwise, with all maps filled up front (GROUP_MAX large) or all filled
    lazily through `_nearest` (GROUP_MAX 0), on the grid or by brute
    force."""
    jobs = []
    for depth, k in specs:
        chi = Partition.dyadic(0.0, 1.0, depth)
        x_hat = chi.nodes[min(k, len(chi) - 1)]
        jobs += [(chi, (x_hat, y)) for y in F(x_hat).points]
    with mock.patch.object(geometry, "GRID_MIN", grid_min), \
            mock.patch.object(geometry, "GROUP_MAX", group_max):
        chains = svf._greedy_chains(F, jobs, norm)
        for (chi, seed), ch in zip(jobs, chains):
            ref = oracle_greedy_chain(F, chi, seed, norm)
            assert np.array_equal(ch.values, ref.values)


def test_chain_queries_stay_flat_with_depth():
    """The maps between small sets come from one query and those touching a
    large set from one query per wave that reaches new indices, so a balls
    family (large nets, one set per piece) and a two-branch-sine family
    (small sets, a new set at every node) make as many geometry distance
    calls at depth 9 as at 6."""
    for F in (balls_fixture(eps=0.1), two_branch_sine()):
        counts = []
        for depth in (6, 9):
            with mock.patch.object(geometry, "_nearest",
                                   wraps=geometry._nearest) as near, \
                    mock.patch.object(geometry, "_scan",
                                      wraps=geometry._scan) as scan:
                selection_family(F, 7, 4, depth)
            counts.append((near.call_count, scan.call_count))
        assert counts[0] == counts[1]


def test_batched_chains_keep_seed_errors():
    F = lines_fixture()
    chi = Partition.dyadic(F.a, F.b, 3, forced=(0.5,))
    good = (chi, (0.5, 0.0))
    with pytest.raises(GreedySeedError):
        svf._greedy_chains(F, [good, (chi, (0.5, 0.4)), good])
    with pytest.raises(ValueError, match="partition node"):
        svf._greedy_chains(F, [good, (chi, (0.123456, 0.0))])


@pytest.mark.parametrize("make", [lines_fixture,
                                  lambda: singleton_fixture(math.cos)],
                         ids=["lines", "singleton"])
def test_family_evaluates_F_once_per_node(make):
    F = make()
    calls = []

    # `fn` is F's one evaluator: every point F is evaluated at passes it.
    def fn(ts):
        calls.extend(ts.tolist())
        return F.fn(ts)

    counted = dataclasses.replace(F, fn=fn)
    x_seeds, y_seeds, depth = 5, 3, 6
    fam = selection_family(counted, x_seeds, y_seeds, depth)
    xs = sorted(set(np.linspace(F.a, F.b, x_seeds)) | set(F.jump_points))
    nodes = set()
    for x_hat in xs:
        for k in (depth, depth - 1):
            nodes |= set(Partition.dyadic(F.a, F.b, k, (x_hat,)
                                          + F.jump_points).nodes.tolist())
    # The seed picks evaluate F at each x_hat first, into the engine's memo;
    # the chains then evaluate every other node once.
    assert calls[:len(xs)] == xs
    assert len(calls) == len(set(calls)) == len(nodes)
    assert set(calls) == nodes
    assert len(fam) >= 1
