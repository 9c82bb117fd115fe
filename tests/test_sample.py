"""`SetValuedFunction.sample` against `F` point by point.

A set-valued function has one evaluator, `fn`, which maps an array of t to
their images; `sample` calls it once on all its points and `F(x)` samples
the one point x.  A point's image must not depend on the array it is
sampled in, bit for bit, a constant piece must give its one prebuilt set,
and a curve that fails must name the first t that fails.
"""
import dataclasses
import math

import numpy as np
import pytest

from metricfourier import geometry
from metricfourier.fixtures import (SVF_FIXTURES, DescriptionError,
                                    balls_fixture, parse_svf,
                                    singleton_fixture)
from metricfourier.geometry import PointSet
from metricfourier.oracle import oracle_dedup
from metricfourier.svf import NODE_TOL, X_TOL

PI = math.pi

# The benchmark's inline curve: two planar branches up to the jump at 0.5,
# one moving point after it.
BENCH_CURVE = {"domain": [-PI, PI], "pieces": [
    {"end": 0.5, "curve": [["1.0 * cos(t)", "sin(t)"],
                           ["1.0 * cos(t)", "sin(t) + 2"]]},
    {"curve": [["0.5 * t", "cos(t) - 1"]]}]}
# Every construct of the language, `**` with a base, an exponent and both
# depending on t, an `at` override of each kind, and branches closer than
# DEDUP_TOL, which dedup merges.
LANGUAGE = {"domain": [-1.0, 2.0], "pieces": [
    {"end": 0.0, "curve": [["-t + +2 * pi / 4 ** 2 - abs(sin(t))",
                            "sqrt(exp(cos(tan(t)))) + 1e-3"],
                           ["(t + 2) ** 1.7", "2 ** t"],
                           ["(t + 2) ** (t + 2)", "exp(3 * t) / 7"]]},
    {"end": 1.0, "points": [[0.0, 0.0], [1.0, 1.0]]},
    {"curve": [["t ** 2", "t ** 0.5"], ["t ** 2 + 1e-13 * (t - 1)",
                                        "t ** 0.5"], ["tan(t)", "-t"]]}],
    "at": [{"x": 0.0, "curve": [["t", "t"], ["t + 1e-13", "t"]]},
           {"x": 1.0, "disc": {"center": [0, 0], "radius": 1, "eps": 0.5}},
           {"x": 2.0, "points": [[5.0, 5.0]]}]}


def svfs():
    """(label, F) for every fixture of SVF_FIXTURES (balls at a coarse net),
    a plain per-point fixture, and the two descriptions."""
    out = [(name, balls_fixture(eps=0.1) if name == "balls" else make())
           for name, make in SVF_FIXTURES.items()]
    return out + [("singleton", singleton_fixture(math.cos)),
                  ("bench-curve", parse_svf(BENCH_CURVE)),
                  ("language", parse_svf(LANGUAGE))]


def probe_points(F) -> np.ndarray:
    """A grid with both ends, points within X_TOL outside the domain, the
    jump points and `at` points with their neighbours within NODE_TOL."""
    marks = np.array([F.a, F.b, *F.jump_points], dtype=float)
    near = np.clip(np.concatenate([marks + h for h in (
        0.0, -NODE_TOL / 2, NODE_TOL / 2, -1e-7, 1e-7)]), F.a, F.b)
    xs = np.concatenate([np.linspace(F.a, F.b, 97), near,
                         [F.a - X_TOL / 2, F.b + X_TOL / 2]])
    return np.random.default_rng(0).permutation(xs)


@pytest.mark.parametrize("label, F", svfs(), ids=[n for n, _ in svfs()])
def test_sample_equals_F_bit_for_bit(label, F):
    xs = probe_points(F)
    got = F.sample(xs)
    assert len(got) == len(xs)
    for x, S in zip(xs, got):
        want = F(x)
        assert S.points.shape == want.points.shape, (label, x)
        assert S.points.tobytes() == want.points.tobytes(), (label, x)
        assert not S.points.flags.writeable


@pytest.mark.parametrize("F", [SVF_FIXTURES["lines"](),
                               parse_svf(BENCH_CURVE)],
                         ids=["lines", "bench-curve"])
def test_replaced_fn_is_the_one_evaluator(F):
    """After `dataclasses.replace(F, fn=g)`, `F(x)` and `F.sample(xs)`, and
    so every library routine, evaluate g."""
    S = PointSet.of([[7.0] * F(0.0).dim])
    G = dataclasses.replace(F, fn=lambda ts: [S] * len(ts))
    assert all(T is S for T in G.sample(probe_points(F)))
    assert G(0.5) is S


def test_sample_checks_the_domain_as_F_does():
    F = parse_svf(LANGUAGE)
    assert F.sample([]) == []
    for bad in ([F.a - 2 * X_TOL], [0.5, F.b + 2 * X_TOL], [float("nan")]):
        with pytest.raises(ValueError, match="outside domain"):
            F.sample(bad)
    with pytest.raises(ValueError):
        F.sample([[0.0, 1.0]])


def test_constant_pieces_give_their_prebuilt_set():
    """The engine's labels, the Aumann hull cache and the cached cell grids key
    on the set object, so a constant piece returns one object at every t,
    sampled alone or among other points."""
    xs = np.append(np.linspace(-PI, PI, 41), 0.5)
    balls = balls_fixture(eps=0.25)
    for x, S in zip(xs, balls.sample(xs)):
        assert S is balls(x)
    assert balls(-1.0) is balls(0.0) and balls(1.0) is balls(2.0)
    lines = SVF_FIXTURES["lines"]()
    for x, S in zip(xs, lines.sample(xs)):
        if x <= 0.5:
            assert S is lines(x)
    F = parse_svf(LANGUAGE)
    for x in (0.25, 0.75, 1.0, 1.0 + NODE_TOL / 2, 2.0):
        first, again = F.sample([x, x, 0.5 * (x + 0.5)])[:2]
        assert first is again is F(x)


def test_first_override_within_node_tol_wins():
    """Where two `at` points lie within NODE_TOL of t, the first listed
    gives F(t), sampled alone or among other points; beyond them the
    pieces split at their ends."""
    F = parse_svf({"domain": [0.0, 1.0], "pieces": [
        {"end": 0.5, "points": [[0.0]]}, {"points": [[1.0]]}],
        "at": [{"x": 0.5, "points": [[2.0]]},
               {"x": 0.5 + NODE_TOL, "points": [[3.0]]}]})
    xs = [0.5 - 2 * NODE_TOL, 0.5, 0.5 + NODE_TOL / 2, 0.5 + 2 * NODE_TOL,
          0.5 + 3 * NODE_TOL, 1.0]
    want = [[0.0], [2.0], [2.0], [3.0], [1.0], [1.0]]
    assert [S.points[0].tolist() for S in F.sample(xs)] == want
    assert [F(x).points[0].tolist() for x in xs] == want


# One failing curve per kind of evaluation error, the points it is sampled
# at, and the first of them that fails.
CURVE_ERRORS = [
    ("sqrt(t)", [0.5, 0.25, -0.5, -0.75], -0.5),
    ("1/(t-t)", [0.5, 0.25], 0.5),
    ("exp(1000*t)", [0.0, 0.5, 0.8, 0.9], 0.8),
    ("(t - 0.5) ** 0.5", [0.75, 1.0, 0.25], 0.25),
    ("(-1) ** 0.5 + t", [0.0, 0.5], 0.0),
]


@pytest.mark.parametrize("expr, xs, first", CURVE_ERRORS,
                         ids=[e for e, _, _ in CURVE_ERRORS])
def test_curve_errors_name_the_first_failing_t(expr, xs, first):
    F = parse_svf({"domain": [-1.0, 1.0],
                   "pieces": [{"curve": [[expr, "t"]]}]})
    where = rf"pieces\[0\]\.curve at t={first!r}:"
    with pytest.raises(DescriptionError, match=where):
        F.sample(xs)
    with pytest.raises(DescriptionError, match=where):
        F(first)


def test_curve_underflow_is_not_an_error():
    """Underflow gives 0, as in Python's float arithmetic, sampled alone or
    among other points."""
    F = parse_svf({"domain": [0.0, 1.0],
                   "pieces": [{"curve": ["exp(-1000 * t)", "1e-200 * 1e-200"]}]})
    assert F(1.0).points.tolist() == [[0.0]]
    assert F.sample([1.0, 0.0])[0].points.tolist() == [[0.0]]


def test_pointset_many_equals_of_per_slice():
    """One finiteness check and one keep-first dedup for a block equal
    `PointSet.of` of each slice and the row-by-row reference, at every
    slice size; an empty block holds no sets."""
    rng = np.random.default_rng(3)
    tol = geometry.DEDUP_TOL
    for m, d in ((1, 1), (2, 1), (5, 2), (22, 1), (23, 2), (40, 3),
                 (81, 2), (8, 400)):
        base = rng.integers(-2, 3, (300, m, d)) * 0.5
        moved = base + rng.choice([0.0, tol / 2, tol, 2 * tol], base.shape)
        got = PointSet.many(moved)
        assert len(got) == len(moved)
        for S, X in zip(got, moved):
            assert np.array_equal(S.points, PointSet.of(X).points)
            assert np.array_equal(S.points, oracle_dedup(X, tol))
            assert not S.points.flags.writeable
    for m, d in ((1, 1), (3, 2)):
        assert PointSet.many(np.zeros((0, m, d))) == []
    for bad in (np.zeros((2, 3)), np.zeros((2, 0, 1)), np.zeros((2, 1, 0))):
        with pytest.raises(ValueError):
            PointSet.many(bad)
    with pytest.raises(ValueError, match="non-finite"):
        PointSet.many([[[0.0]], [[np.inf]]])
