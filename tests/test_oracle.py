"""Tests of the brute-force reference implementations and their agreement
with the main code paths on tiny inputs."""
import math

import numpy as np

from metricfourier.fixtures import lines_fixture, step_svf, two_branch_sine
from metricfourier.geometry import PointSet, enumerate_metric_chains, hausdorff
from metricfourier.metric_integral import (WeightFunction,
                                           right_weighted_metric_riemann_sum,
                                           weighted_metric_riemann_sum)
from metricfourier.oracle import (TinyInstance, _all_chains, oracle_AF,
                                  oracle_fourier, oracle_riemann_set)

PI = math.pi


def step_weight(inst):
    nodes, weights = inst.nodes, inst.weights

    def k(x):
        i = int(np.searchsorted(nodes, x, side="right")) - 1
        return float(weights[min(max(i, 0), len(weights) - 1)])

    return WeightFunction(k, 0.0, float(np.max(np.abs(weights))),
                          discontinuities=tuple(nodes[1:-1]))


def test_oracle_riemann_singletons():
    inst = TinyInstance(np.array([0.0, 0.5, 1.0]),
                        (np.array([[2.0]]), np.array([[3.0]]),
                         np.array([[4.0]])),
                        np.array([1.0, 1.0, 1.0]))
    got = oracle_riemann_set(inst)
    assert np.allclose(np.sort(got[:, 0]), [2.5])


def test_oracle_riemann_two_branches():
    pm = np.array([[-1.0], [1.0]])
    inst = TinyInstance(np.array([0.0, 0.5, 1.0]), (pm, pm, pm),
                        np.array([1.0, 1.0, 1.0]))
    got = oracle_riemann_set(inst)
    # Chains stay on one branch: cross-branch pairs are not metric pairs.
    assert np.allclose(np.sort(got[:, 0]), [-1.0, 1.0])


def test_oracle_riemann_matches_exact_mode():
    rng = np.random.default_rng(42)
    for _ in range(10):
        inst = TinyInstance.random(rng)
        ref = PointSet.of(oracle_riemann_set(inst))
        got = weighted_metric_riemann_sum(inst.svf(), step_weight(inst),
                                          inst.partition())
        assert hausdorff(ref, got) < 1e-9


def test_oracle_fourier_trig_polynomial():
    for x in (-1.0, 0.3, 2.0):
        got = oracle_fourier(lambda t: math.cos(3.0 * t), 5, x)
        assert abs(got - math.cos(3.0 * x)) < 1e-7


def test_oracle_fourier_square_wave_at_zero():
    f = lambda t: 1.0 if t >= 0.0 else -1.0
    got = oracle_fourier(f, 9, 0.0, breakpoints=(0.0,))
    assert abs(got) < 1e-7


def test_oracle_AF_continuous_point():
    F = two_branch_sine()
    AF = oracle_AF(F, 0.3)
    assert hausdorff(AF, F(0.3)) < 1e-8


def test_oracle_AF_scalar_step():
    AF = oracle_AF(step_svf(), 0.5)
    assert np.allclose(AF.points, [[0.5]], atol=1e-9)


def test_oracle_AF_lines():
    AF = oracle_AF(lines_fixture(), 0.5)
    got = np.sort(AF.points[:, 0])
    assert np.allclose(got, [-0.625, -0.5, 0.625], atol=1e-9)
    # In particular 1/2 (midpoint of the excluded pair (0, 1+t-x)) is absent.
    assert float(np.min(np.abs(got - 0.5))) >= 0.125 - 1e-9


def test_tiny_instance_shapes():
    rng = np.random.default_rng(0)
    for _ in range(20):
        inst = TinyInstance.random(rng)
        assert 3 <= len(inst.nodes) <= 5
        assert all(1 <= len(s) <= 4 for s in inst.sets)
        assert np.all(np.diff(inst.nodes) >= 1e-3)
        F = inst.svf()
        assert len(F(float(inst.nodes[0]))) == len(inst.sets[0])


def test_oracle_riemann_right_matches_exact_mode():
    rng = np.random.default_rng(43)
    for dim in (1, 2):
        for _ in range(10):
            inst = TinyInstance.random(rng, dim)
            ref = PointSet.of(oracle_riemann_set(inst, side="right"))
            got = right_weighted_metric_riemann_sum(
                inst.svf(), step_weight(inst), inst.partition())
            assert hausdorff(ref, got) < 1e-9


def test_chain_enumeration_matches_oracle_order():
    rng = np.random.default_rng(44)
    for dim in (1, 2):
        for _ in range(10):
            inst = TinyInstance.random(rng, dim)
            sets = [np.asarray(s, dtype=float) for s in inst.sets]
            want = np.array([[S[i] for S, i in zip(sets, ch)]
                             for ch in _all_chains(sets)])
            got = enumerate_metric_chains([PointSet.of(s, dedup_tol=0)
                                           for s in sets])
            assert np.array_equal(got, want)
