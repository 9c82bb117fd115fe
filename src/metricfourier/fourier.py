"""Dirichlet kernels, classical partial sums, the refined Dirichlet-Jordan
bound, the metric Fourier approximant S_nF, and the limit set A_F(x).

Every partial sum is `trig_eval` of Fourier coefficients.  A piecewise-
constant selection has exact closed-form coefficients, so no quadrature
error enters the set-valued approximants.  A single-valued selection takes
one adaptive vector quadrature per smooth panel, which serves every
harmonic and every coordinate.  A family's coefficients form one
(n+1, S, d) matrix that serves every order up to n and every x."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad_vec

from .geometry import PointSet, as_point
from .svf import (ChainFunction, MetricSelection, SelectionFamily,
                  SetValuedFunction, one_sided_moduli)

QTOL = 1e-10
# Kernel-integral constant in the refined Dirichlet-Jordan bound.
C_KERNEL = 2.0
# Threshold below which sin(x/2) is treated as a removable singularity.
_SING = 1e-8


def _kernel_eval(n, x, closed, sum_form):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    s = np.sin(x / 2.0)
    out = np.empty_like(x)
    safe = np.abs(s) >= _SING
    out[safe] = closed(x[safe], s[safe])
    if not safe.all():
        out[~safe] = sum_form(x[~safe])
    return float(out[0]) if scalar else out


def dirichlet_cos_sum(n: int, x):
    """1/2 + sum_{k=1}^n cos(kx): the defining cosine sum."""
    x = np.asarray(x, dtype=float)
    ks = np.arange(1, n + 1)
    return 0.5 + np.cos(np.multiply.outer(x, ks)).sum(axis=-1)


def dirichlet(n: int, x):
    """D_n(x) = sin((n+1/2)x) / (2 sin(x/2)), with D_n(2*pi*m) = n + 1/2."""
    return _kernel_eval(
        n, x,
        lambda xs, s: np.sin((n + 0.5) * xs) / (2.0 * s),
        lambda xs: dirichlet_cos_sum(n, xs))


def modified_dirichlet(n: int, x):
    """D*_n(x) = (1/2) sin(nx) cot(x/2), with D*_n(2*pi*m) = n."""
    return _kernel_eval(
        n, x,
        lambda xs, s: 0.5 * np.sin(n * xs) * np.cos(xs / 2.0) / s,
        lambda xs: dirichlet_cos_sum(n, xs) - 0.5 * np.cos(n * xs))


def dirichlet_antiderivative(n: int, x):
    """Phi_n(x) = x/2 + sum_{k=1}^n sin(kx)/k, with Phi_n' = D_n."""
    x = np.asarray(x, dtype=float)
    ks = np.arange(1, n + 1)
    return x / 2.0 + np.sin(np.multiply.outer(x, ks)) @ (1.0 / ks)


def modified_dirichlet_antiderivative(n: int, x):
    """Antiderivative of D*_n vanishing at 0: Phi_n(x) - sin(nx)/(2n)."""
    return (dirichlet_antiderivative(n, x)
            - np.sin(n * np.asarray(x, dtype=float)) / (2.0 * n))


def fourier_coefficients(f, n: int, breakpoints=(), qtol: float = QTOL):
    """(a_0..a_n, b_0..b_n) of f on [-pi, pi]: one adaptive `quad_vec` per
    smooth panel integrates [cos(kt) f(t), sin(kt) f(t)] for every k at once.
    A scalar f gives (n+1,) arrays, a point-valued f (n+1, d) arrays."""
    cuts = sorted({-math.pi, math.pi} | {float(t) for t in breakpoints
                                         if -math.pi < t < math.pi})
    ks = np.arange(n + 1)

    def integrand(t):
        kt = ks * t
        return np.multiply.outer(np.stack([np.cos(kt), np.sin(kt)]), f(t))

    total = 0.0
    for u, v in zip(cuts, cuts[1:]):
        val, _, info = quad_vec(integrand, u, v, epsabs=qtol, epsrel=qtol,
                                norm="max", full_output=True)
        if not info.success:
            warnings.warn(f"{info.message} on [{u}, {v}]", IntegrationWarning)
        total = total + val
    a, b = total / math.pi
    return a, b


def trig_eval(a, b, x, n: int | None = None):
    """a_0/2 + sum_{k=1}^n (a_k cos kx + b_k sin kx).  Axis 0 of a and b is
    the harmonic k, so coefficients of any order >= n serve; (n+1,) ones give
    a float, (n+1, ...) ones an array of the trailing shape."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if n is None:
        n = a.shape[0] - 1
    ks = np.arange(1, n + 1)
    out = (a[0] / 2.0 + (a[1:n + 1].T @ np.cos(ks * x)).T
           + (b[1:n + 1].T @ np.sin(ks * x)).T)
    return float(out) if a.ndim == 1 else out


def classical_partial_sum(f, n: int, x: float, coeffs=None,
                          breakpoints=()) -> float:
    """S_n f(x) via Fourier coefficients."""
    if coeffs is None:
        coeffs = fourier_coefficients(f, n, breakpoints)
    return trig_eval(*coeffs, x, n)


def chain_coefficients(c: ChainFunction, n: int):
    """Exact (a, b), each (n+1, d), of a chain on [-pi, pi] with values y_i
    on [t_i, t_{i+1}): a_k = (1/pi k) sum_i y_i (sin k t_{i+1} - sin k t_i),
    b_k the same with -cos."""
    t = c.nodes
    if abs(t[0] + math.pi) > 1e-9 or abs(t[-1] - math.pi) > 1e-9:
        raise ValueError("chain must be defined on [-pi, pi]")
    # The value at the last node only holds on a measure-zero set.
    y = c.values[:-1]
    ks = np.arange(1, n + 1)
    kt, scale = np.multiply.outer(ks, t), (math.pi * ks)[:, None]
    a0 = np.diff(t) @ y / math.pi
    return (np.vstack([a0, np.diff(np.sin(kt), axis=1) @ y / scale]),
            np.vstack([np.zeros_like(a0), -np.diff(np.cos(kt), axis=1) @ y / scale]))


def _stack(pairs):
    """Stack (a, b) coefficient pairs along axis 1, after the harmonics."""
    return tuple(np.stack(c, axis=1) for c in zip(*pairs))


def selection_coefficients(s: MetricSelection, n: int, breakpoints=()):
    """(a, b), each (n+1, d): the exact chain coefficients, or quadrature
    coefficients of the selection's exact single-valued evaluator."""
    if s.smooth_fn is None:
        return chain_coefficients(s.base, n)
    return fourier_coefficients(lambda t: as_point(s.smooth_fn(t)), n,
                                breakpoints)


def family_coefficients(F: SetValuedFunction, n: int,
                        family: SelectionFamily):
    """(a, b), each (n+1, S, d): the coefficients of every selection."""
    return _stack([selection_coefficients(s, n, F.jump_points)
                   for s in family.selections])


def partial_sum_of_chain(c: ChainFunction, n: int, x: float) -> np.ndarray:
    """Exact S_n c(x) for a piecewise-constant chain on [-pi, pi]."""
    return trig_eval(*chain_coefficients(c, n), x)


def partial_sum_of_selection(s: MetricSelection, n: int, x: float,
                             breakpoints=()) -> np.ndarray:
    """S_n s(x) from the selection's coefficients."""
    return trig_eval(*selection_coefficients(s, n, breakpoints), x)


@dataclass(frozen=True)
class FourierApproximant:
    x: float
    n: int
    value_set: PointSet
    family_size: int


def metric_fourier(F: SetValuedFunction, n: int, x: float,
                   family: SelectionFamily, coeffs=None) -> FourierApproximant:
    """S_nF(x) = {S_n s(x) : s in the selection family}, deduplicated.
    `coeffs` is the family's `family_coefficients` at any order >= n."""
    if coeffs is None:
        coeffs = family_coefficients(F, n, family)
    vals = trig_eval(*coeffs, x, n)
    return FourierApproximant(x, n, PointSet.of(vals), len(family))


def limit_set_AF(F: SetValuedFunction, x: float,
                 family: SelectionFamily) -> PointSet:
    """A_F(x) = {(s(x+0) + s(x-0))/2 : s in the family}."""
    if not (F.a < x < F.b):
        raise ValueError("A_F is defined at interior points only")
    mids = [(s.one_sided_limit(x, "-") + s.one_sided_limit(x, "+")) / 2.0
            for s in family.selections]
    return PointSet.of(mids, dedup_tol=1e-9)


def delta_grid(lo: float = 1e-3, hi: float = math.pi, m: int = 32) -> np.ndarray:
    """m log-spaced candidates in (lo, hi] for bound minimization."""
    return np.geomspace(lo, hi, m + 1)[1:]


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the refined Dirichlet-Jordan bound."""

    B: float
    delta: float
    omega: object
    C: float = C_KERNEL

    def __post_init__(self):
        if not 0.0 < self.delta <= math.pi:
            raise ValueError("delta must lie in (0, pi]")
        if self.B < 0:
            raise ValueError("variation budget must be nonnegative")


def djordan_bound_rhs(p: BoundParams, n: int) -> float:
    """(2B / (pi n)) (1 + 6 cot(delta/2)) + 8 C omega(delta)."""
    cot = math.cos(p.delta / 2.0) / math.sin(p.delta / 2.0)
    return (2.0 * p.B / (math.pi * n)) * (1.0 + 6.0 * cot) \
        + 8.0 * p.C * float(p.omega(p.delta))


def min_djordan_bound(B: float, omega, n: int, C: float = C_KERNEL,
                      deltas=None) -> float:
    """Bound minimized over the delta grid."""
    if deltas is None:
        deltas = delta_grid()
    return min(djordan_bound_rhs(BoundParams(B, d, omega, C), n)
               for d in deltas)


def svf_bound_rhs(V: float, n: int, delta: float, omega, K: float) -> float:
    """K [ (V/n)(1 + 6 cot(delta/2)) + omega(delta) ] with omega(delta) =
    max{ left_quasi(v_F, x, 2 delta), right_quasi(v_F, x, delta) }."""
    if not 0.0 < delta <= math.pi:
        raise ValueError("delta must lie in (0, pi]")
    if K <= 0:
        raise ValueError("K must be positive")
    cot = math.cos(delta / 2.0) / math.sin(delta / 2.0)
    return K * ((V / n) * (1.0 + 6.0 * cot) + float(omega(delta)))


def quasi_moduli(vf, x: float, delta: float, lo: float, hi: float,
                 norm: str = "l2") -> tuple[float, float]:
    """(left_quasi, right_quasi) of a variation function at x."""
    return (one_sided_moduli(vf, x, delta, lo, hi, "-", norm=norm)[1],
            one_sided_moduli(vf, x, delta, lo, hi, "+", norm=norm)[1])


def svf_jump_omega(vf, x: float, lo: float, hi: float, norm: str = "l2"):
    """The modulus entering the set-valued jump bound, as a function of delta."""

    def omega(delta: float) -> float:
        left = one_sided_moduli(vf, x, min(2.0 * delta, x - lo), lo, hi, "-",
                                norm=norm)[1] if x > lo else 0.0
        right = one_sided_moduli(vf, x, min(delta, hi - x), lo, hi, "+",
                                 norm=norm)[1] if x < hi else 0.0
        return max(left, right)

    return omega


@dataclass(frozen=True)
class ClassReport:
    member: bool
    variation: float
    variation_margin: float
    worst_delta: float
    worst_excess: float


def class_membership(f, B: float, x: float, omega, vf,
                     deltas=None, lo: float = -math.pi,
                     hi: float = math.pi) -> ClassReport:
    """Check V(f) <= B and both quasi-moduli of v_f at x dominated by omega."""
    from .svf import total_variation
    if deltas is None:
        deltas = delta_grid()
    var, _ = total_variation(f, lo, hi, depth=12)
    worst_delta, worst_excess = float(deltas[0]), -math.inf
    for d in deltas:
        lq, rq = quasi_moduli(vf, x, d, lo, hi)
        excess = max(lq, rq) - float(omega(d))
        if excess > worst_excess:
            worst_delta, worst_excess = float(d), excess
    member = var <= B + 1e-9 and worst_excess <= 1e-9
    return ClassReport(member, var, B - var, worst_delta, worst_excess)


def fit_K(observations) -> float:
    """Smallest K with observed <= K * bracket across all observations."""
    best = 0.0
    for observed, bracket in observations:
        if bracket <= 0:
            if observed > 0:
                raise ValueError("observation with zero bracket")
            continue
        best = max(best, observed / bracket)
    return best
