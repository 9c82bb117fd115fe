"""Dirichlet kernels, Fourier coefficients and partial sums, the refined
Dirichlet-Jordan bound, the metric Fourier approximant S_nF, and the limit
set A_F(x).

Every partial sum is `trig_eval` of Fourier coefficients.  A piecewise-
constant selection has exact coefficients: its `MetricChain.integral`
against the trigonometric antiderivatives, the one chain path that the
weighted metric integral takes too, so no quadrature error enters the
set-valued approximants.  A family's chains share one table of sin(kt) and
-cos(kt) on the distinct nodes of their partitions, from which each chain
gathers its rows.  A single-valued selection takes one adaptive
Gauss-Kronrod quadrature of all its smooth panels, which serves every
harmonic and every coordinate and evaluates the selection on one array of
nodes per refinement round.  A family's coefficients form one (n+1, S, d)
matrix that serves every order up to n and every x."""
from __future__ import annotations

import heapq
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import PointSet
from .svf import (MetricChain, MetricSelection, SetValuedFunction,
                  one_sided_moduli, total_variation)

# Absolute and relative accuracy of every adaptive quadrature.
QTOL = 1e-10
# `fourier_coefficients` bisects at most QUAD_SPLITS intervals of a panel per
# round, and gives up on a panel, with a warning, at QUAD_LIMIT intervals
# (scipy's quad_vec defaults).
QUAD_SPLITS = 128
QUAD_LIMIT = 10000
# A block of the integrand, and each of its two buffers, holds about this
# many values (256 KB), unless one interval needs more.  Small blocks stay
# in cache: the step-svf coefficients at n = 1024 took 0.34 s with 2**15
# and 0.45-0.70 s with 2**18 (2 shared vCPUs, numpy 2.4).
_QUAD_BLOCK = 2 ** 15
# Chains, and so coefficients, need a domain within this of [-pi, pi].
PERIOD_TOL = 1e-9
# Kernel-integral constant in the refined Dirichlet-Jordan bound.
C_KERNEL = 2.0
# Threshold below which sin(x/2) is treated as a removable singularity.
_SING = 1e-8


def _kernel_eval(x, closed, sum_form):
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
        x, lambda xs, s: np.sin((n + 0.5) * xs) / (2.0 * s),
        lambda xs: dirichlet_cos_sum(n, xs))


def modified_dirichlet(n: int, x):
    """D*_n(x) = (1/2) sin(nx) cot(x/2), with D*_n(2*pi*m) = n."""
    return _kernel_eval(
        x, lambda xs, s: 0.5 * np.sin(n * xs) * np.cos(xs / 2.0) / s,
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


# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1]: the Kronrod nodes and
# weights, and the weights of the 10-point Gauss rule on the odd nodes.
_GK_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK_NODES = np.concatenate([_GK_NODES, -_GK_NODES[-2::-1]])
_GK_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GK_WEIGHTS = np.concatenate([_GK_WEIGHTS, _GK_WEIGHTS[-2::-1]])
_GAUSS_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_GAUSS_WEIGHTS = np.concatenate([_GAUSS_WEIGHTS, _GAUSS_WEIGHTS[::-1]])


def _gk21(f, lo: np.ndarray, hi: np.ndarray, ks: np.ndarray):
    """The Gauss-Kronrod integrals of [cos kt, sin kt] f(t) over the
    intervals [lo_i, hi_i], with quad_vec's error estimate in the max norm
    and its round-off term: (integrals (I, 2, K) or (I, 2, K, d), err (I,),
    rnd (I,)).  f is called once, on the 21 I nodes."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t = c + h * _GK_NODES[:, None]                   # (21, I), node-major
    fv = np.asarray(f(t.ravel()), dtype=float)
    if fv.ndim not in (1, 2) or fv.shape[0] != t.size:
        raise ValueError(f"f maps {t.size} points to an array of shape "
                         f"{fv.shape}, not ({t.size},) or ({t.size}, d)")
    shape = fv.shape[1:]
    fv = fv.reshape(21, len(lo), -1)
    I, K, d = len(lo), len(ks), fv.shape[2]
    h = h[:, None]
    # Per interval: the Kronrod sums, and the max norms of the Kronrod minus
    # Gauss sums, of the sums of |f| and of |f - mean| (dabs).
    kronrod = np.empty((I, 2 * K * d))
    err, rnd, dabs = np.empty((3, I))
    # Blocks of B intervals keep the (21, B, 2, K, d) integrand and its
    # buffers near _QUAD_BLOCK values, however many intervals a round has.
    B = min(I, max(1, _QUAD_BLOCK // (21 * 2 * K * d)))
    trig = np.empty((21, B, 2, K, 1))
    vals, work = np.empty((2, 21, B, 2, K, d))
    sums = np.empty((B, 2 * K * d))
    for s in range(0, I, B):
        m = min(B, I - s)
        kt = np.multiply.outer(t[:, s:s + m], ks)
        np.cos(kt, out=trig[:, :m, 0, :, 0])
        np.sin(kt, out=trig[:, :m, 1, :, 0])
        np.multiply(trig[:, :m], fv[:, s:s + m, None, None, :],
                    out=vals[:, :m])
        flat, tmp = vals[:, :m].reshape(21, -1), work[:, :m].reshape(21, -1)
        y, z, hb = kronrod[s:s + m], sums[:m], h[s:s + m]
        np.matmul(_GK_WEIGHTS, flat, out=y.reshape(-1))
        np.matmul(_GAUSS_WEIGHTS, flat[1::2], out=z.reshape(-1))
        err[s:s + m] = np.abs((y - z) * hb).max(axis=1)
        np.matmul(_GK_WEIGHTS, np.abs(flat, out=tmp), out=z.reshape(-1))
        rnd[s:s + m] = (50 * sys.float_info.epsilon * hb * z).max(axis=1)
        np.subtract(flat, y.reshape(-1) / 2.0, out=tmp)
        np.matmul(_GK_WEIGHTS, np.abs(tmp, out=tmp), out=z.reshape(-1))
        dabs[s:s + m] = (z * hb).max(axis=1)
    # QUADPACK's estimate: dabs min(1, (200 err / dabs)^1.5), at least the
    # round-off term.
    both = (err != 0) & (dabs != 0)
    err[both] = dabs[both] * np.minimum(1.0, (200 * err[both]
                                              / dabs[both]) ** 1.5)
    err = np.where(rnd > sys.float_info.min, np.maximum(err, rnd), err)
    kronrod *= h
    return kronrod.reshape((I, 2, K) + shape), err, rnd


def fourier_coefficients(f, n: int, breakpoints=()):
    """(a_0..a_n, b_0..b_n) of f on [-pi, pi]: the integrals of
    [cos(kt) f(t), sin(kt) f(t)] for every k at once, by quad_vec's adaptive
    21-point Gauss-Kronrod scheme on each smooth panel between breakpoints.
    f maps a 1-d array of t to their (T,) values, giving (n+1,) arrays, or
    to (T, d) points, giving (n+1, d) arrays.

    The panels refine in lockstep: each round calls f once, on the nodes
    of every new interval of every panel.  A panel stops when the sum of
    its interval errors is below max(QTOL, QTOL |I|_max) / 8 for its
    integral I in the max norm, or below its accumulated round-off; a
    round bisects, largest error first, the intervals whose errors make
    up the excess (at most QUAD_SPLITS).  A panel that reaches QUAD_LIMIT
    intervals, or the round-off limit, or a non-finite value, warns.
    A kink of f not declared in `breakpoints` can miss QTOL silently (by up
    to 1.3e-6 over 2,000 random kinked f, mostly in a_0): declare every
    kink and jump."""
    cuts = sorted({-math.pi, math.pi} | {float(t) for t in breakpoints
                                         if -math.pi < t < math.pi})
    ks = np.arange(n + 1)
    ig, err, rnd = _gk21(f, np.array(cuts[:-1]), np.array(cuts[1:]), ks)
    # Per panel: its integral, error and round-off sums, a heap of its
    # intervals (-error, u, v), and why it stopped ("" converged).
    total, error, rounding = ig.copy(), err.tolist(), rnd.tolist()
    heaps = [[(-e, u, v)] for e, u, v in zip(error, cuts, cuts[1:])]
    integral = {(u, v): x.copy() for u, v, x in zip(cuts, cuts[1:], ig)}
    status = [None] * len(heaps)

    def tol(p):
        return max(QTOL, QTOL * np.abs(total[p]).max()) / 8

    while True:
        split = []                       # (panel, u, v, error) to bisect
        for p, heap in enumerate(heaps):
            if status[p] is None and len(heap) >= QUAD_LIMIT:
                status[p] = "Target precision not reached."
            if status[p] is not None:
                continue
            excess, err_sum = error[p] - tol(p), 0.0
            for j in range(min(QUAD_SPLITS, len(heap))):
                if j and err_sum > excess:
                    break
                e, u, v = heapq.heappop(heap)
                split.append((p, u, v, -e))
                err_sum += -e
        if not split:
            break
        p, u, v, e = (np.array(x) for x in zip(*split))
        c = 0.5 * (u + v)
        halves = _gk21(f, np.column_stack([u, c]).ravel(),
                       np.column_stack([c, v]).ravel(), ks)
        ig, err, rnd = (x.reshape((len(split), 2) + x.shape[1:])
                        for x in halves)
        for q, (a, m, b), old, (s1, s2), (e1, e2), (r1, r2) in zip(
                p.tolist(), np.column_stack([u, c, v]).tolist(), e.tolist(),
                ig, err.tolist(), rnd.tolist()):
            total[q] += s1 + s2 - integral.pop((a, b))
            error[q] += e1 + e2 - old
            rounding[q] += r1 + r2
            # Copies, so that no round's array outlives its last interval.
            integral[(a, m)], integral[(m, b)] = s1.copy(), s2.copy()
            heapq.heappush(heaps[q], (-e1, a, m))
            heapq.heappush(heaps[q], (-e2, m, b))
        for q in set(p.tolist()):
            if error[q] < tol(q):
                status[q] = ""
            elif error[q] < rounding[q]:
                status[q] = ("Target precision could not be reached due "
                             "to rounding error.")
            elif not (math.isfinite(error[q]) and math.isfinite(rounding[q])):
                status[q] = "Non-finite values encountered."
    for msg, u, v in zip(status, cuts, cuts[1:]):
        if msg:
            # scipy's warning class, loaded only to warn with it.
            from scipy.integrate import IntegrationWarning
            warnings.warn(f"{msg} on [{u}, {v}]", IntegrationWarning)
    a, b = total.sum(axis=0) / math.pi
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


def chain_coefficients(c: MetricChain, n: int):
    """Exact (a, b), each (n+1, d), of a chain on [-pi, pi]: its integrals
    against the antiderivatives t, sin(kt) and -cos(kt), scaled by 1/pi and
    1/(pi k).  The one-chain case of `_chains_coefficients`."""
    return _chains_coefficients([c], n)[0]


def _chains_coefficients(chains, n: int) -> list:
    """`chain_coefficients` of each chain, from one table of sin(kt) and
    -cos(kt) on the sorted distinct nodes of all the chains' partitions:
    each chain's `MetricChain.integral` gathers its own rows of it, so
    every entry is the float the chain's own evaluation would give."""
    for c in chains:
        if max(abs(c.nodes[0] + math.pi),
               abs(c.nodes[-1] - math.pi)) > PERIOD_TOL:
            raise ValueError("chain must be defined on [-pi, pi]")
    if not chains:
        return []
    chis = {id(c.partition): c.partition for c in chains}
    t = np.unique(np.concatenate([chi.nodes for chi in chis.values()]))
    ks = np.arange(1, n + 1)
    kt = np.multiply.outer(t, ks)
    sin, cos = np.sin(kt), np.cos(kt, out=kt)
    np.negative(cos, out=cos)
    rows = {key: np.searchsorted(t, chi.nodes) for key, chi in chis.items()}
    scale = (math.pi * ks)[:, None]
    out = []
    for c in chains:
        r = rows[id(c.partition)]
        a0 = c.integral(lambda t: t) / math.pi
        a = c.integral(lambda _: sin[r]) / scale
        b = c.integral(lambda _: cos[r]) / scale
        out.append((np.vstack([a0, a]), np.vstack([np.zeros_like(a0), b])))
    return out


def selection_coefficients(s: MetricSelection, n: int, breakpoints=()):
    """(a, b), each (n+1, d): the exact coefficients of the selection's
    chain, or quadrature coefficients of its exact single-valued evaluator."""
    if s.smooth_fn is None:
        return chain_coefficients(s, n)
    return fourier_coefficients(s.smooth_fn, n, breakpoints)


def family_coefficients(F: SetValuedFunction, n: int, family: tuple):
    """(a, b), each (n+1, S, d): the coefficients of every selection,
    stacked along axis 1, after the harmonics.  The chain selections share
    one trigonometric table (`_chains_coefficients`)."""
    exact = iter(_chains_coefficients(
        [s for s in family if s.smooth_fn is None], n))
    pairs = [next(exact) if s.smooth_fn is None else
             fourier_coefficients(s.smooth_fn, n, F.jump_points)
             for s in family]
    return tuple(np.stack(c, axis=1) for c in zip(*pairs))


def partial_sum_of_chain(c: MetricChain, n: int, x: float) -> np.ndarray:
    """Exact S_n c(x) for a chain, or a selection, on [-pi, pi]."""
    return trig_eval(*chain_coefficients(c, n), x)


def partial_sum_of_selection(s: MetricSelection, n: int, x: float,
                             breakpoints=()) -> np.ndarray:
    """S_n s(x) from the selection's coefficients."""
    return trig_eval(*selection_coefficients(s, n, breakpoints), x)


def metric_fourier(F: SetValuedFunction, n: int, x: float,
                   family: tuple, coeffs=None) -> PointSet:
    """S_nF(x) = {S_n s(x) : s in the selection family}, deduplicated.
    `coeffs` is the family's `family_coefficients` at any order >= n."""
    if coeffs is None:
        coeffs = family_coefficients(F, n, family)
    return PointSet.of(trig_eval(*coeffs, x, n))


def limit_set_AF(F: SetValuedFunction, x: float, family: tuple) -> PointSet:
    """A_F(x) = {(s(x+0) + s(x-0))/2 : s in the family}."""
    if not (F.a < x < F.b):
        raise ValueError("A_F is defined at interior points only")
    mids = [(s.one_sided_limit(x, "-") + s.one_sided_limit(x, "+")) / 2.0
            for s in family]
    return PointSet.of(mids, dedup_tol=1e-9)


def delta_grid(lo: float = 1e-3, hi: float = math.pi, m: int = 32) -> np.ndarray:
    """m log-spaced candidates in (lo, hi] for bound minimization."""
    return np.geomspace(lo, hi, m + 1)[1:]


def _cot_term(delta):
    """1 + 6 cot(delta/2), elementwise over delta in (0, pi]."""
    delta = np.asarray(delta, dtype=float)
    if not np.all((0.0 < delta) & (delta <= math.pi)):
        raise ValueError("delta must lie in (0, pi]")
    return 1.0 + 6.0 * np.cos(delta / 2.0) / np.sin(delta / 2.0)


def djordan_bound_rhs(B: float, n: int, delta, omega):
    """(2B / (pi n)) (1 + 6 cot(delta/2)) + 8 C_KERNEL omega, elementwise
    over delta and omega, the value of the modulus at delta."""
    if B < 0:
        raise ValueError("variation budget must be nonnegative")
    return (2.0 * B / (math.pi * n)) * _cot_term(delta) \
        + 8.0 * C_KERNEL * np.asarray(omega, dtype=float)


def min_djordan_bound(B: float, omega, n: int, deltas) -> float:
    """The bound minimized over the deltas, with omega its modulus there."""
    return float(np.min(djordan_bound_rhs(B, n, deltas, omega)))


def svf_bound_rhs(V: float, n: int, delta, omega, K: float):
    """K [ (V/n)(1 + 6 cot(delta/2)) + omega ], elementwise over delta and
    omega = max{ left_quasi(v_F, x, 2 delta), right_quasi(v_F, x, delta) }."""
    if K <= 0:
        raise ValueError("K must be positive")
    return K * ((V / n) * _cot_term(delta) + np.asarray(omega, dtype=float))


def quasi_moduli(vf, x: float, delta, lo: float, hi: float,
                 norm: str = "l2"):
    """(left_quasi, right_quasi) of a variation function at x: two floats
    for one delta, two arrays for an array of deltas."""
    return (one_sided_moduli(vf, x, delta, lo, hi, "-", norm=norm)[1],
            one_sided_moduli(vf, x, delta, lo, hi, "+", norm=norm)[1])


def svf_jump_omega(vf, x: float, lo: float, hi: float, norm: str = "l2"):
    """The modulus entering the set-valued jump bound, as a function of
    delta, or of an array of deltas."""

    def omega(delta):
        return np.maximum(
            one_sided_moduli(vf, x, 2.0 * np.asarray(delta), lo, hi, "-",
                             norm)[1],
            one_sided_moduli(vf, x, delta, lo, hi, "+", norm)[1])

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
    """Check V(f) <= B and both quasi-moduli of v_f at x dominated by omega,
    a function called once, on the array of deltas."""
    deltas = delta_grid() if deltas is None else np.asarray(deltas, dtype=float)
    var, _ = total_variation(f, lo, hi, depth=12)
    excess = np.maximum(*quasi_moduli(vf, x, deltas, lo, hi)) - omega(deltas)
    worst = int(np.argmax(excess))
    worst_delta, worst_excess = float(deltas[worst]), float(excess[worst])
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
