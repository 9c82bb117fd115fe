"""Brute-force reference implementations used only by tests.

Each oracle is deliberately plain: nested loops, its own projection logic,
no shared shortcuts with the library code paths beyond plain distances."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.spatial.distance import cdist

from .fourier import QTOL
from .geometry import PointSet
from .svf import (SEED_TOL, ChainFunction, GreedySeedError, MetricChain,
                  MetricSelection, Partition, SelectionFamily,
                  SetValuedFunction)

_TIE = 1e-9
_METRIC = {"l1": "cityblock", "l2": "euclidean", "linf": "chebyshev"}
_ORD = {"l1": 1, "l2": 2, "linf": np.inf}


def oracle_min_dists(P: np.ndarray, Q: np.ndarray, norm: str = "l2") -> np.ndarray:
    """Distance from each row of P to the set Q, from the full cdist matrix."""
    return cdist(P, Q, metric=_METRIC[norm]).min(axis=1)


def oracle_dist_point_set(p, Q: np.ndarray, norm: str = "l2",
                          tie_tol: float = _TIE) -> tuple[float, np.ndarray]:
    """Distance from p to Q and the indices of every row of Q within
    tie_tol of it, from one brute-force cdist row."""
    d = cdist(np.atleast_2d(np.asarray(p, dtype=float)), Q,
              metric=_METRIC[norm])[0]
    value = float(d.min())
    return value, np.nonzero(d <= value + tie_tol)[0]


def _pick(p, S: PointSet, norm: str, tie_tol: float) -> tuple[float, np.ndarray]:
    """Distance from p to S and the lexicographically smallest witness."""
    d, idx = oracle_dist_point_set(p, S.points, norm, tie_tol)
    w = S.points[idx]
    return d, w[np.lexsort(w.T[::-1])[0]]


def oracle_dyadic_nodes(a: float, b: float, depth: int, forced=()) -> np.ndarray:
    """The nodes of `Partition.dyadic`: each forced point is checked against
    every node kept so far, grid and forced alike."""
    nodes = list(np.linspace(a, b, 2 ** depth + 1))
    for x in forced:
        x = float(x)
        if a < x < b and min(abs(x - t) for t in nodes) > 1e-13:
            nodes.append(x)
    return np.asarray(sorted(nodes), dtype=float)


def oracle_greedy_chain(F: SetValuedFunction, chi: Partition, seed,
                        norm: str = "l2", tie_tol: float = _TIE) -> MetricChain:
    """One greedy chain, node by node: the seed's witness, then projections
    rightward and leftward, F evaluated afresh at every step."""
    x_hat, y_hat = float(seed[0]), np.atleast_1d(np.asarray(seed[1], float))
    nodes = chi.nodes
    i0 = int(np.argmin(np.abs(nodes - x_hat)))
    if abs(nodes[i0] - x_hat) > 1e-9:
        raise ValueError("seed abscissa must be a partition node")
    d, first = _pick(y_hat, F(nodes[i0]), norm, tie_tol)
    if d > SEED_TOL:
        raise GreedySeedError(f"seed value is {d:.3g} away from F(x_hat)")
    values = np.empty((len(nodes), y_hat.size))
    values[i0] = first
    for i in range(i0 + 1, len(nodes)):
        values[i] = _pick(values[i - 1], F(nodes[i]), norm, tie_tol)[1]
    for i in range(i0 - 1, -1, -1):
        values[i] = _pick(values[i + 1], F(nodes[i]), norm, tie_tol)[1]
    return MetricChain(chi, values)


def oracle_selection_family(F: SetValuedFunction, x_seeds: int, y_seeds: int,
                            depth: int, norm: str = "l2",
                            probe: Partition | None = None) -> SelectionFamily:
    """`svf.selection_family` seed by seed: two greedy chains per seed (at
    `depth` and `depth - 1`), the singleton test on fresh evaluations of F,
    then dedup on the probe grid."""
    xs = sorted(set(np.linspace(F.a, F.b, x_seeds))
                | {float(j) for j in F.jump_points})
    if probe is None:
        probe = Partition.dyadic(F.a, F.b, 6, tuple(F.jump_points))
    selections, signatures = [], []
    for x_hat in xs:
        pts = F(x_hat).points
        pts = pts[np.lexsort(pts.T[::-1])]
        if len(pts) > y_seeds:
            pts = pts[np.linspace(0, len(pts) - 1, y_seeds).round().astype(int)]
        for y_hat in pts:
            forced = (float(x_hat),) + tuple(F.jump_points)
            last = ChainFunction(oracle_greedy_chain(
                F, Partition.dyadic(F.a, F.b, depth, forced), (x_hat, y_hat),
                norm))
            defect = 0.0
            if depth > 1:
                prev = ChainFunction(oracle_greedy_chain(
                    F, Partition.dyadic(F.a, F.b, depth - 1, forced),
                    (x_hat, y_hat), norm))
                gaps = last(probe.nodes) - prev(probe.nodes)
                defect = float(np.linalg.norm(gaps, ord=_ORD[norm], axis=1).max())
            smooth = None
            if all(len(F(x)) == 1 for x in last.nodes):
                smooth = lambda x: F(x).single()
            sig = last(probe.nodes).ravel()
            if any(np.max(np.abs(sig - old)) <= 1e-12 for old in signatures):
                continue
            signatures.append(sig)
            selections.append(MetricSelection(
                last, (float(x_hat), np.atleast_1d(np.asarray(y_hat, float))),
                depth, defect, smooth))
    return SelectionFamily(tuple(selections), "per-seed reference")


def _argmins(p: np.ndarray, pts: np.ndarray) -> list[int]:
    d = [float(np.linalg.norm(p - q)) for q in pts]
    lo = min(d)
    return [i for i, di in enumerate(d) if di <= lo + _TIE]


def _pairs(A: np.ndarray, B: np.ndarray) -> set[tuple[int, int]]:
    out: set[tuple[int, int]] = set()
    for i in range(len(A)):
        for j in _argmins(A[i], B):
            out.add((i, j))
    for j in range(len(B)):
        for i in _argmins(B[j], A):
            out.add((i, j))
    return out


def _all_chains(sets: list[np.ndarray], limit: int = 10 ** 4) -> list[list[int]]:
    chains = [[i] for i in range(len(sets[0]))]
    for A, B in zip(sets, sets[1:]):
        ok = _pairs(A, B)
        chains = [ch + [j] for ch in chains for j in range(len(B))
                  if (ch[-1], j) in ok]
        if len(chains) > limit:
            raise RuntimeError("oracle instance too large")
    return chains


@dataclass(frozen=True)
class TinyInstance:
    """A small Riemann-sum instance: nodes, one point set per node, weights."""

    nodes: np.ndarray
    sets: tuple
    weights: np.ndarray

    @staticmethod
    def random(rng: np.random.Generator, dim: int = 1) -> "TinyInstance":
        n_nodes = int(rng.integers(3, 6))
        nodes = np.sort(rng.uniform(0.0, 1.0, n_nodes))
        while np.any(np.diff(nodes) < 1e-3):
            nodes = np.sort(rng.uniform(0.0, 1.0, n_nodes))
        sets = tuple(rng.uniform(-2.0, 2.0, (int(rng.integers(1, 5)), dim))
                     for _ in range(n_nodes))
        weights = rng.uniform(-1.5, 1.5, n_nodes)
        return TinyInstance(nodes, sets, weights)

    def svf(self) -> SetValuedFunction:
        nodes = self.nodes
        sets = [PointSet.of(s) for s in self.sets]

        def fn(x: float) -> PointSet:
            i = int(np.searchsorted(nodes, x, side="right")) - 1
            return sets[min(max(i, 0), len(sets) - 1)]

        return SetValuedFunction(float(nodes[0]), float(nodes[-1]), fn,
                                 jump_points=tuple(float(t) for t in nodes[1:-1]))

    def partition(self) -> Partition:
        return Partition.of(self.nodes)


def oracle_riemann_set(inst: TinyInstance, side: str = "left") -> np.ndarray:
    """Left- or right-endpoint weighted sums over every metric chain,
    exhaustively."""
    tags = slice(None, -1) if side == "left" else slice(1, None)
    sets = [np.asarray(s, dtype=float) for s in inst.sets[tags]]
    dx = np.diff(inst.nodes)
    w = dx * inst.weights[tags]
    if len(sets) == 1:
        sums = [w[0] * p for p in sets[0]]
    else:
        sums = [sum(wi * sets[k][i] for k, (wi, i) in enumerate(zip(w, ch)))
                for ch in _all_chains(sets)]
    return np.array(sums)


def oracle_fourier(f, n: int, x: float, nodes: int = 200_000,
                   breakpoints=()) -> float:
    """S_n f(x) by dense trapezoid quadrature of the kernel integral,
    piecewise between declared discontinuities of f."""
    cuts = sorted({-np.pi, np.pi} | {float(t) for t in breakpoints
                                     if -np.pi < t < np.pi})
    total = 0.0
    for u, v in zip(cuts, cuts[1:]):
        m = max(16, int(nodes * (v - u) / (2.0 * np.pi)))
        t = np.linspace(u, v, m + 1)
        ft = np.array([f(ti) for ti in t])
        # One-sided values at the piece ends: stay inside the open piece.
        ft[0] = f(u + 1e-9 * (v - u))
        ft[-1] = f(v - 1e-9 * (v - u))
        kernel = 0.5 + sum(np.cos(k * (x - t)) for k in range(1, n + 1))
        total += float(np.trapezoid(kernel * ft, t))
    return total / np.pi


def oracle_fourier_coefficients(f, n: int, breakpoints=(), qtol: float = QTOL):
    """(a_0..a_n, b_0..b_n) of a scalar f on [-pi, pi], one `quad` of
    cos(kt) f(t) and one of sin(kt) f(t) per harmonic and per panel between
    breakpoints.  The integrands are plain products, not quad's weight="cos"
    / "sin" (QAWO): at this tolerance QAWO returns wrong values with a tiny
    error estimate once it subdivides, e.g. 0.045 off for sin 4t cos 4t on
    [-2.2, -0.2] (scipy 1.17)."""
    cuts = sorted({-math.pi, math.pi} | {float(t) for t in breakpoints
                                         if -math.pi < t < math.pi})
    a = np.zeros(n + 1)
    b = np.zeros(n + 1)
    for u, v in zip(cuts, cuts[1:]):
        for k in range(n + 1):
            ca, _ = quad(lambda t: math.cos(k * t) * f(t), u, v,
                         epsabs=qtol, epsrel=qtol, limit=200)
            sb, _ = quad(lambda t: math.sin(k * t) * f(t), u, v,
                         epsabs=qtol, epsrel=qtol, limit=200)
            a[k] += ca / math.pi
            b[k] += sb / math.pi
    return a, b


def _limit(g, x: float, sign: float, h: float = 1e-5) -> np.ndarray:
    """Matched one-sided set limit with linear Richardson extrapolation."""
    P1 = np.atleast_2d(np.asarray(g(x + sign * h), dtype=float))
    P2 = np.atleast_2d(np.asarray(g(x + sign * h / 2.0), dtype=float))
    out = []
    for p in P1:
        q = P2[int(np.argmin([np.linalg.norm(p - r) for r in P2]))]
        out.append(2.0 * q - p)
    return np.array(out)


def oracle_AF(F, x: float, h: float = 1e-5) -> PointSet:
    """Exact A_F(x) for fixtures whose branches move (at most) linearly.

    Enumerates transitions across x that stay metric pairs at two probe
    scales: direct left-to-right pairs, and two-leg paths through F(x)."""

    def sets_at(t: float) -> np.ndarray:
        S = F(t)
        return S.points if isinstance(S, PointSet) else np.atleast_2d(S)

    L1, R1 = sets_at(x - h), sets_at(x + h)
    L2, R2 = sets_at(x - h / 2.0), sets_at(x + h / 2.0)
    S = sets_at(x)
    Llim = _limit(sets_at, x, -1.0, h)
    Rlim = _limit(sets_at, x, +1.0, h)
    mids: list[np.ndarray] = []
    direct = _pairs(L1, R1) & _pairs(L2, R2)
    for i, j in direct:
        mids.append((Llim[i] + Rlim[j]) / 2.0)
    left_in = _pairs(L1, S) & _pairs(L2, S)
    right_out = _pairs(S, R1) & _pairs(S, R2)
    for m in range(len(S)):
        lefts = [i for (i, mm) in left_in if mm == m]
        rights = [j for (mm, j) in right_out if mm == m]
        for i in lefts:
            for j in rights:
                mids.append((Llim[i] + Rlim[j]) / 2.0)
    return PointSet.of(mids, dedup_tol=1e-9)
