"""Weighted metric Riemann sums, the weighted metric integral via selections,
the convexifying Aumann baseline, and the inclusion property report."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .fourier import QTOL
from .geometry import (DEDUP_TOL, PointSet, _nearest_groups, convex_hull,
                       hull_contains, metric_linear_combination, min_dists)
from .svf import Partition, SetValuedFunction

# `inclusion_check`: F is sampled at INCLUSION_GRID points and its jumps,
# the intersection holds within INTER_TOL, the inclusions within MEMBER_TOL.
INCLUSION_GRID = 129
INTER_TOL = 1e-9
MEMBER_TOL = 1e-6
# `aumann_integral_convex` merges edge normals closer than this (radians).
ANGLE_TOL = 1e-9


@dataclass(frozen=True)
class WeightFunction:
    """Scalar BV weight on [a, b].

    `antiderivative`, when declared, makes subinterval integrals exact
    (polynomial/trig weights); otherwise adaptive quadrature at QTOL is used.
    It must accept an array of points and return their values, as
    `MetricChain.integral` evaluates it at all the nodes of a chain at once.
    """

    fn: object
    variation_hint: float
    sup_hint: float
    discontinuities: tuple = ()
    antiderivative: object | None = None

    def __call__(self, x: float) -> float:
        return float(self.fn(x))

    @staticmethod
    def constant(c: float) -> "WeightFunction":
        c = float(c)
        return WeightFunction(lambda x: c, 0.0, abs(c),
                              antiderivative=lambda x: c * x)


def integrate_weight(k: WeightFunction, u: float, v: float) -> float:
    """Integral of k over [u, v], exact when an antiderivative is declared,
    else by scipy's `quad`, imported on the first such call."""
    if u == v:
        return 0.0
    if k.antiderivative is not None:
        return float(k.antiderivative(v) - k.antiderivative(u))
    from scipy.integrate import quad
    cuts = sorted({u, v} | {d for d in k.discontinuities if u < d < v})
    total = 0.0
    for s, t in zip(cuts, cuts[1:]):
        val, _ = quad(k.fn, s, t, epsabs=QTOL, epsrel=QTOL, limit=200)
        total += val
    return total


def weighted_metric_riemann_sum(F: SetValuedFunction, k: WeightFunction,
                                chi: Partition, family: tuple | None = None,
                                norm: str = "l2",
                                side: str = "left") -> PointSet:
    """Weighted metric Riemann sums {sum (x_{i+1}-x_i) k(t_i) y_i} with
    tags t_i = x_i (side="left") or t_i = x_{i+1} (side="right").

    family=None: the metric linear combination of (F(t_0), ..., F(t_{n-1}));
    a family: along each selection's chain restricted to the tags."""
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    nodes = chi.nodes
    tags = nodes[:-1] if side == "left" else nodes[1:]
    weights = np.diff(nodes) * np.array([k(x) for x in tags])
    if family is None:
        return metric_linear_combination(weights, F.sample(tags), norm)
    return PointSet.of([weights @ s(tags) for s in family])


def right_weighted_metric_riemann_sum(F: SetValuedFunction, k: WeightFunction,
                                      chi: Partition,
                                      family: tuple | None = None,
                                      norm: str = "l2") -> PointSet:
    """Right-endpoint sums {sum (x_{i+1}-x_i) k(x_{i+1}) y_{i+1}}."""
    return weighted_metric_riemann_sum(F, k, chi, family, norm, side="right")


def _antiderivative(k: WeightFunction):
    """k's declared antiderivative, or one from the quadrature: at an array
    of nodes, the running sum of `integrate_weight` over their cells."""
    if k.antiderivative is not None:
        return k.antiderivative
    return lambda nodes: np.cumsum([0.0] + [
        integrate_weight(k, float(u), float(v))
        for u, v in zip(nodes[:-1], nodes[1:])])


def weighted_metric_integral(F: SetValuedFunction, k: WeightFunction,
                             family: tuple) -> PointSet:
    """{integral of k*s : s in family}; each s is piecewise constant on its
    fine partition, so the integral is its `MetricChain.integral` against
    the declared antiderivative of k, or a quadrature one."""
    if len(family) == 0:
        raise ValueError("family must be nonempty")
    K = _antiderivative(k)
    return PointSet.of([s.integral(K) for s in family])


def _hull_vertices(sets: list) -> list:
    """The `convex_hull` vertices of each set, as arrays.  A set of at most
    two points in d <= 2 is its own hull: its rows in lexicographic order,
    the second dropped within DEDUP_TOL (linf) of the first, as
    `convex_hull` gives them without being called."""
    hull = cache(convex_hull)   # sets compare by identity; F may repeat one
    out = []
    for S in sets:
        if len(S) > 2 or S.dim > 2:
            out.append(hull(S).points)
            continue
        rows = sorted(map(tuple, S.points.tolist()))
        if len(rows) == 2 and max(abs(a - b) for a, b in zip(*rows)) \
                <= DEDUP_TOL:
            rows = rows[:1]
        out.append(np.array(rows))
    return out


def aumann_integral_convex(F: SetValuedFunction, k: WeightFunction,
                           chi: Partition) -> PointSet:
    """Riemann approximation of the Aumann integral of k*F, the Minkowski sum
    of the hulls w_i conv F(x_i): its vertex in each direction between two
    consecutive edge normals (±1 in d=1) sums the hulls' support points.
    Hulls with as many vertices take their edges and support points as one
    (G, m, d) block."""
    nodes = chi.nodes[:-1]
    weights = np.diff(chi.nodes) * np.array([k(x) for x in nodes])
    verts = _hull_vertices(F.sample(nodes))
    cells: dict = {}
    for i, V in enumerate(verts):
        cells.setdefault(len(V), []).append(i)
    blocks = [(ix, weights[ix, None, None] * np.stack([verts[i] for i in ix]))
              for ix in cells.values()]
    d = verts[0].shape[1]
    if d == 1:
        dirs = np.array([[-1.0], [1.0]])
    else:
        edges = np.concatenate([(np.roll(H, -1, axis=1) - H).reshape(-1, 2)
                                for _, H in blocks])
        normals = np.sort(np.arctan2(-edges[:, 0], edges[:, 1]))
        gaps = np.diff(normals, append=normals[0] + 2.0 * np.pi)
        keep = gaps > ANGLE_TOL
        mids = normals[keep] + gaps[keep] / 2.0
        dirs = np.column_stack([np.cos(mids), np.sin(mids)])
    support = np.empty((len(verts), len(dirs), d))
    for ix, H in blocks:
        best = np.argmax((H.reshape(-1, d) @ dirs.T).reshape(len(ix), -1,
                                                              len(dirs)),
                         axis=1)
        support[ix] = np.take_along_axis(H, best[:, :, None], axis=1)
    return convex_hull(PointSet.of(np.cumsum(support, axis=0)[-1]))


@dataclass(frozen=True)
class InclusionReport:
    intersection: PointSet | None
    normalized: PointSet
    union_hull: PointSet
    lower_ok: bool
    upper_ok: bool
    lower_margin: float
    vacuous: bool

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok


def inclusion_check(F: SetValuedFunction, k: WeightFunction,
                    family: tuple, norm: str = "l2") -> InclusionReport:
    """Check intersection(F) subset normalized integral subset hull(union F)
    for k >= 0 with nonzero mass, on a dense x-grid.  The candidates, the
    points of F(a), meet every distinct sampled set in one grouped query."""
    xs = sorted(set(np.linspace(F.a, F.b, INCLUSION_GRID))
                | set(map(float, F.jump_points)))
    mass = integrate_weight(k, F.a, F.b)
    if mass == 0.0:
        raise ValueError("weight must have nonzero integral")
    sampled = F.sample(xs)
    cands = sampled[0].points
    distinct = list({id(S): S for S in sampled}.values())
    owner = np.repeat(np.arange(len(distinct)), len(cands))
    dist = _nearest_groups(np.tile(cands, (len(distinct), 1)), owner,
                           distinct, norm)[0]
    keep = (dist.reshape(len(distinct), -1) <= INTER_TOL).all(axis=0)
    intersection = PointSet.of(cands[keep], dedup_tol=0) if keep.any() else None
    value = weighted_metric_integral(F, k, family)
    normalized = PointSet.of(value.points / mass, dedup_tol=0)
    union_hull = convex_hull(PointSet.of(np.vstack([S.points for S in distinct]),
                                         dedup_tol=0))
    vacuous = intersection is None
    if vacuous:
        lower_ok, lower_margin = True, np.inf
    else:
        gaps = min_dists(intersection.points, normalized.points, norm)
        lower_margin = float(MEMBER_TOL - gaps.max())
        lower_ok = bool(gaps.max() <= MEMBER_TOL)
    upper_ok = all(hull_contains(union_hull, p, MEMBER_TOL)
                   for p in normalized.points)
    return InclusionReport(intersection, normalized, union_hull,
                           lower_ok, upper_ok, lower_margin, vacuous)
