"""Finite-set geometry: distances, projections, metric pairs, chains, hulls.

Compact sets are modelled as finite point clouds in R^d.  Continua (discs,
segments) enter as epsilon-nets built by the fixture layer; every assertion
about such sets carries a tolerance of the order of the net parameter.

Nearest-point queries (`dist_point_set`, `project`, its batched form
`project_rows`, `min_dists` and so `hausdorff`) against a set of more than
KDTREE_MIN points go through a `scipy.spatial.cKDTree` in the l1, l2 or
linf norm.  `PointSet.tree` builds it on first use and keeps it with the
frozen set, so a net that is projected onto many times builds one tree.
Smaller sets take a brute-force `cdist` row (a block, for `project_rows`),
which is faster there.  Both paths give the same distances and the same
witnesses, in index order.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

# Projection witnesses: everything within TIE_TOL of the minimum distance
# counts as a nearest point, so projections are sets, not single points.
TIE_TOL = 1e-9
# Two points closer than DEDUP_TOL are considered the same point.
DEDUP_TOL = 1e-12
# Exact chain enumeration refuses beyond this many chains.
CHAIN_LIMIT = 10 ** 6
# Sets of more points than this are queried through a KD-tree, smaller ones
# by brute force.  Measured cost of one `dist_point_set` call (2 shared
# cores, scipy 1.17): with the cached tree 31-37 us at any size; by brute
# force 18 us at 5 points, 32 us at 2,048, 41 us at 3,072, 65 us at 8,201.
KDTREE_MIN = 2048
# Block size (matrix entries) for chunked brute-force distance computations.
_BLOCK = 1 << 22

_CDIST_METRIC = {"l1": "cityblock", "l2": "euclidean", "linf": "chebyshev"}
_NORM_ORD = {"l1": 1, "l2": 2, "linf": np.inf}


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


class ChainExplosion(RuntimeError):
    """Exact chain enumeration would exceed the configured limit."""


def as_point(p) -> np.ndarray:
    """Coerce to a finite 1-d float vector (scalars become 1-d)."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a point must be a nonempty vector")
    if not np.isfinite(arr).all():
        raise ValueError("point has non-finite coordinates")
    return arr


def vec_norm(v, norm: str = "l2") -> float:
    """Norm of a single vector under the selected norm."""
    return float(np.linalg.norm(as_point(v), ord=_NORM_ORD[norm]))


@dataclass(frozen=True)
class PointSet:
    """Nonempty finite subset of R^d stored as an (m, d) array."""

    points: np.ndarray

    @staticmethod
    def of(points, dedup_tol: float = DEDUP_TOL) -> "PointSet":
        """The set of the given points (an (m, d) array, or a sequence of
        points or scalars), rows within dedup_tol of a kept row dropped."""
        try:
            arr = np.array(points, dtype=float)
        except ValueError as exc:
            raise DimensionMismatch(f"not points of one dimension: {exc}") from exc
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("a PointSet must be a nonempty (m, d) array")
        if not np.isfinite(arr).all():
            raise ValueError("point has non-finite coordinates")
        if dedup_tol > 0:
            arr = _dedup(arr, dedup_tol)
        arr.setflags(write=False)
        return PointSet(arr)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self):
        return iter(self.points)

    def single(self) -> np.ndarray:
        if len(self) != 1:
            raise ValueError("set is not a singleton")
        return self.points[0]

    @cached_property
    def tree(self) -> cKDTree:
        """KD-tree of the points, built on first use and kept with the set."""
        return cKDTree(self.points)


def _dedup(arr: np.ndarray, tol: float) -> np.ndarray:
    """Drop every row within tol (linf) of an earlier kept row."""
    if arr.shape[0] <= 1:
        return arr
    if arr.shape[0] <= KDTREE_MIN:
        keep: list[np.ndarray] = []
        for row in arr:
            if not keep or np.min(np.max(np.abs(np.array(keep) - row), axis=1)) > tol:
                keep.append(row)
        return np.array(keep)
    # Same rule on the candidate pairs (i < j) only, taken in order of j, so
    # kept[i] is final before it decides about j.
    pairs = cKDTree(arr).query_pairs(tol, p=np.inf, output_type="ndarray")
    kept = np.ones(arr.shape[0], dtype=bool)
    for i, j in pairs[np.argsort(pairs[:, 1], kind="stable")].tolist():
        if kept[i]:
            kept[j] = False
    return arr[kept]


def _check_dims(A: PointSet, B: PointSet) -> None:
    if A.dim != B.dim:
        raise DimensionMismatch(f"dimension {A.dim} vs {B.dim}")


def _dists_to(p: np.ndarray, B: PointSet, norm: str) -> np.ndarray:
    return cdist(p[None, :], B.points, metric=_CDIST_METRIC[norm])[0]


def min_dists(P: np.ndarray, Q: np.ndarray, norm: str = "l2") -> np.ndarray:
    """Distance from each row of P to the set Q: one bulk KD-tree query when
    Q is large, block-wise brute force (bounded memory) otherwise."""
    if Q.shape[0] > KDTREE_MIN:
        return cKDTree(Q).query(P, p=_NORM_ORD[norm])[0]
    m = P.shape[0]
    out = np.full(m, np.inf)
    pb = max(1, min(m, _BLOCK // max(1, Q.shape[0])))
    qb = max(1, _BLOCK // pb)
    metric = _CDIST_METRIC[norm]
    for i in range(0, m, pb):
        pi = P[i:i + pb]
        best = np.full(pi.shape[0], np.inf)
        for j in range(0, Q.shape[0], qb):
            d = cdist(pi, Q[j:j + qb], metric=metric)
            np.minimum(best, d.min(axis=1), out=best)
        out[i:i + pb] = best
    return out


def dist_point_set(p, B: PointSet, norm: str = "l2",
                   tie_tol: float = TIE_TOL) -> tuple[float, PointSet]:
    """Distance from p to B plus the witness set of near-minimizers."""
    p = as_point(p)
    if p.size != B.dim:
        raise DimensionMismatch(f"dimension {p.size} vs {B.dim}")
    if len(B) > KDTREE_MIN:
        # The two nearest points settle the usual untied case in one query.
        order = _NORM_ORD[norm]
        (value, second), (i, _) = B.tree.query(p, k=2, p=order)
        value = float(value)
        if second > value + tie_tol:
            witnesses = B.points[i:i + 1]
        else:
            witnesses = B.points[B.tree.query_ball_point(
                p, value + tie_tol, p=order, return_sorted=True)]
    else:
        d = _dists_to(p, B, norm)
        value = float(d.min())
        witnesses = B.points[d <= value + tie_tol]
    # Rows of a validated set: mark them read-only instead of re-validating.
    witnesses.setflags(write=False)
    return value, PointSet(witnesses)


def project(p, B: PointSet, norm: str = "l2", tie_tol: float = TIE_TOL) -> PointSet:
    """Nearest-point projection of p onto B (all tied witnesses)."""
    return dist_point_set(p, B, norm, tie_tol)[1]


def project_rows(P: np.ndarray, B: PointSet, norm: str = "l2",
                 tie_tol: float = TIE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """`dist_point_set` for every row of the (m, d) array P in one query:
    the distances to B and, per row, the lexicographically smallest of the
    tied witnesses (the points of B within tie_tol of the distance)."""
    if P.shape[1] != B.dim:
        raise DimensionMismatch(f"dimension {P.shape[1]} vs {B.dim}")
    if len(B) > KDTREE_MIN:
        order = _NORM_ORD[norm]
        d, i = B.tree.query(P, k=2, p=order)
        dist, pick = d[:, 0], i[:, 0]
        tied = np.flatnonzero(d[:, 1] <= dist + tie_tol)
        if tied.size:
            balls = B.tree.query_ball_point(P[tied], dist[tied] + tie_tol,
                                            p=order, return_sorted=True)
            for r, ball in zip(tied, balls):
                pick[r] = ball[np.lexsort(B.points[ball].T[::-1])[0]]
    else:
        D = cdist(P, B.points, metric=_CDIST_METRIC[norm])
        dist = D.min(axis=1)
        near = D <= dist[:, None] + tie_tol
        rank = np.empty(len(B), dtype=int)
        rank[np.lexsort(B.points.T[::-1])] = np.arange(len(B))
        pick = np.where(near, rank, len(B)).argmin(axis=1)
    return dist, B.points[pick]


def hausdorff(A: PointSet, B: PointSet, norm: str = "l2") -> float:
    """Hausdorff distance: max of the two directed sup-min distances."""
    _check_dims(A, B)
    fwd = float(min_dists(A.points, B.points, norm).max())
    bwd = float(min_dists(B.points, A.points, norm).max())
    return max(fwd, bwd)


def row_norms(P: np.ndarray, norm: str = "l2") -> np.ndarray:
    """Norm of each row of an (m, d) array."""
    return np.linalg.norm(P, ord=_NORM_ORD[norm], axis=1)


def set_norm(A: PointSet, norm: str = "l2") -> float:
    """Hausdorff distance from A to the origin, i.e. max |a|."""
    return float(row_norms(A.points, norm).max())


@dataclass(frozen=True)
class MetricPairList:
    """Pairs (a, b) where one point projects onto the opposite set."""

    pairs: tuple

    def __len__(self) -> int:
        return len(self.pairs)


def metric_pairs(A: PointSet, B: PointSet, norm: str = "l2",
                 tie_tol: float = TIE_TOL) -> MetricPairList:
    """All metric pairs of (A, B); symmetric duplicates counted once."""
    _check_dims(A, B)
    if len(A) * len(B) > 4 * 10 ** 6:
        raise ChainExplosion(
            "pair enumeration too large; query membership with is_metric_pair")
    return MetricPairList(tuple((A.points[i], B.points[j])
                                for i, j in _pair_indices(A, B, norm, tie_tol)))


def is_metric_pair(a, b, A: PointSet, B: PointSet, norm: str = "l2",
                   tie_tol: float = TIE_TOL) -> bool:
    """Membership test that avoids enumerating all pairs of large sets."""
    a = as_point(a)
    b = as_point(b)
    da, _ = dist_point_set(b, A, norm, tie_tol)
    db, _ = dist_point_set(a, B, norm, tie_tol)
    gap = vec_norm(a - b, norm)
    return gap <= da + tie_tol or gap <= db + tie_tol


def _pair_indices(A: PointSet, B: PointSet, norm: str,
                  tie_tol: float) -> np.ndarray:
    """Index pairs (i, j) of the metric pairs of (A, B), one per row, sorted:
    b_j is a near-nearest point of a_i in B, or a_i one of b_j in A."""
    D = cdist(A.points, B.points, metric=_CDIST_METRIC[norm])
    near = ((D <= D.min(axis=1, keepdims=True) + tie_tol)
            | (D <= D.min(axis=0, keepdims=True) + tie_tol))
    return np.argwhere(near)


def enumerate_metric_chains(sets: list[PointSet], norm: str = "l2",
                            tie_tol: float = TIE_TOL,
                            limit: int = CHAIN_LIMIT) -> np.ndarray:
    """All metric chains (a_0, ..., a_n) of an ordered list of sets, as one
    (chains, n+1, d) array in lexicographic order of the point indices."""
    if len(sets) < 2:
        raise ValueError("need at least two sets")
    for A, B in zip(sets, sets[1:]):
        _check_dims(A, B)
    links = [_pair_indices(A, B, norm, tie_tol) for A, B in zip(sets, sets[1:])]
    # Count before materializing to catch explosions cheaply.
    counts = np.ones(len(sets[-1]))
    for A, ij in zip(reversed(sets[:-1]), reversed(links)):
        counts = np.bincount(ij[:, 0], counts[ij[:, 1]], minlength=len(A))
    total = counts.sum()
    if total > limit:
        raise ChainExplosion(
            f"{total:.0f} chains exceed limit {limit}; use greedy selections instead")
    # Extend every chain by each partner of its last point, in order.
    idx = np.arange(len(sets[0]))[:, None]
    for ij in links:
        lo = np.searchsorted(ij[:, 0], idx[:, -1], side="left")
        fan = np.searchsorted(ij[:, 0], idx[:, -1], side="right") - lo
        start = np.repeat(lo - np.cumsum(fan) + fan, fan)
        picks = start + np.arange(start.size)
        idx = np.column_stack([np.repeat(idx, fan, axis=0), ij[picks, 1]])
    return np.stack([S.points[idx[:, k]] for k, S in enumerate(sets)], axis=1)


def metric_linear_combination(lambdas, sets: list[PointSet], norm: str = "l2",
                              tie_tol: float = TIE_TOL,
                              limit: int = CHAIN_LIMIT) -> PointSet:
    """{sum lambda_i a_i} over all metric chains; order of the sets matters."""
    lambdas = [float(l) for l in lambdas]
    if len(lambdas) != len(sets):
        raise ValueError("weights and sets must have equal length")
    if len(sets) == 1:
        return PointSet.of(lambdas[0] * sets[0].points)
    chains = enumerate_metric_chains(sets, norm, tie_tol, limit)
    return PointSet.of(sum(l * chains[:, i] for i, l in enumerate(lambdas)))


def minkowski_combination(lambdas, sets: list[PointSet],
                          limit: int = CHAIN_LIMIT) -> PointSet:
    """All sums over the full Cartesian product: the convexifying baseline."""
    lambdas = [float(l) for l in lambdas]
    if len(lambdas) != len(sets):
        raise ValueError("weights and sets must have equal length")
    count = 1
    for s in sets:
        count *= len(s)
        if count > limit:
            raise ChainExplosion(f"product size exceeds limit {limit}")
    sums = [sum(l * a for l, a in zip(lambdas, combo))
            for combo in itertools.product(*(s.points for s in sets))]
    return PointSet.of(sums)


def metric_average(t: float, A: PointSet, B: PointSet, norm: str = "l2",
                   tie_tol: float = TIE_TOL) -> PointSet:
    """{(1-t)a + t b : (a,b) a metric pair of (A, B)} for t in [0,1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    pairs = metric_pairs(A, B, norm, tie_tol)
    return PointSet.of([(1.0 - t) * a + t * b for a, b in pairs.pairs])


def convex_hull(A: PointSet) -> PointSet:
    """Hull vertices: {min, max} in d=1, monotone-chain vertices in d=2."""
    if A.dim == 1:
        v = A.points[:, 0]
        return PointSet.of([[v.min()], [v.max()]])
    if A.dim != 2:
        raise ValueError("convex hull supported only for d <= 2")
    pts = sorted({(float(x), float(y)) for x, y in A.points})
    if len(pts) <= 2:
        return PointSet.of(pts)

    def half(seq):
        out = []
        for p in seq:
            while len(out) > 1:
                v0, v1 = out[-2], out[-1]
                if ((v1[0] - v0[0]) * (p[1] - v0[1])
                        - (p[0] - v0[0]) * (v1[1] - v0[1])) <= 0.0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return PointSet.of(lower[:-1] + upper[:-1])


def hull_contains(hull: PointSet, p, tol: float = 1e-9) -> bool:
    """Membership in the convex hull described by its vertex set."""
    p = as_point(p)
    if p.size != hull.dim:
        raise DimensionMismatch(f"dimension {p.size} vs {hull.dim}")
    if hull.dim == 1:
        v = hull.points[:, 0]
        return v.min() - tol <= p[0] <= v.max() + tol
    verts = [tuple(map(float, q)) for q in convex_hull(hull).points]
    if len(verts) == 1:
        return vec_norm(p - np.array(verts[0])) <= tol
    if len(verts) == 2:
        a, b = np.array(verts[0]), np.array(verts[1])
        ab = b - a
        t = float(np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0))
        return vec_norm(p - (a + t * ab)) <= tol
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        cross = (x1 - x0) * (p[1] - y0) - (p[0] - x0) * (y1 - y0)
        edge = max(np.hypot(x1 - x0, y1 - y0), 1e-300)
        if cross / edge < -tol:
            return False
    return True
