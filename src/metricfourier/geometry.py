"""Finite-set geometry: distances, projections, metric pairs, chains, hulls.

Compact sets are modelled as finite point clouds in R^d.  Continua (discs,
segments) enter as epsilon-nets built by the fixture layer; every assertion
about such sets carries a tolerance of the order of the net parameter.

Every nearest-point query (`min_dists`, `hausdorff`, `dist_point_set`,
`project`) is one call of `_nearest`: the distance from each query row to a
`PointSet` and, on request, every witness within a tie tolerance of it.
Projections (`project_groups`, and `project_rows`, its one-set case) and
the metric pairs of `_pair_indices` go through the grouped query
`_nearest_groups`, whose rows each have their own set.  Its groups (the
rows of one set) of at most GROUP_MAX distance entries are computed
together in one padded numpy kernel, which removes the cost of a call per
small set and sums coordinates in order, as `cdist` does, so it gives the
same floats; a larger group is one `_nearest` call.  `small_sets` tells
which sets pair within that size, for callers that fill whole maps
between sets.  `_nearest` is the one place that chooses the path: a set
of more than KDTREE_MIN points goes through a `scipy.spatial.cKDTree` in
the l1, l2 or linf norm, which `PointSet.tree` builds on first use with
sliding-midpoint splits and keeps with the frozen set, so a net that is
queried many times builds one tree.  Smaller sets take brute-force
`cdist` blocks of at most _BLOCK entries, which is faster there.  Both
paths give the same distances and the same witnesses, in index order.

Sets of more than KDTREE_MIN points also take two shortcuts that leave the
answer unchanged.  `hausdorff` queries only the rows of such a set that can
reach its maximum: `PointSet.cells` groups the rows by a grid, and one
query per cell bounds the rest.  `PointSet.of` finds near duplicates in
windows of sorted projections instead of an all-pairs search.
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
# cores, scipy 1.17, sliding-midpoint tree, fastest of 15 runs): with the
# cached tree 28-29 us at any size; by brute force 13 us at 5 points, 25 us
# at 2,048, 30 us at 3,072, 54 us at 8,201.  Such sets also dedup by sorted
# projections and enter `hausdorff` through their cells.
KDTREE_MIN = 2048
# A group (the rows queried against one set) of at most this many distance
# entries is computed with all such groups in one padded numpy kernel, a
# larger one by `_nearest`.  Measured cost per group, many groups a call (2
# shared cores, numpy 2.4, d = 1 and 2, fastest of 15 runs): the kernel
# 2-7 us at 64 entries, 7-13 us at 256 and 14-25 us at 512; `_nearest`
# 10-17 us at 64, 18-19 us at 256 and 12-25 us at 512.  They meet near 512.
# `small_sets` reads it too: sets of at most sqrt(GROUP_MAX) points are
# small, their distance matrices at most one kernel group's size.
GROUP_MAX = 512
# Entries (rows x width) of the kernel's padded matrix per call.
_KERNEL_BLOCK = 1 << 18
# `hausdorff` groups a set's rows by a grid of about this many rows a cell.
_CELL_ROWS = 16
# Block size (matrix entries) for chunked brute-force distance computations.
_BLOCK = 1 << 22

_EPS = np.finfo(float).eps
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


@dataclass(frozen=True, eq=False)
class PointSet:
    """Nonempty finite subset of R^d stored as an (m, d) array.

    Equality and hashing are by identity; compare contents with
    `np.array_equal` on `points`."""

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
        if dedup_tol > 0 and len(arr) > 1:
            arr = arr[_dedup(arr, dedup_tol)]
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
        """KD-tree of the points, built on first use and kept with the set.
        Sliding-midpoint splits: cheaper to build and to query than the
        median splits of a balanced tree, with the same exact answers."""
        return cKDTree(self.points, balanced_tree=False, compact_nodes=False)

    @cached_property
    def lex_order(self) -> np.ndarray:
        """Indices of the points in lexicographic order, kept with the set."""
        return np.lexsort(self.points.T[::-1])

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows grouped by a grid of about len/_CELL_ROWS cells, kept
        with the set: (rows, bounds, dev).  Cell c holds the rows
        rows[bounds[c]:bounds[c + 1]], in index order; its first row r is
        its representative.  dev[c, k] is the largest |a_k - r_k| over the
        rows a of cell c, so one grid bounds |a - r| in every norm."""
        P = self.points
        m, d = P.shape
        # Column by column: a reduction over axis 0 of a thin array is slow.
        lo = np.array([col.min() for col in P.T])
        ext = np.array([col.max() for col in P.T]) - lo
        wide = ext[ext > 0]
        # Side h with prod(ext / h) = m / _CELL_ROWS over the axes the rows
        # span, and ceil(ext / h) cells per axis, at most `most`, so that a
        # cell key fits in 63 bits.  The bounds hold for any grouping of
        # the rows, so a grid that overflows or collapses groups coarsely.
        h = np.exp((np.log(wide).sum() - np.log(max(1, m // _CELL_ROWS)))
                   / max(1, wide.size))
        most = min(m, int(2 ** (62 / d)))
        key = np.zeros(m, dtype=np.int64)
        if 0 < h < np.inf:
            top = np.clip(np.ceil(ext / h), 1, most) - 1
            key = (np.minimum((P - lo) / h, top).astype(np.int64)
                   @ most ** np.arange(d, dtype=np.int64))
        rows = np.argsort(key, kind="stable")
        key = key[rows]
        bounds = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1],
                                                [True]]))
        reps = np.repeat(rows[bounds[:-1]], np.diff(bounds))
        dev = np.maximum.reduceat(np.abs(P[rows] - P[reps]), bounds[:-1],
                                  axis=0)
        return rows, bounds, dev


def _dedup(arr: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the rows of the (m, d) array arr kept when every row within
    tol (linf) of an earlier kept row is dropped.

    Above KDTREE_MIN rows the candidate pairs come from one sort: for a
    direction u with |u|_1 = 1, |u.(a - b)| <= |a - b|_inf, so rows within
    tol lie within tol of each other in the sorted projections.  The window
    is widened by the rounding of the projections, and every candidate is
    then checked in linf exactly as `cdist` would."""
    m, d = arr.shape
    if m <= KDTREE_MIN:
        # The near matrix is symmetric, so its entries (j, i) come in order
        # of j; those with i < j are the near pairs.
        j, i = np.nonzero(cdist(arr, arr, metric="chebyshev") <= tol)
    else:
        # A fixed direction with no rational relations between its
        # components, so lattices and lines do not collapse onto it.
        u = np.random.default_rng(0).uniform(1.0, 2.0, d)
        proj = arr @ (u / u.sum())
        order = np.argsort(proj, kind="stable")
        p = proj[order]
        # Each projection is a d-term dot product of |u|_1 = 1: its error is
        # below (d + 2) eps max|a|; the sum and the difference add two more.
        reach = tol + 4 * (d + 2) * _EPS * (np.abs(arr).max() + tol)
        fan = np.searchsorted(p, p + reach, side="right") - np.arange(1, m + 1)
        # The candidates s places apart in sorted order, one s at a time,
        # so memory stays O(m) however many rows share a window.
        pairs = [np.empty((2, 0), dtype=np.intp)]
        for s in range(1, fan.max() + 1):
            k = np.flatnonzero(fan >= s)
            ab = np.sort([order[k], order[k + s]], axis=0)
            near = np.abs(arr[ab[0]] - arr[ab[1]]).max(axis=1) <= tol
            pairs.append(ab[:, near])
        i, j = np.concatenate(pairs, axis=1)
        by_j = np.argsort(j, kind="stable")
        i, j = i[by_j], j[by_j]
    # Keep-first over the near pairs in order of j, so kept[i] is final
    # before it decides about j.
    kept = np.ones(m, dtype=bool)
    up = i < j
    for a, b in zip(i[up].tolist(), j[up].tolist()):
        if kept[a]:
            kept[b] = False
    return kept


def _nearest(P: np.ndarray, B: PointSet, norm: str,
             tie_tol: float | None = None):
    """Distance from each row of the (m, d) array P to B.  Given a tie_tol,
    also the witnesses as index pairs (rows[k], cols[k]), sorted: every b_j
    within tie_tol of row i's distance gives one pair (i, j).

    The one choice of path: B's cached KD-tree when B has more than
    KDTREE_MIN points, brute-force `cdist` blocks of at most _BLOCK entries
    otherwise."""
    if P.shape[1] != B.dim:
        raise DimensionMismatch(f"dimension {P.shape[1]} vs {B.dim}")
    m, n = P.shape[0], len(B)
    if n > KDTREE_MIN:
        order = _NORM_ORD[norm]
        if tie_tol is None:
            return B.tree.query(P, p=order)[0]
        # The two nearest points settle the usual untied row in one query.
        d, i = B.tree.query(P, k=2, p=order)
        dist, cols = d[:, 0], i[:, 0]
        counts = np.ones(m, dtype=np.intp)
        tied = d[:, 1] <= dist + tie_tol
        if tied.any():
            balls = B.tree.query_ball_point(P[tied], dist[tied] + tie_tol,
                                            p=order, return_sorted=True)
            counts[tied] = [len(ball) for ball in balls]
            cols = np.repeat(cols, counts)
            cols[np.repeat(tied, counts)] = np.concatenate(balls)
        return dist, np.repeat(np.arange(m), counts), cols
    step = max(1, _BLOCK // n)
    if m > step:
        # Blocks of rows, each of at most _BLOCK entries (or one row).
        ks = range(0, m, step)
        parts = [_nearest(P[k:k + step], B, norm, tie_tol) for k in ks]
        if tie_tol is None:
            return np.concatenate(parts)
        dist, rows, cols = zip(*parts)
        return (np.concatenate(dist),
                np.concatenate([r + k for r, k in zip(rows, ks)]),
                np.concatenate(cols))
    D = cdist(P, B.points, metric=_CDIST_METRIC[norm])
    dist = D.min(axis=1)
    if tie_tol is None:
        return dist
    return (dist, *np.nonzero(D <= dist[:, None] + tie_tol))


def min_dists(P: np.ndarray, Q: np.ndarray, norm: str = "l2") -> np.ndarray:
    """Distance from each row of P to the set of the rows of Q."""
    return _nearest(P, PointSet(Q), norm)


def dist_point_set(p, B: PointSet, norm: str = "l2",
                   tie_tol: float = TIE_TOL) -> tuple[float, PointSet]:
    """Distance from p to B plus the witness set of near-minimizers."""
    dist, _, cols = _nearest(as_point(p)[None, :], B, norm, tie_tol)
    witnesses = B.points[cols]
    # Rows of a validated set: mark them read-only instead of re-validating.
    witnesses.setflags(write=False)
    return float(dist[0]), PointSet(witnesses)


def project(p, B: PointSet, norm: str = "l2", tie_tol: float = TIE_TOL) -> PointSet:
    """Nearest-point projection of p onto B (all tied witnesses)."""
    return dist_point_set(p, B, norm, tie_tol)[1]


def project_rows(P: np.ndarray, B: PointSet, norm: str = "l2",
                 tie_tol: float = TIE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """`dist_point_set` for every row of the (m, d) array P in one query:
    the distances to B and, per row, the index in B of the
    lexicographically smallest of the tied witnesses (the points of B
    within tie_tol of the distance).  The one-set case of
    `project_groups`."""
    return project_groups(P, np.zeros(len(P), dtype=np.intp), [B], norm,
                          tie_tol)


def project_groups(P: np.ndarray, owner: np.ndarray, sets, norm: str = "l2",
                   tie_tol: float = TIE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """`project_rows` for rows that each have their own set: the distance
    from row i of the (m, d) array P to sets[owner[i]], and the index there
    of its lexicographically smallest tied witness."""
    dist, rows, cols, wit = _nearest_groups(P, owner, sets, norm, tie_tol)
    if cols.size > len(P):
        # Some row is tied: order each row's witnesses by their coordinates,
        # equal points by index, as `PointSet.lex_order` does, and take the
        # first.
        order = np.lexsort((cols, *wit.T[::-1], rows))
        rows, cols = rows[order], cols[order]
        cols = cols[np.flatnonzero(np.diff(rows, prepend=-1))]
    return dist, cols


def small_sets(sizes) -> np.ndarray:
    """Whether each of these set sizes is small: the distance matrix
    between two small sets has at most GROUP_MAX entries, a kernel group's
    size, so a map between them is cheap to fill for every point."""
    return np.asarray(sizes) ** 2 <= GROUP_MAX


def _nearest_groups(P: np.ndarray, owner: np.ndarray, sets, norm: str,
                    tie_tol: float):
    """`_nearest` with witnesses for rows that each have their own set: row
    i of the (m, d) array P against sets[owner[i]].  Returns the distances,
    the witness pairs (rows[k], cols[k]) sorted by row and then by col, with
    cols indexing the row's own set, and the witnesses' coordinates.

    A group, the rows of one set, is small when its distance matrix has at
    most GROUP_MAX entries.  All small groups are computed together by
    `_padded_nearest`, one call for the sets of each power-of-two width;
    larger groups take `_nearest`, which picks the tree or `cdist`."""
    m, d = P.shape
    if not m:
        none = np.empty(0, dtype=np.intp)
        return np.empty(0), none, none, np.empty((0, d))
    groups, inv = np.unique(owner, return_inverse=True)
    size = np.array([len(sets[g]) for g in groups])
    for g in groups:
        if sets[g].dim != d:
            raise DimensionMismatch(f"dimension {d} vs {sets[g].dim}")
    small = np.bincount(inv, minlength=groups.size) * size <= GROUP_MAX
    dist = np.empty(m)
    parts = []
    if small.any():
        pts = np.concatenate([sets[g].points for g in groups[small]])
        start = np.zeros(groups.size, dtype=np.intp)
        start[small] = np.cumsum(size[small]) - size[small]
        width = 1 << np.ceil(np.log2(size)).astype(int)
        mine = np.flatnonzero(small[inv])
        for w in np.unique(width[small]):
            rows = mine[width[inv[mine]] == w]
            step = max(1, _KERNEL_BLOCK // int(w))
            for k in range(0, rows.size, step):
                r = rows[k:k + step]
                dist[r], i, j, wit = _padded_nearest(
                    P[r], pts, start[inv[r]], size[inv[r]], norm, tie_tol)
                parts.append((r[i], j, wit))
    for g in np.flatnonzero(~small):
        r = np.flatnonzero(inv == g)
        B = sets[groups[g]]
        dist[r], i, j = _nearest(P[r], B, norm, tie_tol)
        parts.append((r[i], j, B.points[j]))
    rows, cols, wit = (np.concatenate(x) for x in zip(*parts))
    if len(parts) > 1:
        # Each row's witnesses come from one part, in col order.
        order = np.argsort(rows, kind="stable")
        rows, cols, wit = rows[order], cols[order], wit[order]
    return dist, rows, cols, wit


def _padded_nearest(P: np.ndarray, pts: np.ndarray, start: np.ndarray,
                    size: np.ndarray, norm: str, tie_tol: float):
    """The distance from each row i of P to the set pts[start[i]:start[i] +
    size[i]], and its witnesses as in `_nearest`, with their coordinates.

    One numpy kernel over a padded (m, w) index matrix.  Each set is padded
    with copies of its last point, which a mask leaves out of the
    witnesses (they cannot lower the minimum).  The coordinates are summed
    one at a time, in order, as `cdist` sums them, so the distances equal
    its bit for bit (numpy's `sum` would add 8 or more terms pairwise)."""
    if norm not in _NORM_ORD:
        raise KeyError(norm)
    slot = np.arange(int(size.max()))
    idx = start[:, None] + np.minimum(slot, size[:, None] - 1)
    D = None
    for c in range(P.shape[1]):
        t = P[:, c, None] - pts[idx, c]
        t = t * t if norm == "l2" else np.abs(t)
        if D is None:
            D = t
        elif norm == "linf":
            np.maximum(D, t, out=D)
        else:
            D += t
    if norm == "l2":
        D = np.sqrt(D)
    dist = D.min(axis=1)
    rows, cols = np.nonzero((D <= dist[:, None] + tie_tol)
                            & (slot < size[:, None]))
    return dist, rows, cols, pts[idx[rows, cols]]


def hausdorff(A: PointSet, B: PointSet, norm: str = "l2") -> float:
    """Hausdorff distance: max of the two directed sup-min distances."""
    return max(_sup_dist(A, B, norm), _sup_dist(B, A, norm))


def _sup_dist(A: PointSet, B: PointSet, norm: str) -> float:
    """max over the rows a of A of d(a, B).  Above KDTREE_MIN rows only the
    rows that can reach it are queried: the representatives of A's cells
    give a lower bound L, and a row a of a cell with representative r has
    d(a, B) <= d(r, B) + |a - r|, so only the cells whose bound reaches L
    are queried row by row.  Every distance comes from the `_nearest` call
    of the full query, so the result is the same float."""
    if len(A) <= KDTREE_MIN:
        return float(_nearest(A.points, B, norm).max())
    rows, bounds, dev = A.cells
    first = bounds[:-1]
    near = _nearest(A.points[rows[first]], B, norm)
    low = near.max()
    # Each computed distance or norm is within (dim + 2) eps of the exact
    # one (relatively; the absolute term covers subnormal squares), so the
    # margin keeps the bound above the computed d(a, B) of every row.
    margin = 1 + 8 * (A.dim + 2) * _EPS
    bound = (near + row_norms(dev, norm)) * margin + 1e-150
    live = np.repeat(bound >= low, np.diff(bounds))
    live[first] = False
    if live.any():
        low = max(low, _nearest(A.points[rows[live]], B, norm).max())
    return float(low)


def row_norms(P: np.ndarray, norm: str = "l2") -> np.ndarray:
    """Norm of each row of an (m, d) array."""
    return np.linalg.norm(P, ord=_NORM_ORD[norm], axis=1)


def set_norm(A: PointSet, norm: str = "l2") -> float:
    """Hausdorff distance from A to the origin, i.e. max |a|."""
    return float(row_norms(A.points, norm).max())


@dataclass(frozen=True, eq=False)
class MetricPairList:
    """Pairs (a, b) where one point projects onto the opposite set.
    Equality and hashing are by identity, as for `PointSet`."""

    pairs: tuple

    def __len__(self) -> int:
        return len(self.pairs)


def metric_pairs(A: PointSet, B: PointSet, norm: str = "l2",
                 tie_tol: float = TIE_TOL) -> MetricPairList:
    """All metric pairs of (A, B); symmetric duplicates counted once."""
    (i, j), = _pair_indices([A, B], norm, tie_tol)
    return MetricPairList(tuple(zip(A.points[i], B.points[j])))


def is_metric_pair(a, b, A: PointSet, B: PointSet, norm: str = "l2",
                   tie_tol: float = TIE_TOL) -> bool:
    """Membership test that avoids enumerating all pairs of large sets."""
    a = as_point(a)
    b = as_point(b)
    da, _ = dist_point_set(b, A, norm, tie_tol)
    db, _ = dist_point_set(a, B, norm, tie_tol)
    gap = vec_norm(a - b, norm)
    return gap <= da + tie_tol or gap <= db + tie_tol


def _pair_indices(sets: list[PointSet], norm: str,
                  tie_tol: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """The metric pairs (a_i, b_j) of each two consecutive sets (A, B) of
    the list, as index arrays (i, j), sorted: b_j is a near-nearest point
    of a_i in B, or a_i one of b_j in A.  The union of the witnesses of the
    two directions, with no |A| x |B| matrix, from one `_nearest_groups`
    query of every set's points against its neighbours."""
    n = len(sets)
    size = np.array([len(S) for S in sets])
    # Rows: the points of each set but the last against the next set, then
    # those of each set but the first against the one before.
    P = np.concatenate([S.points for S in sets[:-1]]
                       + [S.points for S in sets[1:]])
    link = np.concatenate([np.repeat(np.arange(n - 1), size[:-1]),
                           np.repeat(np.arange(n - 1), size[1:])])
    blocks = np.concatenate([size[:-1], size[1:]])
    local = np.arange(len(P)) - np.repeat(np.cumsum(blocks) - blocks, blocks)
    fwd = np.arange(len(P)) < size[:-1].sum()
    _, rows, cols, _ = _nearest_groups(P, link + fwd, sets, norm, tie_tol)
    k = link[rows]
    i = np.where(fwd[rows], local[rows], cols)
    j = np.where(fwd[rows], cols, local[rows])
    # One sorted key per pair: link k's keys start at base[k].
    span = size[1:]
    base = np.concatenate([[0], np.cumsum(size[:-1] * span)[:-1]])
    key = np.unique(base[k] + i * span[k] + j)
    k = np.searchsorted(base, key, side="right") - 1
    i, j = np.divmod(key - base[k], span[k])
    cut = np.searchsorted(k, np.arange(n)).tolist()
    return [(i[a:b], j[a:b]) for a, b in zip(cut[:-1], cut[1:])]


def enumerate_metric_chains(sets: list[PointSet], norm: str = "l2",
                            tie_tol: float = TIE_TOL,
                            limit: int = CHAIN_LIMIT) -> np.ndarray:
    """All metric chains (a_0, ..., a_n) of an ordered list of sets, as one
    (chains, n+1, d) array in lexicographic order of the point indices."""
    if len(sets) < 2:
        raise ValueError("need at least two sets")
    links = _pair_indices(sets, norm, tie_tol)
    # Count before materializing to catch explosions cheaply.
    counts = np.ones(len(sets[-1]))
    for A, (i, j) in zip(reversed(sets[:-1]), reversed(links)):
        counts = np.bincount(i, counts[j], minlength=len(A))
    total = counts.sum()
    if total > limit:
        raise ChainExplosion(
            f"{total:.0f} chains exceed limit {limit}; use greedy selections instead")
    # Extend every chain by each partner of its last point, in order.
    idx = np.arange(len(sets[0]))[:, None]
    for i, j in links:
        lo = np.searchsorted(i, idx[:, -1], side="left")
        fan = np.searchsorted(i, idx[:, -1], side="right") - lo
        start = np.repeat(lo - np.cumsum(fan) + fan, fan)
        picks = start + np.arange(start.size)
        idx = np.column_stack([np.repeat(idx, fan, axis=0), j[picks]])
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
