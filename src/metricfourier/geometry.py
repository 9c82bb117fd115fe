"""Finite-set geometry: distances, projections, metric pairs, chains, hulls.

Compact sets are modelled as finite point clouds in R^d.  Continua (discs,
segments) enter as epsilon-nets built by the fixture layer; every assertion
about such sets carries a tolerance of the order of the net parameter.

Every nearest-point query (`min_dists`, `hausdorff`, `dist_point_set`,
`project`) is one call of `_nearest`: the distance from each query row to a
`PointSet` and, on request, every witness within TIE_TOL of it.
Projections of many rows (`project_groups`) and the metric pairs of
`_pair_indices` go through the grouped query `_nearest_groups`, whose rows
each have their own set.  Its groups (the rows of one set) of at most
GROUP_MAX distance entries are computed together by one `_scan`, their sets
laid end to end as its cells, which removes the cost of a call per small
set; a larger group is one `_nearest` call.  `small_sets` tells which
sets pair within that size, for callers that fill whole maps between sets.
`_nearest` is the one place that chooses the path: a set of more than
GRID_MIN points is queried on its cell grid (`_grid_nearest`), which
`PointSet.cells` builds on first use and keeps with the frozen set, so a
net that is queried many times builds one grid.  The grid groups the
points by cells of about _CELL_ROWS points and keeps a bounding box per
cell; a row takes the points of the 2^d cells around it, and scans more
cells only if they can hold a nearer point, by their boxes.  Smaller sets
are queried by brute force, which is faster there, in blocks of at most
_BLOCK entries of `_dist_matrix`.  The kernel sums coordinates in order,
as scipy's `cdist` does, so it gives the same floats, and
every box bound (`_box_bounds`) is made of the kernel's own operations,
each monotone in its operands, so it bounds the computed distances with
no margin.  All paths give the same distances and the same witnesses, in
index order.  The geometry, and importing the package, need numpy alone.

Sets of more than GRID_MIN points also take a shortcut that leaves the
answer unchanged: `hausdorff` computes exact distances only for the rows
of such a set that can reach its maximum, from bounds on its cells
(`_sup_dist`), and on the cells of the other set too when that set is
large (`_sup_cells`).

`PointSet.of` builds one set and `PointSet.many` the sets of a (T, m, d)
block, through one keep-first kernel, `_dedup`, which finds near duplicates
in windows of sorted projections at every size.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache, cached_property
from operator import sub
from typing import NamedTuple

import numpy as np

# Projection witnesses: everything within TIE_TOL of the minimum distance
# counts as a nearest point, so projections are sets, not single points.
TIE_TOL = 1e-9
# Two points closer than DEDUP_TOL are considered the same point.
DEDUP_TOL = 1e-12
# Chain enumeration and Minkowski products refuse beyond this many chains.
CHAIN_LIMIT = 10 ** 6
# Sets of more points than this are queried on their cell grid, smaller
# ones by brute force.  Measured cost of a `_nearest` with witnesses in l2
# on disc nets, rows near the net (2 shared cores, numpy 2.4, fastest of
# 15 runs, brute force against a cached grid): at 2,137 points 36 against
# 102 us for 1 row, 103 against 110 us for 4, 1.2 against 0.19 ms for 32;
# at 8,201 points 76 against 101 us for 1 row, 0.24 against 0.11 ms for 4,
# 22 against 0.81 ms for 256.  Building the grid took 0.3 ms at 2,137
# points and 1.0 ms at 8,201.  Such sets also enter `hausdorff` through
# their cells.
GRID_MIN = 2048
# A group (the rows queried against one set) of at most this many distance
# entries is computed with all such groups in one `_scan`, a larger one by
# `_nearest`.  Measured cost per group, 64 groups a call (2 shared cores,
# numpy 2.4, fastest of 100 runs), `_scan` against `_nearest`: 3.5 against
# 17-19 us at 64 entries, 4-6 against 17-22 us at 256, 12-20 against 19-29
# us at 512, and at 1024 21-24 against 22-25 us in d = 1, 35-37 against
# 29-32 us in d = 2.  They meet between 512 and 1024.  `small_sets` reads
# it too: sets of at most sqrt(GROUP_MAX) points are small.
GROUP_MAX = 512
# Entries (rows x width) of one `_dist_matrix` call, grouped or not: its
# two buffers of 512 KiB stay in cache.  Measured cost of a brute-force
# `_nearest` with witnesses in l2, in blocks of this size against `cdist` in
# blocks of 2^22 entries, side by side (2 shared cores, numpy 2.4, scipy
# 1.17, fastest of 9 runs): 2048 x 2048 entries 25 against 43 ms in d = 1,
# 38 against 39 ms in d = 2, 41 against 33 ms in d = 3; 1000 x 1000 in
# d = 2 8.9 against 6.7 ms; 441 x 8 0.10 against 0.09 ms.
_BLOCK = 1 << 16
# A set's grid has cells of about this many rows.  At 8 a row's 2^d cells
# reach half as far, so more rows need a second scan: on an 8,201-point
# disc net, queries of 1-32 rows near it took 81-131 us at 8 against
# 58-106 us at 16, and `hausdorff` of two such nets 4 apart 4.1 against
# 2.8 ms (2 shared cores, numpy 2.4, fastest of 300 and of 50 runs).
_CELL_ROWS = 16
# Grids with a cell side below this give one cell, which keeps the rounding
# margins of `_grid_nearest` far from the subnormal range.
_SIDE_MIN = 1e-100
# Sets in more dimensions than this are grids of one cell, queried by
# brute force: a query visits the 2^d cells around it.
_GRID_DIMS = 3
# `_sup_cells` measures this many cells first, for a lower bound.  On two
# 8,201-point nets 4 apart (both directions, 2 shared cores), 1 cell took
# 14 ms, 2 cells 8.9 ms, 4 cells 2.8 ms, 8 cells 3.1 ms and 16 cells 4.2
# ms: too few cells leave the bound loose.
_PROBES = 8

_EPS = np.finfo(float).eps
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
        return _point_sets(arr[None], dedup_tol)[0]

    @staticmethod
    def many(block) -> list["PointSet"]:
        """`PointSet.of` of each (m, d) slice of the (T, m, d) array block,
        with one finiteness check and one keep-first dedup at DEDUP_TOL for
        the whole block."""
        arr = np.array(block, dtype=float)
        if arr.ndim != 3 or not arr.shape[1] or not arr.shape[2]:
            raise ValueError("a block of PointSets must be a (T, m, d) array "
                             "with m, d > 0")
        return _point_sets(arr, DEDUP_TOL)

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
    def cells(self) -> "_Grid":
        """The rows grouped by a grid of about len/_CELL_ROWS cells, with a
        bounding box per cell, built on first use and kept with the set."""
        return _grid(self.points)


class _Grid(NamedTuple):
    """A set's points grouped by the cells of a regular grid.

    Cell c of the C cells holds the points pts[bounds[c]:bounds[c + 1]],
    which are the rows rows[bounds[c]:bounds[c + 1]] of the set, in index
    order; its first row is its representative, and lo[c], hi[c] are the
    corners of its points' bounding box.  keys[c] is the key of cell c's
    grid position, rising with c, and keys[C] a key above them all, of an
    empty cell: count[c] is cell c's size, 0 for c = C.  cols holds the
    coordinates of pts by axis, then those of one more point, at
    infinity.

    A point p lies at position floor((p - origin) / side), clipped to
    [0, top], and the key of a position is `position @ radix`.  scale
    bounds the coordinates of the grid's edges, for rounding margins."""

    rows: np.ndarray
    bounds: np.ndarray
    keys: np.ndarray
    count: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    cols: np.ndarray
    origin: np.ndarray
    side: float
    top: np.ndarray
    radix: np.ndarray
    scale: np.ndarray

    @property
    def pts(self) -> np.ndarray:
        """The points cell by cell, as an (n, d) view of cols."""
        return self.cols[:, :-1].T


def _grid(P: np.ndarray) -> _Grid:
    """The `_Grid` of the (m, d) array P."""
    m, d = P.shape
    # Column by column: a reduction over axis 0 of a thin array is slow.
    origin = np.array([col.min() for col in P.T])
    ext = np.array([col.max() for col in P.T]) - origin
    wide = ext[ext > 0]
    # Side h with prod(ext / h) = m / _CELL_ROWS over the axes the rows
    # span, and ceil(ext / h) cells per axis, at most `most`.  The key of a
    # position is its digits in base most + 2, which fits in 63 bits and
    # keeps the positions one step outside the grid off every cell's key.
    # Above _GRID_DIMS dimensions, or with a side too small or too large
    # for the queries' rounding margins, the grid is one cell.
    h = float(np.exp((np.log(wide).sum() - np.log(max(1, m // _CELL_ROWS)))
                     / max(1, wide.size)))
    most = min(m, int(2 ** (62 / d)) - 2)
    radix = np.zeros(d, dtype=np.intp)
    top = np.zeros(d, dtype=np.intp)
    if d <= _GRID_DIMS:
        radix = (most + 2) ** np.arange(d, dtype=np.intp)
    if d <= _GRID_DIMS and _SIDE_MIN < h < np.inf:
        top = (np.clip(np.ceil(ext / h), 1, most) - 1).astype(np.intp)
    else:
        h = 1.0
    # Axis by axis, so that no temporary holds more than one coordinate.
    key = np.zeros(m, dtype=np.intp)
    for col, o, t, r in zip(P.T, origin, top.tolist(), radix.tolist()):
        key += np.minimum((col - o) / h, t).astype(np.intp) * r
    rows = np.argsort(key, kind="stable")
    key = key[rows]
    first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    bounds = np.append(first, m)
    cols = np.empty((d, m + 1))
    for k in range(d):
        np.take(P[:, k], rows, out=cols[k, :m])
    cols[:, m] = np.inf
    lo, hi = (np.column_stack([f.reduceat(x, first) for x in cols[:, :m]])
              for f in (np.minimum, np.maximum))
    return _Grid(rows, bounds, np.append(key[first], np.iinfo(np.intp).max),
                 np.append(np.diff(bounds), 0), lo, hi, cols, origin, h, top,
                 radix, np.abs(origin) + (top + 3) * h)


def _point_sets(arr: np.ndarray, tol: float) -> list[PointSet]:
    """The sets of the (m, d) slices of the (T, m, d) array arr, each with
    the rows within tol of a kept row dropped (none when tol is 0)."""
    if not np.isfinite(arr).all():
        raise ValueError("point has non-finite coordinates")
    kept = _dedup(arr, tol) if tol > 0 else np.ones(arr.shape[:2], dtype=bool)
    # The slices kept whole are read-only views of the block.
    arr.setflags(write=False)
    out = []
    for X, keep, whole in zip(arr, kept, kept.all(axis=1).tolist()):
        if not whole:
            X = X[keep]
            X.setflags(write=False)
        out.append(PointSet(X))
    return out


@cache
def _direction(d: int) -> np.ndarray:
    """A fixed direction u in R^d with |u|_1 = 1 and no rational relations
    between its components, so lattices and lines do not collapse onto it:
    the square roots of the first d primes, normalised."""
    primes: list[int] = []
    k = 2
    while len(primes) < d:
        if all(k % p for p in itertools.takewhile(lambda p: p * p <= k,
                                                   primes)):
            primes.append(k)
        k += 1
    u = np.sqrt(np.array(primes, dtype=float))
    u /= u.sum()
    u.setflags(write=False)
    return u


def _dedup(arr: np.ndarray, tol: float) -> np.ndarray:
    """Keep-first mask of each (m, d) slice of the (T, m, d) array arr, as a
    (T, m) array: a row within tol (linf) of an earlier kept row of its
    slice is dropped.  For u = `_direction(d)`, |u.(a - b)| <= |a - b|_inf,
    so rows within tol lie within tol of each other in the sorted
    projections; the window is widened by their rounding.  A row equal to
    an earlier one beside it in sorted order is dropped untested; each
    other row is checked in linf exactly against the kept rows in its
    window only."""
    T, m, d = arr.shape
    kept = np.ones((T, m), dtype=bool)
    if not T or m < 2:
        return kept
    rows = arr.reshape(-1, d)
    proj = (rows @ _direction(d)).reshape(T, m)
    p = np.sort(proj)
    # Each projection is a d-term dot product of |u|_1 = 1: its error is
    # below (d + 2) eps max|a|; the sum and the difference add two more.
    reach = tol + 4 * (d + 2) * _EPS * (np.abs(arr).max() + tol)
    near = p[:, 1:] - p[:, :-1] <= reach
    if not near.any():
        return kept
    # Sorted position k = t m + r holds row flat[k] of arr's T m rows.
    flat = (np.argsort(proj)
            + np.arange(0, T * m, m)[:, None]).ravel()
    # Equal rows have equal projections; a group of them next to each other
    # in sorted order keeps at most its first row in index order, so the
    # others are dropped now (the first, or a kept row within tol of it, is
    # within tol of them).
    same = np.zeros((T, m), dtype=bool)
    same[:, 1:] = p[:, 1:] == p[:, :-1]
    k = np.flatnonzero(same)
    same.ravel()[k] = (rows[flat[k]] == rows[flat[k - 1]]).all(axis=1)
    lead = np.flatnonzero(~same.ravel())
    first = np.minimum.reduceat(flat, lead)
    dup = flat != np.repeat(first, np.diff(np.append(lead, T * m)))
    kept.ravel()[flat[dup]] = False
    # A run is a maximal stretch of sorted positions whose gaps are within
    # reach; rows within tol lie in one run.  The other rows of the runs
    # that hold two or more of them, ordered by run and then by index.
    fresh = np.ones((T, m), dtype=bool)
    fresh[:, 1:] = ~near
    run = np.cumsum(fresh.ravel())
    k = np.flatnonzero(~dup)
    k = k[np.bincount(run[k])[run[k]] > 1]
    k = k[np.lexsort((flat[k], run[k]))]
    # Keep-first within each run, rows in index order: a row is tested only
    # against the kept rows of its run whose projections lie within reach
    # of its own (twice reach, to absorb the rounding of the bounds), so a
    # cluster of k rows within tol of each other costs O(k) tests.
    wide = 2 * reach
    dropped = []
    last = -1
    for r, j, pj, xj in zip(run[k].tolist(), flat[k].tolist(),
                            p.ravel()[k].tolist(), rows[flat[k]].tolist()):
        if r != last:
            last, kp, kx = r, [], []
        lo, hi = bisect_left(kp, pj - wide), bisect_right(kp, pj + wide)
        if any(max(map(abs, map(sub, xq, xj))) <= tol
               for xq in kx[lo:hi]):
            dropped.append(j)
        else:
            at = bisect_right(kp, pj)
            kp.insert(at, pj)
            kx.insert(at, xj)
    kept.ravel()[dropped] = False
    return kept


def _nearest(P: np.ndarray, B: PointSet, norm: str, witnesses: bool = False):
    """Distance from each row of the (m, d) array P to B.  With witnesses,
    also the witnesses as index pairs (rows[k], cols[k]), sorted: every b_j
    within TIE_TOL of row i's distance gives one pair (i, j).

    The one choice of path: B's cached grid (`_grid_nearest`) when B has
    more than GRID_MIN points, `_dist_matrix` in blocks of at most _BLOCK
    entries otherwise."""
    if P.shape[1] != B.dim:
        raise DimensionMismatch(f"dimension {P.shape[1]} vs {B.dim}")
    m, n = P.shape[0], len(B)
    if n > GRID_MIN and B.dim <= _GRID_DIMS:
        return _grid_nearest(P, B.cells, norm, witnesses)
    step = max(1, _BLOCK // n)
    if m > step:
        # Blocks of rows, each of at most _BLOCK entries (or one row).
        return _row_blocks(lambda Q: _nearest(Q, B, norm, witnesses), P,
                           step, witnesses)
    D = _dist_matrix(P, B.points.T[:, None], norm)
    dist = D.min(axis=1)
    if not witnesses:
        return dist
    return (dist, *np.nonzero(D <= dist[:, None] + TIE_TOL))


def _row_blocks(query, P: np.ndarray, step: int, witnesses: bool):
    """query, a `_nearest` of some set, of the rows of P in blocks of at
    most step rows, its results joined as one query's."""
    ks = range(0, len(P), step)
    parts = [query(P[k:k + step]) for k in ks]
    if not witnesses:
        return np.concatenate(parts)
    dist, rows, cols = zip(*parts)
    return (np.concatenate(dist),
            np.concatenate([r + k for r, k in zip(rows, ks)]),
            np.concatenate(cols))


def _grid_nearest(P: np.ndarray, G: _Grid, norm: str, witnesses: bool):
    """`_nearest` of the rows of P on the grid G of a set, exactly as brute
    force gives it.

    Each row first takes the points of the 2^d cells around it, those
    whose centres bracket it on every axis, all rows in one padded kernel
    call.  Every point outside these cells lies farther than the row's
    reach, its distance to their outer edges less a rounding margin, so a
    row whose nearest distance there (plus TIE_TOL, with witnesses) is
    below its reach is done; the reach is at least half a cell side.
    Each other row scans the cells that `_wide` finds within that
    distance.  In blocks of rows of at most _BLOCK padded
    entries (or one row)."""
    m, d = P.shape
    if not m:
        none = np.empty(0, dtype=np.intp)
        return (np.empty(0), none, none) if witnesses else np.empty(0)
    step = max(1, _BLOCK // (2 ** d * int(G.count.max())))
    if m > step:
        return _row_blocks(lambda Q: _grid_nearest(Q, G, norm, witnesses), P,
                           step, witnesses)
    n = len(G.rows)
    idx = _corner(G, P)
    c = _around(G, idx)
    size = G.count[c][..., None]
    slot = np.arange(max(1, int(size.max())))
    J = np.where(slot < size, G.bounds[c][..., None] + slot, n).reshape(m, -1)
    D = _dist_matrix(P, [np.take(x, J) for x in G.cols], norm)
    dist = D.min(axis=1)
    # A point outside the cells lies past an outer edge of theirs on some
    # axis; the margin covers the rounding of the positions and edges.
    edge = G.origin + idx * G.side
    reach = np.minimum(P - edge, edge + 2 * G.side - P) - 16 * _EPS * (
        np.abs(P) + G.scale)
    bound = dist + TIE_TOL if witnesses else dist
    done = bound < reach.min(axis=1)
    if witnesses:
        i, k = np.nonzero(D <= bound[:, None])
        keep = done[i]
        parts = [(i[keep], G.rows[J[i[keep], k[keep]]])]
    rest = np.flatnonzero(~done)
    if rest.size:
        for i, c in _wide(P[rest], G, dist[rest], norm, witnesses):
            got = _scan(P, G.bounds, G.cols, G.rows, rest[i], c, norm,
                        witnesses)
            dist[got[0]] = got[1]
            if witnesses:
                parts.append(got[2:])
    if not witnesses:
        return dist
    rows, cols = (np.concatenate(x) for x in zip(*parts))
    key = np.sort(rows * n + cols)
    return (dist, *np.divmod(key, n))


def _wide(P: np.ndarray, G: _Grid, cap: np.ndarray, norm: str,
          witnesses: bool):
    """Lists of (row, cell) pairs, each sorted by row, which hold for each
    row of P every cell of G that can hold its nearest point (and, with
    witnesses, every point within TIE_TOL of it), given that a point of G
    lies within cap of the row.

    The positions of cells within cap of a row span a box on the grid,
    found from the row's coordinates plus and minus cap, widened for
    rounding and by one cell.  A row whose box holds at most as many
    positions as G has cells tests the cells at them against cap; each
    other row tests every cell, against the smaller of cap and its
    farthest distance to the nearest box.  Both in blocks of at most
    _BLOCK tests, or one row's."""
    m, d = P.shape
    pad = (cap * (1 + 4 * _EPS))[:, None] + 16 * _EPS * (np.abs(P)
                                                         + G.scale)
    if witnesses:
        pad += TIE_TOL
        cap = cap + TIE_TOL
    lo = np.clip(np.floor((P - pad - G.origin) / G.side) - 1, 0,
                 G.top).astype(np.intp)
    span = np.clip(np.floor((P + pad - G.origin) / G.side) + 2, 1,
                   G.top + 1).astype(np.intp) - lo
    size = span.prod(axis=1)
    few = size <= len(G.lo)
    rows = np.flatnonzero(few)
    for a, b in _chunks(size[rows]):
        # The positions of each row's box, numbered with axis 0 fastest.
        n = size[rows[a:b]]
        t = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        row = np.repeat(rows[a:b], n)
        key = np.zeros(t.size, dtype=np.intp)
        for k in range(d):
            w = span[row, k]
            key += (lo[row, k] + t % w) * G.radix[k]
            t //= w
        c = np.searchsorted(G.keys, key)
        hit = G.keys[c] == key
        row, c = row[hit], c[hit]
        low = _box_bounds(P[row], P[row], G.lo[c], G.hi[c], norm)[0]
        keep = low <= cap[row]
        yield row[keep], c[keep]
    rows = np.flatnonzero(~few)
    step = max(1, _BLOCK // len(G.lo))
    for k in range(0, rows.size, step):
        r = rows[k:k + step]
        low, high = _box_bounds(P[r, None], P[r, None], G.lo, G.hi, norm)
        top = high.min(axis=1)
        if witnesses:
            top += TIE_TOL
        i, c = np.nonzero(low <= np.minimum(cap[r], top)[:, None])
        yield r[i], c


def _chunks(sizes: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive ranges [a, b) of items of these sizes, each of total size
    at most _BLOCK, or of one item."""
    ends = np.cumsum(sizes)
    out, a = [], 0
    while a < ends.size:
        base = ends[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(ends, base + _BLOCK, "right")))
        out.append((a, b))
        a = b
    return out


def _corner(G: _Grid, P: np.ndarray) -> np.ndarray:
    """For each row p of P, the lowest grid position of the 2^d cells whose
    centres bracket p, clipped to [-1, top]."""
    return np.clip(np.floor((P - G.origin) / G.side - 0.5), -1,
                   G.top).astype(np.intp)


@cache
def _offsets(radix: tuple) -> np.ndarray:
    """The key steps from a grid position to the 2^d positions at or above
    it by one on each axis, for a grid of these key weights."""
    steps = itertools.product((0, 1), repeat=len(radix))
    return np.array(list(steps), dtype=np.intp) @ np.array(radix)


def _around(G: _Grid, idx: np.ndarray) -> np.ndarray:
    """The cells at the 2^d positions at or above each of the positions
    idx by one on each axis, as an (m, 2^d) array, with the empty cell C
    where a position holds none."""
    key = (idx @ G.radix)[:, None] + _offsets(tuple(G.radix.tolist()))
    c = np.searchsorted(G.keys, key)
    return np.where(G.keys[c] == key, c, len(G.lo))


def _box_bounds(alo, ahi, blo, bhi, norm: str):
    """Lower and upper bounds of the distances between the points of boxes
    [alo, ahi] and [blo, bhi], broadcast over all but the last axis, which
    holds the coordinates (a point is a box with alo = ahi).

    The gaps and spans per coordinate and their sums are the kernel's
    operations on the box corners.  Each is monotone in its operands, so
    the bounds hold for the computed distances of `_dist_matrix`, bit for
    bit, with no margin."""
    low = high = None
    for k in range(alo.shape[-1]):
        a0, a1, b0, b1 = alo[..., k], ahi[..., k], blo[..., k], bhi[..., k]
        gap = np.maximum(np.maximum(a0 - b1, b0 - a1), 0.0)
        span = np.maximum(a1 - b0, b1 - a0)
        if norm == "l2":
            gap *= gap
            span *= span
        if low is None:
            low, high = gap, span
        elif norm == "linf":
            np.maximum(low, gap, out=low)
            np.maximum(high, span, out=high)
        else:
            low += gap
            high += span
    if norm == "l2":
        return np.sqrt(low, out=low), np.sqrt(high, out=high)
    return low, high


def _refine(P: np.ndarray, G: _Grid, prow: np.ndarray, pcell: np.ndarray,
            low: np.ndarray, high: np.ndarray, norm: str,
            floor: float) -> float:
    """max(floor, the largest distance from a row of the (row, cell) pairs
    sorted by row to the set of G), where low and high are the pairs' box
    bounds and a row's cells include every cell that can hold its nearest
    point.  The largest of the rows' smallest lower bounds is a lower
    bound of the result, which raises floor.  A row whose smallest upper
    bound lies below floor is dropped; each other row first scans the cell
    of that bound, which gives an exact upper bound u of its distance, and
    if u reaches floor, then its cells whose lower bound lies within u."""
    seg = np.flatnonzero(np.diff(prow, prepend=-1))
    size = np.diff(seg, append=prow.size)
    floor = max(floor, np.minimum.reduceat(low, seg).max())
    near = np.minimum.reduceat(high, seg)
    best = np.flatnonzero(high == np.repeat(near, size))
    best = best[np.flatnonzero(np.diff(prow[best], prepend=-1))]
    best = best[near >= floor]
    top = np.full(seg.size, -np.inf)
    top[near >= floor] = _scan(P, G.bounds, G.cols, G.rows, prow[best],
                               pcell[best], norm, False)[1]
    keep = low <= np.repeat(np.where(top >= floor, top, -np.inf), size)
    got = _scan(P, G.bounds, G.cols, G.rows, prow[keep], pcell[keep],
                norm, False)[1]
    return max(floor, got.max(initial=floor))


def _scan(P: np.ndarray, bounds: np.ndarray, cols: np.ndarray,
          rows: np.ndarray, prow: np.ndarray, pcell: np.ndarray, norm: str,
          witnesses: bool):
    """The distances from rows of P to the points of cells, as in a
    `_Grid` (cell c holds the points cols[:, bounds[c]:bounds[c + 1]]),
    for the (row, cell) pairs (prow[k], pcell[k]) sorted by row: the rows
    with a pair, each one's smallest distance and, with witnesses, the
    pairs (row, rows[j]) of the points j within TIE_TOL of it.  In blocks
    of at most _BLOCK distances, or one row's."""
    if not prow.size:
        none = np.empty(0, dtype=np.intp)
        return none, np.empty(0), none, none
    cnt = bounds[pcell + 1] - bounds[pcell]
    start = np.flatnonzero(np.diff(prow, prepend=-1))
    parts = []
    for a, b in _chunks(np.add.reduceat(cnt, start)):
        lo, hi = start[a], (start[b] if b < start.size else cnt.size)
        n = cnt[lo:hi]
        first = np.cumsum(n) - n
        j = np.repeat(bounds[pcell[lo:hi]] - first, n) + np.arange(n.sum())
        r = np.repeat(prow[lo:hi], n)
        # `take` gathers rows many times faster than fancy indexing.
        D = _dist_matrix(P.take(r, axis=0), cols.take(j, axis=1)[..., None],
                         norm)[:, 0]
        seg = first[start[a:b] - lo]
        dist = np.minimum.reduceat(D, seg)
        part = [prow[start[a:b]], dist]
        if witnesses:
            w = np.flatnonzero(D <= np.repeat(dist + TIE_TOL,
                                              np.diff(seg, append=r.size)))
            part += [r[w], rows[j[w]]]
        parts.append(part)
    return [np.concatenate(x) for x in zip(*parts)]


def min_dists(P: np.ndarray, Q: np.ndarray, norm: str = "l2") -> np.ndarray:
    """Distance from each row of P to the set of the rows of Q.  A
    non-finite coordinate in either raises ValueError, on every path."""
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    if not (np.isfinite(P).all() and np.isfinite(Q).all()):
        raise ValueError("point has non-finite coordinates")
    return _nearest(P, PointSet(Q), norm)


def dist_point_set(p, B: PointSet, norm: str = "l2") -> tuple[float, PointSet]:
    """Distance from p to B plus the witness set of near-minimizers."""
    dist, _, cols = _nearest(as_point(p)[None, :], B, norm, witnesses=True)
    witnesses = B.points[cols]
    # Rows of a validated set: mark them read-only instead of re-validating.
    witnesses.setflags(write=False)
    return float(dist[0]), PointSet(witnesses)


def project(p, B: PointSet, norm: str = "l2") -> PointSet:
    """Nearest-point projection of p onto B (all tied witnesses)."""
    return dist_point_set(p, B, norm)[1]


def project_groups(P: np.ndarray, owner: np.ndarray, sets,
                   norm: str = "l2") -> tuple[np.ndarray, np.ndarray]:
    """`dist_point_set` for every row of the (m, d) array P in one grouped
    query, each row against its own set: the distance from row i to
    sets[owner[i]], and the index there of the lexicographically smallest
    of its tied witnesses (the points within TIE_TOL of the distance)."""
    dist, rows, cols, wit = _nearest_groups(P, owner, sets, norm)
    if cols.size > len(P):
        # Some row is tied: order each row's witnesses by their coordinates,
        # equal points by index, and take the first.
        order = np.lexsort((cols, *wit.T[::-1], rows))
        rows, cols = rows[order], cols[order]
        cols = cols[np.flatnonzero(np.diff(rows, prepend=-1))]
    return dist, cols


def lex_ranks(P: np.ndarray, ranks) -> np.ndarray:
    """The rows at the given ranks of the lexicographic order of the (m, d)
    array P, equal rows by index: `np.lexsort(P.T[::-1])[ranks]` without
    the full sort.  The first coordinates at those ranks come from a sort
    of that column alone, and only the rows whose first coordinate equals
    one of them are lexsorted.  (numpy 2.4's vectorized sort of 8,201
    floats took 0.04 ms, `np.partition` at 4 ranks 0.16 ms and the
    lexsort 1.2 ms, on 2 shared vCPUs.)"""
    ranks = np.asarray(ranks, dtype=np.intp)
    x = P[:, 0]
    sx = np.sort(x)
    pivots = np.unique(sx[ranks])
    # Rank r's row is row r - below[j] of the rows tied at its pivot j.
    below = np.searchsorted(sx, pivots)
    tied = np.searchsorted(sx, pivots, side="right") - below
    rows = np.flatnonzero(np.isin(x, pivots))
    rows = rows[np.lexsort(P[rows].T[::-1])]
    j = np.searchsorted(pivots, sx[ranks])
    return rows[np.cumsum(tied)[j] - tied[j] + ranks - below[j]]


def small_sets(sizes) -> np.ndarray:
    """Whether each of these set sizes is small: the distance matrix
    between two small sets has at most GROUP_MAX entries, a small group's
    size, so a map between them is cheap to fill for every point."""
    return np.asarray(sizes) ** 2 <= GROUP_MAX


def _nearest_groups(P: np.ndarray, owner: np.ndarray, sets, norm: str):
    """`_nearest` with witnesses for rows that each have their own set: row
    i of the (m, d) array P against sets[owner[i]].  Returns the distances,
    the witness pairs (rows[k], cols[k]) sorted by row and then by col, with
    cols indexing the row's own set, and the witnesses' coordinates.

    A group, the rows of one set, is small when its distance matrix has at
    most GROUP_MAX entries.  All small groups are computed by one `_scan`,
    whose cells are their sets laid end to end; each larger group takes
    one `_nearest` call."""
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
        # Cell k is the k-th small set, its points numbered within it.
        bounds = np.append(0, np.cumsum(size[small]))
        cols = np.hstack([sets[g].points.T for g in groups[small]])
        own = np.arange(bounds[-1]) - np.repeat(bounds[:-1], size[small])
        cell = (np.cumsum(small) - 1)[inv]
        r = np.flatnonzero(small[inv])
        _, dist[r], i, j = _scan(P, bounds, cols, own, r, cell[r], norm, True)
        parts.append((i, j, cols[:, bounds[cell[i]] + j].T))
    for g in np.flatnonzero(~small):
        r = np.flatnonzero(inv == g)
        B = sets[groups[g]]
        dist[r], i, j = _nearest(P[r], B, norm, witnesses=True)
        parts.append((r[i], j, B.points[j]))
    rows, cols, wit = (np.concatenate(x) for x in zip(*parts))
    if len(parts) > 1:
        # Each row's witnesses come from one part, in col order.
        order = np.argsort(rows, kind="stable")
        rows, cols, wit = rows[order], cols[order], wit[order]
    return dist, rows, cols, wit


def _dist_matrix(P: np.ndarray, columns, norm: str) -> np.ndarray:
    """The distances between the rows of the (m, d) array P and the points
    whose coordinates `columns` yields one at a time: d arrays that each
    broadcast against an (m, 1) column, (m, w) for a set per row or (1, n)
    for one set for all rows.

    The coordinates are summed one at a time, in order, as `cdist` sums
    them, so the distances equal its bit for bit (numpy's `sum` would add 8
    or more terms pairwise).  The result and one buffer of its size serve
    every coordinate."""
    if norm not in _NORM_ORD:
        raise KeyError(norm)
    D = t = None
    for p, q in zip(P.T, columns):
        if D is not None and t is D:
            t = np.empty_like(D)
        t = np.subtract(p[:, None], q, out=t)
        if norm == "l2":
            np.multiply(t, t, out=t)
        else:
            np.abs(t, out=t)
        if D is None:
            D = t
        elif norm == "linf":
            np.maximum(D, t, out=D)
        else:
            D += t
    return np.sqrt(D, out=D) if norm == "l2" else D


def hausdorff(A: PointSet, B: PointSet, norm: str = "l2") -> float:
    """Hausdorff distance: max of the two directed sup-min distances, the
    second measured only where it can exceed the first."""
    return _sup_dist(B, A, norm, _sup_dist(A, B, norm))


def _sup_dist(A: PointSet, B: PointSet, norm: str,
              floor: float = -np.inf) -> float:
    """max(floor, max over the rows a of A of d(a, B)).  Above GRID_MIN
    rows only the rows that can reach it are measured, by A's cells:
    `_sup_cells` when B is large too, and otherwise a bound through each
    cell's representative r: its exact distance gives a lower bound L, and
    a row a of the cell has d(a, B) <= |a - b| for the first witness b of
    r, at most the `_box_bounds` bound of the cell's box and b, so only the
    cells whose bound exceeds L are queried row by row.  Every distance is
    computed as `_nearest` computes it, so the result is the same float as
    a query of every row."""
    if A.dim != B.dim:
        raise DimensionMismatch(f"dimension {A.dim} vs {B.dim}")
    if len(A) <= GRID_MIN:
        return float(max(floor, _nearest(A.points, B, norm).max()))
    if len(B) > GRID_MIN and B.dim <= _GRID_DIMS:
        return _sup_cells(A.cells, B.cells, norm, floor)
    G = A.cells
    first = G.bounds[:-1]
    near, i, j = _nearest(G.pts[first], B, norm, witnesses=True)
    low = max(floor, near.max())
    b = B.points[j[np.flatnonzero(np.diff(i, prepend=-1))]]
    bound = _box_bounds(G.lo, G.hi, b, b, norm)[1]
    live = np.repeat(bound > low, np.diff(G.bounds))
    live[first] = False
    if live.any():
        low = max(low, _nearest(G.pts[live], B, norm).max())
    return float(low)


def _sup_cells(GA: _Grid, GB: _Grid, norm: str, floor: float) -> float:
    """max(floor, max over the points a of A of d(a, B)), from the grids of
    two sets, pruning whole cells of both by their boxes before their rows
    are scanned.

    Every bound is a `_box_bounds` bound, so it holds for the computed
    distances.  A cell of A is first bounded above by its farthest
    distance to the two cells of B beside the key of its centre's grid
    position (the neighbours along axis 0 in the same row of the grid,
    where that row has cells).  The _PROBES cells with the largest bounds
    are measured first, by `_sup_batch`, which gives a lower bound L of
    the result; then every other cell whose bound reaches L."""
    # The two cells of B on either side of the key of each cell's centre.
    key = _corner(GB, GA.lo / 2 + GA.hi / 2) @ GB.radix
    c = np.minimum(np.searchsorted(GB.keys, key), len(GB.lo) - 1)
    bound = np.minimum(*(_box_bounds(GA.lo, GA.hi, GB.lo[k], GB.hi[k],
                                     norm)[1]
                         for k in (np.maximum(c - 1, 0), c)))
    order = np.argsort(-bound, kind="stable")
    low = floor
    for batch in (order[:_PROBES], order[_PROBES:]):
        low = _sup_batch(GA, GB, batch[bound[batch] >= low], norm, low)
    return float(low)


def _sup_batch(GA: _Grid, GB: _Grid, cells: np.ndarray, norm: str,
               low: float) -> float:
    """max(low, the largest d(a, B) over the rows a of these cells of A).
    Each cell is bounded against every cell of B: it drops out if its
    bound lies below low, and keeps only the cells of B within its bound.
    Then its rows go to `_refine` with those cells and low as the floor,
    which rises from one block of rows to the next."""
    pa, pb = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    step = max(1, _BLOCK // len(GB.lo))
    for k in range(0, cells.size, step):
        a = cells[k:k + step]
        lo, hi = _box_bounds(GA.lo[a, None], GA.hi[a, None], GB.lo, GB.hi,
                             norm)
        top = hi.min(axis=1)
        i, b = np.nonzero((lo <= top[:, None]) & (top >= low)[:, None])
        pa.append(a[i])
        pb.append(b)
    pa, pb = np.concatenate(pa), np.concatenate(pb)
    # The rows of each cell with the cells of B it kept, in blocks of cells
    # of at most _BLOCK (row, cell) pairs (or one cell).
    cell, at, count = np.unique(pa, return_index=True, return_counts=True)
    span = (GA.bounds[cell + 1] - GA.bounds[cell]) * count
    for k, stop in _chunks(span):
        c, a, n, w = cell[k:stop], at[k:stop], count[k:stop], span[k:stop]
        q = np.arange(w.sum()) - np.repeat(np.cumsum(w) - w, w)
        per = np.repeat(n, w)
        row = np.repeat(GA.bounds[c], w) + q // per
        other = pb[np.repeat(a, w) + q % per]
        x = GA.pts[row]
        lo, hi = _box_bounds(x, x, GB.lo[other], GB.hi[other], norm)
        low = _refine(GA.pts, GB, row, other, lo, hi, norm, low)
    return low


def row_norms(P: np.ndarray, norm: str = "l2") -> np.ndarray:
    """Norm of each row of an (m, d) array."""
    return np.linalg.norm(P, ord=_NORM_ORD[norm], axis=1)


def set_norm(A: PointSet, norm: str = "l2") -> float:
    """Hausdorff distance from A to the origin, i.e. max |a|."""
    return float(row_norms(A.points, norm).max())


def metric_pairs(A: PointSet, B: PointSet, norm: str = "l2") -> tuple:
    """All metric pairs (a, b) of (A, B), where one point projects onto the
    opposite set; symmetric duplicates counted once."""
    (i, j), = _pair_indices([A, B], norm)
    return tuple(zip(A.points[i], B.points[j]))


def is_metric_pair(a, b, A: PointSet, B: PointSet, norm: str = "l2") -> bool:
    """Membership test that avoids enumerating all pairs of large sets."""
    a = as_point(a)
    b = as_point(b)
    da, _ = dist_point_set(b, A, norm)
    db, _ = dist_point_set(a, B, norm)
    gap = vec_norm(a - b, norm)
    return gap <= da + TIE_TOL or gap <= db + TIE_TOL


def _pair_indices(sets: list[PointSet],
                  norm: str) -> list[tuple[np.ndarray, np.ndarray]]:
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
    _, rows, cols, _ = _nearest_groups(P, link + fwd, sets, norm)
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
                            limit: int = CHAIN_LIMIT) -> np.ndarray:
    """All metric chains (a_0, ..., a_n) of an ordered list of sets, as one
    (chains, n+1, d) array in lexicographic order of the point indices."""
    if len(sets) < 2:
        raise ValueError("need at least two sets")
    links = _pair_indices(sets, norm)
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


def metric_linear_combination(lambdas, sets: list[PointSet],
                              norm: str = "l2") -> PointSet:
    """{sum lambda_i a_i} over all metric chains; order of the sets matters."""
    lambdas = [float(l) for l in lambdas]
    if len(lambdas) != len(sets):
        raise ValueError("weights and sets must have equal length")
    if len(sets) == 1:
        return PointSet.of(lambdas[0] * sets[0].points)
    chains = enumerate_metric_chains(sets, norm)
    return PointSet.of(sum(l * chains[:, i] for i, l in enumerate(lambdas)))


def minkowski_combination(lambdas, sets: list[PointSet]) -> PointSet:
    """All sums over the full Cartesian product: the convexifying baseline."""
    lambdas = [float(l) for l in lambdas]
    if len(lambdas) != len(sets):
        raise ValueError("weights and sets must have equal length")
    count = 1
    for s in sets:
        count *= len(s)
        if count > CHAIN_LIMIT:
            raise ChainExplosion(f"product size exceeds limit {CHAIN_LIMIT}")
    sums = [sum(l * a for l, a in zip(lambdas, combo))
            for combo in itertools.product(*(s.points for s in sets))]
    return PointSet.of(sums)


def metric_average(t: float, A: PointSet, B: PointSet,
                   norm: str = "l2") -> PointSet:
    """{(1-t)a + t b : (a,b) a metric pair of (A, B)} for t in [0,1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return PointSet.of([(1.0 - t) * a + t * b
                        for a, b in metric_pairs(A, B, norm)])


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
