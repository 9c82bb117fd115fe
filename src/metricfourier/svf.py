"""Set-valued functions on an interval: metric chains, metric selections,
variation and local moduli analyzers.

A metric chain is callable as its piecewise-constant extension.  A metric
selection is approximated by one such chain, built greedily by projection
on a fine dyadic partition; `cauchy_defect` records how much the chain
moved in the last refinement step (convergence diagnostic, not a proof).
`_greedy_chains` builds the chains of a whole family together: a chain is
a sequence of point indices, and a greedy step an index map between the
sets of two nodes, computed once for all chains that take it.  A family's
partitions of one depth are one dyadic grid with each seed abscissa
inserted (`Partition.dyadic_seeded`), and the waves of steps that repeat
maps which fixed every index are filled in one block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (DEDUP_TOL, PointSet, _dedup, as_point,
                       enumerate_metric_chains, hausdorff, lex_ranks,
                       project_groups, row_norms, small_sets)

# Seed values must lie in F(x_hat) within this tolerance.
SEED_TOL = 1e-7
# Abscissa tolerances, all absolute (in units of x, not of the domain length).
# A function or chain is evaluated up to X_TOL outside its domain (clamped),
# and a node or jump within X_TOL of x is at x.
X_TOL = 1e-12
# Forced nodes within NODE_TOL of the grid or of a kept forced node are
# dropped; a probe or an `at` point within NODE_TOL of x is x.
NODE_TOL = 1e-13
# A seed abscissa within SEED_NODE_TOL of a partition node is that node.
SEED_NODE_TOL = 1e-9
# Depth of the dyadic probe grid on which selections are compared.
PROBE_DEPTH = 6
# `exhaustive_chain_family` refuses beyond this many chains.
EXHAUSTIVE_LIMIT = 10 ** 5
# `total_variation` stops once two refinements in a row move it by < VTOL.
VTOL = 1e-9
# `one_sided_value` extrapolates from the offsets h and 2h, where
# h = LIMIT_DELTA * 2**-LIMIT_HALVINGS, or less near the ends of [lo, hi].
LIMIT_DELTA = 1e-3
LIMIT_HALVINGS = 20
# Uniform probes on each window of the moduli.
PROBES = 48
# `_greedy_chains` steps its chains in chunks of waves of at most this many
# (wave, half-chain) entries, which bounds its step matrices.
_WAVE_ENTRIES = 1 << 13


class GreedySeedError(ValueError):
    """Seed value does not belong to F at the seed node."""


@dataclass(frozen=True, eq=False)
class Partition:
    """Strictly increasing nodes from a to b.  Equality and hashing are by
    identity; compare `nodes` with `np.array_equal`."""

    nodes: np.ndarray

    @staticmethod
    def of(nodes) -> "Partition":
        arr = np.sort(np.asarray(nodes, dtype=float))
        if arr.size < 2 or np.any(np.diff(arr) <= 0):
            raise ValueError("nodes must be strictly increasing, length >= 2")
        arr.setflags(write=False)
        return Partition(arr)

    @staticmethod
    def uniform(a: float, b: float, cells: int) -> "Partition":
        return Partition.of(np.linspace(a, b, cells + 1))

    @staticmethod
    def dyadic(a: float, b: float, depth: int, forced=()) -> "Partition":
        """The uniform grid of 2**depth cells plus every interior forced
        point farther than NODE_TOL from the grid and from the forced points
        kept before it."""
        grid, _, kept = _dyadic_parts(a, b, depth, forced)
        return Partition.of(np.concatenate([grid, kept]))

    @staticmethod
    def dyadic_seeded(a: float, b: float, depth: int, xs,
                      forced=()) -> list["Partition"]:
        """`Partition.dyadic(a, b, depth, (x,) + tuple(forced))` for each x of
        xs, from one grid: the partition of the forced points alone, with x
        inserted by that rule.  An x it drops (outside (a, b) or within
        NODE_TOL of the grid) gets that partition itself, and so does an x
        that only stands in for a forced point; equal xs share one
        Partition."""
        grid, cand, kept = _dyadic_parts(a, b, depth, forced)
        base = Partition.of(np.concatenate([grid, kept]))
        off = set(_off_grid(grid, a, b, xs).tolist())
        out: dict = {}
        for x in map(float, xs):
            if x in out:
                continue
            if x not in off:
                out[x] = base
            elif all(abs(c - x) > NODE_TOL for c in cand.tolist()):
                i = np.searchsorted(base.nodes, x)
                nodes = np.concatenate([base.nodes[:i], [x], base.nodes[i:]])
                nodes.setflags(write=False)
                out[x] = Partition(nodes)
            else:
                # x is kept and drops a forced point near it, which can
                # let a later forced point back in.
                chi = Partition.dyadic(a, b, depth, (x,) + tuple(forced))
                out[x] = base if np.array_equal(chi.nodes, base.nodes) else chi
        return [out[float(x)] for x in xs]

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    @property
    def norm(self) -> float:
        return float(np.diff(self.nodes).max())

    def __len__(self) -> int:
        return self.nodes.size


def _dyadic_parts(a: float, b: float, depth: int, forced):
    """The grid of `Partition.dyadic`, the forced points inside (a, b)
    farther than NODE_TOL from it, in their order, and those of them it
    keeps: each farther than NODE_TOL from the ones kept before it."""
    grid = np.linspace(a, b, 2 ** depth + 1)
    cand = _off_grid(grid, a, b, forced)
    return grid, cand, cand[_dedup(cand[None, :, None], NODE_TOL)[0]]


def _off_grid(grid: np.ndarray, a: float, b: float, forced) -> np.ndarray:
    """The forced points inside (a, b) farther than NODE_TOL from every
    node of the sorted grid, in their order."""
    xs = np.array([float(x) for x in forced if a < float(x) < b])
    # The grid is sorted, so its nearest node is a searchsorted neighbour.
    i = np.clip(np.searchsorted(grid, xs), 1, grid.size - 1)
    gap = np.minimum(np.abs(xs - grid[i - 1]), np.abs(xs - grid[i]))
    return xs[gap > NODE_TOL]


@dataclass(frozen=True)
class SetValuedFunction:
    """Interval domain plus an evaluator of F on arrays of points.

    `fn` maps a 1-d array of points of [a, b] to the list of their images,
    a PointSet each; a point's image does not depend on the other points
    of the array.  `jump_points` declares discontinuities so partitions
    can be forced through them.  `variation_function` carries the exact
    variation function when a fixture knows it in closed form.
    """

    a: float
    b: float
    fn: object
    jump_points: tuple = ()
    variation_hint: float | None = None
    sup_hint: float | None = None
    variation_function: object | None = None

    def __call__(self, x: float) -> PointSet:
        return self.sample([x])[0]

    def sample(self, xs) -> list[PointSet]:
        """F at each of the points xs: a point farther than X_TOL outside
        [a, b] raises ValueError, the others are clamped to [a, b], then
        `fn` is called once on them all."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1:
            raise ValueError("sample takes a 1-d array of points")
        inside = (xs >= self.a - X_TOL) & (xs <= self.b + X_TOL)
        if not inside.all():
            raise ValueError(f"{xs[~inside][0]} outside domain "
                             f"[{self.a}, {self.b}]")
        return self.fn(np.clip(xs, self.a, self.b))


@dataclass(frozen=True, eq=False)
class MetricChain:
    """Point values over a partition with consecutive metric pairs, and
    their piecewise-constant extension: values[i] on [x_i, x_{i+1}).

    `values` is one read-only (N, d) array, row i the value at node i;
    sequences of points (or of scalars, for d = 1) and writable arrays are
    copied into it, and a read-only float array is kept as it is.
    Equality and hashing are by identity, as for `Partition`.
    """

    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        vals = self.values
        if not (isinstance(vals, np.ndarray) and vals.dtype == float
                and not vals.flags.writeable):
            vals = np.array(vals, dtype=float)
            vals.setflags(write=False)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[1] == 0:
            raise ValueError("chain values must be points of one dimension")
        if vals.shape[0] != len(self.partition):
            raise ValueError(f"{vals.shape[0]} values for "
                             f"{len(self.partition)} partition nodes")
        object.__setattr__(self, "values", vals)

    @property
    def nodes(self) -> np.ndarray:
        return self.partition.nodes

    def __call__(self, x):
        """The value at x, or the (m, d) values at an array of m points."""
        nodes = self.nodes
        x = np.asarray(x, dtype=float)
        if np.any((x < nodes[0] - X_TOL) | (x > nodes[-1] + X_TOL)):
            raise ValueError(f"{x} outside [{nodes[0]}, {nodes[-1]}]")
        i = np.searchsorted(nodes, x, side="right") - 1
        return self.values[np.clip(i, 0, len(nodes) - 1)]

    def integral(self, K) -> np.ndarray:
        """The integral of k times the chain, sum_i (K(x_{i+1}) - K(x_i))
        values[i], for an antiderivative K of k that maps the (N,) nodes to
        (N,) values, giving a (d,) point, or to (N, m) values, giving (m, d).
        The value at the last node holds on a null set: it has no weight."""
        return np.diff(K(self.nodes), axis=0).T @ self.values[:-1]


def greedy_chain(F: SetValuedFunction, chi: Partition, seed,
                 norm: str = "l2") -> MetricChain:
    """Chain through the seed, projecting outward node by node."""
    return _greedy_chains(F, [(chi, seed)], norm)[0]


def _greedy_chains(F: SetValuedFunction, jobs, norm: str = "l2",
                   sets: dict | None = None) -> list[MetricChain]:
    """The greedy chains of many (partition, seed) jobs, built together.

    Every chain keeps its own partition, so each equals the chain built
    alone.  F is evaluated once per node of the union of the partitions.
    The partitions of a family are one dyadic grid plus a seed node each
    (`Partition.dyadic_seeded`), so the union is about one grid.

    After its seed step, a chain's value at a node is a point of F there,
    so a chain is a sequence of point indices and a greedy step is a fixed
    index map from F(t_i) to F(t_j): each point goes to the
    lexicographically smallest of its nearest points, as `project_groups`
    picks it.  Consecutive union nodes share a label when their sets are
    the same object or have bitwise equal points, and a map is keyed by
    its pair of labels, so a run of one set reuses one map (which may move
    a point within a cluster spaced below TIE_TOL: the chain drifts one
    step a node, as when built alone).  The label pairs of all steps are
    numbered by one `np.unique`.  Maps between sets that
    `geometry.small_sets` calls small are filled for every point, all by
    one `project_groups` call.  A map touching a larger set is filled only
    at the indices chains reach, by one call per wave that reaches new
    ones, into a sorted cache; no map of a large set is stored densely.

    The seed values are projected by one `project_groups` call, each
    distinct pair of a seed and the label of its node once.  Then every
    chain steps outward from its seed node, rightward and leftward, one
    wave of steps at a time, each wave a few integer gathers.  Once a wave
    on large maps fixed every index, the waves that repeat its maps (each
    live half-chain on the map it took the wave before) fix them again:
    they are filled in one block, up to the next wave at which some
    half-chain's map changes.  The distinct steps come from the
    partitions, which jobs share, not from the rows.
    """
    if sets is None:
        sets = {}
    # Jobs share partitions (by identity); their nodes are laid end to end
    # in `flat`, partition c from start[c].
    chis = list({id(chi): chi for chi, _ in jobs}.values())
    which = {id(chi): k for k, chi in enumerate(chis)}
    part = np.array([which[id(chi)] for chi, _ in jobs])
    x_hat = np.array([float(seed[0]) for _, seed in jobs])
    seeds = np.array([as_point(seed[1]) for _, seed in jobs])
    size = np.array([len(chi) for chi in chis])
    start = np.cumsum(size) - size
    flat = np.concatenate([chi.nodes for chi in chis])
    union = np.unique(flat)
    new = [x for x in union.tolist() if x not in sets]
    sets.update(zip(new, F.sample(new)))
    images = [sets[x] for x in union.tolist()]
    changed = [A is not B and (len(A) != len(B)
                               or A.points.tobytes() != B.points.tobytes())
               for A, B in zip(images, images[1:])]
    label = np.cumsum([0] + changed)
    limg = [images[i] for i in np.flatnonzero(np.diff(label, prepend=-1))]
    lsize = np.array([len(S) for S in limg])
    small = small_sets(lsize)
    nlab = len(limg)
    pos = np.searchsorted(union, flat)
    lab = label[pos]
    # Each seed's node: the nearest node of its partition is the first at
    # or after it (found by union position, c * |union| + pos rising along
    # flat) or the one before.
    hi = np.searchsorted(np.repeat(np.arange(len(chis)), size) * len(union)
                         + pos, part * len(union)
                         + np.searchsorted(union, x_hat))
    lo = np.maximum(hi - 1, start[part])
    hi = np.minimum(hi, start[part] + size[part] - 1)
    gap_lo, gap_hi = np.abs(flat[lo] - x_hat), np.abs(flat[hi] - x_hat)
    at = np.where(gap_hi < gap_lo, hi, lo)
    if (np.minimum(gap_lo, gap_hi) > SEED_NODE_TOL).any():
        raise ValueError("seed abscissa must be a partition node")
    # Step f of `flat` goes from node f to f + 1 (rightward, pid[f]) or
    # from f + 1 to f (leftward, pid[len(flat) - 1 + f]); a step across two
    # partitions is never taken.  The label pairs (s, t) in use, keyed
    # s * nlab + t, are numbered in key order, by a stable sort
    # (return_index) that merges each partition's rising runs of keys.
    ok = np.ones(len(flat) - 1, dtype=bool)
    ok[start[1:] - 1] = False
    ok = np.concatenate([ok, ok])
    src = np.concatenate([lab[:-1], lab[1:]])[ok]
    dst = np.concatenate([lab[1:], lab[:-1]])[ok]
    pid = np.zeros(ok.size, dtype=np.intp)
    pairs, _, pid[ok] = np.unique(src * nlab + dst, return_index=True,
                                  return_inverse=True)
    src_lab, dst_lab = np.divmod(pairs, nlab)
    # The maps between small sets, from one query of their points, then a
    # sink of zeros, where every other map reads.
    dense = small[src_lab] & small[dst_lab]
    pts = np.concatenate([limg[i].points for i in np.flatnonzero(small)]
                         or [np.empty((0, seeds.shape[1]))])
    loff = np.cumsum(np.where(small, lsize, 0)) - np.where(small, lsize, 0)
    width = np.where(dense, lsize[src_lab], 0)
    moff = np.cumsum(width) - width
    rows = np.repeat(loff[src_lab] - moff, width) + np.arange(width.sum())
    top = int(lsize.max())
    maps = np.concatenate([project_groups(pts[rows], np.repeat(dst_lab, width),
                                          limg, norm)[1],
                           np.zeros(top, dtype=np.intp)])
    moff = np.where(dense, moff, width.sum())
    # A map touching a large set: a sorted cache of its entries (pair p,
    # index k) at key p * top + k, ended by a key above them all.
    # `step_large` takes the keys of a step.
    cache = [np.array([pairs.size * top]), np.array([-1])]

    def step_large(keys):
        ks, vs = cache
        at = np.searchsorted(ks, keys)
        miss = ks[at] != keys
        if miss.any():
            new = np.unique(keys[miss])
            p, k = np.divmod(new, top)
            cut = np.flatnonzero(np.diff(p)) + 1
            P = np.concatenate([limg[src_lab[q[0]]].points[i] for q, i
                                in zip(np.split(p, cut), np.split(k, cut))])
            got = project_groups(P, dst_lab[p], limg, norm)[1]
            where = np.searchsorted(ks, new)
            cache[:] = np.insert(ks, where, new), np.insert(vs, where, got)
            ks, vs = cache
            at = np.searchsorted(ks, keys)
        return vs[at]

    # The seed step, one projection per distinct (label, seed) pair.
    # Output row offsets[j] + i holds job j's node i.
    pairs, inv = np.unique(np.column_stack([lab[at], seeds]), axis=0,
                           return_inverse=True)
    dist, idx0 = project_groups(pairs[:, 1:], pairs[:, 0].astype(np.intp),
                                limg, norm)
    idx0 = idx0[inv.ravel()]
    if dist.max() > SEED_TOL:
        raise GreedySeedError(
            f"seed value is {dist.max():.3g} away from F(x_hat)")
    sizes = size[part]
    offsets = np.cumsum(sizes) - sizes
    i0 = at - start[part]
    idx = np.empty(int(sizes.sum()), dtype=np.intp)
    idx[offsets + i0] = idx0
    # Every chain grows from its seed row as two halves, rightward and
    # leftward, one step per wave, the longest halves first, so the halves
    # still growing at a wave are a prefix.  A wave on large maps only
    # reads the cache for that prefix.  Other waves gather every half: an
    # ended half reads the sink, and so does a large map's entry before
    # the cache replaces it.
    head = np.concatenate([offsets + i0] * 2)
    sign = np.repeat([1, -1], len(jobs))
    base = np.concatenate([at - 1, len(flat) - 1 + at])
    length = np.concatenate([sizes - 1 - i0, i0])
    order = np.argsort(-length, kind="stable")
    head, sign, base, length = (a[order] for a in (head, sign, base, length))
    cur = np.concatenate([idx0, idx0])[order]
    span = max(1, _WAVE_ENTRIES // len(head))
    fixed, last = False, None
    for w0 in range(1, length[0] + 1, span):
        w = np.arange(w0, min(w0 + span, length[0] + 1))[:, None]
        live = w <= length
        p = pid[np.where(live, base + sign * w, 0)]
        off = np.where(live, moff[p], width.sum())
        steps = np.empty(p.shape, dtype=np.intp)
        large = ~dense[p] & live
        pk = p * top
        count, nlarge = live.sum(axis=1), large.sum(axis=1)
        # A wave repeats the one before when every live half takes a large
        # map, the one it took then; the others may change an index.
        before = np.concatenate([pk[:1] if last is None else last, pk[:-1]])
        moved = (count != nlarge) | ((pk != before) & live).any(axis=1)
        change = np.flatnonzero(moved)
        last = pk[-1:]
        count, nlarge = count.tolist(), nlarge.tolist()
        t = 0
        while t < len(w):
            c, k = count[t], nlarge[t]
            if k == c:
                if not fixed or moved[t]:
                    nxt = step_large(pk[t, :c] + cur[:c])
                    fixed = (nxt == cur[:c]).all()
                    cur[:c] = nxt
                steps[t] = cur
                if fixed:
                    # The waves before the next change fix every index again.
                    u = np.searchsorted(change, t, side="right")
                    end = change[u] if u < change.size else len(w)
                    steps[t + 1:end] = cur
                    t = end
                    continue
            else:
                fixed = False
                nxt = maps[off[t] + cur]
                if k:
                    big = large[t]
                    nxt[big] = step_large(pk[t][big] + cur[big])
                cur = steps[t] = nxt
            t += 1
        idx[(head + sign * w)[live]] = steps[live]
    # Values: small sets' from their joined points, a large set's by one
    # gather.  A partition's nodes fall into runs of one label, the same for
    # every job on it; the runs of large sets, ordered by label, times the
    # jobs on their partitions give the rows of each label in one block.
    vals = np.empty((idx.size, seeds.shape[1]))
    if small.any():
        row_lab = np.concatenate([lab[start[c]:start[c] + size[c]]
                                  for c in part.tolist()])
        on = small[row_lab]
        vals[on] = pts[loff[row_lab[on]] + idx[on]]
    if not small.all():
        edge = np.diff(lab, prepend=-1) != 0
        edge[start] = True
        lo = np.flatnonzero(edge)
        hi = np.append(lo[1:], lab.size)
        run = np.flatnonzero(~small[lab[lo]])
        run = run[np.argsort(lab[lo[run]], kind="stable")]
        c = np.searchsorted(start, lo[run], side="right") - 1
        njobs = np.bincount(part, minlength=len(chis))
        nj = njobs[c]
        k = np.arange(nj.sum()) - np.repeat(np.cumsum(nj) - nj, nj)
        job = np.argsort(part, kind="stable")[
            np.repeat(np.cumsum(njobs)[c] - nj, nj) + k]
        r = np.repeat(run, nj)
        width = hi[r] - lo[r]
        first = np.cumsum(width) - width
        rows = (np.repeat(offsets[job] + lo[r] - start[part[job]] - first,
                          width) + np.arange(width.sum()))
        new = np.flatnonzero(np.diff(lab[lo[r]], prepend=-1))
        for l, b in zip(lab[lo[r[new]]].tolist(),
                        np.split(rows, first[new[1:]])):
            vals[b] = limg[l].points[idx[b]]
    # Each chain copies its writable slice, so the block can be freed.
    return [MetricChain(chi, vals[o:o + n])
            for (chi, _), o, n in zip(jobs, offsets, sizes)]


@dataclass(frozen=True, eq=False)
class MetricSelection(MetricChain):
    """The greedy chain of a selection on a fine dyadic partition, with the
    seed it grew from and its convergence diagnostics."""

    seed: tuple
    refinement_depth: int
    cauchy_defect: float
    smooth_fn: object | None = None

    def one_sided_limit(self, x: float, side: str):
        """s(x-0) or s(x+0), extrapolated linearly from the two nearest
        node samples on the requested side (exact for piecewise-linear
        branch motion, which covers all regression fixtures)."""
        nodes, vals = self.nodes, self.values
        if side == "-":
            picks = np.flatnonzero(nodes < x - X_TOL)[-2:]
        elif side == "+":
            picks = np.flatnonzero(nodes > x + X_TOL)[:2]
        else:
            raise ValueError("side must be '-' or '+'")
        if picks.size < 2:
            return vals[picks[0]] if picks.size else self(x)
        i, j = picks
        v_i, v_j = vals[i], vals[j]
        return v_i + (v_j - v_i) * ((x - nodes[i]) / (nodes[j] - nodes[i]))


def approximate_selection(F: SetValuedFunction, seed, depth: int,
                          norm: str = "l2") -> MetricSelection:
    """Greedy chain on the dyadic partition of the given depth; the chain one
    level coarser only feeds `cauchy_defect`.  Both come from one
    `_greedy_chains` sweep."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    xs, jumps = [float(seed[0])], tuple(F.jump_points)
    probe, = Partition.dyadic_seeded(F.a, F.b, min(depth, PROBE_DEPTH), xs,
                                     jumps)
    depths = [depth, depth - 1] if depth > 1 else [depth]
    sets: dict = {}
    chains = _greedy_chains(F, [(Partition.dyadic_seeded(F.a, F.b, k, xs,
                                                         jumps)[0], seed)
                                for k in depths], norm, sets)
    return _selections(F, [seed], depth, chains,
                       _at_nodes(chains, probe.nodes), norm, sets)[0]


def _selections(F: SetValuedFunction, seeds, depth: int, chains, at,
                norm: str, sets: dict, keep=None) -> list[MetricSelection]:
    """The selections of the depth-`depth` chains, the first len(seeds) of
    `chains`, one per seed (those `keep` marks, if given).  `cauchy_defect`
    is a chain's largest move on the probe nodes, where `at` holds each
    chain's values, from the chain one level coarser, its counterpart among
    the rest of `chains` (0 at depth 1).  If
    F is singleton-valued on a chain's nodes (read from the memo `sets`),
    the unique selection x -> the single point of F(x) is kept as its exact
    evaluator: it maps a 1-d array of m points to their (m, d) values, and
    raises ValueError where F(x) is not a singleton.  The singleton test
    is taken once per partition."""

    def smooth(xs):
        rows = np.concatenate([S.points for S in F.sample(xs)])
        if len(rows) != len(xs):
            raise ValueError("set is not a singleton")
        return rows

    single: dict = {}
    out = []
    for i, (seed, last) in enumerate(zip(seeds, chains)):
        if keep is not None and not keep[i]:
            continue
        defect = 0.0
        if len(chains) > len(seeds):
            defect = float(row_norms(at[i] - at[len(seeds) + i], norm).max())
        chi = last.partition
        if id(chi) not in single:
            single[id(chi)] = all(len(sets[x]) == 1 for x in chi.nodes.tolist())
        out.append(MetricSelection(
            chi, last.values, (float(seed[0]), as_point(seed[1])), depth,
            defect, smooth if single[id(chi)] else None))
    return out


def _at_nodes(chains, nodes: np.ndarray) -> list[np.ndarray]:
    """Each chain's values at the nodes, as calling it gives them (nodes
    within its domain), with the rows found once per partition."""
    rows: dict = {}
    out = []
    for c in chains:
        r = rows.get(id(c.partition))
        if r is None:
            r = rows[id(c.partition)] = np.clip(
                np.searchsorted(c.nodes, nodes, side="right") - 1, 0,
                len(c.nodes) - 1)
        out.append(c.values[r])
    return out


def selection_family(F: SetValuedFunction, x_seeds: int, y_seeds: int | str,
                     depth: int, norm: str = "l2") -> tuple:
    """Selections seeded on a uniform x-grid (plus jumps) crossed with up to
    y_seeds points of each F(x_hat), or every point if y_seeds is "all",
    deduplicated on a probe grid: the stand-in for all metric selections.

    The seed values are evenly spaced ranks of the lexicographic order of
    F(x_hat), picked by `geometry.lex_ranks` once per distinct set.  The
    partitions of each depth are one dyadic grid with each abscissa
    inserted (`Partition.dyadic_seeded`), shared by the seeds at it, and
    the depth-`depth` and depth-`depth - 1` chains of all seeds are built
    together by one `_greedy_chains` sweep."""
    return _families(F, x_seeds, y_seeds, [depth], norm)[0]


def _families(F: SetValuedFunction, x_seeds: int, y_seeds: int | str,
              depths, norm: str = "l2") -> list[tuple]:
    """`selection_family` of F at each of the depths, from one
    `_greedy_chains` sweep over the chains of every depth and of the depth
    one coarser, each (depth, seed) chain built once."""
    every = y_seeds == "all"
    if x_seeds < 1 or not every and y_seeds < 1:
        raise ValueError("seed counts must be positive")
    xs = sorted(set(np.linspace(F.a, F.b, x_seeds)) | {float(j) for j in F.jump_points})
    jumps = tuple(F.jump_points)
    probe = Partition.dyadic(F.a, F.b, PROBE_DEPTH, jumps)
    # The seed picks read F(x_hat) through the engine's node memo.
    sets = dict(zip(xs, F.sample(xs)))
    picks: dict = {}
    seeds = []
    for x_hat in xs:
        S = sets[x_hat]
        if id(S) not in picks:
            m = len(S)
            ranks = (np.arange(m) if every or m <= y_seeds else
                     np.linspace(0, m - 1, y_seeds).round().astype(int))
            picks[id(S)] = S.points[lex_ranks(S.points, ranks)]
        seeds += [(x_hat, y_hat) for y_hat in picks[id(S)]]
    levels = {depth: [depth, depth - 1] if depth > 1 else [depth]
              for depth in depths}
    # Each depth's chains, then those one coarser; a depth shared with
    # another family is built once.
    grids = {k: dict(zip(xs, Partition.dyadic_seeded(F.a, F.b, k, xs, jumps)))
             for k in dict.fromkeys(k for ks in levels.values() for k in ks)}
    chains = _greedy_chains(F, [(grids[k][seed[0]], seed)
                                for k in grids for seed in seeds],
                            norm, sets=sets)
    first = {k: i * len(seeds) for i, k in enumerate(grids)}
    out = []
    for depth in depths:
        mine = [c for k in levels[depth]
                for c in chains[first[k]:first[k] + len(seeds)]]
        # Keep-first dedup of the selections' signatures on the probe grid.
        at = _at_nodes(mine, probe.nodes)
        kept = _dedup(np.stack([v.ravel() for v in at[:len(seeds)]])[None],
                      DEDUP_TOL)[0]
        out.append(tuple(_selections(F, seeds, depth, mine, at, norm, sets,
                                     kept)))
    return out


def exhaustive_chain_family(F: SetValuedFunction, chi: Partition,
                            norm: str = "l2") -> tuple:
    """Every metric chain over F sampled at the partition nodes, as a family.

    For piecewise-constant F whose pieces are resolved by `chi` this is the
    complete set of selections; seed-grid greedy chaining cannot reach chains
    that mix projection directions, so oracle-equivalence tests use this.
    """
    chains = enumerate_metric_chains(F.sample(chi.nodes), norm,
                                     EXHAUSTIVE_LIMIT)
    return tuple(MetricSelection(chi, ch, (chi.a, ch[0]), 0, 0.0)
                 for ch in chains)


# ---------------------------------------------------------------------------
# Variation and moduli analyzers.  The argument g may be a callable returning
# a PointSet (an SVF), a vector, or a scalar.  `_values` samples it and
# `_rhos` measures the samples, so every analyzer takes one distance path.

def _values(g, xs):
    """g at each x: a list of PointSets, or an (m, d) array of points
    (scalars become 1-d points, also among 1-d vectors).  Non-finite or
    ragged samples raise ValueError."""
    if isinstance(g, SetValuedFunction):
        return g.sample(xs)
    vals = [g(x) for x in xs]
    if isinstance(vals[0], PointSet):
        return vals
    try:
        arr = np.array(vals, dtype=float)
    except ValueError:      # mixed scalars and vectors, or ragged vectors
        arr = np.array([as_point(v) for v in vals])
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError("samples must be scalars or points of one dimension")
    if not np.isfinite(arr).all():
        raise ValueError("sample has non-finite coordinates")
    return arr


def _rhos(vals, refs, norm: str) -> np.ndarray:
    """rho(v, r) for each of the `_values` v and its reference r, where
    `refs` pairs with `vals` or is one value of their kind shared by all:
    one `row_norms` call for points, one `hausdorff` per value for sets."""
    if isinstance(refs, PointSet):
        refs = [refs] * len(vals)
    if isinstance(vals, list):
        return np.array([hausdorff(v, r, norm) for v, r in zip(vals, refs)])
    return row_norms(vals - refs, norm)


def _running_variation(g, chi: Partition, norm: str) -> np.ndarray:
    """v_g at the nodes: the steps rho(g(x_{i-1}), g(x_i)) summed left to
    right."""
    vals = _values(g, chi.nodes)
    return np.cumsum(np.concatenate([[0.0], _rhos(vals[1:], vals[:-1], norm)]))


def variation_on_partition(g, chi: Partition, norm: str = "l2") -> float:
    """V(g, chi) = sum of rho(g(x_i), g(x_{i-1}))."""
    return float(_running_variation(g, chi, norm)[-1])


def total_variation(g, a: float | None = None, b: float | None = None,
                    depth: int = 12, forced=(),
                    norm: str = "l2") -> tuple[float, bool]:
    """Variation on refining dyadic partitions; a lower bound in general,
    exact once the refinement stabilizes (piecewise-monotone fixtures)."""
    if isinstance(g, MetricChain):
        # Exact for piecewise-constant data: jumps happen at the nodes.
        vals = g.values
        return float(_rhos(vals[1:], vals[:-1], norm).sum()), True
    if isinstance(g, SetValuedFunction):
        a = g.a if a is None else a
        b = g.b if b is None else b
        forced = tuple(forced) + tuple(g.jump_points)
    if a is None or b is None:
        raise ValueError("domain endpoints required for plain callables")
    history: list[float] = []
    for k in range(2, depth + 1):
        chi = Partition.dyadic(a, b, k, forced)
        v = variation_on_partition(g, chi, norm)
        history.append(v)
        # Two successive agreements guard against single-level plateaus.
        if len(history) >= 3 and abs(history[-1] - history[-2]) < VTOL \
                and abs(history[-2] - history[-3]) < VTOL:
            return v, True
    return history[-1], False


def one_sided_value(g, x: float, side: str, lo: float | None = None,
                    hi: float | None = None):
    """g(x-0) or g(x+0): the linear (Richardson) extrapolation of g at the
    offsets 2h and h; exact for locally linear g.  Sets extrapolate row by
    row when both samples have as many rows, else give the sample at h."""
    sgn = -1.0 if side == "-" else 1.0
    delta = LIMIT_DELTA
    if lo is not None and hi is not None:
        room = (x - lo) if side == "-" else (hi - x)
        if room <= 0:
            raise ValueError("no room on the requested side")
        delta = min(delta, room / 2.0)
    h = sgn * delta * 2.0 ** -LIMIT_HALVINGS
    v_prev, v_last = _values(g, [x + 2.0 * h, x + h])
    if not isinstance(v_last, PointSet):
        return 2.0 * v_last - v_prev
    if len(v_last) != len(v_prev):
        return v_last
    return PointSet.of(2.0 * v_last.points - v_prev.points)


@dataclass(frozen=True)
class LocalModuli:
    two_sided: float
    left: float
    right: float
    left_quasi: float
    right_quasi: float


def _probes(x_star: float, u, v) -> np.ndarray:
    """One row of probes per window [u_i, v_i]: PROBES uniform probes, and
    probes clustered geometrically near x* so that one-sided behaviour is
    resolved, clipped to the window (unsorted, with repeats)."""
    u, v = np.atleast_1d(u), np.atleast_1d(v)
    geo = 2.0 ** -np.arange(1, 12)
    rows = np.concatenate([np.linspace(u, v, PROBES, axis=1),
                           x_star - np.multiply.outer(x_star - u, geo),
                           x_star + np.multiply.outer(v - x_star, geo)], axis=1)
    return np.clip(rows, u[:, None], v[:, None])


def _probe_grid(x_star: float, u: float, v: float) -> np.ndarray:
    """The sorted probes of the window [u, v]."""
    return np.unique(_probes(x_star, u, v))


def one_sided_moduli(g, x_star: float, delta, lo: float, hi: float,
                     side: str, norm: str = "l2"):
    """(plain, quasi) modulus of g at x* on one side ('-' or '+'): two
    floats for one delta, two arrays for an array of deltas.

    plain: sup rho(g(x), g(x*)) over [x*-delta, x*] or [x*, x*+delta];
    quasi: sup rho(g(x*-0), g(x)) or rho(g(x*+0), g(x)) over the same
    probes without x*.  Both are 0 when x* sits at that end of [lo, hi].
    g is sampled once on the union of every delta's probes, and g(x*) and
    the one-sided limit are taken once.
    """
    deltas = np.atleast_1d(np.asarray(delta, dtype=float))
    if (deltas <= 0).any():
        raise ValueError("delta must be positive")
    if side not in ("-", "+"):
        raise ValueError("side must be '-' or '+'")
    plain, quasi = np.zeros((2, deltas.size))
    if x_star > lo if side == "-" else x_star < hi:
        ends = np.full(deltas.size, x_star)
        if side == "-":
            probes = _probes(x_star, np.maximum(lo, x_star - deltas), ends)
        else:
            probes = _probes(x_star, ends, np.minimum(hi, x_star + deltas))
        xs = np.unique(probes)
        # xs is sorted, so the probes off x* form a prefix ('-') or a
        # suffix ('+').
        if side == "-":
            inner = slice(None, np.searchsorted(xs, x_star - NODE_TOL))
        else:
            inner = slice(np.searchsorted(xs, x_star + NODE_TOL, "right"),
                          None)
        vals = _values(g, xs)
        to_x = _rhos(vals, _values(g, [x_star])[0], norm)
        to_limit = np.zeros(xs.size)
        to_limit[inner] = _rhos(vals[inner], one_sided_value(
            g, x_star, side, lo=lo, hi=hi), norm)
        at = np.searchsorted(xs, probes)
        plain, quasi = to_x[at].max(axis=1), to_limit[at].max(axis=1)
    if np.ndim(delta) == 0:
        return float(plain[0]), float(quasi[0])
    return plain, quasi


def local_moduli(g, x_star: float, delta: float, lo: float, hi: float,
                 norm: str = "l2") -> LocalModuli:
    """Suprema of the defining expressions over probe grids.

    left/right and their quasi variants come from `one_sided_moduli`;
    two_sided is sup rho(g(x), g(x')) over the window [x*-delta/2, x*+delta/2].
    """
    left, left_quasi = one_sided_moduli(g, x_star, delta, lo, hi, "-", norm)
    right, right_quasi = one_sided_moduli(g, x_star, delta, lo, hi, "+", norm)
    window = _probe_grid(x_star, max(lo, x_star - delta / 2.0),
                         min(hi, x_star + delta / 2.0))
    w_vals = _values(g, window)
    two_sided = max((float(_rhos(w_vals[i + 1:], w_vals[i], norm).max())
                     for i in range(len(window) - 1)), default=0.0)
    return LocalModuli(two_sided, left, right, left_quasi, right_quasi)


def variation_function_samples(g, chi: Partition, norm: str = "l2"):
    """Cumulative variation along the partition: [(x_i, v_g(x_i))]."""
    return [(float(x), float(v))
            for x, v in zip(chi.nodes, _running_variation(g, chi, norm))]
