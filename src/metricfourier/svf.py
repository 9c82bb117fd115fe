"""Set-valued functions on an interval: metric chains, metric selections,
variation and local moduli analyzers.

A metric chain is callable as its piecewise-constant extension.  A metric
selection is approximated by one such chain, built greedily by projection
on a fine dyadic partition; `cauchy_defect` records how much the chain
moved in the last refinement step (convergence diagnostic, not a proof).
`_greedy_chains` builds the chains of a whole family together: a chain is
a sequence of point indices, and a greedy step an index map between the
sets of two nodes, computed once for all chains that take it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (DEDUP_TOL, TIE_TOL, PointSet, _dedup, as_point,
                       enumerate_metric_chains, hausdorff, project_groups,
                       row_norms, small_sets)

# Seed values must lie in F(x_hat) within this tolerance.
SEED_TOL = 1e-7
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
        point farther than 1e-13 from the grid and from the forced points
        kept before it."""
        grid = np.linspace(a, b, 2 ** depth + 1)
        xs = np.array([float(x) for x in forced if a < float(x) < b])
        # The grid is sorted, so its nearest node is a searchsorted neighbour.
        i = np.clip(np.searchsorted(grid, xs), 1, grid.size - 1)
        far = np.minimum(np.abs(xs - grid[i - 1]), np.abs(xs - grid[i])) > 1e-13
        kept = []
        for x in xs[far]:
            if all(abs(x - y) > 1e-13 for y in kept):
                kept.append(x)
        return Partition.of(np.concatenate([grid, kept]))

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


@dataclass(frozen=True)
class SetValuedFunction:
    """Interval domain plus an evaluator x -> PointSet.

    `jump_points` declares discontinuities so partitions can be forced
    through them.  `variation_function` carries the exact variation
    function when a fixture knows it in closed form.
    """

    a: float
    b: float
    fn: object
    jump_points: tuple = ()
    variation_hint: float | None = None
    sup_hint: float | None = None
    variation_function: object | None = None

    def __call__(self, x: float) -> PointSet:
        if not (self.a - 1e-12 <= x <= self.b + 1e-12):
            raise ValueError(f"{x} outside domain [{self.a}, {self.b}]")
        return self.fn(min(max(x, self.a), self.b))


@dataclass(frozen=True, eq=False)
class MetricChain:
    """Point values over a partition with consecutive metric pairs, and
    their piecewise-constant extension: values[i] on [x_i, x_{i+1}).

    `values` is one read-only (N, d) array, row i the value at node i;
    sequences of points (or of scalars, for d = 1) are copied into it.
    Equality and hashing are by identity, as for `Partition`.
    """

    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[1] == 0:
            raise ValueError("chain values must be points of one dimension")
        if vals.shape[0] != len(self.partition):
            raise ValueError(f"{vals.shape[0]} values for "
                             f"{len(self.partition)} partition nodes")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def nodes(self) -> np.ndarray:
        return self.partition.nodes

    def __call__(self, x):
        """The value at x, or the (m, d) values at an array of m points."""
        nodes = self.nodes
        x = np.asarray(x, dtype=float)
        if np.any((x < nodes[0] - 1e-12) | (x > nodes[-1] + 1e-12)):
            raise ValueError(f"{x} outside [{nodes[0]}, {nodes[-1]}]")
        i = np.searchsorted(nodes, x, side="right") - 1
        return self.values[np.clip(i, 0, len(nodes) - 1)]


def greedy_chain(F: SetValuedFunction, chi: Partition, seed,
                 norm: str = "l2", tie_tol: float = TIE_TOL,
                 sets: dict | None = None) -> MetricChain:
    """Chain through the seed, projecting outward node by node.

    `sets` memoizes F at the nodes (node -> F(node)); calls that share it
    evaluate F once per node."""
    return _greedy_chains(F, [(chi, seed)], norm, tie_tol, sets)[0]


def _greedy_chains(F: SetValuedFunction, jobs, norm: str = "l2",
                   tie_tol: float = TIE_TOL,
                   sets: dict | None = None) -> list[MetricChain]:
    """The greedy chains of many (partition, seed) jobs, built together.

    Every chain keeps its own partition, so each equals the chain built
    alone.  F is evaluated once per node of the union of the partitions.

    After its seed step, a chain's value at a node is a point of F there,
    so a chain is a sequence of point indices and a greedy step is a fixed
    index map from F(t_i) to F(t_j): each point goes to the
    lexicographically smallest of its nearest points, as `project_rows`
    picks it.  Consecutive union nodes share a label when their sets are
    the same object or have bitwise equal points, and a map is keyed by
    its pair of labels, so a run of one set reuses one map (which may move
    a point within a cluster spaced below tie_tol: the chain drifts one
    step a node, as when built alone).  Maps between sets that
    `geometry.small_sets` calls small are filled for every point, all by
    one `project_groups` call.  A map touching a larger set is filled only at
    the indices chains reach, by one call per wave that reaches new ones,
    into a sorted cache; no map of a large set is stored densely.

    The seed values are projected by one `project_groups` call.  Then every
    chain steps outward from its seed node, rightward and leftward, one
    wave of steps at a time, each wave a few integer gathers; a wave that
    repeats the large maps of the wave before, which fixed every index, is
    skipped.  The distinct steps come from the partitions, which jobs
    share, not from the rows.
    """
    if sets is None:
        sets = {}
    # Jobs share partitions (by identity): labels and steps are per partition.
    chis = list({id(chi): chi for chi, _ in jobs}.values())
    which = {id(chi): k for k, chi in enumerate(chis)}
    part = np.array([which[id(chi)] for chi, _ in jobs])
    seeds = np.array([as_point(seed[1]) for _, seed in jobs])
    sizes = np.array([len(chi) for chi, _ in jobs])
    offsets = np.cumsum(sizes) - sizes
    i0 = np.empty(len(jobs), dtype=np.intp)
    for k, (chi, seed) in enumerate(jobs):
        i0[k] = np.argmin(np.abs(chi.nodes - float(seed[0])))
        if abs(chi.nodes[i0[k]] - float(seed[0])) > 1e-9:
            raise ValueError("seed abscissa must be a partition node")
    union = np.unique(np.concatenate([chi.nodes for chi in chis]))
    for x in union:
        if x not in sets:
            sets[x] = F(x)
    images = [sets[x] for x in union]
    changed = [A is not B and (len(A) != len(B)
                               or A.points.tobytes() != B.points.tobytes())
               for A, B in zip(images, images[1:])]
    label = np.cumsum([0] + changed)
    limg = [images[i] for i in np.flatnonzero(np.diff(label, prepend=-1))]
    lsize = np.array([len(S) for S in limg])
    small = small_sets(lsize)
    labs = [label[np.searchsorted(union, chi.nodes)] for chi in chis]
    # The steps of each partition into nodes 1..n-1 (rightward), then into
    # nodes 0..n-2 (leftward), as label pairs; a map per distinct pair.
    keys = np.concatenate([np.concatenate([a[:-1] * len(limg) + a[1:],
                                           a[1:] * len(limg) + a[:-1]])
                           for a in labs])
    pairs, pid = np.unique(keys, return_inverse=True)
    src_lab, dst_lab = np.divmod(pairs, len(limg))
    rofs = np.cumsum([0] + [2 * (len(a) - 1) for a in labs])[:-1]
    lofs = rofs + np.array([len(a) - 1 for a in labs])
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
                                          limg, norm, tie_tol)[1],
                           np.zeros(top, dtype=np.intp)])
    moff = np.where(dense, moff, width.sum())
    # A map touching a large set: a sorted cache of its entries (pair p,
    # index k) at key p * top + k, ended by a key above them all.
    # `step_large` takes the keys of a step.
    cache = [np.array([len(pairs) * top]), np.array([-1])]

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
            got = project_groups(P, dst_lab[p], limg, norm, tie_tol)[1]
            where = np.searchsorted(ks, new)
            cache[:] = np.insert(ks, where, new), np.insert(vs, where, got)
            ks, vs = cache
            at = np.searchsorted(ks, keys)
        return vs[at]

    # The seed step.
    seed_lab = np.array([labs[p][i] for p, i in zip(part, i0)])
    dist, idx0 = project_groups(seeds, seed_lab, limg, norm, tie_tol)
    if dist.max() > SEED_TOL:
        raise GreedySeedError(
            f"seed value is {dist.max():.3g} away from F(x_hat)")
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
    base = np.concatenate([rofs[part] + i0 - 1, lofs[part] + i0])
    length = np.concatenate([sizes - 1 - i0, i0])
    order = np.argsort(-length, kind="stable")
    head, sign, base, length = (a[order] for a in (head, sign, base, length))
    cur = np.concatenate([idx0, idx0])[order]
    span = max(1, _WAVE_ENTRIES // len(head))
    for w0 in range(1, length[0] + 1, span):
        w = np.arange(w0, min(w0 + span, length[0] + 1))[:, None]
        live = w <= length
        p = pid[np.where(live, base + sign * w, 0)]
        off = np.where(live, moff[p], width.sum())
        steps = np.empty(p.shape, dtype=np.intp)
        large = ~dense[p] & live
        pk = p * top
        fixed = False
        for t, (c, k) in enumerate(zip(live.sum(axis=1).tolist(),
                                       large.sum(axis=1).tolist())):
            if k == c:
                # A wave on the maps of the wave before, which fixed every
                # index, fixes them again (a run of one large set).
                if not (fixed and (pk[t, :c] == pk[t - 1, :c]).all()):
                    nxt = step_large(pk[t, :c] + cur[:c])
                    fixed = (nxt == cur[:c]).all()
                    cur[:c] = nxt
                steps[t] = cur
                continue
            fixed = False
            nxt = maps[off[t] + cur]
            if k:
                big = large[t]
                nxt[big] = step_large(pk[t][big] + cur[big])
            cur = steps[t] = nxt
        idx[(head + sign * w)[live]] = steps[live]
    # Values: small sets' from their joined points.  A large set's nodes
    # form one run in each partition, the same for every job on it, so its
    # rows are gathered run by run.
    lab = np.concatenate([labs[p] for p in part])
    on = small[lab]
    vals = np.empty((len(idx), seeds.shape[1]))
    vals[on] = pts[loff[lab[on]] + idx[on]]
    if not on.all():
        a = np.concatenate(labs)
        first = np.cumsum([0] + [len(x) for x in labs])
        edge = np.diff(a, prepend=-1) != 0
        edge[first[:-1]] = True
        edge = np.append(np.flatnonzero(edge), a.size)
        big = ~small[a[edge[:-1]]]
        lo, hi = edge[:-1][big], edge[1:][big]
        j = np.searchsorted(first, lo, side="right") - 1
        by = np.argsort(part, kind="stable")
        heads = np.split(offsets[by][:, None],
                         np.cumsum(np.bincount(part, minlength=len(chis)))[:-1])
        for l, h, j in zip(lo.tolist(), hi.tolist(), j.tolist()):
            b = heads[j] + np.arange(l - first[j], h - first[j])
            vals[b] = limg[a[l]].points[idx[b]]
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
            picks = np.flatnonzero(nodes < x - 1e-12)[-2:]
        elif side == "+":
            picks = np.flatnonzero(nodes > x + 1e-12)[:2]
        else:
            raise ValueError("side must be '-' or '+'")
        if picks.size < 2:
            return vals[picks[0]] if picks.size else self(x)
        i, j = picks
        v_i, v_j = vals[i], vals[j]
        return v_i + (v_j - v_i) * ((x - nodes[i]) / (nodes[j] - nodes[i]))


def approximate_selection(F: SetValuedFunction, seed, depth: int,
                          probe: Partition | None = None,
                          norm: str = "l2") -> MetricSelection:
    """Greedy chain on the dyadic partition of the given depth; the chain one
    level coarser only feeds `cauchy_defect`."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    forced = (float(seed[0]),) + tuple(F.jump_points)
    if probe is None:
        probe = Partition.dyadic(F.a, F.b, min(depth, 6), forced)
    sets: dict = {}
    last = greedy_chain(F, Partition.dyadic(F.a, F.b, depth, forced), seed,
                        norm, sets=sets)
    prev = None
    if depth > 1:
        prev = greedy_chain(F, Partition.dyadic(F.a, F.b, depth - 1, forced),
                            seed, norm, sets=sets)
    return _selection(F, seed, depth, last, prev, probe, norm, sets)


def _selection(F: SetValuedFunction, seed, depth: int, last: MetricChain,
               prev: MetricChain | None, probe: Partition, norm: str,
               sets: dict) -> MetricSelection:
    """The selection of the depth-`depth` chain `last`.  `cauchy_defect` is
    its largest move on the probe nodes from `prev`, the chain one level
    coarser (0 at depth 1).  If F is singleton-valued on the nodes of `last`
    (read from the memo `sets`), its unique selection x -> the single point
    of F(x) is kept as the exact evaluator."""
    defect = 0.0
    if prev is not None:
        defect = float(row_norms(last(probe.nodes) - prev(probe.nodes),
                                 norm).max())
    smooth = None
    if all(len(sets[x]) == 1 for x in last.nodes):
        smooth = lambda x: F(x).single()
    return MetricSelection(last.partition, last.values,
                           (float(seed[0]), as_point(seed[1])), depth, defect,
                           smooth)


@dataclass(frozen=True)
class SelectionFamily:
    """Computational stand-in for the family of all metric selections."""

    selections: tuple

    def __len__(self) -> int:
        return len(self.selections)


def selection_family(F: SetValuedFunction, x_seeds: int, y_seeds: int | str,
                     depth: int, norm: str = "l2",
                     probe: Partition | None = None) -> SelectionFamily:
    """Selections seeded on a uniform x-grid (plus jumps) crossed with up to
    y_seeds points of each F(x_hat), or every point if y_seeds is "all",
    deduplicated on a probe grid.

    The depth-`depth` and depth-`depth - 1` chains of all seeds are built
    together by one `_greedy_chains` sweep."""
    every = y_seeds == "all"
    if x_seeds < 1 or not every and y_seeds < 1:
        raise ValueError("seed counts must be positive")
    xs = sorted(set(np.linspace(F.a, F.b, x_seeds)) | {float(j) for j in F.jump_points})
    if probe is None:
        probe = Partition.dyadic(F.a, F.b, 6, tuple(F.jump_points))
    # The seed picks read F(x_hat) through the engine's node memo, and take
    # evenly spaced ranks of its cached lexicographic order.
    sets: dict = {}
    seeds = []
    for x_hat in xs:
        S = sets[x_hat] = F(x_hat)
        picks = S.lex_order
        if not every and len(S) > y_seeds:
            picks = picks[np.linspace(0, len(S) - 1, y_seeds).round().astype(int)]
        seeds += [(x_hat, y_hat) for y_hat in S.points[picks]]
    depths = [depth, depth - 1] if depth > 1 else [depth]
    grids = {(x_hat, k): Partition.dyadic(F.a, F.b, k,
                                          (float(x_hat),) + tuple(F.jump_points))
             for x_hat in xs for k in depths}
    chains = _greedy_chains(F, [(grids[seed[0], k], seed)
                                for k in depths for seed in seeds],
                            norm, sets=sets)
    prevs = chains[len(seeds):] or [None] * len(seeds)
    # Keep-first dedup of the selections' signatures on the probe grid.
    sigs = np.stack([last(probe.nodes).ravel()
                     for last in chains[:len(seeds)]])
    kept = _dedup(sigs, DEDUP_TOL)
    selections = [_selection(F, seed, depth, last, prev, probe, norm, sets)
                  for seed, last, prev, keep in zip(seeds, chains, prevs, kept)
                  if keep]
    return SelectionFamily(tuple(selections))


def exhaustive_chain_family(F: SetValuedFunction, chi: Partition,
                            norm: str = "l2", limit: int = 10 ** 5) -> SelectionFamily:
    """Every metric chain over F sampled at the partition nodes, as a family.

    For piecewise-constant F whose pieces are resolved by `chi` this is the
    complete set of selections; seed-grid greedy chaining cannot reach chains
    that mix projection directions, so oracle-equivalence tests use this.
    """
    sets = [F(x) for x in chi.nodes]
    chains = enumerate_metric_chains(sets, norm=norm, limit=limit)
    return SelectionFamily(tuple(
        MetricSelection(chi, ch, (chi.a, ch[0]), 0, 0.0) for ch in chains))


# ---------------------------------------------------------------------------
# Variation and moduli analyzers.  The argument g may be a callable returning
# a PointSet (an SVF), a vector, or a scalar.  `_values` samples it and
# `_rhos` measures the samples, so every analyzer takes one distance path.

def _values(g, xs):
    """g at each x: a list of PointSets, or an (m, d) array of points
    (scalars become 1-d points, also among 1-d vectors).  Non-finite or
    ragged samples raise ValueError."""
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
                    depth: int = 12, vtol: float = 1e-9, forced=(),
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
        if len(history) >= 3 and abs(history[-1] - history[-2]) < vtol \
                and abs(history[-2] - history[-3]) < vtol:
            return v, True
    return history[-1], False


def one_sided_value(g, x: float, side: str, delta: float = 1e-3,
                    lo: float | None = None, hi: float | None = None,
                    probes: int = 20):
    """g(x-0) or g(x+0): the linear (Richardson) extrapolation of g at the
    offsets 2h and h, h = delta*2^-probes; exact for locally linear
    scalar/vector g.  A set-valued g gives its value at offset h."""
    sgn = -1.0 if side == "-" else 1.0
    if lo is not None and hi is not None:
        room = (x - lo) if side == "-" else (hi - x)
        if room <= 0:
            raise ValueError("no room on the requested side")
        delta = min(delta, room / 2.0)
    h = sgn * delta * 2.0 ** -probes
    v_prev, v_last = _values(g, [x + 2.0 * h, x + h])
    if isinstance(v_last, PointSet):
        return v_last
    return 2.0 * v_last - v_prev


@dataclass(frozen=True)
class LocalModuli:
    two_sided: float
    left: float
    right: float
    left_quasi: float
    right_quasi: float


def _probe_grid(x_star: float, u: float, v: float, probes: int) -> np.ndarray:
    """Uniform probes on [u, v], clustered geometrically near x* so that
    one-sided behaviour is resolved."""
    lin = np.linspace(u, v, probes)
    geo_l = x_star - (x_star - u) * 2.0 ** -np.arange(1, 12)
    geo_r = x_star + (v - x_star) * 2.0 ** -np.arange(1, 12)
    return np.unique(np.clip(np.concatenate([lin, geo_l, geo_r]), u, v))


def one_sided_moduli(g, x_star: float, delta: float, lo: float, hi: float,
                     side: str, probes: int = 48,
                     norm: str = "l2") -> tuple[float, float]:
    """(plain, quasi) modulus of g at x* on one side ('-' or '+').

    plain: sup rho(g(x), g(x*)) over [x*-delta, x*] or [x*, x*+delta];
    quasi: sup rho(g(x*-0), g(x)) or rho(g(x*+0), g(x)) over the same
    probes without x*.  Both are 0 when x* sits at that end of [lo, hi].
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    # The probes are sorted, so those off x* form a prefix ('-') or a
    # suffix ('+').
    if side == "-":
        if x_star <= lo:
            return 0.0, 0.0
        xs = _probe_grid(x_star, max(lo, x_star - delta), x_star, probes)
        inner = slice(None, np.searchsorted(xs, x_star - 1e-13))
    elif side == "+":
        if x_star >= hi:
            return 0.0, 0.0
        xs = _probe_grid(x_star, x_star, min(hi, x_star + delta), probes)
        inner = slice(np.searchsorted(xs, x_star + 1e-13, side="right"), None)
    else:
        raise ValueError("side must be '-' or '+'")
    vals = _values(g, xs)
    plain = _rhos(vals, _values(g, [x_star])[0], norm).max(initial=0.0)
    g_lim = one_sided_value(g, x_star, side, lo=lo, hi=hi)
    quasi = _rhos(vals[inner], g_lim, norm).max(initial=0.0)
    return float(plain), float(quasi)


def local_moduli(g, x_star: float, delta: float, lo: float, hi: float,
                 probes: int = 48, norm: str = "l2") -> LocalModuli:
    """Suprema of the defining expressions over probe grids.

    left/right and their quasi variants come from `one_sided_moduli`;
    two_sided is sup rho(g(x), g(x')) over the window [x*-delta/2, x*+delta/2].
    """
    left, left_quasi = one_sided_moduli(g, x_star, delta, lo, hi, "-",
                                        probes, norm)
    right, right_quasi = one_sided_moduli(g, x_star, delta, lo, hi, "+",
                                          probes, norm)
    window = _probe_grid(x_star, max(lo, x_star - delta / 2.0),
                         min(hi, x_star + delta / 2.0), probes)
    w_vals = _values(g, window)
    two_sided = max((float(_rhos(w_vals[i + 1:], w_vals[i], norm).max())
                     for i in range(len(window) - 1)), default=0.0)
    return LocalModuli(two_sided, left, right, left_quasi, right_quasi)


def variation_function_samples(g, chi: Partition, norm: str = "l2"):
    """Cumulative variation along the partition: [(x_i, v_g(x_i))]."""
    return [(float(x), float(v))
            for x, v in zip(chi.nodes, _running_variation(g, chi, norm))]
