"""Set-valued functions on an interval: metric chains, metric selections,
variation and local moduli analyzers.

A metric chain is callable as its piecewise-constant extension.  A metric
selection is approximated by one such chain, built greedily by projection
on a fine dyadic partition; `cauchy_defect` records how much the chain
moved in the last refinement step (convergence diagnostic, not a proof).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (DEDUP_TOL, TIE_TOL, PointSet, _dedup, as_point,
                       enumerate_metric_chains, hausdorff, project_rows,
                       row_norms)

# Seed values must lie in F(x_hat) within this tolerance.
SEED_TOL = 1e-7


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
    The union nodes are swept rightward, then leftward; at each node every
    chain that steps onto it moves in one batched `project_rows` query of
    the chains' current values, the seed steps joining the rightward sweep.

    F's image is often one set on long runs of nodes.  Consecutive union
    nodes share a label when their sets are the same object or have equal
    points, and a step between two nodes of one label is a run row.  A run
    row copies its root, the nearest row toward the seed that is not a run
    row, provided the root's value b is a fixed point of the set's
    projection.  That can fail in a cluster of points spaced below tie_tol,
    so after projecting a node that holds roots, one more query projects
    the roots again: the run rows of a root that moves step node by node.
    Nodes where only run rows land get no query.
    """
    if sets is None:
        sets = {}
    seeds = np.array([as_point(seed[1]) for _, seed in jobs])
    sizes = [len(chi) for chi, _ in jobs]
    offsets = np.cumsum([0] + sizes)
    total = int(offsets[-1])
    starts = []
    for (chi, seed), o in zip(jobs, offsets):
        i0 = int(np.argmin(np.abs(chi.nodes - float(seed[0]))))
        if abs(chi.nodes[i0] - float(seed[0])) > 1e-9:
            raise ValueError("seed abscissa must be a partition node")
        starts.append(o + i0)
    union = np.unique(np.concatenate([chi.nodes for chi, _ in jobs]))
    for x in union:
        if x not in sets:
            sets[x] = F(x)
    images = [sets[x] for x in union]
    label = np.cumsum([0] + [A is not B and not np.array_equal(A.points, B.points)
                             for A, B in zip(images, images[1:])])
    # All chains in one array: row r holds a chain's value at union node
    # at[r] and moves from row src[r], its neighbour toward the seed; the
    # seed rows move from the seed values, stored after row `total`.
    at = np.concatenate([np.searchsorted(union, chi.nodes) for chi, _ in jobs])
    vals = np.vstack([np.empty((total, seeds.shape[1])), seeds])
    rows = np.arange(total)
    start = np.repeat(starts, sizes)
    ahead = rows >= start
    src = rows - np.sign(rows - start)
    run = np.zeros(total + len(jobs), dtype=bool)
    run[:total] = label[at] == label[at[src]]
    run[starts] = False
    src[starts] = total + np.arange(len(jobs))
    # A job's rows are contiguous around its seed row, which is no run row,
    # so a running max (rightward) or min (leftward) finds the roots; the
    # seed values are their own roots.
    root = np.concatenate([
        np.where(ahead, np.maximum.accumulate(np.where(run[:total], 0, rows)),
                 np.minimum.accumulate(np.where(run[:total], total,
                                                rows)[::-1])[::-1]),
        src[starts]])
    has_run = np.zeros(total, dtype=bool)
    has_run[root[:total][run[:total]]] = True
    for dst, step in ((rows[ahead], 1), (rows[~ahead], -1)):
        dst = dst[np.argsort(step * at[dst], kind="stable")]
        for group in np.split(dst, np.flatnonzero(np.diff(at[dst])) + 1):
            group = group[~run[group]]
            if not group.size:
                continue
            B = images[at[group[0]]]
            frm = src[group]
            dist, vals[group] = project_rows(
                vals[np.where(run[frm], root[frm], frm)], B, norm, tie_tol)
            off = dist[frm >= total]
            if off.size and off.max() > SEED_TOL:
                raise GreedySeedError(
                    f"seed value is {off.max():.3g} away from F(x_hat)")
            roots = group[has_run[group]]
            if roots.size:
                moved = (project_rows(vals[roots], B, norm, tie_tol)[1]
                         != vals[roots]).any(axis=1)
                if moved.any():
                    run[:total] &= ~np.isin(root[:total], roots[moved])
    copies = np.flatnonzero(run[:total])
    vals[copies] = vals[root[copies]]
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
    """g at each x: a list of PointSets, or an (m, d) array of points."""
    vals = [g(x) for x in xs]
    if isinstance(vals[0], PointSet):
        return vals
    return np.array([as_point(v) for v in vals])


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
