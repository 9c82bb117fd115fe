"""Set-valued functions on an interval: chain functions, metric selections,
variation and local moduli analyzers.

A metric selection is approximated by a greedy projection chain on a fine
dyadic partition; `cauchy_defect` records how much the chain moved in the
last refinement step (convergence diagnostic, not a proof).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import (DEDUP_TOL, TIE_TOL, PointSet, as_point,
                       enumerate_metric_chains, hausdorff, project_rows,
                       row_norms, vec_norm)

# A greedy chain certifies convergence when the last refinement moved
# nothing on the probe grid by more than STOL.
STOL = 1e-8
# Seed values must lie in F(x_hat) within this tolerance.
SEED_TOL = 1e-7


class GreedySeedError(ValueError):
    """Seed value does not belong to F at the seed node."""


@dataclass(frozen=True)
class Partition:
    """Strictly increasing nodes from a to b."""

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


@dataclass(frozen=True)
class MetricChain:
    """Point values over a partition with consecutive metric pairs.

    `values` is one read-only (N, d) array, row i the value at node i;
    sequences of points (or of scalars, for d = 1) are copied into it.
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


@dataclass(frozen=True)
class ChainFunction:
    """Piecewise-constant extension of a chain: values[i] on [x_i, x_{i+1})."""

    chain: MetricChain

    @property
    def nodes(self) -> np.ndarray:
        return self.chain.partition.nodes

    @property
    def values(self) -> np.ndarray:
        return self.chain.values

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
    # All chains in one array: row r holds a chain's value at union node
    # at[r] and moves from row src[r], its neighbour toward the seed; the
    # seed rows move from the seed values, stored after row `total`.
    at = np.concatenate([np.searchsorted(union, chi.nodes) for chi, _ in jobs])
    vals = np.vstack([np.empty((total, seeds.shape[1])), seeds])
    rows = np.arange(total)
    start = np.repeat(starts, sizes)
    src = rows - np.sign(rows - start)
    src[starts] = total + np.arange(len(jobs))
    for dst, step in ((rows[rows >= start], 1), (rows[rows < start], -1)):
        if not dst.size:
            continue
        dst = dst[np.argsort(step * at[dst], kind="stable")]
        for group in np.split(dst, np.flatnonzero(np.diff(at[dst])) + 1):
            dist, vals[group] = project_rows(vals[src[group]],
                                             sets[union[at[group[0]]]],
                                             norm, tie_tol)
            off = dist[src[group] >= total]
            if off.size and off.max() > SEED_TOL:
                raise GreedySeedError(
                    f"seed value is {off.max():.3g} away from F(x_hat)")
    return [MetricChain(chi, vals[o:o + n])
            for (chi, _), o, n in zip(jobs, offsets, sizes)]


@dataclass
class MetricSelection:
    """Greedy chain function on a fine dyadic partition plus diagnostics."""

    base: ChainFunction
    seed: tuple
    refinement_depth: int
    cauchy_defect: float
    smooth_fn: object | None = None

    def __call__(self, x: float):
        return self.base(x)

    @property
    def nodes(self) -> np.ndarray:
        return self.base.nodes

    @property
    def values(self) -> np.ndarray:
        return self.base.values

    def one_sided_limit(self, x: float, side: str):
        """s(x-0) or s(x+0), extrapolated linearly from the two nearest
        node samples on the requested side (exact for piecewise-linear
        branch motion, which covers all regression fixtures)."""
        nodes = self.nodes
        vals = self.values
        if side == "-":
            idx = np.nonzero(nodes < x - 1e-12)[0]
            if idx.size == 0:
                return self.base(x)
            picks = idx[-2:]
        elif side == "+":
            idx = np.nonzero(nodes > x + 1e-12)[0]
            if idx.size == 0:
                return self.base(x)
            picks = idx[:2]
        else:
            raise ValueError("side must be '-' or '+'")
        if picks.size == 1:
            return vals[picks[0]]
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
    base = ChainFunction(last)
    defect = 0.0
    if prev is not None:
        defect = float(row_norms(base(probe.nodes)
                                 - ChainFunction(prev)(probe.nodes),
                                 norm).max())
    smooth = None
    if all(len(sets[x]) == 1 for x in last.partition.nodes):
        smooth = lambda x: F(x).single()
    return MetricSelection(base, (float(seed[0]), as_point(seed[1])), depth,
                           defect, smooth)


@dataclass(frozen=True)
class SelectionFamily:
    """Computational stand-in for the family of all metric selections."""

    selections: tuple
    seed_grid: str

    def __len__(self) -> int:
        return len(self.selections)


def _sorted_rows(pts: np.ndarray) -> np.ndarray:
    return pts[np.lexsort(pts.T[::-1])]


def selection_family(F: SetValuedFunction, x_seeds: int, y_seeds: int,
                     depth: int, norm: str = "l2",
                     probe: Partition | None = None) -> SelectionFamily:
    """Selections seeded on a uniform x-grid (plus jumps) crossed with up to
    y_seeds points of each F(x_hat), deduplicated on a probe grid.

    The depth-`depth` and depth-`depth - 1` chains of all seeds are built
    together by one `_greedy_chains` sweep."""
    if x_seeds < 1 or y_seeds < 1:
        raise ValueError("seed counts must be positive")
    xs = sorted(set(np.linspace(F.a, F.b, x_seeds)) | {float(j) for j in F.jump_points})
    if probe is None:
        probe = Partition.dyadic(F.a, F.b, 6, tuple(F.jump_points))
    seeds = []
    for x_hat in xs:
        pts = _sorted_rows(F(x_hat).points)
        if len(pts) <= y_seeds:
            picks = pts
        else:
            picks = pts[np.linspace(0, len(pts) - 1, y_seeds).round().astype(int)]
        seeds += [(x_hat, y_hat) for y_hat in picks]
    depths = [depth, depth - 1] if depth > 1 else [depth]
    grids = {(x_hat, k): Partition.dyadic(F.a, F.b, k,
                                          (float(x_hat),) + tuple(F.jump_points))
             for x_hat in xs for k in depths}
    sets: dict = {}
    chains = _greedy_chains(F, [(grids[seed[0], k], seed)
                                for k in depths for seed in seeds],
                            norm, sets=sets)
    prevs = chains[len(seeds):] or [None] * len(seeds)
    selections: list[MetricSelection] = []
    signatures: list[np.ndarray] = []
    for seed, last, prev in zip(seeds, chains, prevs):
        sig = ChainFunction(last)(probe.nodes).ravel()
        if any(np.max(np.abs(sig - old)) <= DEDUP_TOL for old in signatures):
            continue
        signatures.append(sig)
        selections.append(_selection(F, seed, depth, last, prev, probe, norm,
                                     sets))
    return SelectionFamily(tuple(selections),
                           f"uniform x={x_seeds} (+jumps) times y<={y_seeds}")


def exhaustive_chain_family(F: SetValuedFunction, chi: Partition,
                            norm: str = "l2", limit: int = 10 ** 5) -> SelectionFamily:
    """Every metric chain over F sampled at the partition nodes, as a family.

    For piecewise-constant F whose pieces are resolved by `chi` this is the
    complete set of selections; seed-grid greedy chaining cannot reach chains
    that mix projection directions, so oracle-equivalence tests use this.
    """
    sets = [F(x) for x in chi.nodes]
    chains = enumerate_metric_chains(sets, norm=norm, limit=limit)
    selections = [MetricSelection(ChainFunction(MetricChain(chi, ch)),
                                  (chi.a, ch[0]), 0, 0.0) for ch in chains]
    return SelectionFamily(tuple(selections), "exhaustive chains")


# ---------------------------------------------------------------------------
# Variation and moduli analyzers.  The argument g may be a callable returning
# a PointSet (an SVF), a vector, or a scalar; rho dispatches accordingly.

def _rho(u, v, norm: str) -> float:
    if isinstance(u, PointSet) or isinstance(v, PointSet):
        return hausdorff(u, v, norm)
    return vec_norm(as_point(u) - as_point(v), norm)


def variation_on_partition(g, chi: Partition, norm: str = "l2") -> float:
    """V(g, chi) = sum of rho(g(x_i), g(x_{i-1}))."""
    vals = [g(x) for x in chi.nodes]
    return float(sum(_rho(u, v, norm) for u, v in zip(vals, vals[1:])))


def total_variation(g, a: float | None = None, b: float | None = None,
                    depth: int = 12, vtol: float = 1e-9, forced=(),
                    norm: str = "l2") -> tuple[float, bool]:
    """Variation on refining dyadic partitions; a lower bound in general,
    exact once the refinement stabilizes (piecewise-monotone fixtures)."""
    if isinstance(g, (ChainFunction, MetricSelection)):
        # Exact for piecewise-constant data: jumps happen at the nodes.
        return float(row_norms(np.diff(g.values, axis=0), norm).sum()), True
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
    """g(x-0) or g(x+0) along offsets delta*2^-j with a final linear
    (Richardson) extrapolation; exact for locally linear scalar/vector g."""
    sgn = -1.0 if side == "-" else 1.0
    if lo is not None and hi is not None:
        room = (x - lo) if side == "-" else (hi - x)
        if room <= 0:
            raise ValueError("no room on the requested side")
        delta = min(delta, room / 2.0)
    offs = [delta * 2.0 ** (-j) for j in range(probes + 1)]
    v_prev = g(x + sgn * offs[-2])
    v_last = g(x + sgn * offs[-1])
    if isinstance(v_last, PointSet):
        return v_last
    v_prev, v_last = as_point(v_prev), as_point(v_last)
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
    if side == "-":
        if x_star <= lo:
            return 0.0, 0.0
        xs = _probe_grid(x_star, max(lo, x_star - delta), x_star, probes)
        inner = xs < x_star - 1e-13
    elif side == "+":
        if x_star >= hi:
            return 0.0, 0.0
        xs = _probe_grid(x_star, x_star, min(hi, x_star + delta), probes)
        inner = xs > x_star + 1e-13
    else:
        raise ValueError("side must be '-' or '+'")
    vals = [g(x) for x in xs]
    g_star = g(x_star)
    g_lim = one_sided_value(g, x_star, side, lo=lo, hi=hi)
    if any(isinstance(v, PointSet) for v in vals + [g_star, g_lim]):
        plain = max((_rho(v, g_star, norm) for v in vals), default=0.0)
        quasi = max((_rho(g_lim, v, norm)
                     for v, keep in zip(vals, inner) if keep), default=0.0)
        return plain, quasi
    # Points: one row_norms call per supremum.
    V = np.array([as_point(v) for v in vals])
    plain = row_norms(V - as_point(g_star), norm).max(initial=0.0)
    quasi = row_norms(as_point(g_lim) - V[inner], norm).max(initial=0.0)
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
    w_vals = [g(x) for x in window]
    two_sided = max((_rho(u, v, norm)
                     for u, v in itertools.combinations(w_vals, 2)), default=0.0)
    return LocalModuli(two_sided, left, right, left_quasi, right_quasi)


def variation_function_samples(g, chi: Partition, norm: str = "l2"):
    """Cumulative variation along the partition: [(x_i, v_g(x_i))]."""
    vals = [g(x) for x in chi.nodes]
    out = [(float(chi.nodes[0]), 0.0)]
    acc = 0.0
    for i in range(1, len(vals)):
        acc += _rho(vals[i - 1], vals[i], norm)
        out.append((float(chi.nodes[i]), acc))
    return out
