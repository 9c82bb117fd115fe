"""Experiment runner: convergence tables, bound checks, worked-example
regressions, integrals, and raw selection dumps, emitted as CSV."""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import fixtures as fx
from .fourier import (PERIOD_TOL, delta_grid, family_coefficients, fit_K,
                      limit_set_AF, metric_fourier, min_djordan_bound,
                      quasi_moduli, svf_bound_rhs, svf_jump_omega, trig_eval)
from .geometry import PointSet, dist_point_set, hausdorff, is_metric_pair, metric_average
from .metric_integral import (WeightFunction, aumann_integral_convex,
                              inclusion_check, weighted_metric_integral)
from .svf import (X_TOL, Partition, _families, approximate_selection,
                  selection_family)

PI = math.pi
# `selection_depth` stays within [DEPTH_MIN, DEPTH_MAX].
DEPTH_MIN = 6
DEPTH_MAX = 12
# A config's depth may not exceed CONFIG_DEPTH_MAX.  `selections` and
# `integral` build their families on dyadic partitions of 2**depth + 1
# nodes, and memory doubles with each level: the lines fixture's family
# (default seeds) peaks at 226 MB at depth 16, the deepest in the tests,
# 374 MB at 17 and 657 MB at 18 (2 shared cores, numpy 2.4); depth 40 would
# ask for 8 TiB in one array.
CONFIG_DEPTH_MAX = 18


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    fixture: str | None = None
    svf: dict | None = None
    orders: list = field(default_factory=lambda: [16, 64, 256])
    x_grid: object = 9          # count or explicit list
    x_seeds: int = 7
    y_seeds: int | str = 4     # count, or "all" for every point of F(x_hat)
    depth: int = 4              # base refinement depth; grows with the order
    norm: str = "l2"
    out: str | None = None
    weight: dict | None = None
    eps: float = 1e-3

    _KEYS = {"fixture", "svf", "orders", "x_grid", "x_seeds", "y_seeds",
             "depth", "norm", "out", "weight", "eps"}

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        extra = set(d) - ExperimentConfig._KEYS
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        cfg = ExperimentConfig(**d)
        if not isinstance(cfg.orders, list) or not all(map(_is_int, cfg.orders)):
            raise ConfigError("orders must be a list of integers")
        if any(n < 1 for n in cfg.orders):
            raise ConfigError("orders must be positive")
        if not (_is_int(cfg.x_grid) or isinstance(cfg.x_grid, list)
                and all(map(_is_number, cfg.x_grid))):
            raise ConfigError("x_grid must be a count or a list of numbers")
        if cfg.norm not in ("l1", "l2", "linf"):
            raise ConfigError("norm must be one of l1, l2, linf")
        every = cfg.y_seeds == "all"
        if not all(map(_is_int, (cfg.x_seeds, cfg.depth))) \
                or not (every or _is_int(cfg.y_seeds)):
            raise ConfigError('x_seeds and depth must be integers, y_seeds '
                              'an integer or "all"')
        if cfg.x_seeds < 1 or cfg.depth < 1 or not every and cfg.y_seeds < 1:
            raise ConfigError("seed counts and depth must be positive")
        if cfg.depth > CONFIG_DEPTH_MAX:
            raise ConfigError(f"depth must be at most {CONFIG_DEPTH_MAX}")
        for key, kind in (("fixture", str), ("svf", dict), ("out", str),
                          ("weight", dict)):
            val = getattr(cfg, key)
            if val is not None and not isinstance(val, kind):
                raise ConfigError(f"{key} must be a {kind.__name__}")
        _check_eps(cfg.eps)
        parse_weight(cfg.weight)
        return cfg

    def build_svf(self):
        if self.svf is not None:
            return fx.parse_svf(self.svf)
        if self.fixture is None:
            raise ConfigError("config needs 'fixture' or 'svf'")
        if self.fixture == "balls":
            return fx.balls_fixture(eps=self.eps)
        try:
            return fx.SVF_FIXTURES[self.fixture]()
        except KeyError as exc:
            raise ConfigError(f"unknown fixture {self.fixture!r}") from exc

    def grid(self, F) -> list[float]:
        if isinstance(self.x_grid, (list, tuple)):
            xs = [float(x) for x in self.x_grid]
            if any(not F.a <= x <= F.b for x in xs):
                raise ConfigError("x_grid outside the fixture domain")
            return xs
        count = int(self.x_grid)
        if count < 1:
            raise ConfigError("x_grid count must be positive")
        margin = min(0.3, (F.b - F.a) / 10.0)
        return list(np.linspace(F.a + margin, F.b - margin, count))


def selection_depth(n: int, base: int = 4) -> int:
    """Refinement depth paired with kernel order n: the piecewise-constant
    resolution must outpace the kernel so discretization decays with n."""
    return min(DEPTH_MAX,
               max(DEPTH_MIN, base + math.ceil(math.log2(max(n, 2)))))


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _write_csv(header, rows, out_path):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_eps(eps) -> None:
    """The net spacing of the balls fixture must be a finite number > 0."""
    if not _is_number(eps) or not 0 < eps < math.inf:
        raise ConfigError("eps must be a positive number")


def parse_weight(spec: dict | None) -> WeightFunction:
    if spec is None:
        return WeightFunction.constant(1.0)
    if not isinstance(spec, dict):
        raise ConfigError("weight must be an object")
    for key in ("value", "variation", "sup"):
        if not _is_number(spec.get(key, 0.0)):
            raise ConfigError(f"weight.{key} must be a number")
    kind = spec.get("kind")
    if kind == "constant":
        return WeightFunction.constant(float(spec.get("value", 1.0)))
    if kind == "poly":
        if "coeffs" not in spec:
            raise ConfigError("a poly weight needs weight.coeffs")
        if not isinstance(spec["coeffs"], list) \
                or not all(map(_is_number, spec["coeffs"])):
            raise ConfigError("weight.coeffs must be a list of numbers")
        coeffs = [float(c) for c in spec["coeffs"]]

        def k(x, c=coeffs):
            return sum(ci * x ** i for i, ci in enumerate(c))

        def K(x, c=coeffs):
            return sum(ci * x ** (i + 1) / (i + 1) for i, ci in enumerate(c))

        return WeightFunction(k, float(spec.get("variation", 0.0)) or 1.0,
                              float(spec.get("sup", 1.0)), antiderivative=K)
    if kind in ("cos", "sin"):
        m = spec.get("k", 1)
        if not _is_int(m) or m == 0:
            raise ConfigError("weight.k must be a nonzero integer")
        if kind == "cos":
            return WeightFunction(lambda x: np.cos(m * x), 4.0 * m, 1.0,
                                  antiderivative=lambda x: np.sin(m * x) / m)
        return WeightFunction(lambda x: np.sin(m * x), 4.0 * m, 1.0,
                              antiderivative=lambda x: -np.cos(m * x) / m)
    raise ConfigError(f"unknown weight kind {kind!r}")


def _distance_rows(F, cfg: ExperimentConfig, xs) -> list[tuple]:
    """(n, x, d(S_nF(x), target), kind) for every order n and every x, where
    the target is A_F(x) at a jump of F and F(x) elsewhere.  The families
    of all depths come from one engine sweep (`svf._families`); each depth
    builds its coefficient matrix at the largest order of that depth, and
    its targets once per x."""
    if max(abs(F.a + PI), abs(F.b - PI)) > PERIOD_TOL:
        raise ConfigError("convergence and bound-check need the domain "
                          "[-pi, pi]")
    jumps = set(float(j) for j in F.jump_points)
    by_depth: dict[int, list[int]] = {}
    for n in sorted(int(n) for n in cfg.orders):
        by_depth.setdefault(selection_depth(n, cfg.depth), []).append(n)
    rows = []
    fams = _families(F, cfg.x_seeds, cfg.y_seeds, list(by_depth), cfg.norm)
    for (depth, ns), fam in zip(by_depth.items(), fams):
        coeffs = family_coefficients(F, ns[-1], fam)
        targets = [(limit_set_AF(F, x, fam), "A_F")
                   if any(abs(x - j) < X_TOL for j in jumps) else (F(x), "F")
                   for x in xs]
        rows += [(n, float(x), hausdorff(metric_fourier(F, n, x, fam, coeffs),
                                         target, cfg.norm), kind)
                 for n in ns for x, (target, kind) in zip(xs, targets)]
    return rows


def run_convergence(cfg: ExperimentConfig) -> list[tuple]:
    F = cfg.build_svf()
    return _distance_rows(F, cfg, cfg.grid(F))


def run_bound_check(cfg: ExperimentConfig) -> list[tuple]:
    deltas = delta_grid()
    if cfg.fixture in fx.SCALAR_FIXTURES:
        f = fx.SCALAR_FIXTURES[cfg.fixture]()
        if f.coeff is None:
            raise ConfigError("fixture lacks closed-form coefficients")
        omega = np.maximum(*quasi_moduli(f.vf, f.jump, deltas, -PI, PI))
        rows = []
        orders = sorted(int(n) for n in cfg.orders)
        a, b = f.coefficients(max(orders))
        for n in orders:
            observed = abs(trig_eval(a, b, f.jump, n) - f.midpoint)
            bound = min_djordan_bound(f.variation, omega, n, deltas)
            rows.append((n, observed, bound, int(observed <= bound)))
        return rows
    # Set-valued path: the convergence rows at the jump, against the bound
    # bracket per order; the norm-dependent constant K is fitted on them.
    F = cfg.build_svf()
    if F.variation_function is None or not F.jump_points:
        raise ConfigError("set-valued bound check needs a jump fixture with "
                          "an exact variation function")
    x = float(F.jump_points[0])
    omega = svf_jump_omega(F.variation_function, x, F.a, F.b)(deltas)
    obs = [(n, o, float(np.min(svf_bound_rhs(F.variation_hint, n, deltas,
                                             omega, 1.0))))
           for n, _, o, _ in _distance_rows(F, cfg, [x])]
    K = max(fit_K([(o, br) for _, o, br in obs]), 1e-12)
    return [(n, o, K * br, int(o <= K * br + 1e-12)) for n, o, br in obs]


def run_example(name: str, eps: float = 1e-3, out=None) -> int:
    _check_eps(eps)
    if out is None:
        out = sys.stdout
    checks: list[tuple[str, bool]] = []

    def check(label, ok):
        checks.append((label, bool(ok)))
        out.write(f"{'ok' if ok else 'FAIL'}: {label}\n")

    if name == "lines":
        A = PointSet.of([-0.25, 0.0, 0.25])
        B = PointSet.of([-1.0, 1.0])
        avg = metric_average(0.5, A, B)
        want = np.array([-0.625, -0.5, 0.5, 0.625])
        got = np.sort(avg.points[:, 0])
        check("metric average is {-5/8, -1/2, 1/2, 5/8}",
              len(got) == 4 and np.allclose(got, want, atol=1e-12))
        F = fx.lines_fixture()
        fam = selection_family(F, 9, 5, 8)
        AF = limit_set_AF(F, 0.5, fam)
        gap = float(np.min(np.abs(AF.points[:, 0] - 0.5)))
        check("1/2 is at least 1/8 away from A_F", gap >= 0.125 - 1e-9)
        check("A_F is {-5/8, -1/2, 5/8}",
              hausdorff(AF, PointSet.of([-0.625, -0.5, 0.625])) <= 1e-9)
    elif name == "balls":
        F = fx.balls_fixture(eps=eps)
        L, R = F(0.5 - 1e-6), F(0.5 + 1e-6)
        d, w = dist_point_set((0.0, 0.0), L)
        target = np.array([-2.0 + math.sqrt(2) / 2, 2.0 - math.sqrt(2) / 2])
        check("projection of the origin onto the left disc",
              float(np.linalg.norm(w.points[0] - target)) <= 2 * eps)
        s = approximate_selection(F, (0.5, (0.0, 0.0)), 3)
        mid = (s.one_sided_limit(0.5, "-") + s.one_sided_limit(0.5, "+")) / 2.0
        check("(0, 2 - sqrt(2)/2) is a midpoint of one-sided limits",
              float(np.linalg.norm(mid - [0.0, 2.0 - math.sqrt(2) / 2])) <= 2 * eps)
        check("the two one-sided limits do not form a metric pair",
              not is_metric_pair(s.one_sided_limit(0.5, "-"),
                                 s.one_sided_limit(0.5, "+"), L, R))
    elif name == "integral-inclusion":
        F = fx.zero_union_sine()
        fam = selection_family(F, 7, 4, 7)
        report = inclusion_check(F, WeightFunction.constant(1.0), fam)
        check("intersection is nonempty", not report.vacuous)
        check("intersection inside the normalized integral", report.lower_ok)
        check("normalized integral inside the hull of the union",
              report.upper_ok)
    else:
        raise ConfigError(f"unknown example {name!r}")
    return 0 if all(ok for _, ok in checks) else 1


def run_integral(cfg: ExperimentConfig) -> list[tuple]:
    F = cfg.build_svf()
    k = parse_weight(cfg.weight)
    fam = selection_family(F, cfg.x_seeds, cfg.y_seeds, cfg.depth, cfg.norm)
    rows = [("metric",) + tuple(map(float, p))
            for p in weighted_metric_integral(F, k, fam).points]
    chi = Partition.uniform(F.a, F.b, 256)
    for p in aumann_integral_convex(F, k, chi).points:
        rows.append(("aumann_vertex",) + tuple(map(float, p)))
    return rows


def run_selections(cfg: ExperimentConfig) -> list[tuple]:
    F = cfg.build_svf()
    fam = selection_family(F, cfg.x_seeds, cfg.y_seeds, cfg.depth, cfg.norm)
    xs = cfg.grid(F)
    return [(i, float(x)) + tuple(map(float, v))
            for i, s in enumerate(fam) for x, v in zip(xs, s(xs))]


def _load_config(args) -> ExperimentConfig:
    """The config file merged with the command-line flags, validated as one
    config by `ExperimentConfig.from_dict`."""
    d = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            d = json.load(fh)
    flags = {"norm": args.norm, "out": args.out, "depth": args.depth}
    if args.seed_grid is not None:
        xs, _, ys = args.seed_grid.partition(",")
        try:
            flags.update(x_seeds=int(xs),
                         y_seeds=ys if ys == "all" else int(ys))
        except ValueError as exc:
            raise ConfigError('--seed-grid expects X,Y with Y an integer or '
                              '"all"') from exc
    if isinstance(d, dict):
        d = {**d, **{k: v for k, v in flags.items() if v is not None}}
    return ExperimentConfig.from_dict(d)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each `parse_args`
    call fills a new namespace."""
    parser = argparse.ArgumentParser(
        prog="metricfourier",
        description="Metric Fourier approximation experiments")
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb in ("convergence", "bound-check", "integral", "selections"):
        p = sub.add_parser(verb)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", help="output CSV path (default stdout)")
        p.add_argument("--norm", choices=["l1", "l2", "linf"])
        p.add_argument("--seed-grid", dest="seed_grid", metavar="X,Y")
        p.add_argument("--depth", type=int)
    sub.add_parser("hausdorff").add_argument(
        "--config", help="JSON object with set_a, set_b and optional norm")
    px = sub.add_parser("example")
    px.add_argument("name", choices=["balls", "lines", "integral-inclusion"])
    px.add_argument("--eps", type=float, default=1e-3)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "example":
            return run_example(args.name, args.eps)
        if args.verb == "hausdorff":
            if not args.config:
                raise ConfigError("hausdorff needs --config with set_a/set_b")
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ConfigError("hausdorff config must be a JSON object")
            extra = set(data) - {"set_a", "set_b", "norm"}
            if extra:
                raise ConfigError(f"unknown config keys: {sorted(extra)}")
            if not {"set_a", "set_b"} <= set(data):
                raise ConfigError("hausdorff config needs set_a and set_b")
            if data.get("norm", "l2") not in ("l1", "l2", "linf"):
                raise ConfigError("norm must be one of l1, l2, linf")
            A, B = (fx.config_points(data[k], k) for k in ("set_a", "set_b"))
            if A.dim != B.dim:
                raise ConfigError("set_a and set_b differ in dimension")
            sys.stdout.write(_fmt(hausdorff(A, B, data.get("norm", "l2"))) + "\n")
            return 0
        cfg = _load_config(args)
        if args.verb == "convergence":
            _write_csv(("n", "x", "distance", "target"),
                       run_convergence(cfg), cfg.out)
        elif args.verb == "bound-check":
            _write_csv(("n", "observed", "bound", "pass"),
                       run_bound_check(cfg), cfg.out)
        elif args.verb == "integral":
            _write_csv(("kind", "coords..."), run_integral(cfg), cfg.out)
        elif args.verb == "selections":
            _write_csv(("selection", "x", "coords..."),
                       run_selections(cfg), cfg.out)
        return 0
    except (ConfigError, fx.DescriptionError, OSError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
