"""The benchmark's workloads: inputs generated from a seed, the jobs that run
them through the public entry points (`cli.main` verbs and library calls),
and the checks applied to every job's output.

Seed 0 is the default: it applies no jitter, and its outputs are compared
with the references under `perfbench/reference/`.  Any other seed jitters
x-grid positions, disc centres and curve coefficients at fixed input size,
so every seed does the same amount of work.

Why these workloads:

* ``balls-nets`` is geometry-bound: projections onto 8,201-point disc nets
  inside `convergence` (including the jump, hence the `A_F` path), and the
  all-pairs `hausdorff` verb on two nets passed as JSON.
* ``jump-checks`` is the only workload that runs the Fourier layer's
  quadrature and bound code, `local_moduli`, the inline description
  language and `metric_integral`.  Its families and sets stay small, so a
  large-set geometry change should leave it flat.
* ``sine-table`` stresses the selection engine and the chain partial sums
  (`svf.selection_family`, `fourier.partial_sum_of_chain`) while geometry
  only sees 2-point sets.  BENCHMARK.json leaves it out: on a shared
  2-core virtual machine its run-to-run spread exceeded the bounds.  It
  stays runnable for paired comparisons with `series.py`.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from metricfourier import cli, fixtures, geometry, metric_integral, svf

PI = math.pi
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Outputs on seed 0 must match the captured references to this tolerance,
# scaled by max(1, |reference|).
REF_TOL = 1e-12


class JobFailed(Exception):
    """A job exited non-zero or its output failed a check."""


@dataclass
class Job:
    name: str
    run: Callable[[], str]             # returns the job's output text
    check: Callable[[str], list[str]]  # returns the problems found


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _jitter(rng, lo: float, hi: float, size=None):
    """Uniform jitter in [lo, hi], or exactly 0 for the default seed."""
    if rng is None:
        return 0.0 if size is None else np.zeros(size)
    return rng.uniform(lo, hi, size)


def call_cli(argv: list[str]) -> str:
    """Run one CLI verb in-process and return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise JobFailed(f"metricfourier {argv[0]} exited with {rc}")
    return buf.getvalue()


def _cli_job(name: str, verb: str, config: dict, work: Path,
             check: Callable[[str], list[str]]) -> Job:
    path = work / f"{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return Job(name, lambda: call_cli([verb, "--config", str(path)]), check)


def _rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise JobFailed(f"header is {lines[:1]!r}, expected {header!r}")
    return [line.split(",") for line in lines[1:]]


def _finite(fields) -> bool:
    try:
        return all(math.isfinite(float(f)) for f in fields)
    except ValueError:
        return False


def check_convergence(orders, xs, jumps, decreasing: bool):
    """Shape and finiteness of a convergence table; `A_F` exactly at jumps.
    With `decreasing`, the worst distance must fall from the lowest to the
    highest order (criterion 10)."""
    want = [(n, x) for n in sorted(orders) for x in xs]

    def check(text):
        rows = _rows(text, "n,x,distance,target")
        if len(rows) != len(want) or any(len(r) != 4 for r in rows):
            return [f"table has {len(rows)} rows, expected {len(want)}"]
        problems = []
        worst = {}
        for (n, x), (rn, rx, dist, target) in zip(want, rows):
            if int(rn) != n or abs(float(rx) - x) > 1e-15 * max(1, abs(x)):
                problems.append(f"row ({rn}, {rx}) expected ({n}, {x})")
            if not _finite([dist]) or float(dist) < 0:
                problems.append(f"distance {dist} at n={n}, x={x}")
                continue
            expect = "A_F" if any(abs(x - j) < 1e-12 for j in jumps) else "F"
            if target != expect:
                problems.append(f"target {target} at x={x}, expected {expect}")
            worst[n] = max(worst.get(n, 0.0), float(dist))
        if decreasing and not problems:
            lo, hi = min(orders), max(orders)
            if not worst[hi] < worst[lo]:
                problems.append(f"max distance {worst[hi]} at n={hi} is not "
                                f"below {worst[lo]} at n={lo}")
        return problems

    return check


def check_bound(orders):
    """Every order present once, finite values, every `pass` equal to 1."""
    def check(text):
        rows = _rows(text, "n,observed,bound,pass")
        if [int(r[0]) for r in rows] != sorted(orders):
            return [f"orders {[r[0] for r in rows]}, expected {sorted(orders)}"]
        return [f"row {','.join(r)} fails" for r in rows
                if len(r) != 4 or not _finite(r[1:3]) or r[3] != "1"]
    return check


def check_hausdorff(expected: float):
    def check(text):
        value = float(text.strip())
        if abs(value - expected) > 1e-12:
            return [f"hausdorff {value!r}, expected {expected!r}"]
        return []
    return check


def check_integral(dim: int):
    def check(text):
        rows = _rows(text, "kind,coords...")
        kinds = [r[0] for r in rows]
        problems = [f"row {','.join(r)} malformed" for r in rows
                    if r[0] not in ("metric", "aumann_vertex")
                    or len(r) != dim + 1 or not _finite(r[1:])]
        if "metric" not in kinds or "aumann_vertex" not in kinds:
            problems.append(f"kinds {sorted(set(kinds))}, expected both")
        return problems
    return check


# ---------------------------------------------------------------------------
# Workloads.  Each builder takes a numpy Generator (None for seed 0) and a
# scratch directory for config files, and returns its jobs.  Keyword sizes
# default to the benchmark's; the tracer self-test passes smaller ones.

def sine_table(rng, work: Path, orders=(16, 64, 256), x_count: int = 33,
               depth: int = 1) -> list[Job]:
    """`convergence` on two-branch-sine: with depth 1 the families sit at
    depths 6, 7 and 9 (7 x 2 seeds each) and the table has
    len(orders) * x_count cells."""
    lo, hi = -PI + 0.3, PI - 0.3
    base = np.linspace(lo, hi, x_count)
    step = (hi - lo) / max(1, x_count - 1)
    xs = [float(x) for x in base + _jitter(rng, -step / 4, step / 4, x_count)]
    config = {"fixture": "two-branch-sine", "orders": list(orders),
              "x_grid": xs, "depth": depth}
    return [_cli_job("convergence", "convergence", config, work,
                     check_convergence(orders, xs, (), decreasing=True))]


def balls_nets(rng, work: Path, eps: float = 0.02, orders=(16, 64),
               depth: int = 2) -> list[Job]:
    """`convergence` on the balls fixture, with the jump at 0.5 on the grid,
    and the `hausdorff` verb on two disc nets 4 apart.  The nets move by one
    common offset, so their Hausdorff distance stays exactly 4."""
    xs = [-1.0, 0.0, 0.5, 1.0, 2.0]
    xs = [x if x == 0.5 else x + float(_jitter(rng, -0.2, 0.2)) for x in xs]
    config = {"fixture": "balls", "eps": eps, "orders": list(orders),
              "x_grid": xs, "depth": depth}
    dx, dy = _jitter(rng, -0.5, 0.5, 2)
    net_a = fixtures.disc_net((-2.0 + dx, 2.0 + dy), 1.0, eps)
    net_b = fixtures.disc_net((2.0 + dx, 2.0 + dy), 1.0, eps)
    sets = {"set_a": net_a.points.tolist(), "set_b": net_b.points.tolist(),
            "norm": "l2"}
    return [
        _cli_job("convergence", "convergence", config, work,
                 check_convergence(orders, xs, (0.5,), decreasing=False)),
        _cli_job("hausdorff", "hausdorff", sets, work, check_hausdorff(4.0)),
    ]


def _curve_description(c1: float, c2: float) -> dict:
    """Two planar branches up to the jump at 0.5, one moving point after."""
    return {"domain": [-PI, PI], "pieces": [
        {"end": 0.5, "curve": [[f"{c1!r} * cos(t)", "sin(t)"],
                               [f"{c1!r} * cos(t)", "sin(t) + 2"]]},
        {"curve": [[f"{c2!r} * t", "cos(t) - 1"]]}]}


def jump_checks(rng, work: Path, step_orders=(32,),
                square_orders=(8, 32, 128, 512), integral_depth: int = 9,
                riemann_depth: int = 5,
                inclusion_depths=(7, 6)) -> list[Job]:
    """Two `bound-check` runs (set-valued step and scalar square wave), an
    `integral` on an inline curve description with a `poly` weight, and
    library Riemann sums and inclusion checks in the style of criteria 8
    and 9."""
    c1 = 1.0 + float(_jitter(rng, -0.2, 0.2))
    c2 = 0.5 + float(_jitter(rng, -0.2, 0.2))
    integral = {"svf": _curve_description(c1, c2), "depth": integral_depth,
                "weight": {"kind": "poly", "coeffs": [1.0, 0.25]}}
    library = (("lines", fixtures.lines_fixture()),
               ("zero-union-sine", fixtures.zero_union_sine()))
    return [
        _cli_job("bound-step", "bound-check",
                 {"fixture": "step-svf", "orders": list(step_orders)}, work,
                 check_bound(step_orders)),
        _cli_job("bound-square", "bound-check",
                 {"fixture": "square-wave", "orders": list(square_orders)},
                 work, check_bound(square_orders)),
        _cli_job("integral", "integral", integral, work, check_integral(2)),
        riemann_inclusion_job(library, riemann_depth, inclusion_depths),
    ]


def riemann_inclusion_job(library, depth: int, inclusion_depths) -> Job:
    """Left and right exact Riemann sums with the criterion-8 gap bound, and
    `inclusion_check` on selection families (criterion 9) of the named
    fixtures: lines, whose images have an empty intersection, and
    zero-union-sine, whose do not."""
    const1 = metric_integral.WeightFunction.constant(1.0)
    cosw = metric_integral.WeightFunction(math.cos, 4.0, 1.0,
                                          antiderivative=math.sin)
    weights = (("const", const1), ("cos", cosw))

    def run():
        lines = []
        for (fname, F), fam_depth in zip(library, inclusion_depths):
            chi = svf.Partition.dyadic(F.a, F.b, depth,
                                       forced=tuple(F.jump_points))
            sup_F = max(float(np.max(np.linalg.norm(F(x).points, axis=1)))
                        for x in chi.nodes)
            for wname, k in weights:
                left = metric_integral.weighted_metric_riemann_sum(F, k, chi)
                right = metric_integral.right_weighted_metric_riemann_sum(
                    F, k, chi)
                for side, S in (("left", left), ("right", right)):
                    lines += [",".join(["riemann", fname, wname, side]
                                       + [_fmt(v) for v in p])
                              for p in S.points]
                bound = chi.norm * (k.sup_hint * F.variation_hint
                                    + sup_F * k.variation_hint)
                lines.append(f"gap,{fname},{wname},"
                             f"{_fmt(geometry.hausdorff(left, right))},"
                             f"{_fmt(bound)}")
            fam = svf.selection_family(F, 7, 4, fam_depth)
            report = metric_integral.inclusion_check(F, const1, fam)
            lines.append(f"inclusion,{fname},{int(report.vacuous)},"
                         f"{int(report.passed)},{_fmt(report.lower_margin)}")
            lines += [",".join(["normalized"] + [_fmt(v) for v in p])
                      for p in report.normalized.points]
        return "\n".join(lines) + "\n"

    def check(text):
        rows = [line.split(",") for line in text.splitlines()]
        problems = [f"Riemann gap {','.join(r)} exceeds the bound" for r in rows
                    if r[0] == "gap" and not float(r[3]) <= float(r[4]) + 1e-9]
        inclusion = {r[1]: r[2:4] for r in rows if r[0] == "inclusion"}
        if inclusion != {"lines": ["1", "1"], "zero-union-sine": ["0", "1"]}:
            problems.append(f"inclusion (vacuous, passed) is {inclusion}, "
                            "expected lines (1, 1), zero-union-sine (0, 1)")
        return problems

    return Job("riemann-inclusion", run, check)


WORKLOADS = {
    "sine-table": sine_table,
    "balls-nets": balls_nets,
    "jump-checks": jump_checks,
}


def build(name: str, seed: int, work: Path) -> list[Job]:
    rng = None if seed == 0 else np.random.default_rng(seed)
    return WORKLOADS[name](rng, work)


# ---------------------------------------------------------------------------
# References: job outputs on seed 0, captured from the seed code.

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_references(workload: str) -> dict[str, str]:
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def compare_text(got: str, want: str, tol: float = REF_TOL) -> list[str]:
    """Field-by-field comparison: numbers within tol * max(1, |want|),
    everything else exactly."""
    g_lines, w_lines = got.splitlines(), want.splitlines()
    if len(g_lines) != len(w_lines):
        return [f"{len(g_lines)} lines, reference has {len(w_lines)}"]
    problems = []
    for i, (g, w) in enumerate(zip(g_lines, w_lines)):
        gf, wf = g.split(","), w.split(",")
        if len(gf) != len(wf):
            problems.append(f"line {i}: {g!r} vs reference {w!r}")
            continue
        for a, b in zip(gf, wf):
            if a == b:
                continue
            try:
                ok = abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"line {i}: {g!r} vs reference {w!r}")
                break
    return problems
