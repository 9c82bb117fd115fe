"""Regression fixtures: the disc and line examples, scalar BV test functions
with closed-form Fourier coefficients, and an inline piecewise description
parser used by the CLI."""
from __future__ import annotations

import ast
import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import PointSet
from .svf import NODE_TOL, X_TOL, SetValuedFunction

PI = math.pi


def wrap_period(t: float) -> float:
    """Map t into [-pi, pi) for 2*pi-periodic evaluation."""
    return ((t + PI) % (2.0 * PI)) - PI


# ---------------------------------------------------------------------------
# Scalar fixtures

@dataclass(frozen=True)
class ScalarFixture:
    """A 2*pi-periodic scalar BV function with exact side data."""

    name: str
    fn: object                 # periodized evaluator
    jump: float                # the discontinuity under study
    midpoint: float            # (f(x+0)+f(x-0))/2 at the jump
    variation: float           # V over one period, periodization included
    breakpoints: tuple         # interior discontinuities in (-pi, pi)
    vf: object                 # exact variation function on [-pi, pi]
    coeff: object | None = None  # k -> (a_k, b_k) closed form

    def coefficients(self, n: int):
        a = np.zeros(n + 1)
        b = np.zeros(n + 1)
        for k in range(n + 1):
            a[k], b[k] = self.coeff(k)
        return a, b


def square_wave() -> ScalarFixture:
    def f(t):
        t = wrap_period(t)
        return 1.0 if t >= 0.0 else -1.0

    def vf(t):
        if t < 0.0:
            return 0.0
        return 2.0 if t < PI else 4.0

    def coeff(k):
        if k == 0:
            return 0.0, 0.0
        return 0.0, (4.0 / (PI * k) if k % 2 == 1 else 0.0)

    return ScalarFixture("square-wave", f, 0.0, 0.0, 4.0, (0.0,), vf, coeff)


def sawtooth() -> ScalarFixture:
    # t + pi on [-pi, 0), t - pi on [0, pi): one jump of size 2*pi at 0.
    def f(t):
        t = wrap_period(t)
        return t + PI if t < 0.0 else t - PI

    def vf(t):
        return t + PI if t < 0.0 else 3.0 * PI + t

    def coeff(k):
        if k == 0:
            return 0.0, 0.0
        return 0.0, -2.0 / k

    return ScalarFixture("sawtooth", f, 0.0, 0.0, 4.0 * PI, (0.0,), vf, coeff)


def step_fixture() -> ScalarFixture:
    # Indicator of [1, pi): monotone on the period, jump at 1.
    def f(t):
        t = wrap_period(t)
        return 1.0 if t >= 1.0 else 0.0

    def vf(t):
        if t < 1.0:
            return 0.0
        return 1.0 if t < PI else 2.0

    def coeff(k):
        if k == 0:
            return (PI - 1.0) / PI, 0.0
        a = -math.sin(k) / (PI * k)
        b = (math.cos(k) - math.cos(k * PI)) / (PI * k)
        return a, b

    return ScalarFixture("step", f, 1.0, 0.5, 2.0, (1.0,), vf, coeff)


def trig_poly() -> ScalarFixture:
    # Degree-3 trigonometric polynomial; its own partial sums reproduce it.
    a = {0: 1.4, 1: -0.3, 3: 0.2}
    b = {2: 0.5}

    def f(t):
        return (a[0] / 2.0 - 0.3 * math.cos(t) + 0.5 * math.sin(2 * t)
                + 0.2 * math.cos(3 * t))

    def coeff(k):
        return a.get(k, 0.0), b.get(k, 0.0)

    def vf(t):
        # Not used by bound tests; cheap numeric stand-in.
        raise NotImplementedError("trig-poly has no closed-form vf")

    return ScalarFixture("trig-poly", f, 0.0, f(0.0), 4.0, (), vf, coeff)


SCALAR_FIXTURES = {
    "square-wave": square_wave,
    "sawtooth": sawtooth,
    "step": step_fixture,
    "trig-poly": trig_poly,
}


# ---------------------------------------------------------------------------
# Set-valued fixtures

def lines_fixture(x0: float = 0.5) -> SetValuedFunction:
    """Three constant points, five values at the jump, then two moving lines."""
    left = PointSet.of([-0.25, 0.0, 0.25])
    at = PointSet.of([-1.0, -0.25, 0.0, 0.25, 1.0])

    def fn(t):
        if t < x0:
            return left
        if t == x0:
            return at
        return PointSet.of([-1.0 + t - x0, 1.0 + t - x0])

    def vf(t):
        if t < x0:
            return 0.0
        if t == x0:
            return 0.75
        return 1.75 + (t - x0)

    return SetValuedFunction(-PI, PI, fn, jump_points=(x0,),
                             variation_hint=1.75 + (PI - x0),
                             sup_hint=1.0 + PI - x0,
                             variation_function=vf)


def disc_net(center, radius: float, eps: float) -> PointSet:
    """Polar epsilon-net of a closed disc; ring sizes are multiples of 8 so
    the boundary points facing the axis directions land on the grid."""
    cx, cy = float(center[0]), float(center[1])
    rings = max(1, math.ceil(radius / eps))
    pts = [np.array([cx, cy])]
    for j in range(1, rings + 1):
        r = radius * j / rings
        m = 8 * max(1, math.ceil(2.0 * PI * r / (8.0 * eps)))
        ang = np.linspace(0.0, 2.0 * PI, m, endpoint=False)
        ring = np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)])
        pts.append(ring)
    return PointSet.of(np.vstack([np.atleast_2d(p) for p in pts]), dedup_tol=0)


def balls_fixture(x0: float = 0.5, eps: float = 1e-3) -> SetValuedFunction:
    """Disc B((-2,2),1) before the jump, disc B((2,2),1) after, and at the
    jump their union together with the origin."""
    netL = disc_net((-2.0, 2.0), 1.0, eps)
    netR = disc_net((2.0, 2.0), 1.0, eps)
    at = PointSet.of(np.vstack([netL.points, [[0.0, 0.0]], netR.points]),
                     dedup_tol=0)

    def fn(t):
        if t < x0:
            return netL
        if t == x0:
            return at
        return netR

    return SetValuedFunction(-PI, PI, fn, jump_points=(x0,),
                             variation_hint=8.0, sup_hint=math.hypot(3.0, 3.0))


def _abscos_cum(t: float) -> float:
    """Integral of |cos| from -pi to t (variation function of sin)."""
    if t <= -PI / 2.0:
        return -math.sin(t)
    if t <= PI / 2.0:
        return 2.0 + math.sin(t)
    return 4.0 - math.sin(t)


def two_branch_sine() -> SetValuedFunction:
    """F(t) = {sin t, sin t + 2}: continuous, two well-separated branches."""

    def fn(t):
        return PointSet.of([math.sin(t), math.sin(t) + 2.0])

    return SetValuedFunction(-PI, PI, fn, jump_points=(),
                             variation_hint=4.0, sup_hint=3.0,
                             variation_function=_abscos_cum)


def zero_union_sine() -> SetValuedFunction:
    """F(t) = {0} union {2 + sin t}: the constant selection 0 exists."""

    def fn(t):
        return PointSet.of([0.0, 2.0 + math.sin(t)])

    return SetValuedFunction(-PI, PI, fn, jump_points=(),
                             variation_hint=4.0, sup_hint=3.0)


def constant_set_fixture(points, a: float = -PI, b: float = PI) -> SetValuedFunction:
    A = PointSet.of(points)
    return SetValuedFunction(a, b, lambda t: A, jump_points=(),
                             variation_hint=0.0,
                             variation_function=lambda t: 0.0)


def singleton_fixture(f, a: float = -PI, b: float = PI,
                      jumps=()) -> SetValuedFunction:
    return SetValuedFunction(a, b, lambda t: PointSet.of([f(t)]),
                             jump_points=tuple(jumps))


def step_svf(x0: float = 0.5) -> SetValuedFunction:
    """Singleton step {0} -> {1}; the simplest jump fixture."""

    def fn(t):
        return PointSet.of([0.0 if t < x0 else 1.0])

    def vf(t):
        return 0.0 if t < x0 else 1.0

    return SetValuedFunction(-PI, PI, fn, jump_points=(x0,),
                             variation_hint=1.0, sup_hint=1.0,
                             variation_function=vf)


SVF_FIXTURES = {
    "lines": lines_fixture,
    "balls": balls_fixture,
    "two-branch-sine": two_branch_sine,
    "zero-union-sine": zero_union_sine,
    "step-svf": step_svf,
    "constant-pm1": lambda: constant_set_fixture([-1.0, 1.0]),
}


# ---------------------------------------------------------------------------
# Inline piecewise description parser (CLI mini-language)

_EVAL_NS = {"sin": math.sin, "cos": math.cos, "tan": math.tan,
            "exp": math.exp, "sqrt": math.sqrt, "abs": abs, "pi": PI}
_CALLS = {name for name, v in _EVAL_NS.items() if callable(v)}
_OPS = (ast.UAdd, ast.USub, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


class DescriptionError(ValueError):
    """Malformed inline SVF description."""


def _in_language(node) -> bool:
    """Whether a parsed curve expression uses only numbers, t, pi, unary
    + and -, binary + - * / **, and keyword-free calls of _CALLS."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.Name):
        return node.id in ("t", "pi")
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, _OPS) and _in_language(node.operand)
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, _OPS) and _in_language(node.left) \
            and _in_language(node.right)
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id in _CALLS and not node.keywords \
        and all(map(_in_language, node.args))


def _compile_expression(expr, where: str):
    """The checked code of one curve expression, int literals made floats
    so that `**` builds no huge int (one past the float range overflows).
    Nesting too deep for the parser or compiler raises RecursionError or
    MemoryError."""
    try:
        tree = ast.parse(str(expr), where, "eval")
        if _in_language(tree.body):
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant):
                    node.value = float(node.value)
            return compile(tree, where, "eval")
    except (SyntaxError, ValueError, ArithmeticError, RecursionError,
            MemoryError) as exc:
        raise DescriptionError(f"{where}.curve: {exc}") from exc
    raise DescriptionError(f"{where}.curve: {expr!r} is outside the "
                           "expression language")


def _check_keys(d, allowed: set, where: str) -> None:
    if not isinstance(d, dict):
        raise DescriptionError(f"{where} must be an object")
    extra = set(d) - allowed
    if extra:
        raise DescriptionError(f"unknown keys {sorted(extra)} in {where}")


def _number(v, where: str) -> float:
    """v as a float, if it is a finite real number (not a bool)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not abs(v) <= sys.float_info.max:
        raise DescriptionError(f"{where} must be a finite number")
    return float(v)


def _piece_evaluator(piece: dict, where: str):
    kinds = [k for k in ("points", "curve", "disc") if k in piece]
    if len(kinds) != 1:
        raise DescriptionError(f"{where} needs exactly one of points/curve/disc")
    kind = kinds[0]
    if kind == "points":
        try:
            S = PointSet.of(piece["points"])
        except (ValueError, TypeError) as exc:
            raise DescriptionError(f"{where}.points: {exc}") from exc
        return lambda t: S
    if kind == "disc":
        d = piece["disc"]
        _check_keys(d, {"center", "radius", "eps"}, where + ".disc")
        center = d.get("center")
        if not isinstance(center, list) or len(center) != 2:
            raise DescriptionError(f"{where}.disc.center must be [x, y]")
        r, e = (_number(d.get(k), f"{where}.disc.{k}")
                for k in ("radius", "eps"))
        if r <= 0 or e <= 0:
            raise DescriptionError(f"{where}.disc needs radius, eps > 0")
        S = disc_net([_number(c, where + ".disc.center") for c in center], r, e)
        return lambda t: S
    curve = piece["curve"]
    if not isinstance(curve, list) or not curve:
        raise DescriptionError(f"{where}.curve must be a nonempty list")
    branches = [expr if isinstance(expr, list) else [expr] for expr in curve]
    if len({len(br) for br in branches}) != 1 or not branches[0] or not all(
            isinstance(e, (str, int, float)) for br in branches for e in br):
        raise DescriptionError(f"{where}.curve branches must be expressions, "
                               "all of one dimension")
    branches = [[_compile_expression(e, where) for e in br] for br in branches]

    def fn(t):
        try:
            return PointSet.of([[eval(code, {"__builtins__": {}},
                                      dict(_EVAL_NS, t=t))
                                 for code in br] for br in branches])
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise DescriptionError(f"{where}.curve at t={t!r}: {exc}") from exc

    return fn


def parse_svf(desc: dict) -> SetValuedFunction:
    """Build an SVF from {'domain': [a,b], 'pieces': [...], 'at': [...]}.

    Pieces cover [a, b) left-to-right via their 'end' breakpoints; each piece
    and each 'at' override holds a finite point list, a parametric curve
    (expressions in t), or a disc epsilon-net spec.  Every defect visible
    before a curve is evaluated raises DescriptionError."""
    _check_keys(desc, {"domain", "pieces", "at"}, "description")
    domain = desc.get("domain")
    if not isinstance(domain, list) or len(domain) != 2:
        raise DescriptionError("domain must be [a, b]")
    a, b = (_number(v, "domain") for v in domain)
    if not a < b:
        raise DescriptionError("domain must satisfy a < b")
    pieces = desc.get("pieces")
    if not isinstance(pieces, list) or not pieces:
        raise DescriptionError("at least one piece required")
    ends = []
    evals = []
    for i, piece in enumerate(pieces):
        where = f"pieces[{i}]"
        _check_keys(piece, {"end", "points", "curve", "disc"}, where)
        last = i == len(pieces) - 1
        if last:
            end = b
            if "end" in piece and abs(_number(piece["end"], where + ".end")
                                      - b) > X_TOL:
                raise DescriptionError("last piece must end at b")
        else:
            if "end" not in piece:
                raise DescriptionError(f"{where} missing 'end'")
            end = _number(piece["end"], where + ".end")
            if not a < end < b or (ends and end <= ends[-1]):
                raise DescriptionError(f"{where} 'end' out of order")
        ends.append(end)
        evals.append(_piece_evaluator(piece, where))
    at = desc.get("at", [])
    if not isinstance(at, list):
        raise DescriptionError("at must be a list")
    overrides = {}
    for i, entry in enumerate(at):
        where = f"at[{i}]"
        _check_keys(entry, {"x", "points", "curve", "disc"}, where)
        x = _number(entry.get("x"), where + ".x")
        if not a <= x <= b:
            raise DescriptionError(f"{where}.x outside the domain")
        overrides[x] = _piece_evaluator(entry, where)
    jump_list = tuple(sorted(set(ends[:-1]) | set(overrides)))

    def fn(t):
        for x_at, ev in overrides.items():
            if abs(t - x_at) <= NODE_TOL:
                return ev(t)
        for end, ev in zip(ends, evals):
            if t < end:
                return ev(t)
        return evals[-1](t)

    return SetValuedFunction(a, b, fn, jump_points=jump_list)
