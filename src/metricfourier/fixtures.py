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
# `disc_net` refuses a net of more points than this, so that a config with
# a tiny eps is an error, not a run that never ends.  The paper's nets
# (radius 1, eps 1e-3) have 3.15M points, 50 MB each, and `balls_fixture`
# holds two of them and their union: about 200 MB, which this admits.
DISC_NET_MAX = 4_000_000


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

def _gather(ts: np.ndarray, owner: np.ndarray, parts) -> list:
    """The image of each t of ts under its part parts[owner[i]], which is a
    PointSet (the image of every t) or an evaluator, called once on all the
    t it owns."""
    out = [parts[k] for k in owner.tolist()]
    for k, part in enumerate(parts):
        if isinstance(part, PointSet):
            continue
        idx = np.flatnonzero(owner == k)
        if idx.size:
            for i, S in zip(idx.tolist(), part(ts[idx])):
                out[i] = S
    return out


def _side(ts: np.ndarray, x0: float) -> np.ndarray:
    """0, 1 or 2 for each t of ts below, at or above x0."""
    return (ts >= x0).astype(np.intp) + (ts > x0)


def lines_fixture(x0: float = 0.5) -> SetValuedFunction:
    """Three constant points, five values at the jump, then two moving lines."""
    left = PointSet.of([-0.25, 0.0, 0.25])
    at = PointSet.of([-1.0, -0.25, 0.0, 0.25, 1.0])

    def moving(ts):
        return PointSet.many(np.stack([-1.0 + ts - x0, 1.0 + ts - x0],
                                      axis=1)[:, :, None])

    def fn(ts):
        return _gather(ts, _side(ts, x0), (left, at, moving))

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
    the boundary points facing the axis directions land on the grid.

    A net of more than DISC_NET_MAX points raises DescriptionError before
    anything is built.  Ring j of the n = ceil(radius / eps) rings has
    radius r_j = radius j / n and at least 2 pi r_j / eps points, so a net
    has more than pi (radius / eps)**2: a tiny eps is refused without
    counting its rings."""
    cx, cy = float(center[0]), float(center[1])
    too_many = (f"a disc net of radius {radius} at eps {eps} has more than "
                f"{DISC_NET_MAX} points")
    if not radius / eps <= math.sqrt(DISC_NET_MAX / PI):
        raise DescriptionError(too_many)
    rings = max(1, math.ceil(radius / eps))
    r = radius * np.arange(1, rings + 1) / rings
    m = 8 * np.maximum(1, np.ceil(2.0 * PI * r / (8.0 * eps))).astype(int)
    if 1 + m.sum() > DISC_NET_MAX:
        raise DescriptionError(too_many)
    # All rings in one pass: point k of ring j sits at the angle k times
    # the ring's step 2 pi / m_j, which is how np.linspace(0, 2 pi, m_j,
    # endpoint=False) computes it, bit for bit.
    k = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
    ang = k * np.repeat(2.0 * PI / m, m)
    rad = np.repeat(r, m)
    pts = np.empty((1 + ang.size, 2))
    pts[0] = cx, cy
    pts[1:, 0] = cx + rad * np.cos(ang)
    pts[1:, 1] = cy + rad * np.sin(ang)
    return PointSet.of(pts, dedup_tol=0)


def balls_fixture(x0: float = 0.5, eps: float = 1e-3) -> SetValuedFunction:
    """Disc B((-2,2),1) before the jump, disc B((2,2),1) after, and at the
    jump their union together with the origin."""
    netL = disc_net((-2.0, 2.0), 1.0, eps)
    netR = disc_net((2.0, 2.0), 1.0, eps)
    at = PointSet.of(np.vstack([netL.points, [[0.0, 0.0]], netR.points]),
                     dedup_tol=0)

    def fn(ts):
        return _gather(ts, _side(ts, x0), (netL, at, netR))

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

    def fn(ts):
        s = np.sin(ts)
        return PointSet.many(np.stack([s, s + 2.0], axis=1)[:, :, None])

    return SetValuedFunction(-PI, PI, fn, jump_points=(),
                             variation_hint=4.0, sup_hint=3.0,
                             variation_function=_abscos_cum)


def zero_union_sine() -> SetValuedFunction:
    """F(t) = {0} union {2 + sin t}: the constant selection 0 exists."""

    def fn(ts):
        return PointSet.many(np.stack([np.zeros_like(ts), 2.0 + np.sin(ts)],
                                      axis=1)[:, :, None])

    return SetValuedFunction(-PI, PI, fn, jump_points=(),
                             variation_hint=4.0, sup_hint=3.0)


def constant_set_fixture(points, a: float = -PI, b: float = PI) -> SetValuedFunction:
    A = PointSet.of(points)
    return SetValuedFunction(a, b, lambda ts: [A] * len(ts), jump_points=(),
                             variation_hint=0.0,
                             variation_function=lambda t: 0.0)


def singleton_fixture(f, a: float = -PI, b: float = PI,
                      jumps=()) -> SetValuedFunction:
    return SetValuedFunction(a, b,
                             lambda ts: [PointSet.of([f(t)]) for t in ts],
                             jump_points=tuple(jumps))


def step_svf(x0: float = 0.5) -> SetValuedFunction:
    """Singleton step {0} -> {1}; the simplest jump fixture."""
    lo, hi = PointSet.of([0.0]), PointSet.of([1.0])

    def fn(ts):
        return _gather(ts, _side(ts, x0), (lo, hi, hi))

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

# The curve language's functions, numpy's: each gives the same bits on a
# number and on an array, so a curve sampled on an array of t equals the
# curve at each t.  `**` compiles to a call of `np.power`, which does too
# (numpy's scalar `**` and Python's do not).  The power is not in the
# language: no curve can name it.
_EVAL_NS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
            "sqrt": np.sqrt, "abs": np.abs, "pi": PI}
_CALLS = {name for name, v in _EVAL_NS.items() if callable(v)}
_OPS = (ast.UAdd, ast.USub, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_POWER = "power"
_GLOBALS = {**_EVAL_NS, _POWER: np.power, "__builtins__": {}}


class DescriptionError(ValueError):
    """Malformed inline SVF description."""


def _in_language(node) -> bool:
    """Whether a parsed curve expression uses only numbers, t, pi, unary
    + and -, binary + - * / **, and one-argument, keyword-free calls of
    _CALLS."""
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
        and len(node.args) == 1 and _in_language(node.args[0])


class _Numpy(ast.NodeTransformer):
    """Int literals become floats, so that `**` builds no huge int, and
    `a ** b` becomes `power(a, b)`."""

    def visit_Constant(self, node):
        return ast.copy_location(ast.Constant(float(node.value)), node)

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        return ast.copy_location(ast.Call(ast.Name(_POWER, ast.Load()),
                                          [node.left, node.right], []), node)


def _compile_expression(expr, where: str):
    """The checked code of one curve expression, in numpy's terms (see
    `_Numpy`).  Nesting too deep for the parser or compiler raises
    RecursionError or MemoryError."""
    try:
        tree = ast.parse(str(expr), where, "eval")
        if _in_language(tree.body):
            tree = ast.fix_missing_locations(_Numpy().visit(tree))
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


def config_points(points, where: str) -> PointSet:
    """The PointSet of a point list read from a config (numbers, or lists
    of numbers), or a DescriptionError naming `where`.  The list is parsed
    once, and refused unless numpy reads it as numbers: strings such as
    "1e3", which a float conversion would accept, are not.  JSON's true and
    false, which numpy reads as 1 and 0 among numbers, are refused too."""
    try:
        arr = np.array(points)
        S = PointSet.of(arr) if arr.dtype.kind in "biuf" else None
    except ValueError as exc:
        raise DescriptionError(f"{where}: {exc}") from exc
    if S is None:
        raise DescriptionError(f"{where} must hold numbers")
    # Only the rows with a coordinate 0 or 1 can hold a bool, so a large
    # net costs no Python loop over its points.
    maybe = ((arr == 0) | (arr == 1)).reshape(len(arr), -1).any(axis=1)
    rows = [points[i] for i in np.flatnonzero(maybe).tolist()]
    if any(isinstance(c, bool) for p in rows
           for c in (p if isinstance(p, list) else [p])):
        raise DescriptionError(f"{where} must hold numbers, not true/false")
    return S


def _piece_evaluator(piece: dict, where: str):
    """The evaluator of one checked piece: its one image, a PointSet, when
    it has points or a disc, else the function from a 1-d array of t to
    the list of their images.  A curve is evaluated with every
    floating-point error but underflow raised; an error becomes a
    DescriptionError naming the piece and the first t that fails."""
    kinds = [k for k in ("points", "curve", "disc") if k in piece]
    if len(kinds) != 1:
        raise DescriptionError(f"{where} needs exactly one of points/curve/disc")
    kind = kinds[0]
    if kind == "points":
        return config_points(piece["points"], where + ".points")
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
        center = [_number(c, where + ".disc.center") for c in center]
        try:
            return disc_net(center, r, e)
        except DescriptionError as exc:
            raise DescriptionError(f"{where}.disc: {exc}") from exc
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
        block = np.empty((t.size, len(branches), len(branches[0])))
        env = {"t": t}
        try:
            with np.errstate(all="raise", under="ignore"):
                for i, br in enumerate(branches):
                    for j, code in enumerate(br):
                        block[:, i, j] = eval(code, _GLOBALS, env)
            return PointSet.many(block)
        except (ArithmeticError, TypeError, ValueError) as exc:
            if t.size == 1:
                raise DescriptionError(f"{where}.curve at t={float(t[0])!r}: "
                                       f"{exc}") from exc
            # One t at a time, so that the first t that fails raises.
            return [S for i in range(t.size) for S in fn(t[i:i + 1])]

    return fn


def _dimension(piece: dict, ev) -> int:
    """The dimension of a checked piece's points, read without evaluating a
    curve: a curve's is the length of its branches, a points or disc
    piece's that of its prebuilt set."""
    if "curve" in piece:
        first = piece["curve"][0]
        return len(first) if isinstance(first, list) else 1
    return ev.dim


def parse_svf(desc: dict) -> SetValuedFunction:
    """Build an SVF from {'domain': [a,b], 'pieces': [...], 'at': [...]}.

    Pieces cover [a, b) left-to-right via their 'end' breakpoints; each piece
    and each 'at' override holds a finite point list, a parametric curve
    (expressions in t), or a disc epsilon-net spec, all of one dimension.
    Every defect visible before a curve is evaluated raises
    DescriptionError."""
    _check_keys(desc, {"domain", "pieces", "at"}, "description")
    domain = desc.get("domain")
    if not isinstance(domain, list) or len(domain) != 2:
        raise DescriptionError("domain must be [a, b]")
    a, b = (_number(v, "domain") for v in domain)
    if not a < b:
        raise DescriptionError("domain must satisfy a < b")
    if not math.isfinite(b - a):
        raise DescriptionError("domain length b - a must be finite")
    pieces = desc.get("pieces")
    if not isinstance(pieces, list) or not pieces:
        raise DescriptionError("at least one piece required")
    ends = []
    evals = []
    dims = {}
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
        dims[where] = _dimension(piece, evals[-1])
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
        dims[where] = _dimension(entry, overrides[x])
    for where, dim in dims.items():
        if dim != dims["pieces[0]"]:
            raise DescriptionError(f"{where} has dimension {dim}, pieces[0] "
                                   f"has {dims['pieces[0]']}")
    jump_list = tuple(sorted(set(ends[:-1]) | set(overrides)))

    cuts = np.array(ends)
    # The override points, and one at infinity that no t is near.
    at_x = np.array([*overrides, np.inf])
    parts = evals + list(overrides.values())

    def fn(ts):
        # F(t) is given by the first override within NODE_TOL of t, else by
        # the first piece whose end exceeds t, else by the last piece.
        piece = np.minimum(np.searchsorted(cuts, ts, side="right"),
                           len(evals) - 1)
        near = np.abs(np.subtract.outer(ts, at_x)) <= NODE_TOL
        return _gather(ts, np.where(near.any(axis=1),
                                    len(evals) + near.argmax(axis=1), piece),
                       parts)

    return SetValuedFunction(a, b, fn, jump_points=jump_list)
