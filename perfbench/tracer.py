"""External tracing of the metricfourier layers.

`Tracer.install()` replaces each traced function with a wrapper in every
module of the package that binds it (so `from .x import f` bindings and
function-local imports are covered), on its class for methods, and in the
fixture registries.  Nothing inside `src/` changes.  `uninstall()` puts the
originals back.

Each wrapped call is a span.  A stack gives every span its parent, so a
span's self time is its duration minus the durations of its child spans.
Spans are aggregated in memory per (parent, label) edge as they close;
`layer_metrics()` turns the edges into the per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("metricfourier", "metricfourier.cli", "metricfourier.fixtures",
           "metricfourier.svf", "metricfourier.geometry",
           "metricfourier.fourier", "metricfourier.metric_integral",
           "metricfourier.oracle")

FIXTURE_BUILDERS = ("two_branch_sine", "zero_union_sine", "lines_fixture",
                    "balls_fixture", "step_svf", "constant_set_fixture",
                    "singleton_fixture", "disc_net", "parse_svf",
                    "square_wave", "sawtooth", "step_fixture", "trig_poly")
BOUND_FUNCS = ("min_djordan_bound", "djordan_bound_rhs", "svf_bound_rhs",
               "quasi_moduli", "svf_jump_omega", "fit_K", "delta_grid")

# layer -> functions (attribute names; "Class.method" for methods).
TRACED = {
    "cli": ("main", "run_convergence", "run_bound_check", "run_integral",
            "run_selections", "run_example"),
    "fixtures": FIXTURE_BUILDERS + ("_piece_evaluator",),
    "svf": ("SetValuedFunction.__call__", "greedy_chain",
            "approximate_selection", "selection_family", "local_moduli"),
    "geometry": ("project", "dist_point_set", "PointSet.of", "hausdorff",
                 "min_dists", "metric_pairs", "_pair_indices"),
    "fourier": ("metric_fourier", "partial_sum_of_selection",
                "partial_sum_of_chain", "fourier_coefficients",
                "limit_set_AF") + BOUND_FUNCS,
    "metric_integral": ("weighted_metric_integral", "integrate_weight",
                        "weighted_metric_riemann_sum",
                        "right_weighted_metric_riemann_sum",
                        "aumann_integral_convex", "inclusion_check"),
}

# Closures the library builds at run time, traced through their factory:
# factory label -> (label of the returned callable, which calls to wrap).
CLOSURES = {
    "fixtures._piece_evaluator": ("fixtures.curve_eval",
                                  lambda args: "curve" in args[0]),
    "fourier.svf_jump_omega": ("fourier.svf_jump_omega.omega",
                               lambda args: True),
}

# Functions of one group call each other; a call counts as one unit of work
# only when its parent span is outside the group.
GROUPS = {
    "geometry.project": "project", "geometry.dist_point_set": "project",
    "fourier.partial_sum_of_selection": "partial_sum",
    "fourier.partial_sum_of_chain": "partial_sum",
}


def _dist_entries(label, args):
    """|query points| x |target set| of a distance computation, from the
    argument sizes."""
    if label == "geometry.min_dists":
        return args[0].shape[0] * args[1].shape[0]
    if label == "geometry.dist_point_set":
        return len(args[1])
    if label in ("geometry.metric_pairs", "geometry._pair_indices"):
        return len(args[0]) * len(args[1])
    return 0


DIST_LABELS = {"geometry.min_dists", "geometry.dist_point_set",
               "geometry.metric_pairs", "geometry._pair_indices"}


class Tracer:
    def __init__(self):
        # (parent label, label) -> [calls, inclusive s, self s]
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)
        self.codes = {}             # label -> code object of the original
        self._stack = []            # open spans: [label, child seconds]
        self._restore = []          # (owner, attribute, original)

    # -- spans ------------------------------------------------------------
    def wrap(self, label: str, fn):
        edges, stack, counters = self.edges, self._stack, self.counters
        perf = time.perf_counter
        closure = CLOSURES.get(label)
        dist = label in DIST_LABELS
        self.codes[label] = fn.__code__
        if label == "cli.main":
            self.codes["cli.main.hausdorff"] = fn.__code__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label
            if label == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                if argv and argv[0] == "hausdorff":
                    name = "cli.main.hausdorff"
            if dist:
                counters["dist_entries"] += _dist_entries(label, args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                e = edges[(parent[0] if parent else None, name)]
                e[0] += 1
                e[1] += d
                e[2] += d - frame[1]
                if parent:
                    parent[1] += d
            if label == "svf.selection_family":
                counters["family_size"] += len(result)
            if closure and closure[1](args):
                result = self.wrap(closure[0], result)
            return result

        return traced

    # -- patching ---------------------------------------------------------
    def install(self):
        mods = [importlib.import_module(m) for m in MODULES]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"metricfourier.{layer}")
            for name in names:
                label = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self.wrap(label, raw.__func__))
                    else:
                        wrapped = self.wrap(label, raw)
                    self._set(cls, meth, wrapped)
                    continue
                fn = getattr(home, name)
                wrapped = self.wrap(label, fn)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._set(mod, attr, wrapped)
                if layer == "fixtures":
                    for registry in (home.SVF_FIXTURES, home.SCALAR_FIXTURES):
                        for key, val in list(registry.items()):
                            if val is fn:
                                self._set(registry, key, wrapped)

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- metrics ----------------------------------------------------------
    def totals(self) -> dict[str, list]:
        """label -> [calls, inclusive s, self s, calls from outside its
        group]."""
        out = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for (parent, label), (n, incl, own) in self.edges.items():
            t = out[label]
            t[0] += n
            t[1] += incl
            t[2] += own
            if parent is None or GROUPS.get(parent, parent) != GROUPS.get(label, label):
                t[3] += n
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced so far (`trace.*`
        is added by the runner)."""
        t = self.totals()

        def total(field, *labels):
            return sum(t[l][field] for l in labels if l in t)

        def calls(*labels):
            return total(0, *labels)

        def incl(*labels):
            return total(1, *labels)

        def own(*labels):
            return total(2, *labels)

        builders = [f"fixtures.{n}" for n in TRACED["fixtures"]]
        bound = [f"fourier.{n}" for n in BOUND_FUNCS] + ["fourier.svf_jump_omega.omega"]
        seeds = self.edges.get(("svf.selection_family",
                                "svf.approximate_selection"), [0])[0]
        family = self.counters["family_size"]
        return {
            "cli.run_convergence_s": incl("cli.run_convergence"),
            "cli.run_bound_check_s": incl("cli.run_bound_check"),
            "cli.run_integral_s": incl("cli.run_integral"),
            "cli.hausdorff_verb_s": incl("cli.main.hausdorff"),
            "cli.self_s": own(*[l for l in t if l.startswith("cli.")]),
            "fixtures.build_s": own(*builders),
            "fixtures.curve_eval_s": own("fixtures.curve_eval"),
            "svf.selection_family_s": incl("svf.selection_family"),
            "svf.selection_family_calls": calls("svf.selection_family"),
            "svf.seeds_tried": seeds,
            "svf.family_size": family,
            "svf.family_yield": family / seeds if seeds else 0.0,
            "svf.greedy_chain_calls": calls("svf.greedy_chain"),
            "svf.greedy_chain_s": own("svf.greedy_chain"),
            "svf.F_evals": calls("svf.SetValuedFunction.__call__"),
            "svf.F_eval_s": own("svf.SetValuedFunction.__call__"),
            "svf.local_moduli_calls": calls("svf.local_moduli"),
            "svf.local_moduli_s": own("svf.local_moduli"),
            "geometry.project_calls": total(3, "geometry.project",
                                            "geometry.dist_point_set"),
            "geometry.project_s": own("geometry.project",
                                      "geometry.dist_point_set"),
            "geometry.pointset_of_calls": calls("geometry.PointSet.of"),
            "geometry.pointset_of_s": own("geometry.PointSet.of"),
            "geometry.hausdorff_calls": calls("geometry.hausdorff"),
            "geometry.hausdorff_s": own("geometry.hausdorff"),
            "geometry.min_dists_s": own("geometry.min_dists"),
            "geometry.metric_pairs_s": own("geometry.metric_pairs",
                                           "geometry._pair_indices"),
            "geometry.dist_entries": self.counters["dist_entries"],
            "fourier.metric_fourier_s": incl("fourier.metric_fourier"),
            "fourier.partial_sum_calls": total(
                3, "fourier.partial_sum_of_selection",
                "fourier.partial_sum_of_chain"),
            "fourier.partial_sum_s": own("fourier.partial_sum_of_selection",
                                         "fourier.partial_sum_of_chain"),
            "fourier.coeff_quad_calls": calls("fourier.fourier_coefficients"),
            "fourier.coeff_quad_s": own("fourier.fourier_coefficients"),
            "fourier.limit_set_s": own("fourier.limit_set_AF"),
            "fourier.bound_s": own(*bound),
            "metric_integral.integral_s": own(
                "metric_integral.weighted_metric_integral",
                "metric_integral.integrate_weight"),
            "metric_integral.integrate_weight_calls": calls(
                "metric_integral.integrate_weight"),
            "metric_integral.riemann_s": own(
                "metric_integral.weighted_metric_riemann_sum",
                "metric_integral.right_weighted_metric_riemann_sum"),
            "metric_integral.inclusion_s": own("metric_integral.inclusion_check"),
            "metric_integral.aumann_s": own("metric_integral.aumann_integral_convex"),
        }
