"""The public API takes no tolerance or probe count per call.  Each is a
module constant, so every caller shares one notion of nearest point, one
quadrature accuracy and one set of probe grids.  Nor does it take the
deleted knobs: a Riemann sum's `mode` (a `family` argument says it) and
the bound's kernel constant `C` (`fourier.C_KERNEL`)."""
import importlib
import inspect
from pathlib import Path

import metricfourier
from metricfourier import (cli, fixtures, fourier, geometry, metric_integral,
                           svf)

MODULES = (metricfourier, cli, fixtures, fourier, geometry, metric_integral,
           svf)
KNOBS = {"tie_tol", "qtol", "vtol", "probe", "probes", "member_tol",
         "inter_tol", "mode", "C"}


def exported():
    """(label, function) for every public function of the package's
    modules and every method of its public classes."""
    seen = set()
    for mod in MODULES:
        for name, obj in vars(mod).items():
            if name.startswith("_") or not callable(obj) or id(obj) in seen \
                    or not getattr(obj, "__module__", "").startswith(
                        "metricfourier"):
                continue
            seen.add(id(obj))
            if not inspect.isclass(obj):
                yield f"{obj.__module__}.{obj.__qualname__}", obj
                continue
            for meth in vars(obj).values():
                fn = getattr(meth, "__func__", meth)
                if inspect.isfunction(fn):
                    yield f"{obj.__module__}.{fn.__qualname__}", fn


def test_no_callable_takes_a_tolerance_or_probe_count():
    labels = [label for label, _ in exported()]
    assert "metricfourier.geometry.project" in labels
    assert "metricfourier.geometry.PointSet.of" in labels
    found = sorted(f"{label}({p})" for label, fn in exported()
                   for p in inspect.signature(fn).parameters if p in KNOBS)
    assert not found, found


def test_benchmark_tracer_finds_every_traced_function(monkeypatch):
    """perfbench's tracer looks up the functions it traces by name when it
    installs, so deleting or renaming one must fail here, not only in its
    own self-test."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
