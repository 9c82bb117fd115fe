"""Self-test of the external tracer on small inputs.

    python3 perfbench/selftest.py

Runs small versions of the three workloads twice: untraced, then traced
with cProfile running too.  It fails (exit 1) unless

* every job's output is byte-identical with and without tracing,
* for every traced function, the traced call count equals cProfile's
  `ncalls` for the same code object (so no call bypassed the patching),
* uninstalling restores every patched function, and
* the traced run yields every per-layer metric BENCHMARK.json names.
"""
from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import sys
from collections import Counter

import numpy as np

from run import ROOT, import_library


def small_jobs(work):
    """Small versions of the workloads, each with its own config directory
    (their job names, and so their config files, overlap)."""
    import workloads
    rng = np.random.default_rng(1)
    dirs = [work / name for name in ("sine", "balls", "jump")]
    for d in dirs:
        d.mkdir()
    return (workloads.sine_table(rng, dirs[0], orders=(4, 16), x_count=5,
                                 depth=1)
            + workloads.balls_nets(rng, dirs[1], eps=0.2, orders=(4,),
                                   depth=1)
            + workloads.jump_checks(rng, dirs[2], step_orders=(4,),
                                    square_orders=(4, 16), integral_depth=5,
                                    riemann_depth=3, inclusion_depths=(4, 4)))


def main() -> int:
    import_library()
    from metricfourier import geometry
    from tracer import Tracer
    work = ROOT / ".perfbench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        jobs = small_jobs(work)
        plain = {job.name + str(i): job.run() for i, job in enumerate(jobs)}
        original_project = geometry.project
        tracer = Tracer()
        profile = cProfile.Profile()
        tracer.install()
        profile.enable()
        try:
            traced = {job.name + str(i): job.run()
                      for i, job in enumerate(jobs)}
        finally:
            profile.disable()
            tracer.uninstall()
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)

    problems += [f"{name}: traced output differs" for name in plain
                 if plain[name] != traced[name]]
    if geometry.project is not original_project:
        problems.append("uninstall left geometry.project patched")

    totals = tracer.totals()
    traced_calls = Counter()
    for label, code in tracer.codes.items():
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        traced_calls[key] += totals[label][0] if label in totals else 0
    stats = pstats.Stats(profile).stats
    for key, calls in sorted(traced_calls.items()):
        ncalls = stats.get(key, (0, 0))[1]
        status = "ok" if ncalls == calls else "MISMATCH"
        print(f"{status:8s} {key[2]:28s} traced {calls:7d} cProfile {ncalls:7d}")
        if ncalls != calls:
            problems.append(f"{key}: traced {calls} calls, cProfile {ncalls}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    missing = want - set(tracer.layer_metrics())
    if missing:
        problems.append(f"per-layer metrics missing: {sorted(missing)}")

    for p in problems:
        print(f"FAILED {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
