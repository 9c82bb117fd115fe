"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
`src/`.  The workload's jobs run in this one single-threaded process,
pass after pass, for about `--seconds` (at least one whole pass; by
default BENCHMARK.json's `run_seconds`).  Every job's output is checked; a
job that raises, exits non-zero or fails its check counts as failed and
the run goes on.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The line before it holds the
environment, the per-pass numbers and any problems found.

`--trace 0` reports the end-to-end metrics: `wall_s` and `cpu_s`, the
median over passes of one pass's time (see `median_pass`), `peak_rss_mb`, and
`setup_s`, the median over fresh interpreters of the time from process
start to the first timed job.  `--trace 1` alternates untraced and traced
passes and reports the per-layer metrics of the traced ones (medians over
passes), plus `trace.overhead_s`, traced minus untraced `wall_s`.  Traced
outputs must be byte-identical to untraced ones.
"""
from __future__ import annotations

import os

# Pin native thread pools to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# setup_s is the median of this many fresh interpreters, spread over the
# run: one start-up is too exposed to other tenants' load on its own.
SETUP_SAMPLES = 7


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the wall-clock time, and exit")
    return p.parse_args(argv)


def import_library():
    """Import metricfourier from this checkout's src/, nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import metricfourier
    where = Path(metricfourier.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise ImportError(f"metricfourier imported from {where}, "
                          f"not from {ROOT / 'src'}")
    sys.path.insert(0, str(HERE))


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": threading.active_count(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_pass(jobs, refs, tracer=None):
    """Run every job once.  Returns per-job wall and CPU seconds, outputs
    and problems; only `job.run` is timed, checks are not."""
    import workloads
    wall, cpu, outputs, problems = {}, {}, {}, {}
    if tracer:
        tracer.install()
    try:
        for job in jobs:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = job.run()
            except Exception:  # a failing job is counted, not fatal
                out = None
                problems[job.name] = [traceback.format_exc(limit=3)]
            finally:
                wall[job.name] = time.perf_counter() - t0
                cpu[job.name] = time.process_time() - c0
            outputs[job.name] = out
    finally:
        if tracer:
            tracer.uninstall()
    for job in jobs:
        out = outputs[job.name]
        if out is None:
            continue
        try:
            found = job.check(out)
            if refs is not None:
                found += workloads.compare_text(out, refs[job.name])
        except Exception:  # a malformed output is a failed check
            found = [traceback.format_exc(limit=3)]
        if found:
            problems[job.name] = found
    return wall, cpu, outputs, problems


def setup_seconds(args) -> float:
    """Time from spawning a fresh interpreter to its first timed job."""
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def median_pass(passes, key) -> float:
    """Median over passes of one pass's time, summed over its jobs.  On a
    shared machine other tenants shift the speed for minutes at a time;
    between runs this median moved less than each job's fastest pass."""
    return statistics.median(sum(p[key].values()) for p in passes)


def measure(args, jobs, refs):
    """Run passes for `args.seconds`: stop when the next pass, taking as
    long as the last one, would end after that.  With tracing, passes
    alternate untraced and traced and end on a traced one.  Without, a
    set-up probe runs between passes each time another 1/SETUP_SAMPLES of
    the run has gone by, so the probes sample the whole run."""
    from tracer import Tracer
    passes, problems, first, layer, setup = [], [], None, [], []
    start = time.perf_counter()
    while True:
        if not args.trace and len(setup) < SETUP_SAMPLES and (
                time.perf_counter() - start
                >= len(setup) * args.seconds / SETUP_SAMPLES):
            setup.append(setup_seconds(args))
        t0 = time.perf_counter()
        n_traced = sum(p["traced"] for p in passes)
        tracer = Tracer() if args.trace and len(passes) > 2 * n_traced else None
        wall, cpu, outputs, found = run_pass(jobs, refs, tracer)
        if first is None:
            first = outputs
        elif tracer:
            for name, out in outputs.items():
                if out is not None and out != first[name]:
                    found.setdefault(name, []).append(
                        "traced output differs from untraced output")
        passes.append({"traced": bool(tracer), "wall_s": wall, "cpu_s": cpu,
                       "failed": len(found)})
        problems += [f"{name}: {p}" for name, ps in found.items() for p in ps]
        if tracer:
            layer.append(tracer.layer_metrics())
        now = time.perf_counter()
        done = now + (now - t0) - start > args.seconds
        if done and (not args.trace or tracer):
            while not args.trace and len(setup) < SETUP_SAMPLES:
                setup.append(setup_seconds(args))
            return passes, problems, layer, setup


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}\n")
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        jobs = workloads.build(args.workload, args.seed, work)
        if args.setup_probe:
            print(repr(time.time()))
            return 0
        refs = workloads.load_references(args.workload) if args.seed == 0 else None
        env = environment()
        env["loadavg_before"] = os.getloadavg()
        passes, problems, layer, setup = measure(args, jobs, refs)
        untraced = [p for p in passes if not p["traced"]]
        if args.trace:
            metrics = {name: statistics.median(m[name] for m in layer)
                       for name in layer[0]}
            metrics["trace.overhead_s"] = (
                median_pass([p for p in passes if p["traced"]], "wall_s")
                - median_pass(untraced, "wall_s"))
            units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        else:
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": median_pass(untraced, "wall_s"),
                "cpu_s": median_pass(untraced, "cpu_s"),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            env["setup_samples"] = setup
            units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        env["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    failed = sum(p["failed"] for p in passes)
    for line in problems:
        sys.stderr.write(f"FAILED {line}\n")
    print(json.dumps({"detail": {"workload": args.workload, "seed": args.seed,
                                 "env": env, "passes": passes,
                                 "problems": problems}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs) * len(passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
