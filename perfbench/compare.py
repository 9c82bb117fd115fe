"""Summarise one result set, or compare two, on the end-to-end metrics.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Result sets are the JSON-lines files `series.py` writes.  Untraced runs
only.  Runs that ended without a result or with failed jobs are dropped
and counted, per side; any such run makes the exit status 1.  For each
workload and metric it prints the median and quartiles
(`statistics.quantiles(n=4)`) of each side and the bound from
BENCHMARK.json.

One set: the spread (q3 - q1) / median, against the bound and a third of
it; a spread wider than the bound, `setup_s` included, exits 1.  Two
sets: runs are paired by seed, and the verdict follows these rules:

* better: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither side), and the medians differ in its favour by
  more than the base's own quartile distance;
* worse: the change's median is worse than the base's by more than the
  bound, with both spreads within the bound;
* unresolved: a spread is wider than the bound, unless every run of the
  change reads better than every run of the base;
* same: otherwise.

A change that failed more jobs or runs than the base on a workload gets no
"better" verdict there.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text(encoding="utf-8"))


def load(path) -> tuple[dict, dict]:
    """Read one result set.  Returns (values, failures): values maps
    (workload, metric) -> {seed: value} over the untraced runs that ended
    and were correct; failures maps workload -> [runs dropped, failed jobs
    in them].  A run is dropped when it ended without a result or with
    failed jobs: its times are not comparable."""
    values, failures = {}, {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            bad = failures.setdefault(rec["workload"], [0, 0])
            result = rec.get("result")
            if result is None or not result["correct"] or result["failed"]:
                bad[0] += 1
                bad[1] += result["failed"] if result else 0
                continue
            for name, m in result["metrics"].items():
                values.setdefault((rec["workload"], name), {})[rec["seed"]] = m["value"]
    return values, failures


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: dict, change: dict, better: str, bound: float) -> tuple:
    sign = 1.0 if better == "lower" else -1.0   # positive = change is worse
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    c_q1, c_med, c_q3 = quartiles(list(change.values()))
    seeds = sorted(set(base) & set(change))
    wins = sum(sign * (change[s] - base[s]) < 0 for s in seeds)
    worse_by = sign * (c_med - b_med) / b_med
    spread = max((b_q3 - b_q1) / b_med, (c_q3 - c_q1) / c_med)
    all_better = all(sign * (c - b) < 0 for c in change.values()
                     for b in base.values())
    if (len(seeds) >= 10 and wins >= 0.9 * len(seeds)
            and -worse_by * b_med > b_q3 - b_q1):
        word = "better"
    elif spread > bound and not all_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    else:
        word = "same"
    return word, worse_by, wins, len(seeds)


def main(argv) -> int:
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    loaded = [load(p) for p in argv]
    sets = [values for values, _ in loaded]
    order = [w["name"] for w in SPEC["workloads"]]
    status = 0
    more_failures = set()
    for workload in order:
        counts = [failures.get(workload, [0, 0]) for _, failures in loaded]
        for label, (runs, jobs) in zip(("base", "new"), counts):
            if runs:
                status = 1
                print(f"{workload}: {label} dropped {runs} runs that failed "
                      f"or ended without a result ({jobs} failed jobs)")
        if len(counts) == 2 and (counts[1][0] > counts[0][0]
                                 or counts[1][1] > counts[0][1]):
            more_failures.add(workload)
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, "
              f"bound {bound:.0%})")
        for workload in order:
            sides = [s.get((workload, name)) for s in sets]
            if not all(sides):
                print(f"  {workload:12s} no correct runs")
                status = 1
                continue
            cells = []
            for side in sides:
                q1, med, q3 = quartiles(list(side.values()))
                cells.append(f"n={len(side)} median {med:.6g} "
                             f"[{q1:.6g}, {q3:.6g}] spread {(q3 - q1) / med:.1%}")
            if len(sides) == 1:
                q1, med, q3 = quartiles(list(sides[0].values()))
                spread = (q3 - q1) / med
                flag = ("steady" if spread < bound / 3 else
                        "within bound" if spread <= bound else "TOO WIDE")
                status |= spread > bound
                print(f"  {workload:12s} {cells[0]}  -> {flag}")
            else:
                word, worse_by, wins, pairs = verdict(
                    sides[0], sides[1], metric["better"], bound)
                if word == "better" and workload in more_failures:
                    word = "unresolved (the change failed more jobs)"
                status |= word == "worse"
                print(f"  {workload:12s} base {cells[0]}\n"
                      f"  {'':12s} new  {cells[1]}\n"
                      f"  {'':12s} change {-worse_by:+.1%} in the better "
                      f"direction, won {wins}/{pairs} pairs -> {word}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
