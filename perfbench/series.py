"""Run the benchmark over several seeds and workloads and save the results.

    python3 perfbench/series.py --out DIR [--workloads a,b] [--seeds 1-10]
        [--trace 0|1] [--checkout LABEL=PATH ...]

Each run is the BENCHMARK.json command in a fresh process, with the
checkout as working directory and the run length of its BENCHMARK.json.
One JSON line per run goes to `DIR/LABEL.jsonl`.  With two or more
checkouts (say parent and change), every (workload, seed) runs on each of
them in turn, and the order alternates from one seed to the next, so the
pairs share machine conditions.  Compare the files with `compare.py`.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace,
              "returncode": proc.returncode}
    if proc.returncode != 0 or len(lines) < 2:
        record["error"] = proc.stderr[-2000:]
        return record
    record["detail"] = json.loads(lines[-2])["detail"]
    record["result"] = json.loads(lines[-1])
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--checkout", action="append", default=[],
                   metavar="LABEL=PATH")
    args = p.parse_args(argv)
    checkouts = [tuple(c.split("=", 1)) for c in args.checkout] or [
        ("results", str(HERE.parent))]
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads.split(","):
        for i, seed in enumerate(seed_list(args.seeds)):
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for label, path in order:
                record = run_one(Path(path), workload, seed, args.trace)
                record["label"] = label
                with open(args.out / f"{label}.jsonl", "a",
                          encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                summary = record.get("result", {}).get("metrics") or record.get("error")
                print(f"{label} {workload} seed={seed}: "
                      f"{json.dumps(summary)[:300]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
