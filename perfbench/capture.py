"""Capture the seed-0 job outputs that `run.py` compares against.

    python3 perfbench/capture.py [WORKLOAD ...]

Run it only when a change is meant to alter the outputs, and say so in the
change: the references are the benchmark's definition of a correct answer.
"""
from __future__ import annotations

import json
import shutil
import sys

from run import ROOT, import_library


def main(names) -> int:
    import_library()
    import workloads
    work = ROOT / ".perfbench_work" / "capture"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or sorted(workloads.WORKLOADS):
            jobs = workloads.build(name, 0, work)
            refs = {job.name: job.run() for job in jobs}
            for job in jobs:
                problems = job.check(refs[job.name])
                if problems:
                    sys.stderr.write(f"{name}/{job.name}: {problems}\n")
                    return 1
            path = workloads.reference_path(name)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"wrote {path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
