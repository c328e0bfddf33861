"""Record the reference outputs the benchmark compares against.

    python3 perfbench/record_reference.py [workload ...]

For `process-powerlaw`, `sample-brownian-deep` and `dims-cloud` it runs the
first jobs of the default workload seed; for `verify-all` it runs every
seed of the verify pool.  Each reference is written only if the job passed
its own checks.  Rerun only when a change is meant to alter outputs, and
say why in the change.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FIRST_JOBS = 8


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    import bench_jobs as jobs

    path = HERE / "reference.json"
    recorded = {}
    work = HERE.parent / ".perfbench_work" / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in argv or list(jobs.WORKLOADS):
            w = jobs.WORKLOADS[name]
            if name == "verify-all":
                seeds = range(w.POOL)
            else:
                seeds = [w.job_seed(jobs.DEFAULT_SEED, k) for k in range(FIRST_JOBS)]
            out = {}
            for js in seeds:
                rec = w.digest(w.run(js, str(work)), js)
                if rec.failures or w.check(rec, None):
                    print(f"{name} job {js} failed: {rec.failures}", file=sys.stderr)
                    return 1
                out[str(js)] = w.reference(rec)
                print(f"{name} job {js} recorded", flush=True)
            recorded[name] = out
    finally:
        shutil.rmtree(work, ignore_errors=True)
    refs = json.loads(path.read_text()) if path.exists() else {}
    refs.update(recorded)
    path.write_text(json.dumps(refs, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    from run import THREAD_VARS

    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.exit(main(sys.argv[1:]))
