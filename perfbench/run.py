"""icrt-lab benchmark: four workloads of CLI-equivalent jobs.

    python3 perfbench/run.py --workload process-powerlaw --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from
`src/`.  Each workload runs its jobs serially in one process with the BLAS
and OpenMP pools capped at one thread.  With `--trace 0` the run reports
the end-to-end metrics (set-up time, median job time, throughput, peak
memory); with `--trace 1` it reports the per-layer metrics of a traced
run.  Every job's output is checked, and the last line of standard output
is one JSON object `{"correct", "attempted", "failed", "metrics"}`.  The
exit code is 0 only when every check passed.  Details are written to
`.perfbench_out/`; job outputs live in `.perfbench_work/` while the run
lasts.  `--workload all` runs each workload in its own process.
`BENCHMARK.json` lists two of the four workloads; `verify-all` and
`dims-cloud` are left out of the timed runs (see perfbench/README.md).
The end-to-end times are scaled to a reference host speed by
`hostclock.HostClock`.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("process-powerlaw", "sample-brownian-deep", "verify-all", "dims-cloud")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_child(argv: list) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of process start to ready-to-run:
    interpreter start, imports and input generation, in seconds at the
    reference host speed."""
    scaled = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = run_child(["--workload", workload, "--seed", str(seed), "--setup-probe"])
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        ready, mean_chunk_s = map(float, done.stdout.strip().splitlines()[-1].split())
        scaled.append(HostClock.scaled(ready - t0, mean_chunk_s))
    return statistics.median(scaled)


def setup_probe(workload: str, seed: int, clock: HostClock) -> int:
    import bench_jobs as jobs

    w = jobs.WORKLOADS[workload]
    w.job_seed(seed, 0)
    ready = time.perf_counter()
    print(repr(ready), repr(clock.stop()))
    return 0


def machine_record(args, jobs) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "item": jobs.WORKLOADS[args.workload].item,
    }


def timed_job(w, js, work, failures, clock=None):
    """Run one untraced job; returns (wall seconds, record or None).  With
    a `clock`, its mean chunk time over the job is in `clock.mean_chunk_s`."""
    gc.collect()
    with clock or contextlib.nullcontext():
        t = time.perf_counter()
        try:
            product = w.run(js, work)
        except Exception:
            product = None
            failures.append((str(js), f"raised:\n{traceback.format_exc()}"))
        dt = time.perf_counter() - t
    if product is None:
        return dt, None
    return dt, digest(w, product, js, str(js), failures)


def digest(w, product, js, label, failures):
    try:
        rec = w.digest(product, js)
    except Exception:
        failures.append((label, f"output unreadable:\n{traceback.format_exc()}"))
        return None
    failures.extend((label, f) for f in rec.failures)
    return rec


def deferred_checks(w, records, failures, references) -> None:
    refs = references.get(w.name, {})
    for rec in records:
        try:
            found = w.check(rec, refs.get(str(rec.seed)))
        except Exception:
            found = [f"check raised:\n{traceback.format_exc()}"]
        failures.extend((str(rec.seed), f) for f in found)


def traced_job(w, tr, js, label, work, failures):
    """Run one traced job under the job id `label`; returns its record."""
    gc.collect()
    tr.job = label
    try:
        with tr.span("job"):
            product = w.traced(tr, js, work)
    except Exception:
        failures.append((label, f"raised:\n{traceback.format_exc()}"))
        return None
    return digest(w, product, js, label, failures)


def keep_going(times, seconds) -> bool:
    """Start another job only if it should end inside the run window."""
    if not times:
        return True
    return sum(times) + statistics.median(times) <= seconds


def run_plain(args, w, work, references):
    """Job times are scaled to the reference host speed (see hostclock.py);
    the run window counts wall time."""
    setup_s = measure_setup(args.workload, args.seed)
    walls, times, rates, records, failures, jobs_out = [], [], [], [], [], []
    clock = HostClock()
    while keep_going(walls, args.seconds):
        js = w.job_seed(args.seed, len(times))
        dt, rec = timed_job(w, js, work, failures, clock)
        walls.append(dt)
        times.append(HostClock.scaled(dt, clock.mean_chunk_s))
        rates.append((rec.items if rec else 0) / times[-1])
        jobs_out.append(dict(seed=js, wall_s=dt, scaled_s=times[-1],
                             mean_chunk_s=clock.mean_chunk_s,
                             items=rec.items if rec else 0,
                             sizes=rec.sizes if rec else {}))
        if rec is not None:
            records.append(rec)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    deferred_checks(w, records, failures, references)
    metrics = {
        "setup_s": setup_s,
        "job_s": statistics.median(times),
        # a median of per-job rates: one job caught by a host phase the
        # scaling misses would move a total-over-total rate much further
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": peak_mb,
    }
    return metrics, len(times), failures, jobs_out, None


def run_traced(args, w, work, references):
    """Pairs of one untraced and one traced job on the same job seed, then
    the per-call microbenchmarks and the probes; none of the latter count
    towards the jobs."""
    import bench_layers as layers
    from bench_trace import Tracer

    tr = Tracer()
    pair_times, overheads, per_job, plain_records, failures = [], [], [], [], []
    while keep_going(pair_times, args.seconds):
        js = w.job_seed(args.seed, len(pair_times))
        label = f"{js}-traced"
        # alternate which side runs first, so a warming process favours neither
        plain_first = len(pair_times) % 2 == 0
        if plain_first:
            dt_plain, plain = timed_job(w, js, work, failures)
        traced = traced_job(w, tr, js, label, work, failures)
        if not plain_first:
            dt_plain, plain = timed_job(w, js, work, failures)
        spans = tr.job_spans(label)
        dt_traced = spans["job"][0]["end"] - spans["job"][0]["start"]
        pair_times.append(dt_plain + dt_traced)
        overheads.append((dt_traced - dt_plain) / dt_plain)
        if traced is not None:
            per_job.append(layers.span_metrics(spans))
        if plain is not None:
            plain_records.append(plain)
            if traced is not None and plain.output != traced.output:
                failures.append((label, "output differs from the untraced job"))
    metrics = {
        name: statistics.median(m[name] for m in per_job)
        for name in (per_job[0] if per_job else ())
    }
    metrics.update(layers.micro(args.seed))
    missing = set(layers.UNITS) - set(metrics) - {"trace.overhead_frac"}
    metrics.update(layers.probe(tr, missing, args.seed, work))
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    deferred_checks(w, plain_records, failures, references)
    jobs_out = [dict(seed=r.seed, items=r.items, sizes=r.sizes) for r in plain_records]
    return metrics, 2 * len(pair_times), failures, jobs_out, tr


def expected_metrics(trace: int) -> dict:
    """Metric names and units the run must report."""
    if trace:
        import bench_layers as layers

        return dict(layers.UNITS)
    return dict(END_TO_END_UNITS)


def declared_metrics(trace: int) -> dict | None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    rows = spec["per_layer" if trace else "end_to_end"]
    return {r["name"]: r["unit"] for r in rows}


def run_one(args) -> int:
    import bench_jobs as jobs

    w = jobs.WORKLOADS[args.workload]
    ref_path = HERE / "reference.json"
    references = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    out_dir = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_traced if args.trace else run_plain
        metrics, attempted, failures, jobs_out, tr = runner(
            args, w, str(work), references
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len({label for label, _ in failures})
    units = expected_metrics(args.trace)
    declared = declared_metrics(args.trace)
    if set(metrics) != set(units) or (declared is not None and declared != units):
        print(f"metric names disagree: reported {sorted(metrics)}, "
              f"expected {sorted(units)}, declared {declared}", file=sys.stderr)
        return 2
    record = machine_record(args, jobs)
    record["jobs"] = jobs_out
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tr is not None:
        tr.write(out_dir / f"{stem}-spans.jsonl")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (out_dir / f"{stem}.json").write_text(
        json.dumps(dict(result, record=record, failures=failures), indent=1) + "\n"
    )
    for label, f in failures:
        print(f"FAILED job {label}: {f}", file=sys.stderr)
    print(f"# {args.workload}: {attempted} jobs, item = {w.item}")
    for k, v in metrics.items():
        print(f"# {args.workload} {k} = {v:.6g} {units[k]}")
    print(f"# {args.workload} fail_frac = {failed / max(attempted, 1):.6g} ratio")
    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process; every metric per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = run_child(["--workload", name, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace)])
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit code {done.returncode})")
            merged["correct"] = False
            continue
        merged["correct"] &= res["correct"] and done.returncode == 0
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged, sort_keys=True))
    return 0 if merged["correct"] else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    clock = HostClock()
    if args.setup_probe:
        clock.start()
    if not (SRC / "icrt_lab" / "__init__.py").is_file():
        print(f"no icrt_lab sources under {SRC}", file=sys.stderr)
        return 2
    # before numpy loads: one BLAS / OpenMP thread per process
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, clock)
    import icrt_lab

    if Path(icrt_lab.__file__).resolve().parent != SRC / "icrt_lab":
        print(f"icrt_lab imported from {icrt_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
