"""Per-layer numbers of the traced run.

Three sources, all timed from the benchmark's own code:

- `span_metrics` turns one traced job's spans into layer metrics;
- `micro` times single calls on two fixed sizes, `.small` (the 17-branch
  test fixture) and `.large` (the 1000-branch sample of the first
  `process-powerlaw` job of the workload seed), keeping cold and warm
  numbers apart;
- `probe` runs a traced job for the layers the workload's own job does
  not reach, so every workload reports every layer: the full
  `dims-cloud` job for `analysis`, reduced jobs for the rest.  A reduced
  probe value is only comparable with the same workload's probe value on
  another commit.
"""
from __future__ import annotations

import gc
import os
import statistics
import time

from icrt_lab.loopmetric import loop_distance
from icrt_lab.plane import compare, left_mass, mass_cache, sample_loop_point
from icrt_lab.sampler import StopRule, ThetaSpec, sample_icrt
from icrt_lab.util import keyed_generator

import bench_jobs as jobs
from bench_trace import total_s

SMALL_SPEC = ThetaSpec.power_law(1.5, 60, theta0=0.4)  # tests/conftest.py fixture
URN_SPEC = ThetaSpec.power_law(1.5, 50, theta0=0.4)  # the urn suite's samples
URN_STOP = StopRule(max_branches=11)
REPEATS = 5

UNITS = {
    "sampler.sample_s": "s",
    "sampler.cuts_s": "s",
    "sampler.us_per_cut": "us",
    "sampler.glues_s": "s",
    "sampler.index_s": "s",
    "sampler.to_json_s": "s",
    "sampler.from_json_s": "s",
    "sampler.us_per_small_sample": "us",
    "skeleton.build_s": "s",
    "skeleton.branch_of_us.small": "us",
    "skeleton.branch_of_us.large": "us",
    "plane.compare_us.small": "us",
    "plane.compare_us.large": "us",
    "plane.left_mass_us.small": "us",
    "plane.left_mass_us.large": "us",
    "plane.mass_cache_build_ms.small": "ms",
    "plane.mass_cache_build_ms.large": "ms",
    "loopmetric.loop_distance_us.small": "us",
    "loopmetric.loop_distance_us.large": "us",
    "fields.fennec_s": "s",
    "fields.fennec_us_per_point": "us",
    "contour.build_table_s": "s",
    "contour.candidates": "count",
    "contour.us_per_candidate": "us",
    "contour.export_s": "s",
    "analysis.cloud_build_s": "s",
    "analysis.us_per_cloud_point": "us",
    "analysis.boxcount_s": "s",
    "analysis.dist_to_all_calls": "count",
    "analysis.dist_to_all_ms": "ms",
    **{f"cli.verify.{s}_s": "s" for s in jobs.VERIFY_SUITES},
    "trace.overhead_frac": "ratio",
}


def small_sample():
    return sample_icrt(SMALL_SPEC, 6, StopRule(max_level=6.0))


def large_sample(seed: int):
    w = jobs.WORKLOADS["process-powerlaw"]
    return sample_icrt(w.SPEC, w.job_seed(seed, 0), StopRule(max_branches=1000))


def span_metrics(spans: dict) -> dict:
    """Layer metrics computable from one job's spans (grouped by name)."""
    m = {}
    if "sampler.sample" in spans:
        cuts = sum(s["counts"]["cuts"] for s in spans["sampler.cuts"])
        m["sampler.sample_s"] = total_s(spans, "sampler.sample")
        m["sampler.cuts_s"] = total_s(spans, "sampler.cuts")
        m["sampler.us_per_cut"] = 1e6 * m["sampler.cuts_s"] / max(cuts, 1)
        m["sampler.glues_s"] = total_s(spans, "sampler.glues")
        m["sampler.index_s"] = total_s(spans, "sampler.index")
        m["skeleton.build_s"] = total_s(spans, "skeleton.build")
    for stage in ("to_json", "from_json"):
        if f"sampler.{stage}" in spans:
            m[f"sampler.{stage}_s"] = total_s(spans, f"sampler.{stage}")
    if "contour.build_table" in spans:
        n = sum(s["counts"]["candidates"] for s in spans["contour.build_table"])
        m["contour.build_table_s"] = total_s(spans, "contour.build_table")
        m["contour.candidates"] = n
        m["contour.us_per_candidate"] = 1e6 * m["contour.build_table_s"] / n
        m["contour.export_s"] = total_s(spans, "contour.export")
        n = sum(s["counts"]["points"] for s in spans["fields.fennec"])
        m["fields.fennec_s"] = total_s(spans, "fields.fennec")
        m["fields.fennec_us_per_point"] = 1e6 * m["fields.fennec_s"] / n
    if "analysis.cloud_build" in spans:
        n = sum(s["counts"]["points"] for s in spans["analysis.cloud_build"])
        sweeps = spans.get("analysis.dist_to_all", [])
        m["analysis.cloud_build_s"] = total_s(spans, "analysis.cloud_build")
        m["analysis.us_per_cloud_point"] = 1e6 * m["analysis.cloud_build_s"] / n
        m["analysis.boxcount_s"] = total_s(spans, "analysis.boxcount")
        m["analysis.dist_to_all_calls"] = len(sweeps)
        m["analysis.dist_to_all_ms"] = (
            1e3 * total_s(spans, "analysis.dist_to_all") / max(len(sweeps), 1)
        )
    for suite in jobs.VERIFY_SUITES:
        if f"cli.verify.{suite}" in spans:
            m[f"cli.verify.{suite}_s"] = total_s(spans, f"cli.verify.{suite}")
    return m


# ---------------------------------------------------------------------------
# probes: traced jobs for the layers a workload does not reach
# ---------------------------------------------------------------------------
def _probe_sampler(tr, seed, out_dir):
    js = jobs.job_seed(seed, 0)
    path = os.path.join(out_dir, f"probe-sample-{js}.json")
    sample = jobs.traced_sample(tr, ThetaSpec.brownian(), js, StopRule(max_level=64.0))
    argv = ["sample", "--theta0", 1, "--level", 64, "--seed", js, "--out", path]
    jobs.write_sample_json(tr, sample, argv, path)
    jobs.read_sample_json(tr, path)


def _probe_contour(tr, seed, out_dir):
    path = os.path.join(out_dir, f"probe-process-{seed}.csv")
    jobs.traced_process(tr, small_sample(), seed, 2000, 1024, path)


def _probe_analysis(tr, seed, out_dir):
    # the full dims-cloud job: no other job reaches LoopCloud
    w = jobs.WORKLOADS["dims-cloud"]
    js = w.job_seed(seed, 0)
    rec = w.digest(w.traced(tr, js, out_dir), js)
    if rec.failures:
        raise RuntimeError(f"dims probe failed: {rec.failures}")


def _probe_verify(tr, seed, out_dir):
    vs = jobs.WORKLOADS["verify-all"].job_seed(seed, 0)
    rc, _ = jobs.traced_verify(tr, vs, 40, out_dir)
    if rc != 0:
        raise RuntimeError(f"verify probe exited with {rc}")


PROBES = (
    (("sampler.", "skeleton.build_s"), _probe_sampler),
    (("contour.", "fields."), _probe_contour),
    (("analysis.",), _probe_analysis),
    (("cli.verify.",), _probe_verify),
)


def probe(tr, missing, seed: int, out_dir: str) -> dict:
    """Metrics in `missing`, each from the probe that owns its prefix; each
    probe runs under its own job id."""
    out = {}
    for prefixes, fn in PROBES:
        wanted = {name for name in missing if name.startswith(prefixes)}
        if wanted:
            tr.job = fn.__name__.lstrip("_")
            fn(tr, seed, out_dir)
            got = span_metrics(tr.job_spans(tr.job))
            out.update((k, v) for k, v in got.items() if k in wanted)
    return out


# ---------------------------------------------------------------------------
# per-call microbenchmarks
# ---------------------------------------------------------------------------
def per_call_us(fn, calls) -> float:
    """Median over REPEATS batches of the mean time of one call."""
    per = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(REPEATS):
            t = time.perf_counter()
            for args in calls:
                fn(*args)
            per.append((time.perf_counter() - t) / len(calls))
    finally:
        gc.enable()
    return 1e6 * statistics.median(per)


def cold_cache_ms(sample, levels) -> float:
    """Median build time of `mass_cache` at levels not seen before."""
    per = []
    for lv in levels:
        t = time.perf_counter()
        mass_cache(sample, lv)
        per.append(time.perf_counter() - t)
    return 1e3 * statistics.median(per)


def micro(seed: int) -> dict:
    rng = keyed_generator(seed, 90)
    out = {}
    for tag, s, n, cold_reps in (
        ("small", small_sample(), 1000, 21),
        ("large", large_sample(seed), 300, 5),
    ):
        lv = s.level
        xs = [(float(x),) for x in rng.uniform(0.0, lv, 4 * n)]
        out[f"skeleton.branch_of_us.{tag}"] = per_call_us(s.skeleton.branch_of, xs)
        pts = [sample_loop_point(s, lv, rng) for _ in range(2 * n)]
        pairs = list(zip(pts[::2], pts[1::2]))
        out[f"plane.compare_us.{tag}"] = per_call_us(
            lambda a, b: compare(s, a, b), pairs
        )
        out[f"loopmetric.loop_distance_us.{tag}"] = per_call_us(
            lambda a, b: loop_distance(s, a, b), pairs
        )
        out[f"plane.mass_cache_build_ms.{tag}"] = cold_cache_ms(
            s, [lv * (1.0 - 1e-9 * (r + 1)) for r in range(cold_reps)]
        )
        left_mass(s, lv, pts[0])  # builds this level's cache: the reads are warm
        out[f"plane.left_mass_us.{tag}"] = per_call_us(
            lambda a: left_mass(s, lv, a), [(p,) for p in pts[:n]]
        )
    seeds = [(jobs.job_seed(seed, k),) for k in range(200)]
    out["sampler.us_per_small_sample"] = per_call_us(
        lambda sd: sample_icrt(URN_SPEC, sd, URN_STOP), seeds
    )
    return out
