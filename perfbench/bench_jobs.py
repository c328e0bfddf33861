"""The four workloads: CLI-equivalent jobs, their traced twins, and the
checks that decide whether a job's output is correct.

Each workload turns the workload seed into a sequence of job seeds.  A job
runs one `icrt-lab` command in process through `cli.main`, exactly as a
user would; `run` is the timed part.  `digest` (untimed, right after the
job) reduces the job's product to a small record and checks what needs
live objects; `check` (untimed, after every job of the run) runs the
checks that re-read output files and compares against the references
recorded for the default workload seed.  `traced` builds the same output
from the public functions the command calls, inside spans; the runner
compares the digests of the two outputs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

import icrt_lab
from icrt_lab import analysis, cli, contour
from icrt_lab.contour import build_contour_table, contour_eval, export_process_csv
from icrt_lab.fields import FieldRealization
from icrt_lab.plane import front_mass, left_mass, right_mass, sample_loop_point
from icrt_lab.sampler import (
    IcrtSample,
    StopRule,
    ThetaSpec,
    sample_angles,
    sample_atoms,
    sample_cuts,
    sample_glue,
)
from icrt_lab.skeleton import POINT_TOL, Skeleton
from icrt_lab.util import dump_json, keyed_generator, substream

DEFAULT_SEED = 0
REL_TOL = 1e-12
MASS_TOL = 1e-9
MASS_PROBES = 8


def job_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def quiet_cli(argv: list) -> int:
    """`cli.main` with its console lines dropped; results are read from
    the output files and the exit code only."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def mass_partition_failures(sample: IcrtSample, level: float, seed: int) -> list:
    """left + right + front mass must equal the total at sampled points."""
    rng = keyed_generator(seed, 97)
    total = sample.mass_prefix(level)
    out = []
    for _ in range(MASS_PROBES):
        a = sample_loop_point(sample, level, rng)
        parts = (
            left_mass(sample, level, a)
            + right_mass(sample, level, a)
            + front_mass(sample, level, a)
        )
        if not abs(parts - total) <= MASS_TOL:
            out.append(f"mass partition at {tuple(a)}: {parts} != {total}")
    return out


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def read_csv(path) -> tuple[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip()
        rows = [[float(v) for v in line.split(",")] for line in fh]
    return header, np.asarray(rows, dtype=float)


def traced_sample(tr, spec: ThetaSpec, seed: int, stop: StopRule) -> IcrtSample:
    """`sample_icrt` stage by stage, one span per stage."""
    with tr.span("sampler.sample"):
        with tr.span("sampler.atoms"):
            measure = sample_atoms(spec, substream(seed, "atoms"))
        with tr.span("sampler.cuts") as c:
            cuts = sample_cuts(measure, substream(seed, "cuts"), stop)
            c["cuts"] = int(cuts.size)
        if stop.max_level is not None:
            level, glue_cuts = stop.max_level, cuts
        else:
            level, glue_cuts = float(cuts[-1]), cuts[:-1]
        with tr.span("sampler.glues"):
            glues = sample_glue(measure, glue_cuts, substream(seed, "glues"))
        with tr.span("sampler.angles"):
            angles = sample_angles(measure, glue_cuts, glues, substream(seed, "angles"))
        if cuts.size and abs(cuts[-1] - level) < POINT_TOL:
            skel_cuts = cuts
        else:
            skel_cuts = np.concatenate([cuts, [level]])
        with tr.span("skeleton.build") as c:
            skel = Skeleton(skel_cuts, glues)
            c["branches"] = skel.n_branches
        with tr.span("sampler.index"):
            return IcrtSample(spec, measure, skel, angles, level, seed)


def write_sample_json(tr, sample: IcrtSample, argv: list, path: str) -> None:
    """The `sample` command's output file, built from `IcrtSample.to_json`."""
    args = cli.build_parser().parse_args([str(a) for a in argv])
    with tr.span("sampler.to_json"):
        payload = json.loads(sample.to_json())
        payload["config"] = cli._config_echo(args)
        payload["version"] = icrt_lab.__version__
        with open(path, "w") as fh:
            fh.write(dump_json(payload) + "\n")


def read_sample_json(tr, path: str) -> IcrtSample:
    with tr.span("sampler.from_json"):
        with open(path) as fh:
            return IcrtSample.from_json(fh.read())


def traced_process(tr, sample, seed: int, resolution: int, n: int, path: str):
    """The `process` command after sampling: contour table, fresh field
    realization queried at the grid's contour points, CSV export."""
    with tr.span("contour.build_table") as c:
        table = build_contour_table(
            sample, resolution=resolution, rng=keyed_generator(seed, 7)
        )
        c["candidates"] = len(table)
    realization = FieldRealization(sample, seed)
    points = list({contour_eval(table, t) for t in np.linspace(0.0, 1.0, n)})
    with tr.span("fields.fennec", points=len(points)):
        realization.fennec_values(points)
    with tr.span("contour.export"):
        export_process_csv(path, table, realization, n)
    return table


def traced_cloud(tr, sample, level: float, n: int, seed: int) -> dict:
    """The box-count part of the `dims` command; every `dist_to_all`
    sweep is its own span."""
    with tr.span("analysis.cloud_build", points=n):
        cloud = analysis.make_loop_cloud(sample, level, n, keyed_generator(seed, 8))
    cloud.dist_to_all = tr.wrap("analysis.dist_to_all", cloud.dist_to_all)
    with tr.span("analysis.boxcount"):
        radii = analysis.farthest_first_radii(cloud, np.inf, max_net=2)
        diam = 2.0 * radii[0] if radii[0] > 0 else 1.0
        eps = np.geomspace(diam / 16, diam / 3, 8)
        return analysis.boxcount_dimension(cloud, eps)


VERIFY_SUITES = ("metric", "order", "field", "urn", "reroot", "dims", "concentration")


def traced_verify(tr, seed: int, n: int, out_dir: str) -> tuple[int, list]:
    """One `verify <suite>` command per suite.  Returns the first exit code
    that is neither success nor a suite failure (0 if none) and the
    reports in `verify all` order."""
    rcs, reports = [], []
    for suite in VERIFY_SUITES:
        path = os.path.join(out_dir, f"verify-{suite}-{seed}.json")
        argv = ["verify", suite, "--seeds", n, "--seed", seed, "--jobs", 1]
        with tr.span(f"cli.verify.{suite}"):
            rcs.append(quiet_cli(argv + ["--out", path]))
        with open(path) as fh:
            reports.extend(json.load(fh)["reports"])
    bad = [rc for rc in rcs if rc not in (0, cli.SUITE_FAILURE)]
    return (bad[0] if bad else 0), reports


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
@dataclass
class Record:
    """What a job leaves for the later checks: small values only."""

    seed: int
    items: int
    sizes: dict
    output: str  # digest of the output, compared between traced and untraced
    path: str | None = None
    data: dict | None = None
    failures: list = field(default_factory=list)


class ProcessPowerlaw:
    name = "process-powerlaw"
    item = "contour candidate"
    ARGS = ["--alpha", 1.5, "--K", 2000, "--theta0", 0.3, "--branches", 1000,
            "--resolution", 5000, "--grid", 4096]
    SPEC = ThetaSpec.power_law(1.5, 2000, theta0=0.3)
    GRID = 4096
    CSV_PROBE_STRIDE = 256

    def job_seed(self, seed, k):
        return job_seed(seed, k)

    def run(self, js, out_dir):
        path = os.path.join(out_dir, f"process-{js}.csv")
        with capture_contour_tables() as tables:
            rc = quiet_cli(["process", *self.ARGS, "--seed", js, "--out", path])
        return {"rc": rc, "path": path, "table": tables[-1] if tables else None}

    def traced(self, tr, js, out_dir):
        path = os.path.join(out_dir, f"process-{js}-traced.csv")
        sample = traced_sample(tr, self.SPEC, js, StopRule(max_branches=1000))
        table = traced_process(tr, sample, js, 5000, self.GRID, path)
        return {"rc": 0, "path": path, "table": table}

    def digest(self, product, js) -> Record:
        fails = []
        table = product["table"]
        if product["rc"] != 0:
            fails.append(f"exit code {product['rc']}")
        if table is None:
            return Record(js, 0, {}, "", failures=fails + ["no contour table"])
        ts = np.asarray(table.ts)
        if ts.size < 2 or np.any(np.diff(ts) < 0):
            fails.append("contour fractions decrease")
        eps = float(table.eps)
        if not (math.isfinite(eps) and eps > 0):
            fails.append(f"contour certificate eps = {eps}")
        elif not close(eps, table.mass_total * float(np.max(np.diff(ts)))):
            fails.append("contour eps is not mass times the largest fraction gap")
        fails += mass_partition_failures(table.sample, table.level, js)
        sizes = {
            "branches": int(table.sample.skeleton.n_branches),
            "candidates": len(table),
            "grid": self.GRID,
            "eps": eps,
        }
        return Record(js, len(table), sizes, sha256_file(product["path"]),
                      path=product["path"], failures=fails)

    def check(self, rec: Record, ref) -> list:
        header, rows = read_csv(rec.path)
        fails = []
        if header != "t,height,lukasiewicz,snake":
            fails.append(f"CSV header {header!r}")
        if rows.shape != (self.GRID, 4) or not np.all(np.isfinite(rows)):
            return fails + [f"CSV shape {rows.shape} or non-finite values"]
        if not np.array_equal(rows[:, 0], np.linspace(0.0, 1.0, self.GRID)):
            fails.append("CSV time column is not the uniform grid")
        if ref is not None:
            got = self.reference(rec, rows)
            for key, want in ref.items():
                if len(got[key]) != len(want) or not all(
                    close(a, b) for a, b in zip(got[key], want)
                ):
                    fails.append(f"CSV {key} differs from the reference")
        return fails

    def reference(self, rec: Record, rows=None) -> dict:
        """Every 256th CSV row, the last row and the column sums."""
        if rows is None:
            rows = read_csv(rec.path)[1]
        probe = rows[:: self.CSV_PROBE_STRIDE].ravel().tolist() + rows[-1].tolist()
        return {"rows": probe, "column_sums": rows.sum(axis=0).tolist()}


class SampleBrownianDeep:
    name = "sample-brownian-deep"
    item = "branch"
    ARGS = ["--theta0", 1, "--level", 512]
    LEVEL = 512.0
    MASS_LEVEL = 32.0  # the invariant is checked on the tree's prefix

    def job_seed(self, seed, k):
        return job_seed(seed, k)

    def argv(self, js, path):
        return ["sample", *self.ARGS, "--seed", js, "--out", path]

    def run(self, js, out_dir):
        path = os.path.join(out_dir, f"sample-{js}.json")
        rc = quiet_cli(self.argv(js, path))
        sample = None
        if rc == 0:
            with open(path) as fh:
                sample = IcrtSample.from_json(fh.read())
        return {"rc": rc, "path": path, "sample": sample}

    def traced(self, tr, js, out_dir):
        path = os.path.join(out_dir, f"sample-{js}-traced.json")
        sample = traced_sample(tr, ThetaSpec.brownian(), js, StopRule(max_level=self.LEVEL))
        write_sample_json(tr, sample, self.argv(js, path), path)
        del sample
        return {"rc": 0, "path": path, "sample": read_sample_json(tr, path)}

    def digest(self, product, js) -> Record:
        sample = product["sample"]
        if product["rc"] != 0 or sample is None:
            return Record(js, 0, {}, "", failures=[f"exit code {product['rc']}"])
        fails = mass_partition_failures(sample, self.MASS_LEVEL, js)
        with open(product["path"]) as fh:
            written = json.load(fh)
        del written["config"], written["version"]
        # compact canonical bytes: the indented form costs a second per job
        again = json.loads(sample.to_json())
        if canonical(again) != canonical(written):
            fails.append("sample JSON round trip changes the bytes")
        sizes = {
            "branches": int(sample.skeleton.n_branches),
            "json_bytes": os.path.getsize(product["path"]),
        }
        return Record(js, sample.skeleton.n_branches, sizes,
                      sha256_file(product["path"]), failures=fails)

    def check(self, rec: Record, ref) -> list:
        if ref is not None and rec.output != ref["sha256"]:
            return ["sample JSON sha256 differs from the reference"]
        return []

    def reference(self, rec: Record) -> dict:
        return {"sha256": rec.output}


class VerifyAll:
    name = "verify-all"
    item = "report check"
    SEEDS = 400
    # The verify seeds come from a pool whose reports were all recorded:
    # the statistical checks reject at a designed family-wise rate, so
    # arbitrary seeds would make some runs fail by chance.
    POOL = 64

    def job_seed(self, seed, k):
        order = random.Random(seed).sample(range(self.POOL), self.POOL)
        return order[k % self.POOL]

    def run(self, vs, out_dir):
        path = os.path.join(out_dir, f"verify-{vs}.json")
        argv = ["verify", "all", "--seeds", self.SEEDS, "--seed", vs, "--jobs", 1]
        rc = quiet_cli(argv + ["--out", path])
        report = None
        if os.path.exists(path):
            with open(path) as fh:
                report = json.load(fh)
        return {"rc": rc, "report": report, "verdict": True}

    def traced(self, tr, vs, out_dir):
        rc, reports = traced_verify(tr, vs, self.SEEDS, out_dir)
        # per-suite runs apply their own Bonferroni divisor, so only the
        # reports are comparable with `verify all`, not the verdict
        return {"rc": rc, "report": {"reports": reports}, "verdict": False}

    def digest(self, product, vs) -> Record:
        report = product["report"]
        fails = [] if product["rc"] == 0 else [f"exit code {product['rc']}"]
        if report is None:
            return Record(vs, 0, {}, "", failures=fails + ["no verify report"])
        # the verdict is the exit code and the report's passed / failed
        # fields; the printed PASS / FAIL lines are not consulted
        if product["verdict"] and (
            report.get("passed") is not True or report.get("failed") != []
        ):
            fails.append(f"report failed: {report.get('failed')}")
        reports = report["reports"]
        output = hashlib.sha256(canonical(reports).encode()).hexdigest()
        data = {"reports": [
            [r["name"], r["passed"], r["statistic"], r["p_value"]] for r in reports
        ]}
        return Record(vs, len(reports), {"checks": len(reports), "verify_seed": vs},
                      output, data=data, failures=fails)

    def check(self, rec: Record, ref) -> list:
        if ref is None:
            return []
        got, want = rec.data["reports"], ref["reports"]
        if [r[:2] for r in got] != [r[:2] for r in want]:
            return ["verify report names or verdicts differ from the reference"]
        for g, w in zip(got, want):
            for a, b in zip(g[2:], w[2:]):
                if (a is None) != (b is None) or (a is not None and not close(a, b)):
                    return [f"verify {g[0]} statistics differ from the reference"]
        return []

    def reference(self, rec: Record) -> dict:
        return rec.data


class DimsCloud:
    name = "dims-cloud"
    item = "cloud point"
    ARGS = ["--alpha", 1.5, "--K", 2000, "--theta0", 0.3, "--level", 128,
            "--cloud", 20000]
    SPEC = ThetaSpec.power_law(1.5, 2000, theta0=0.3)
    LEVEL = 128.0
    CLOUD = 20000

    def job_seed(self, seed, k):
        return job_seed(seed, k)

    def argv(self, js, path):
        return ["dims", *self.ARGS, "--seed", js, "--out", path]

    def run(self, js, out_dir):
        path = os.path.join(out_dir, f"dims-{js}.json")
        rc = quiet_cli(self.argv(js, path))
        return {"rc": rc, "path": path}

    def traced(self, tr, js, out_dir):
        path = os.path.join(out_dir, f"dims-{js}-traced.json")
        args = cli.build_parser().parse_args([str(a) for a in self.argv(js, path)])
        d0, d1 = args.grid_decades
        with tr.span("analysis.theoretical_dims"):
            report = analysis.theoretical_dims(
                self.SPEC, np.geomspace(10.0**d0, 10.0**d1, args.grid_points)
            )
        sample = traced_sample(tr, self.SPEC, js, StopRule(max_level=self.LEVEL))
        report.boxcount = traced_cloud(tr, sample, self.LEVEL, self.CLOUD, js)
        payload = {
            "config": cli._config_echo(args),
            "version": icrt_lab.__version__,
            "seed": js,
            "report": report.to_dict(),
        }
        with open(path, "w") as fh:
            fh.write(dump_json(payload) + "\n")
        return {"rc": 0, "path": path}

    def digest(self, product, js) -> Record:
        if product["rc"] != 0:
            return Record(js, 0, {}, "", failures=[f"exit code {product['rc']}"])
        with open(product["path"]) as fh:
            report = json.load(fh)["report"]
        bc = report.get("boxcount") or {}
        fails = []
        pairs = sorted(zip(bc.get("eps", []), bc.get("counts", [])))
        if len(pairs) < 2:
            fails.append("no box counts in the dims report")
        elif any(c1 < c2 for (_, c1), (_, c2) in zip(pairs, pairs[1:])):
            fails.append("box counts increase with eps")
        data = {
            "lower": report["lower"],
            "upper": report["upper"],
            "counts": bc.get("counts", []),
            "eps": bc.get("eps", []),
            "estimate": bc.get("estimate"),
            "diameter": bc.get("diameter"),
        }
        sizes = {"cloud_points": self.CLOUD, "eps_points": len(pairs)}
        return Record(js, self.CLOUD, sizes, sha256_file(product["path"]),
                      data=data, failures=fails)

    def check(self, rec: Record, ref) -> list:
        if ref is None:
            return []
        got = rec.data
        if got["counts"] != ref["counts"]:
            return ["box counts differ from the reference"]
        for key in ("lower", "upper", "estimate", "diameter"):
            if not close(got[key], ref[key]):
                return [f"dims {key} differs from the reference"]
        if not all(close(a, b) for a, b in zip(got["eps"], ref["eps"])):
            return ["box-count eps grid differs from the reference"]
        return []

    def reference(self, rec: Record) -> dict:
        return rec.data


@contextlib.contextmanager
def capture_contour_tables():
    """Record the tables `build_contour_table` returns while a command runs,
    so the contour checks need not rebuild them."""
    orig = contour.build_contour_table
    seen = []

    def recording(*args, **kwargs):
        table = orig(*args, **kwargs)
        seen.append(table)
        return table

    modules = [m for m in (cli, contour) if getattr(m, "build_contour_table", None) is orig]
    for m in modules:
        m.build_contour_table = recording
    try:
        yield seen
    finally:
        for m in modules:
            m.build_contour_table = orig


WORKLOADS = {
    w.name: w for w in (ProcessPowerlaw(), SampleBrownianDeep(), VerifyAll(), DimsCloud())
}
