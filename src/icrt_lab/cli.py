"""Command-line front end: sampling, process export, dimension reports,
and verification suites.

Exit codes: 0 success, 1 usage error, 2 suite failure.  Every output embeds
the config, seed, and package version; equal configs produce byte-identical
files.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .sampler import (
    IcrtSample,
    PowerLawFamily,
    SamplerError,
    StopRule,
    ThetaSpec,
    sample_icrt,
)
from .skeleton import SkeletonError
from .plane import PlaneError, sample_loop_points
from .loopmetric import loop_distance, gff_distance, path_mass
from .fields import FieldRealization
from .contour import (
    ContourError,
    build_contour_table,
    export_process_csv,
    polyline_svg,
    scatter_svg,
)
from . import analysis
from .plane import Order, compare, left_mass, right_mass, front_mass
from .util import dump_json, keyed_generator

USAGE_ERROR = 1
SUITE_FAILURE = 2
MIN_GRID = 1 << 10
MIN_SEEDS = 3  # the smallest seed budget at which every verify statistic is finite


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _default_seed() -> int:
    return int(os.environ.get("ICRT_LAB_SEED", "0"))


def build_parser() -> _Parser:
    p = _Parser(prog="icrt-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_run(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)

    def add_tree(sp):
        sp.add_argument("--theta0", type=float, default=None)
        weights = sp.add_mutually_exclusive_group()
        weights.add_argument("--thetas", type=str, default=None,
                             help="JSON file with a list of atom weights")
        weights.add_argument("--alpha", type=float, default=None,
                             help="power-law exponent for the weight sequence")
        sp.add_argument("--K", type=int, default=None,
                        help="number of power-law atoms")
        stop = sp.add_mutually_exclusive_group()
        stop.add_argument("--level", type=float, default=None)
        stop.add_argument("--branches", type=int, default=None)

    sp = sub.add_parser("sample", help="draw one truncated sample as JSON")
    add_run(sp)
    add_tree(sp)
    # the sample file's config keeps three keys that `sample` does not take,
    # at their old values: perfbench/reference.json pins the file's bytes
    sp.set_defaults(jobs=1, resolution=None, svg=False)

    sp = sub.add_parser("process", help="contour processes as CSV (+SVG)")
    add_run(sp)
    add_tree(sp)
    sp.add_argument("--sample", type=str, default=None,
                    help="existing sample JSON (otherwise sampled inline)")
    sp.add_argument("--grid", type=int, default=4096)
    sp.add_argument("--resolution", type=int, default=None,
                    help="measure draws of the contour table")
    sp.add_argument("--svg", action="store_true")

    sp = sub.add_parser("dims", help="dimension report as JSON")
    add_run(sp)
    add_tree(sp)
    sp.add_argument("--grid-decades", type=float, nargs=2, default=(0.0, 4.0))
    sp.add_argument("--grid-points", type=int, default=33)
    sp.add_argument("--cloud", type=int, default=0,
                    help="box-count cloud size (0 disables)")

    sp = sub.add_parser("verify", help="run a verification suite")
    add_run(sp)
    sp.add_argument("suite", choices=[*_SUITES, "all"])
    sp.add_argument("--seeds", type=int, default=400,
                    help="seed budget for the statistical suites")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes for the suites")
    return p


def _given(args, names) -> list:
    """The options among `names` set on the command line."""
    return [f"--{n}" for n in names if getattr(args, n) is not None]


def _theta_from_args(args) -> ThetaSpec:
    if (args.alpha is None) != (args.K is None):
        raise SamplerError("--K needs --alpha" if args.alpha is None else "--alpha needs --K")
    if args.thetas is not None:
        try:
            with open(args.thetas) as fh:
                ws = json.load(fh)
        except (OSError, ValueError) as e:
            raise SamplerError(f"cannot read --thetas file {args.thetas}: {e}")
        if not isinstance(ws, list) or not all(
            isinstance(w, (int, float)) and not isinstance(w, bool) for w in ws
        ):
            raise SamplerError(
                f"--thetas file {args.thetas} must hold a JSON list of numbers"
            )
        return ThetaSpec(args.theta0 or 0.0, tuple(ws))
    if args.alpha is not None:
        return ThetaSpec.power_law(args.alpha, args.K, args.theta0 or 0.0)
    if args.theta0 is not None:
        return ThetaSpec(args.theta0, ())
    raise SamplerError("provide --theta0, --thetas, or --alpha/--K")


def _stop_from_args(args) -> StopRule:
    if args.level is not None:
        return StopRule(max_level=args.level)
    if args.branches is not None:
        return StopRule(max_branches=args.branches)
    return StopRule(max_level=8.0)


def _config_echo(args) -> dict:
    # the output path is not part of the run semantics
    skip = {"command", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _resolve_seed(args) -> int:
    return _default_seed() if args.seed is None else args.seed


def _emit(args, payload: dict, default_name: str) -> str:
    text = dump_json(payload) + "\n"
    path = args.out or default_name
    with open(path, "w") as fh:
        fh.write(text)
    print(path)
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------
def cmd_sample(args) -> int:
    seed = _resolve_seed(args)
    spec = _theta_from_args(args)
    sample = sample_icrt(spec, seed, _stop_from_args(args))
    payload = sample.to_dict()
    payload["config"] = _config_echo(args)
    payload["version"] = __version__
    _emit(args, payload, "icrt_sample.json")
    return 0


def cmd_process(args) -> int:
    seed = _resolve_seed(args)
    if args.grid < MIN_GRID:
        raise ValueError(f"--grid must be at least {MIN_GRID}, got {args.grid}")
    if args.sample is not None:
        tree = _given(args, ("theta0", "thetas", "alpha", "K", "level", "branches"))
        if tree:
            raise ValueError(f"--sample takes no {', '.join(tree)}: the file fixes the tree")
        if not os.path.exists(args.sample):
            raise SamplerError(f"missing sample file {args.sample}")
        with open(args.sample) as fh:
            sample = IcrtSample.from_json(fh.read())
    else:
        sample = sample_icrt(_theta_from_args(args), seed, _stop_from_args(args))
    table = build_contour_table(
        sample, resolution=args.resolution, rng=keyed_generator(seed, 7)
    )
    realization = FieldRealization(sample, seed)
    path = args.out or "icrt_process.csv"
    grid = export_process_csv(path, table, realization, args.grid)
    print(path)
    if args.svg:
        sk, loc = table.sample.skeleton, table.loc
        depths = sk.attach_depth[loc.br] + np.maximum(loc.pos - sk.lo[loc.br], 0.0)
        cols = ("height", "lukasiewicz", "snake")
        svgs = {c: polyline_svg(grid["t"], grid[c], label=c) for c in cols}
        svgs["scatter"] = scatter_svg(table.ts, depths, label="depth vs left fraction")
        for name, svg in svgs.items():
            svg_path = path.rsplit(".", 1)[0] + f"_{name}.svg"
            with open(svg_path, "w") as fh:
                fh.write(svg)
            print(svg_path)
    return 0


def cmd_dims(args) -> int:
    seed = _resolve_seed(args)
    if args.cloud < 0:
        raise ValueError(f"--cloud must be at least 0, got {args.cloud}")
    stop = _given(args, ("level", "branches"))
    if stop and not args.cloud:
        raise ValueError(f"{stop[0]} needs --cloud")
    spec = _theta_from_args(args)
    d0, d1 = args.grid_decades
    grid = np.geomspace(10.0**d0, 10.0**d1, args.grid_points)
    report = analysis.theoretical_dims(spec, grid)
    if args.cloud:
        sample = sample_icrt(spec, seed, _stop_from_args(args))
        rng = keyed_generator(seed, 8)
        cloud = analysis.make_loop_cloud(sample, sample.level, args.cloud, rng)
        radii = analysis.farthest_first_radii(cloud, np.inf, max_net=2)
        diam = 2.0 * radii[0] if radii[0] > 0 else 1.0
        eps = np.geomspace(diam / 16, diam / 3, 8)
        report.boxcount = analysis.boxcount_dimension(cloud, eps)
        # the sample the cloud measured: with --branches, its last cut
        report.boxcount.update(level=sample.level, branches=sample.skeleton.n_branches)
    payload = {
        "config": _config_echo(args),
        "version": __version__,
        "seed": seed,
        "report": report.to_dict(),
    }
    _emit(args, payload, "icrt_dims.json")
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------
def _fixture_samples(seed: int):
    specs = analysis.standard_specs()
    return {
        name: sample_icrt(spec, seed + i, StopRule(max_level=6.0))
        for i, (name, spec) in enumerate(specs.items())
    }


def _suite_metric(seed: int, n: int) -> list:
    checks = []
    for name, sample in _fixture_samples(seed).items():
        rng = keyed_generator(seed, 61)
        worst = 0.0
        sandwich = True
        bound = True
        draws = sample_loop_points(sample, sample.level, rng, 3 * n)
        for a, b, c in draws.reshape(n, 3, 2):
            dab, dbc, dac = (
                loop_distance(sample, a, b),
                loop_distance(sample, b, c),
                loop_distance(sample, a, c),
            )
            worst = max(worst, dac - dab - dbc)
            g = gff_distance(sample, a, b)
            if not (0.5 * dab - 1e-9 <= g <= dab + 1e-9):
                sandwich = False
            if dab > path_mass(sample, a, b) + 1e-9:
                bound = False
        checks.append(
            analysis.TestReport(
                name=f"metric-{name}",
                passed=bool(worst <= 1e-9 and sandwich and bound),
                statistic=worst,
                config={"triples": n, "seed": seed},
            )
        )
    return checks


# the order of (b, a) given the order of (a, b)
_MIRROR = {
    Order.LEFT: Order.RIGHT,
    Order.RIGHT: Order.LEFT,
    Order.FRONT: Order.BEHIND,
    Order.BEHIND: Order.FRONT,
    Order.EQUAL: Order.EQUAL,
}


def _suite_order(seed: int, n: int) -> list:
    checks = []
    for name, sample in _fixture_samples(seed).items():
        rng = keyed_generator(seed, 62)
        bad = 0
        draws = sample_loop_points(sample, sample.level, rng, 3 * n)
        for a, b, c in draws.reshape(n, 3, 2):
            oab, oba = compare(sample, a, b), compare(sample, b, a)
            if _MIRROR[oab] is not oba:
                bad += 1
            if (
                oab is Order.LEFT
                and compare(sample, b, c) is Order.LEFT
                and compare(sample, a, c) is not Order.LEFT
            ):
                bad += 1
        mass_ok = True
        for a in sample_loop_points(sample, sample.level, rng, 50):
            lm = left_mass(sample, sample.level, a)
            rm = right_mass(sample, sample.level, a)
            fm = front_mass(sample, sample.level, a)
            if abs(lm + rm + fm - sample.mass_prefix(sample.level)) > 1e-9:
                mass_ok = False
        checks.append(
            analysis.TestReport(
                name=f"order-{name}",
                passed=bool(bad == 0 and mass_ok),
                statistic=float(bad),
                config={"triples": n, "seed": seed},
            )
        )
    return checks


def _suite_field(seed: int, n: int) -> list:
    from scipy import stats as sps

    sample = sample_icrt(ThetaSpec.brownian(), seed, StopRule(max_level=4.0))
    rng = keyed_generator(seed, 63)
    a, b = sample_loop_points(sample, sample.level, rng, 2)
    target = gff_distance(sample, a, b)
    diffs = np.empty(n)
    for k in range(n):
        r = FieldRealization(sample, seed * 7919 + k)
        va, vb = r.fennec_values([a, b])
        diffs[k] = va - vb
    var = float(np.var(diffs, ddof=1))
    se = target * math.sqrt(2.0 / n)
    p_norm = float(sps.shapiro(diffs[: min(n, 5000)]).pvalue)
    return [
        analysis.TestReport(
            name="field-variance",
            passed=bool(abs(var - target) <= 4 * se and p_norm > 0.01),
            statistic=var - target,
            p_value=p_norm,
            config={"field_seeds": n, "seed": seed},
            details={"target": target, "empirical": var},
        )
    ]


def _suite_urn(seed: int, n: int) -> list:
    spec = ThetaSpec.power_law(1.5, 50, theta0=0.4)
    return [analysis.polya_urn_test(spec, n, seed)]


def _suite_reroot(seed: int, n: int) -> list:
    spec = ThetaSpec.power_law(1.5, 50, theta0=0.4)
    out = [
        analysis.reroot_test(spec, n, seed),
        analysis.permutation_invariance_test(spec, n, seed),
    ]
    neg = analysis.reroot_test(spec, n, seed, corrupt="glue_root")
    out.append(
        analysis.TestReport(
            name="reroot-negative-control",
            passed=bool(not neg.passed),
            statistic=neg.statistic,
            p_value=neg.p_value,
            config=neg.config,
        )
    )
    return out


def _suite_dims(seed: int, n: int) -> list:
    del seed, n
    checks = []
    # name, spec, grid decades, the dimension and its tolerance, config
    for name, spec, (d0, d1), dim, tol, config in (
        ("brownian", ThetaSpec.brownian(), (2, 6), 2.0, 1e-3, {}),
        ("cycle", ThetaSpec.single_atom(), (2, 6), 1.0, 1e-3, {}),
        ("powerlaw", PowerLawFamily(1.5), (1.5, 5.5), 1.5, 0.05,
         {"family": "powerlaw-1.5"}),
    ):
        rep = analysis.theoretical_dims(spec, np.geomspace(10.0**d0, 10.0**d1, 33))
        checks.append(
            analysis.TestReport(
                name=f"dims-{name}",
                passed=bool(abs(rep.lower - dim) <= tol and abs(rep.upper - dim) <= tol),
                statistic=rep.upper,
                config={"grid": f"1e{d0}..1e{d1}", **config},
            )
        )
    return checks


def _suite_concentration(seed: int, n: int) -> list:
    t_grid = np.geomspace(4.0, 2000.0, 20)
    return [
        analysis.concentration_check(4.0, analysis.VariableSpec(name), t_grid, n, seed)
        for name in ("rademacher", "uniform", "exponential")
    ]


_SUITES = {
    "metric": _suite_metric,
    "order": _suite_order,
    "field": _suite_field,
    "urn": _suite_urn,
    "reroot": _suite_reroot,
    "dims": _suite_dims,
    "concentration": _suite_concentration,
}


def _run_suite(name_seed_n) -> list:
    name, seed, n = name_seed_n
    return [r.to_dict() for r in _SUITES[name](seed, n)]


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    if args.seeds < MIN_SEEDS:
        raise ValueError(f"--seeds must be at least {MIN_SEEDS}, got {args.seeds}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    tasks = [(name, seed, args.seeds) for name in names]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            blocks = list(pool.map(_run_suite, tasks))
    else:
        blocks = [_run_suite(t) for t in tasks]
    reports = [r for block in blocks for r in block]
    # Bonferroni across the suite: a p-valued check only fails the aggregate
    # when significant at 0.01 divided by the number of p-valued checks.
    n_p = sum(1 for r in reports if r["p_value"] is not None)
    failed = []
    for r in reports:
        if r["p_value"] is not None and not r["name"].endswith("negative-control"):
            if r["p_value"] < 0.01 / max(n_p, 1):
                failed.append(r["name"])
        elif not r["passed"]:
            failed.append(r["name"])
    payload = {
        "config": _config_echo(args),
        "version": __version__,
        "seed": seed,
        "suites": names,
        "reports": reports,
        "failed": failed,
        "passed": not failed,
    }
    _emit(args, payload, "icrt_verify.json")
    for r in reports:
        print(f"{'FAIL' if r['name'] in failed else 'PASS'} {r['name']}")
    return 0 if not failed else SUITE_FAILURE


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "sample":
            return cmd_sample(args)
        if args.command == "process":
            return cmd_process(args)
        if args.command == "dims":
            return cmd_dims(args)
        return cmd_verify(args)
    except (SamplerError, SkeletonError, PlaneError, ContourError, ValueError) as e:
        print(f"icrt-lab: error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
