"""Dimension estimators, distributional identity tests, tail exponents,
and the partial-sum concentration check.

Statistical tests are seed-deterministic: every report embeds the sizes
and master seed that produced it, and each test ships a documented
corruption (negative control) that it must reject.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sampler import (
    AngleTable,
    IcrtSample,
    StopRule,
    ThetaSpec,
    _draw,
    assemble_sample,
    expected_mass_prefix,
)
from .plane import (
    Located,
    _check_points,
    LoopPoint,
    Order,
    compare,
    left_fraction,
    left_mass,
    profiles,
    sample_loop_point,
    sample_loop_points,
)
from .loopmetric import loop_distance
from .util import keyed_generator


@dataclass
class TestReport:
    name: str
    passed: bool
    statistic: float | None = None
    p_value: float | None = None
    config: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "statistic": None if self.statistic is None else float(self.statistic),
            "p_value": None if self.p_value is None else float(self.p_value),
            "config": self.config,
            "details": self.details,
        }


@dataclass
class DimensionReport:
    lower: float
    upper: float
    window_slopes: list
    grid: list
    boxcount: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "lower": self.lower,
            "upper": self.upper,
            "window_slopes": self.window_slopes,
            "grid": self.grid,
        }
        if self.boxcount is not None:
            out["boxcount"] = self.boxcount
        return out


def _child_seeds(seed: int, block: int, n: int) -> list:
    state = np.random.SeedSequence([seed, block]).generate_state(n, dtype=np.uint64)
    return [int(s) for s in state]


def _sample_with(spec, seed, stop, corrupt=None) -> IcrtSample:
    """`sample_icrt` with optional documented corruptions (negative
    controls): glue_root pins every glue to the root, glue_biased pushes
    glues toward the cut, angles_const freezes all angles at 0.9."""
    measure, cuts, glue_cuts, glues, angles, level = _draw(spec, seed, stop)
    if corrupt == "glue_root":
        glues = np.zeros_like(glues)
    elif corrupt == "glue_biased":
        glues = 0.9 * np.asarray(glue_cuts)
    elif corrupt == "angles_const":
        angles = AngleTable(
            np.full(measure.xs.size, 0.9), np.full(len(glues), 0.9)
        )
    return assemble_sample(spec, measure, cuts, glues, angles, level, seed)


def _decade_slopes(x, y, min_span: float = 0.0) -> list:
    """Least-squares slopes of y against x (ascending natural logs) over each
    window of one decade from a grid point that holds at least three points
    and spans at least `min_span` decades."""
    span = math.log(10.0)
    slopes = []
    for i in range(x.size):
        j = int(np.searchsorted(x, x[i] + span, side="right")) - 1
        if j <= i + 1 or x[j] - x[i] < min_span * span:
            continue
        slopes.append(float(np.polyfit(x[i : j + 1], y[i : j + 1], 1)[0]))
    return slopes


def _ks_report(name: str, res, config: dict, ok=True, details=None) -> TestReport:
    """The report of a scipy KS test `res`: passed when p > 0.01 and `ok`."""
    return TestReport(name, bool(res.pvalue > 0.01 and ok), float(res.statistic),
                      float(res.pvalue), config, details or {})


# ---------------------------------------------------------------------------
# growth exponents of the expected mass
# ---------------------------------------------------------------------------
def theoretical_dims(spec, l_grid) -> DimensionReport:
    """1 + min/max of decade-window regression slopes of log E[mu[0,l]].

    `spec` is a ThetaSpec or anything exposing expected_mass (for the
    untruncated power-law family)."""
    grid = np.sort(np.asarray(l_grid, dtype=float))
    if grid.size < 8 or grid[0] <= 0:
        raise ValueError("need at least 8 positive grid points")
    if math.log10(grid[-1] / grid[0]) < 4 - 1e-9:
        raise ValueError("grid must span at least 4 decades")
    if hasattr(spec, "expected_mass"):
        e = np.asarray(spec.expected_mass(grid))
    else:
        e = np.asarray(expected_mass_prefix(spec, grid))
    slopes = _decade_slopes(np.log(grid), np.log(e), 0.9)
    if not slopes:
        raise ValueError("grid too sparse for decade windows")
    return DimensionReport(
        lower=1.0 + min(slopes),
        upper=1.0 + max(slopes),
        window_slopes=slopes,
        grid=grid.tolist(),
    )


# ---------------------------------------------------------------------------
# loop-point clouds and covering estimates
# ---------------------------------------------------------------------------
class LoopCloud:
    """Point cloud (`points`, (n, 2)) with a path-profile representation:
    pairwise looptree distances reduce to a common-prefix scan, vectorized
    over the cloud with padded chain and atom-key matrices.  `dist_to_all` is
    the cloud's only distance path; `loop_distance` is its scalar oracle."""

    def __init__(self, sample: IcrtSample, l: float, points):
        self.sample = sample
        self.level = float(l)
        self.points = _check_points(sample, points, l)  # (n, 2), copied
        sk = sample.skeleton
        self.theta0_sq = sample.measure.theta0_sq
        # the points as given, unsnapped; root-first profiles keep the atom
        # at a segment top next to the root, where a meet reads it
        pos, ang = self.points.T
        prof = profiles(sample, Located(pos, ang, sk.branches_of(pos)), root_first=True)
        self.depth, self._C, self._E = prof.depth, prof.br, prof.top
        n, (xs, _, ix, ws) = len(self.points), sample.atoms[:4]
        # composite sort key: chain level major, position minor
        self._key_base = 2.0 * sk.total_length + 1.0
        key = np.where(prof.at > 0, prof.lev * self._key_base + xs[prof.at], np.inf)
        self._AK = np.c_[key, np.full(n, np.inf)]
        self._AA = np.c_[prof.ang, np.zeros(n)]
        self._AI = np.c_[ix[prof.at], np.zeros(n, np.int64)]
        # weighted torus distances of the angles to 0, cumulated (a pad adds 0)
        w = ws[prof.at] * np.minimum(prof.ang, 1.0 - prof.ang)
        cum = np.cumsum(np.c_[np.zeros(n), w], axis=1)
        self._AC, self._atot = np.c_[cum, cum[:, -1]], cum[:, -1]
        self._attach = np.asarray(sk.attach_depth)
        self._lo = np.asarray(sk.lo)

    def __len__(self) -> int:
        return len(self.points)

    # ------------------------------------------------------------------
    def dist_to_all(self, a: int) -> np.ndarray:
        """Looptree distance from point a to the whole cloud, vectorized."""
        C, E = self._C, self._E
        ca, ea = C[a], E[a]
        match = (C == ca) & (ca != -1)
        exits = E == ea
        full = np.logical_and.accumulate(match & exits, axis=1)
        ok = match.copy()
        ok[:, 1:] &= full[:, :-1]
        ml = np.sum(ok, axis=1) - 1
        rows = np.arange(len(self.points))
        meet = np.minimum(ea[ml], E[rows, ml])
        bm = ca[ml]
        dep_m = self._attach[bm] + meet - self._lo[bm]
        out = 0.25 * self.theta0_sq * (
            self.depth[a] + self.depth - 2.0 * dep_m
        )
        meetkey = ml * self._key_base + meet
        # b side: prefix counts below the meet and the meet atom if present
        cb = np.sum(self._AK < meetkey[:, None], axis=1)
        hitb = self._AK[rows, cb] == meetkey
        out += self._atot - self._AC[rows, cb + hitb]
        # a side against every meet key
        aka = self._AK[a]
        caa = np.searchsorted(aka, meetkey)
        hita = aka[np.minimum(caa, aka.size - 1)] == meetkey
        out += self._atot[a] - self._AC[a][caa + hita]
        both = hita & hitb
        if np.any(both):
            ang_a = self._AA[a][np.minimum(caa, aka.size - 1)]
            ang_b = self._AA[rows, cb]
            th = self.sample.measure.ws[self._AI[rows, cb]]
            gap = np.abs(ang_a - ang_b)
            out += np.where(both, th * np.minimum(gap, 1.0 - gap), 0.0)
        out[a] = 0.0
        return out


def make_loop_cloud(
    sample: IcrtSample, l: float, n: int, rng: np.random.Generator
) -> LoopCloud:
    return LoopCloud(sample, l, sample_loop_points(sample, l, rng, n))


def farthest_first_radii(cloud: LoopCloud, eps_min: float, max_net: int = 4000):
    """Cover radii of the greedy net; radii[k] covers with k+1 centers."""
    d = cloud.dist_to_all(0)
    radii = [float(np.max(d))]
    while radii[-1] > eps_min and len(radii) < max_net:
        i = int(np.argmax(d))
        d = np.minimum(d, cloud.dist_to_all(i))
        radii.append(float(np.max(d)))
    return np.asarray(radii)


def boxcount_dimension(cloud: LoopCloud, eps_grid) -> dict:
    """Greedy covering sizes and the log-log slope against 1/eps."""
    eps = np.sort(np.asarray(eps_grid, dtype=float))[::-1]
    if np.any(eps <= 0):
        raise ValueError("eps grid must be positive")
    radii = farthest_first_radii(cloud, float(eps[-1]))
    diameter = 2.0 * radii[0]
    if radii[0] == 0.0:
        return {
            "estimate": 0.0,
            "eps": eps.tolist(),
            "counts": [1] * eps.size,
            "diameter": 0.0,
            "step_slopes": [],
        }
    if eps[-1] > diameter:
        raise ValueError("eps grid lies outside the data diameter")
    counts = np.asarray([1 + int(np.sum(radii > e)) for e in eps])
    x = np.log(1.0 / eps)
    y = np.log(counts)
    slope = float(np.polyfit(x, y, 1)[0])
    steps = [
        float((y[k + 1] - y[k]) / (x[k + 1] - x[k]))
        for k in range(eps.size - 1)
        if x[k + 1] > x[k]
    ]
    return {
        "estimate": slope,
        "eps": eps.tolist(),
        "counts": counts.tolist(),
        "diameter": diameter,
        "step_slopes": steps,
    }


def local_mass_exponents(
    sample: IcrtSample, l: float, centers: LoopCloud, eps_grid, cloud: LoopCloud
) -> dict:
    """Per-center regression of log ball mass against log radius; the mass
    is estimated from the reference cloud."""
    eps = np.sort(np.asarray(eps_grid, dtype=float))
    total = sample.mass_prefix(l)
    ref = LoopCloud(sample, l, np.vstack([cloud.points, centers.points]))
    n_ref = len(cloud)
    exponents, flagged = [], 0
    for c in range(len(centers)):
        d = ref.dist_to_all(n_ref + c)[:n_ref]
        masses = np.asarray([total * np.mean(d <= e) for e in eps])
        keep = masses > 0
        if np.count_nonzero(keep) < 2:
            flagged += 1
            continue
        if not np.all(keep):
            flagged += 1
        exponents.append(
            float(np.polyfit(np.log(eps[keep]), np.log(masses[keep]), 1)[0])
        )
    return {"exponents": exponents, "flagged": flagged, "eps": eps.tolist()}


# ---------------------------------------------------------------------------
# distributional identities
# ---------------------------------------------------------------------------
def reroot_test(
    spec: ThetaSpec,
    n_seeds: int,
    seed: int,
    corrupt: str | None = None,
) -> TestReport:
    """Distance from a random cut pair against distance root-to-first-cut.

    Negative control: corrupt="glue_root"."""
    pair_budget = 12
    stop = StopRule(max_branches=pair_budget + 1)
    base = []
    for sd in _child_seeds(seed, 1, n_seeds):
        s = _sample_with(spec, sd, stop, corrupt)
        y1 = float(s.skeleton.cuts[0])
        base.append(float(loop_distance(s, (0.0, 0.0), (y1, 0.0))))
    pick = keyed_generator(seed, 2)
    pairs = []
    for sd in _child_seeds(seed, 3, n_seeds):
        s = _sample_with(spec, sd, stop, corrupt)
        i, j = pick.choice(pair_budget + 1, size=2, replace=False)
        yi, yj = float(s.skeleton.lo[i]), float(s.skeleton.lo[j])
        pairs.append(float(loop_distance(s, (yi, 0.0), (yj, 0.0))))
    from scipy import stats  # slow to import; only these KS tests use it

    return _ks_report(
        "reroot-identity",
        stats.ks_2samp(base, pairs),
        {"n_seeds": n_seeds, "seed": seed, "pair_budget": pair_budget, "corrupt": corrupt},
    )


def permutation_invariance_test(
    spec: ThetaSpec,
    n_seeds: int,
    seed: int,
    corrupt: str | None = None,
) -> TestReport:
    """Cut-pair distance laws under an index shift, plus atom-on-path rates.

    Negative control: corrupt="glue_biased"."""
    k = 3
    stop = StopRule(max_branches=k + 1)

    def collect(block: int, i: int, j: int):
        dts, hits = [], []
        for sd in _child_seeds(seed, block, n_seeds):
            s = _sample_with(spec, sd, stop, corrupt)
            yi, yj = float(s.skeleton.lo[i]), float(s.skeleton.lo[j])
            dij = s.skeleton.tree_distance(yi, yj)
            dts.append(dij)
            row = []
            for r in range(min(3, s.measure.xs.size)):
                x = float(s.measure.xs[r])
                on = (
                    x <= s.level
                    and abs(
                        s.skeleton.tree_distance(yi, x)
                        + s.skeleton.tree_distance(x, yj)
                        - dij
                    )
                    <= 1e-9
                )
                row.append(1.0 if on else 0.0)
            hits.append(row)
        return np.asarray(dts), np.asarray(hits)
    d_a, h_a = collect(11, 0, 1)
    d_b, h_b = collect(12, 1, 2)
    from scipy import stats

    rate_ok = True
    rates = []
    for r in range(h_a.shape[1] if h_a.ndim == 2 and h_a.size else 0):
        pa, pb = float(np.mean(h_a[:, r])), float(np.mean(h_b[:, r]))
        se = math.sqrt((pa * (1 - pa) + pb * (1 - pb)) / n_seeds + 1e-12)
        rates.append((pa, pb, se))
        if abs(pa - pb) > 4 * se:
            rate_ok = False
    return _ks_report(
        "permutation-invariance",
        stats.ks_2samp(d_a, d_b),
        {"n_seeds": n_seeds, "seed": seed, "k": k, "corrupt": corrupt},
        rate_ok,
        {"atom_rates": rates},
    )


def polya_urn_test(spec: ThetaSpec, n_seeds: int, seed: int) -> TestReport:
    """Left-mass gap between two fixed points gains exactly the new branch
    mass, with the left-fraction gap as the gain probability."""
    first_cut, steps = 4, 6
    stop = StopRule(max_branches=first_cut + steps + 1)
    draws = keyed_generator(seed, 21)
    violations = 0
    gains, probs = [], []
    for sd in _child_seeds(seed, 22, n_seeds):
        s = _sample_with(spec, sd, stop)
        cuts = s.skeleton.cuts
        ya = float(cuts[first_cut - 1])
        p1 = LoopPoint(s.measure.draw_position(ya, draws), draws.random())
        p2 = LoopPoint(s.measure.draw_position(ya, draws), draws.random())
        if compare(s, p1, p2) in (Order.RIGHT, Order.BEHIND):
            p1, p2 = p2, p1
        prev = None
        for i in range(first_cut, first_cut + steps):
            li = float(cuts[i - 1])
            gap = left_mass(s, li, p2) - left_mass(s, li, p1)
            if prev is not None:
                step_mass = s.measure.mass_interval(
                    float(cuts[i - 2]), li
                )
                delta = gap - prev[0]
                zero = abs(delta) <= 1e-9
                full = abs(delta - step_mass) <= 1e-9
                if not (zero or full):
                    violations += 1
                else:
                    b = i - 1  # branch glued over (Y_{i-1}, Y_i]
                    gamma = LoopPoint(
                        float(s.skeleton.glue_pos[b]), s.branch_angle(b)
                    )
                    between = compare(s, gamma, p2) is Order.LEFT and compare(
                        s, gamma, p1
                    ) is not Order.LEFT
                    if full != between:
                        violations += 1
                    gains.append(1.0 if full else 0.0)
                    probs.append(prev[1])
            gap_frac = gap / s.mass_prefix(li)
            prev = (gap, gap_frac)
    gains = np.asarray(gains)
    probs = np.asarray(probs)
    margin = 4.0 * math.sqrt(float(np.sum(probs * (1 - probs))) + 1e-12)
    drift = abs(float(np.sum(gains - probs)))
    return TestReport(
        name="polya-urn",
        passed=bool(violations == 0 and drift <= margin),
        statistic=drift,
        config={
            "n_seeds": n_seeds,
            "seed": seed,
            "first_cut": first_cut,
            "steps": steps,
        },
        details={
            "violations": violations,
            "margin": margin,
            "n_steps": int(gains.size),
        },
    )


def uniformity_test(
    spec: ThetaSpec,
    n_seeds: int,
    seed: int,
    corrupt: str | None = None,
) -> TestReport:
    """Left fraction of a measure-drawn point against Uniform[0, 1].

    Negative control: corrupt="angles_const"."""
    branches = 8
    stop = StopRule(max_branches=branches)
    draws = keyed_generator(seed, 31)
    vals = []
    for sd in _child_seeds(seed, 32, n_seeds):
        s = _sample_with(spec, sd, stop, corrupt)
        a = sample_loop_point(s, s.level, draws)
        vals.append(left_fraction(s, s.level, a))
    from scipy import stats

    return _ks_report(
        "left-fraction-uniformity",
        stats.kstest(vals, "uniform"),
        {"n_seeds": n_seeds, "seed": seed, "branches": branches, "corrupt": corrupt},
    )


# ---------------------------------------------------------------------------
# small-distance tail exponents
# ---------------------------------------------------------------------------
def tail_exponents(
    spec: ThetaSpec, n_seeds: int, seed: int, eps_grid
) -> tuple[float, float, dict]:
    """Regression exponents of P(d(root corner, first cut) < eps)."""
    if n_seeds < 1000:
        raise ValueError("need plenty of seeds for tail estimation")
    vals = np.empty(n_seeds)
    for k, sd in enumerate(_child_seeds(seed, 41, n_seeds)):
        measure, cuts, *_, angles, _ = _draw(spec, sd, StopRule(max_branches=1))
        y1, u = float(cuts[0]), angles.atom_angles
        on = measure.xs <= y1
        vals[k] = 0.25 * measure.theta0_sq * y1 + float(
            np.sum(measure.ws[on] * np.minimum(u[on], 1.0 - u[on]))
        )
    eps = np.sort(np.asarray(eps_grid, dtype=float))
    tail = np.asarray([np.mean(vals < e) for e in eps])
    keep = tail > 0
    dropped = int(np.sum(~keep))
    x, y = np.log(eps[keep]), np.log(tail[keep])
    slopes = _decade_slopes(x, y) or [float(np.polyfit(x, y, 1)[0])]
    info = {"dropped_cells": dropped, "tail": tail.tolist(), "eps": eps.tolist()}
    return min(slopes), max(slopes), info


# ---------------------------------------------------------------------------
# partial-sum concentration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class VariableSpec:
    name: str
    mean: float = 0.0

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.name == "rademacher":
            return rng.integers(0, 2, size=size) * 2.0 - 1.0
        if self.name == "uniform":
            return rng.uniform(-1.0, 1.0, size=size)
        if self.name == "exponential":
            return rng.exponential(1.0, size=size) - 1.0
        raise ValueError(f"unknown variable spec {self.name!r}")

    def kappa_moment(self, kappa: float) -> float:
        """E|X|^kappa, exact for the built-in distributions."""
        if self.name == "rademacher":
            return 1.0
        if self.name == "uniform":
            return 1.0 / (kappa + 1.0)
        if self.name == "exponential":
            from scipy.integrate import quad

            val, _ = quad(
                lambda x: abs(x - 1.0) ** kappa * math.exp(-x), 0.0, 200.0
            )
            return val
        raise ValueError(self.name)


def concentration_constant(kappa: float) -> float:
    """C_kappa = 2 * 3^kappa * c_kappa with c_kappa = 2^(kappa+1) (2 kappa)^(kappa/2)."""
    c_small = 2.0 ** (kappa + 1.0) * (2.0 * kappa) ** (kappa / 2.0)
    return 2.0 * 3.0**kappa * c_small


def concentration_check(
    kappa: float,
    variable: VariableSpec,
    t_grid,
    trials: int,
    seed: int,
) -> TestReport:
    """Tail of the running-maximum partial sum against C_k (sqrt(V)/t)^k."""
    n_terms = 64
    if kappa < 4:
        raise ValueError("the explicit constant needs kappa >= 4")
    if abs(variable.mean) > 0:
        raise ValueError("variables must be centered")
    rng = keyed_generator(seed, 51)
    v_total = n_terms * variable.kappa_moment(kappa) ** (2.0 / kappa)
    statistic = np.empty(trials)
    chunk = 1 << 14
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        x = variable.draw(rng, (m, n_terms))
        if abs(float(np.mean(x))) > 6.0 / math.sqrt(m * n_terms):
            raise ValueError("empirical mean too far from zero")
        pref = np.cumsum(x, axis=1)
        hi = np.maximum(np.max(pref, axis=1), 0.0)
        lo = np.minimum(np.min(pref, axis=1), 0.0)
        statistic[done : done + m] = hi - lo
        done += m
    t = np.asarray(t_grid, dtype=float)
    emp = np.asarray([np.mean(statistic > tt) for tt in t])
    bound = np.minimum(1.0, concentration_constant(kappa) * (
        math.sqrt(v_total) / t
    ) ** kappa)
    se = np.sqrt(emp * (1 - emp) / trials) + 1.0 / trials
    ok = bool(np.all(emp <= bound + 4 * se))
    return TestReport(
        name=f"concentration-{variable.name}",
        passed=ok,
        statistic=float(np.max(emp - bound)),
        config={
            "kappa": kappa,
            "trials": trials,
            "seed": seed,
            "n_terms": n_terms,
        },
        details={
            "t": t.tolist(),
            "empirical": emp.tolist(),
            "bound": bound.tolist(),
            "V": v_total,
        },
    )


# ---------------------------------------------------------------------------
# convenience fixtures
# ---------------------------------------------------------------------------
def standard_specs() -> dict:
    return {
        "brownian": ThetaSpec.brownian(),
        "cycle": ThetaSpec.single_atom(),
        "powerlaw": ThetaSpec.power_law(1.5, 200),
    }
