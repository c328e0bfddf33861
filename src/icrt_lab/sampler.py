"""Randomized construction of a truncated ICRT.

Pipeline: atom positions (exponential clocks), the length measure
``mu = theta0^2 dx + sum theta_i delta_{X_i}``, cut positions (Poisson
process of rate ``mu[0,l] dl`` by exact inversion of the cumulative rate),
glue points (draws from the normalized restricted measure) and uniform
angles.  One master seed fans out into named substreams so adding queries
never perturbs earlier draws.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .skeleton import POINT_TOL, Skeleton
from .util import substream

UNIT_SUM_TOL = 1e-9
SAFETY_CAP = 1_000_000


class SamplerError(ValueError):
    pass


@dataclass(frozen=True)
class ThetaSpec:
    """Mass-split parameters: diffuse weight theta0 plus finite atom weights."""

    theta0: float
    weights: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if not math.isfinite(self.theta0):
            raise SamplerError(f"theta0 must be finite, got {self.theta0}")
        if not np.all(np.isfinite(w)):
            raise SamplerError("atom weights must be finite")
        if self.theta0 < 0:
            raise SamplerError("theta0 must be nonnegative")
        if w.size and (np.any(w <= 0) or np.any(np.diff(w) > 0)):
            raise SamplerError("atom weights must be positive and nonincreasing")
        total = self.theta0**2 + float(np.sum(w**2))
        if abs(total - 1.0) > UNIT_SUM_TOL:
            raise SamplerError(f"theta0^2 + sum(theta_i^2) = {total}, expected 1")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    @classmethod
    def brownian(cls) -> "ThetaSpec":
        return cls(1.0, ())

    @classmethod
    def single_atom(cls) -> "ThetaSpec":
        return cls(0.0, (1.0,))

    @classmethod
    def power_law(cls, alpha: float, k: int, theta0: float = 0.0) -> "ThetaSpec":
        """Weights proportional to i^(-1/alpha), renormalized to unit square sum."""
        if not (k >= 1 and alpha > 0):
            raise SamplerError("need k >= 1 and alpha > 0")
        if not (0 <= theta0 < 1):
            raise SamplerError("theta0 must lie in [0, 1)")
        raw = np.arange(1, k + 1, dtype=float) ** (-1.0 / alpha)
        scale = math.sqrt((1.0 - theta0**2) / float(np.sum(raw**2)))
        return cls(theta0, tuple(scale * raw))


@dataclass
class MeasureState:
    """Atom positions with weights plus the diffuse density theta0^2."""

    theta0_sq: float
    xs: np.ndarray  # atom positions, weight-rank order
    ws: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ws = np.asarray(self.ws, dtype=float)
        order = np.argsort(self.xs, kind="stable")
        self.xs_sorted = self.xs[order]
        self.ws_sorted = self.ws[order]
        self.cum_sorted = np.concatenate([[0.0], np.cumsum(self.ws_sorted)])

    def mass_prefix(self, l: float) -> float:
        """mu[0, l]."""
        if l < 0:
            raise SamplerError("negative truncation level")
        i = int(np.searchsorted(self.xs_sorted, l, side="right"))
        return self.theta0_sq * l + float(self.cum_sorted[i])

    def mass_interval(self, a: float, b: float) -> float:
        """mu(a, b]."""
        return self.mass_prefix(b) - self.mass_prefix(a)

    def cumulative_rate(self, l: float) -> float:
        """Lambda(l) = integral of mu[0, s] ds over [0, l]."""
        if l < 0:
            raise SamplerError("negative level")
        i = int(np.searchsorted(self.xs_sorted, l, side="right"))
        atom_part = float(np.sum(self.ws_sorted[:i] * (l - self.xs_sorted[:i])))
        return 0.5 * self.theta0_sq * l * l + atom_part

    def next_cut(self, l0: float, e: float) -> float:
        """Solve Lambda(l) = Lambda(l0) + e exactly, piece by piece."""
        lam = self.cumulative_rate(l0)
        target = lam + e
        i = int(np.searchsorted(self.xs_sorted, l0, side="right"))
        cur = l0
        rate = self.theta0_sq * cur + float(self.cum_sorted[i])
        while True:
            nb = self.xs_sorted[i] if i < self.xs_sorted.size else math.inf
            if math.isfinite(nb):
                d = nb - cur
                lam_end = lam + rate * d + 0.5 * self.theta0_sq * d * d
                if lam_end < target:
                    lam = lam_end
                    cur = nb
                    rate = self.theta0_sq * cur + float(self.cum_sorted[i + 1])
                    i += 1
                    continue
            need = target - lam
            if self.theta0_sq > 0:
                disc = rate * rate + 2.0 * self.theta0_sq * need
                return cur + (math.sqrt(disc) - rate) / self.theta0_sq
            if rate <= 0:
                raise SamplerError("measure is zero beyond current level; no next cut")
            return cur + need / rate

    def draw_position(self, l: float, rng: np.random.Generator) -> float:
        """One draw from mu restricted to [0, l], normalized."""
        tot = self.mass_prefix(l)
        if tot <= 0:
            raise SamplerError("cannot draw from a zero measure")
        r = rng.random() * tot
        leb = self.theta0_sq * l
        if r < leb:
            return r / self.theta0_sq
        r -= leb
        i = int(np.searchsorted(self.xs_sorted, l, side="right"))
        j = int(np.searchsorted(self.cum_sorted[1 : i + 1], r, side="right"))
        j = min(j, i - 1)
        return float(self.xs_sorted[j])


def sample_atoms(spec: ThetaSpec, rng: np.random.Generator) -> MeasureState:
    """X_i = -log(u_i)/theta_i, independent exponentials by inversion."""
    w = np.asarray(spec.weights, dtype=float)
    if w.size == 0:
        xs = np.empty(0)
    else:
        xs = -np.log(rng.random(w.size)) / w
    return MeasureState(spec.theta0**2, xs, w)


def expected_mass_prefix(spec: ThetaSpec, l) -> np.ndarray | float:
    """E[mu[0, l]] = theta0^2 l + sum theta_i (1 - exp(-theta_i l))."""
    scalar = np.ndim(l) == 0
    larr = np.atleast_1d(np.asarray(l, dtype=float))
    if np.any(larr < 0):
        raise SamplerError("negative level")
    w = np.asarray(spec.weights, dtype=float)
    out = spec.theta0**2 * larr
    if w.size:
        chunk = 1 << 20
        acc = np.zeros(larr.size)
        for s in range(0, w.size, chunk):
            wk = w[s : s + chunk]
            acc += np.sum(wk * (1.0 - np.exp(-larr[:, None] * wk)), axis=1)
        out = out + acc
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class PowerLawFamily:
    """Untruncated power-law weight family theta_i = c i^(-1/alpha).

    Sampling always truncates (ThetaSpec.power_law); this evaluator keeps
    the full sequence for expected-mass asymptotics, where truncation would
    flatten the growth exponent.  The tail beyond `head` terms is integrated
    with a midpoint Euler-Maclaurin correction.
    """

    alpha: float
    theta0: float = 0.0
    head: int = 200_000

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise SamplerError("need 1 < alpha < 2 for a square-summable tail")
        if not (0 <= self.theta0 < 1):
            raise SamplerError("theta0 must lie in [0, 1)")

    @property
    def scale(self) -> float:
        from scipy.special import zeta

        return math.sqrt((1.0 - self.theta0**2) / zeta(2.0 / self.alpha))

    def expected_mass(self, l) -> np.ndarray:
        from scipy.integrate import quad

        scalar = np.ndim(l) == 0
        larr = np.atleast_1d(np.asarray(l, dtype=float))
        c = self.scale
        a = self.alpha
        idx = np.arange(1, self.head + 1, dtype=float)
        w = c * idx ** (-1.0 / a)
        out = self.theta0**2 * larr
        out = out + np.sum(w * (1.0 - np.exp(-larr[:, None] * w)), axis=1)
        # tail integral after t = c l x^(-1/alpha): the integrand t^-alpha
        # (1 - e^-t) is mildly singular at 0 and the range is finite
        for k, lv in enumerate(larr):
            if lv == 0:
                continue
            t_n = c * lv * (self.head + 0.5) ** (-1.0 / a)
            val, _ = quad(
                lambda t: t**-a * -math.expm1(-t), 0.0, t_n, limit=200
            )
            out[k] += a * c**a * lv ** (a - 1.0) * val
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class StopRule:
    max_level: float | None = None
    max_branches: int | None = None

    def __post_init__(self):
        if (self.max_level is None) == (self.max_branches is None):
            raise SamplerError("exactly one of max_level / max_branches required")
        if self.max_level is not None and not (0 < self.max_level < math.inf):
            raise SamplerError(
                f"max_level must be positive and finite, got {self.max_level}"
            )
        if self.max_branches is not None and self.max_branches < 1:
            raise SamplerError("max_branches must be >= 1")


def sample_cuts(
    measure: MeasureState, rng: np.random.Generator, stop: StopRule
) -> np.ndarray:
    """Cut positions of the Poisson process of rate mu[0, l] dl."""
    cuts = []
    cur = 0.0
    # branch count = cuts + 1 once the level cut closes the last segment
    budget = SAFETY_CAP if stop.max_branches is None else stop.max_branches
    for _ in range(SAFETY_CAP):
        y = measure.next_cut(cur, rng.exponential())
        if stop.max_level is not None and y > stop.max_level:
            return np.asarray(cuts)
        cuts.append(y)
        cur = y
        if stop.max_branches is not None and len(cuts) >= budget:
            return np.asarray(cuts)
    raise SamplerError("stop rule not reached within safety cap")


def sample_glue(
    measure: MeasureState, cuts, rng: np.random.Generator
) -> np.ndarray:
    """Glue points Z_i drawn from mu restricted to [0, Y_i], normalized."""
    return np.asarray([measure.draw_position(float(y), rng) for y in cuts])


@dataclass
class AngleTable:
    """Uniform angles; degree-2 points implicitly use 1/2 away from the root."""

    atom_angles: np.ndarray  # per atom, weight-rank order
    glue_angles: np.ndarray  # per glued branch, build order

    def __post_init__(self):
        self.atom_angles = np.asarray(self.atom_angles, dtype=float)
        self.glue_angles = np.asarray(self.glue_angles, dtype=float)
        for arr in (self.atom_angles, self.glue_angles):
            if arr.size and (np.any(arr < 0) or np.any(arr > 1)):
                raise SamplerError("angles must lie in [0, 1]")


def sample_angles(
    measure: MeasureState, cuts, glues, rng: np.random.Generator
) -> AngleTable:
    return AngleTable(rng.random(measure.xs.size), rng.random(len(glues)))


class IcrtSample:
    """A realized plane ICRT truncation with its lookup tables."""

    def __init__(self, spec, measure, skel, angles, level, seed=None):
        self.spec = spec
        self.measure = measure
        self.skeleton = skel
        self.angles = angles
        self.level = float(level)
        self.seed = seed
        self._mass_caches: dict = {}
        self._audit()
        self._build_index()

    # ------------------------------------------------------------------
    def _audit(self):
        sk = self.skeleton
        if abs(sk.total_length - self.level) > POINT_TOL:
            raise SamplerError("skeleton length must equal the truncation level")
        if self.angles.atom_angles.size != self.measure.xs.size:
            raise SamplerError("one angle per atom required")
        if self.angles.glue_angles.size != sk.glues.size:
            raise SamplerError("one angle per glued branch required")

    def _build_index(self):
        sk = self.skeleton
        self._xs_sorted_list = self.measure.xs_sorted.tolist()  # for bisect
        self.atom_index_at: dict[float, int] = {}
        by_branch: list[list] = [[] for _ in range(sk.n_branches)]
        for i in range(self.measure.xs.size):
            x = float(self.measure.xs[i])
            if x <= self.level + POINT_TOL:
                self.atom_index_at[x] = i
                by_branch[sk.branch_of(x)].append((x, i))
        self.branch_atoms_pos: list[np.ndarray] = []
        self.branch_atoms_idx: list[np.ndarray] = []
        for b in range(sk.n_branches):
            by_branch[b].sort()
            self.branch_atoms_pos.append(np.asarray([p for p, _ in by_branch[b]]))
            self.branch_atoms_idx.append(
                np.asarray([i for _, i in by_branch[b]], dtype=int)
            )

    # ------------------------------------------------------------------
    def atom_at(self, pos: float) -> int | None:
        """Atom index at a position, tolerating 1e-12 coordinate noise."""
        hit = self.atom_index_at.get(pos)
        if hit is not None:
            return hit
        xs = self._xs_sorted_list
        j = bisect_left(xs, pos)
        for k in (j - 1, j):
            if 0 <= k < len(xs) and abs(xs[k] - pos) <= POINT_TOL:
                return self.atom_index_at.get(xs[k])
        return None

    def cont_angle(self, pos: float) -> float:
        """Angle of the continuing direction: stored for atoms, else 1/2."""
        i = self.atom_at(pos)
        return float(self.angles.atom_angles[i]) if i is not None else 0.5

    def branch_angle(self, b: int) -> float:
        """Angle of glued branch b at its glue point."""
        return float(self.angles.glue_angles[b - 1])

    def mass_prefix(self, l: float) -> float:
        return self.measure.mass_prefix(l)

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        sk = self.skeleton
        n_glued = sk.glues.size
        raw_cuts = sk.cuts.tolist()
        obj = {
            "theta0": self.spec.theta0,
            "atoms": [
                {
                    "x": float(self.measure.xs[i]),
                    "theta": float(self.measure.ws[i]),
                    "u": float(self.angles.atom_angles[i]),
                }
                for i in range(self.measure.xs.size)
            ],
            "cuts": raw_cuts,
            "glues": [
                {"z": float(sk.glues[i]), "u": float(self.angles.glue_angles[i])}
                for i in range(n_glued)
            ],
            "seed": self.seed,
            "level": self.level,
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "IcrtSample":
        obj = json.loads(text)
        ws = [a["theta"] for a in obj["atoms"]]
        spec = ThetaSpec(obj["theta0"], tuple(ws))
        measure = MeasureState(obj["theta0"] ** 2, [a["x"] for a in obj["atoms"]], ws)
        angles = AngleTable(
            [a["u"] for a in obj["atoms"]], [g["u"] for g in obj["glues"]]
        )
        return assemble_sample(
            spec,
            measure,
            obj["cuts"],
            [g["z"] for g in obj["glues"]],
            angles,
            obj["level"],
            obj["seed"],
        )


def assemble_sample(spec, measure, cuts, glues, angles, level, seed=None) -> IcrtSample:
    """Build the skeleton for a truncation at `level` and wrap everything."""
    cuts = np.asarray(cuts, dtype=float)
    if cuts.size and abs(cuts[-1] - level) < POINT_TOL:
        skel_cuts = cuts
    else:
        skel_cuts = np.concatenate([cuts, [level]])
    skel = Skeleton(skel_cuts, glues)
    return IcrtSample(spec, measure, skel, angles, level, seed)


def _draw(spec: ThetaSpec, seed: int, stop: StopRule):
    """Every random draw of the pipeline, one substream per stage.

    Returns (measure, cuts, glue_cuts, glues, angles, level), where
    glue_cuts are the cuts that carry a glued branch.
    """
    measure = sample_atoms(spec, substream(seed, "atoms"))
    cuts = sample_cuts(measure, substream(seed, "cuts"), stop)
    if stop.max_level is not None:
        level = stop.max_level
        glue_cuts = cuts
    else:
        if cuts.size == 0:
            raise SamplerError("branch budget produced no cuts")
        level = float(cuts[-1])
        glue_cuts = cuts[:-1]
    glues = sample_glue(measure, glue_cuts, substream(seed, "glues"))
    angles = sample_angles(measure, glue_cuts, glues, substream(seed, "angles"))
    return measure, cuts, glue_cuts, glues, angles, level


def sample_icrt(spec: ThetaSpec, seed: int, stop: StopRule) -> IcrtSample:
    """Full pipeline; bit-reproducible from the master seed."""
    measure, cuts, _, glues, angles, level = _draw(spec, seed, stop)
    return assemble_sample(spec, measure, cuts, glues, angles, level, seed)
