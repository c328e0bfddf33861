"""Gaussian fields on a truncated ICRT.

The tree field runs a Brownian motion along each branch started from the
value at the branch's glue point, so increments across the tree have
variance equal to the tree distance.  Each atom carries an independent
standard Brownian bridge on [0, 1]; the combined field adds the tree part
scaled by theta0/sqrt(6) and the bridges at the angles seen from the
queried loop point.

Sampling is exact lazy Gaussian conditioning: querying a new point bridges
between its already-sampled neighbours (or extends past the last one), so
refinement never changes previously returned values.  Query batches are
processed in sorted order, which makes the realization a function of the
query sets, not of their order.  Queries on one realization must be
externally serialized; distinct realizations are independent.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .skeleton import POINT_TOL
from .sampler import IcrtSample
from .plane import LoopPoint, _check_loop_point, path_atom_angles
from .util import fmt17, keyed_generator

_TREE_TAG = 101
_BRIDGE_TAG = 102
_GENERAL_TAG = 103


class FieldError(ValueError):
    pass


class _LazyGaussianPath:
    """Exact conditional Gaussian values along one segment (local coords)."""

    __slots__ = ("pos", "val", "key", "_rng")

    def __init__(self, key, base: float, pinned_end: tuple | None = None):
        self.pos = [0.0]
        self.val = [base]
        if pinned_end is not None:
            self.pos.append(float(pinned_end[0]))
            self.val.append(float(pinned_end[1]))
        self.key = key
        self._rng = None

    def _gen(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = keyed_generator(*self.key)
        return self._rng

    def insert(self, s: float) -> float:
        j = bisect_left(self.pos, s)
        if j < len(self.pos) and self.pos[j] == s:
            return self.val[j]
        v0, s0 = self.val[j - 1], self.pos[j - 1]
        if j < len(self.pos):
            s1, v1 = self.pos[j], self.val[j]
            w = (s - s0) / (s1 - s0)
            mean = v0 + (v1 - v0) * w
            var = (s1 - s) * (s - s0) / (s1 - s0)
        else:
            mean = v0
            var = s - s0
        v = mean + math.sqrt(max(var, 0.0)) * float(self._gen().standard_normal())
        self.pos.insert(j, s)
        self.val.insert(j, v)
        return v

    def insert_batch(self, positions) -> None:
        for s in sorted(positions):
            self.insert(float(s))

    def value(self, s: float) -> float:
        j = bisect_left(self.pos, s)
        return self.val[j]


class FieldRealization:
    """Lazily refined tree field plus per-atom bridges for one sample."""

    def __init__(self, sample: IcrtSample, seed: int):
        self.sample = sample
        self.seed = int(seed)
        self._branches: dict[int, _LazyGaussianPath] = {}
        self._bridges: dict[int, _LazyGaussianPath] = {}

    # ------------------------------------------------------------------
    def _bridge(self, i: int) -> _LazyGaussianPath:
        path = self._bridges.get(i)
        if path is None:
            path = _LazyGaussianPath(
                (self.seed, _BRIDGE_TAG, i), 0.0, pinned_end=(1.0, 0.0)
            )
            self._bridges[i] = path
        return path

    def tree_values(self, positions) -> np.ndarray:
        """Tree-field values at real-line positions (batch, any order)."""
        sk = self.sample.skeleton
        queries = [sk.check_point(float(p)) for p in positions]
        need: dict[int, set] = {}
        for p in queries:
            if p <= POINT_TOL:
                continue
            b = sk.branch_of(p)
            need.setdefault(b, set()).add(p - float(sk.lo[b]))
        # glue points on the root path of each branch (hi[b] lies on b)
        for b in list(need):
            for a, g, child in sk.ascend(float(sk.hi[b])):
                if child >= 0 and g > POINT_TOL:
                    need.setdefault(a, set()).add(g - float(sk.lo[a]))
        for b in sorted(need):
            path = self._branches.get(b)
            if path is None:
                base = 0.0
                g = float(sk.glue_pos[b])  # 0.0 for the root branch
                if g > POINT_TOL:
                    pb = int(sk.parent[b])
                    base = self._branches[pb].value(g - float(sk.lo[pb]))
                path = _LazyGaussianPath((self.seed, _TREE_TAG, b), base)
                self._branches[b] = path
            path.insert_batch(need[b])
        out = np.empty(len(queries))
        for k, p in enumerate(queries):
            if p <= POINT_TOL:
                out[k] = 0.0
            else:
                b = sk.branch_of(p)
                out[k] = self._branches[b].value(p - float(sk.lo[b]))
        return out

    def tree_value(self, p: float) -> float:
        return float(self.tree_values([p])[0])

    def bridge_values(self, i: int, angles) -> np.ndarray:
        angs = [float(u) for u in angles]
        for u in angs:
            if not (0.0 <= u <= 1.0):
                raise FieldError(f"bridge angle {u} outside [0, 1]")
        path = self._bridge(i)
        path.insert_batch(angs)
        return np.asarray([path.value(u) for u in angs])

    def bridge_value(self, i: int, u: float) -> float:
        return float(self.bridge_values(i, [u])[0])

    # ------------------------------------------------------------------
    def fennec_values(self, alphas) -> np.ndarray:
        """Combined field at loop points (batch, order-independent)."""
        sample = self.sample
        pts = [_check_loop_point(sample, a) for a in alphas]
        per_point = [path_atom_angles(sample, a) for a in pts]
        theta0 = math.sqrt(sample.measure.theta0_sq)
        if theta0 > 0:
            g = self.tree_values([a.pos for a in pts])
        else:
            g = np.zeros(len(pts))
        needs: dict[int, set] = {}
        for terms in per_point:
            for i, u in terms:
                needs.setdefault(i, set()).add(u)
        table: dict[tuple, float] = {}
        for i in sorted(needs):
            angs = sorted(needs[i])
            vals = self.bridge_values(i, angs)
            for u, v in zip(angs, vals):
                table[(i, u)] = float(v)
        sq = np.sqrt(sample.measure.ws) if sample.measure.ws.size else sample.measure.ws
        out = theta0 / math.sqrt(6.0) * g
        for k, terms in enumerate(per_point):
            out[k] += sum(sq[i] * table[(i, u)] for i, u in terms)
        return out

    def fennec_value(self, alpha) -> float:
        return float(self.fennec_values([alpha])[0])


def export_field_trace(path, sample: IcrtSample, realization: FieldRealization, alphas):
    """CSV columns: point id, tree position, angle, tree-field value, field value."""
    pts = [_check_loop_point(sample, a) for a in alphas]
    g = realization.tree_values([p.pos for p in pts])
    f = realization.fennec_values(pts)
    with open(path, "w") as fh:
        fh.write("id,position,angle,gfield,fennec\n")
        for k, p in enumerate(pts):
            fh.write(
                f"p{k},{fmt17(p.pos)},{fmt17(p.angle)},{fmt17(g[k])},{fmt17(f[k])}\n"
            )


# ---------------------------------------------------------------------------
# generalized per-atom fields
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FieldSpec:
    """Per-atom random functions used in partial-sum diagnostics.

    kind "bridge" reuses the exact lazy bridges; "custom" needs a factory
    mapping a Generator to a vectorized function on [0, 1].
    """

    kind: str = "bridge"
    kappa: float = 4.0
    factory: Callable[[np.random.Generator], Callable] | None = None
    validated: bool = False

    def __post_init__(self):
        if self.kind not in ("bridge", "custom"):
            raise FieldError(f"unknown field kind {self.kind!r}")
        if self.kappa < 2:
            raise FieldError("kappa must be at least 2")
        if self.kind == "custom" and self.factory is None:
            raise FieldError("custom fields need a factory")


def _audit_draw(spec: FieldSpec, rng: np.random.Generator, grid: np.ndarray):
    if spec.kind == "bridge":
        steps = rng.standard_normal(grid.size - 1) * np.sqrt(np.diff(grid))
        w = np.concatenate([[0.0], np.cumsum(steps)])
        return w - grid * w[-1]
    fn = spec.factory(rng)
    return np.asarray(fn(grid), dtype=float)


def register_field_spec(
    spec: FieldSpec,
    rng: np.random.Generator,
    n_audit: int = 10_000,
    grid_size: int = 257,
    moment_slack: float = 0.05,
) -> FieldSpec:
    """Empirical audit: zero at 0, centered at a uniform angle, and
    kappa-th moment of the sup at most 1 (plus slack).  Rejects on failure."""
    grid = np.linspace(0.0, 1.0, grid_size)
    centered = np.empty(n_audit)
    sup_pow = np.empty(n_audit)
    for t in range(n_audit):
        vals = _audit_draw(spec, rng, grid)
        if abs(vals[0]) > 1e-12:
            raise FieldError("field does not vanish at angle 0")
        u = rng.random()
        centered[t] = np.interp(u, grid, vals)
        sup_pow[t] = np.max(np.abs(vals)) ** spec.kappa
    mean = float(np.mean(centered))
    se = float(np.std(centered, ddof=1) / math.sqrt(n_audit))
    if abs(mean) > 4.0 * max(se, 1e-12):
        raise FieldError(f"field not centered: mean {mean} vs 4*SE {4 * se}")
    moment = float(np.mean(sup_pow))
    if moment > 1.0 + moment_slack:
        raise FieldError(f"sup-moment {moment} exceeds 1 + {moment_slack}")
    return replace(spec, validated=True)


class GeneralizedField:
    """Realized family (D_i) for one sample; D_i(0) = 0 keeps atoms off the
    root path silent."""

    def __init__(self, sample: IcrtSample, spec: FieldSpec, seed: int):
        if not spec.validated:
            raise FieldError("field spec must pass register_field_spec first")
        self.sample = sample
        self.spec = spec
        self.seed = int(seed)
        self._bridges: dict[int, _LazyGaussianPath] = {}
        self._customs: dict[int, Callable] = {}

    def d_value(self, i: int, u: float) -> float:
        if u == 0.0:
            return 0.0
        if self.spec.kind == "bridge":
            path = self._bridges.get(i)
            if path is None:
                path = _LazyGaussianPath(
                    (self.seed, _GENERAL_TAG, i), 0.0, pinned_end=(1.0, 0.0)
                )
                self._bridges[i] = path
            return path.insert(float(u))
        fn = self._customs.get(i)
        if fn is None:
            fn = self.spec.factory(keyed_generator(self.seed, _GENERAL_TAG, i))
            self._customs[i] = fn
        return float(np.asarray(fn(np.asarray([u])), dtype=float)[0])

    def partial_sum(self, alpha, n: int, m: int) -> float:
        """sum over atom ranks n..m of sqrt(theta_i) D_i(angle toward alpha)."""
        if n > m:
            raise FieldError("need n <= m")
        ws = self.sample.measure.ws
        out = 0.0
        for i, u in path_atom_angles(self.sample, alpha):
            rank = i + 1
            if n <= rank <= m and u != 0.0:
                out += math.sqrt(ws[i]) * self.d_value(i, u)
        return out

    def tail_max(self, alpha, n_min: int) -> float:
        """max over n, m >= n_min of |partial_sum(alpha, n, m)|."""
        ws = self.sample.measure.ws
        terms = sorted(
            (i + 1, math.sqrt(ws[i]) * self.d_value(i, u))
            for i, u in path_atom_angles(self.sample, alpha)
            if i + 1 >= n_min and u != 0.0
        )
        run = hi = lo = 0.0
        for _, t in terms:
            run += t
            hi = max(hi, run)
            lo = min(lo, run)
        return hi - lo


def atom_probe_points(sample: IcrtSample, per_atom: int = 8) -> list:
    """Angle-grid probes on every atom fiber (where tail maxima live)."""
    probes = []
    for x in sorted(sample.atom_index_at):
        for k in range(per_atom):
            probes.append(LoopPoint(x, k / per_atom))
    return probes


def uniform_tail(field: GeneralizedField, n_min: int, probes) -> float:
    """Empirical sup of tail partial sums; nonincreasing in n_min."""
    probes = list(probes)
    if not probes:
        raise FieldError("need at least one probe")
    return max(field.tail_max(p, n_min) for p in probes)
