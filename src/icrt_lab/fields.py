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
from itertools import accumulate, islice
from typing import Callable

import numpy as np

from .skeleton import POINT_TOL
from .sampler import IcrtSample
from .plane import (
    LoopPoint,
    _check_loop_point,
    locate,
    path_atom_angles,
    profiles,
)
from .util import fmt17, keyed_generator, keyed_normals

_TREE_TAG = 101
_BRIDGE_TAG = 102
_GENERAL_TAG = 103
# `fennec_values` of fewer points walks each root path in Python; from
# about this many on, one `profiles` pass costs less (timed on fresh
# realizations of Brownian and power-law samples of 8 to 1,000 branches)
_PROFILE_BATCH = 32


class FieldError(ValueError):
    pass


class _LazyGaussianPath:
    """Exact conditional Gaussian values along one segment (local coords).
    `drawn` counts the normals of the key's stream used; `_gen` skips them."""

    __slots__ = ("pos", "val", "key", "drawn", "_rng")

    def __init__(self, key, base: float, pinned_end: tuple | None = None):
        self.pos = [0.0]
        self.val = [base]
        if pinned_end is not None:
            self.pos.append(float(pinned_end[0]))
            self.val.append(float(pinned_end[1]))
        self.key = key
        self.drawn, self._rng = 0, None

    def _gen(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = keyed_generator(*self.key)
            if self.drawn:  # skip what a batch fill used
                self._rng.standard_normal(self.drawn)
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
        self.drawn += 1
        self.pos.insert(j, s)
        self.val.insert(j, v)
        return v

    def insert_batch(self, positions) -> None:
        for s in sorted(positions):
            self.insert(float(s))

    def value(self, s: float) -> float:
        j = bisect_left(self.pos, s)
        return self.val[j]


def _runs(ii) -> tuple:
    """Start and length of each run of equal values of a sorted array."""
    start = np.flatnonzero(np.append(True, ii[1:] != ii[:-1])) if ii.size else ii
    return start, np.append(start[1:], ii.size) - start


class FieldRealization:
    """Lazily refined tree field plus per-atom bridges for one sample."""

    def __init__(self, sample: IcrtSample, seed: int):
        if int(seed) < 0:
            raise FieldError(f"field seed {seed} is negative")
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
        ps = np.asarray(positions, dtype=float)
        br = sk.branches_of(ps)  # rejects a point as check_point does
        ps = np.clip(ps, 0.0, sk.total_length)
        # each query as its branch and offset on it; the root reads 0
        off_root = (ps > POINT_TOL).tolist()
        queries = list(zip(br.tolist(), (ps - sk.lo[br]).tolist(), off_root))
        need: dict[int, set] = {}
        for b, s, keep in queries:
            if keep:
                need.setdefault(b, set()).add(s)
        # glue points on the root path of each branch (hi[b] lies on b), up
        # to the first edge already climbed
        climbed = set()
        for hi in sk.hi[list(need)].tolist():
            for a, glue, c in islice(sk.ascend(hi), 1, None):
                if c in climbed:
                    break
                climbed.add(c)
                if glue > POINT_TOL:
                    need.setdefault(a, set()).add(glue - float(sk.lo[a]))
        # on the profile route, all fresh paths take their normals from one
        # keyed_normals call and add them to their bases in branch order
        order, steps = sorted(need), None
        if len(ps) >= _PROFILE_BATCH:
            new = {b: sorted(need[b] - {0.0}) for b in order if b not in self._branches}
            ds = [y - x for s in new.values() for x, y in zip([0.0, *s], s)]
            keys = [(self.seed, _TREE_TAG, b) for b in new]
            z = keyed_normals(keys, map(len, new.values()))
            steps = iter((np.sqrt(ds) * z).tolist())
        for b in order:
            path = self._branches.get(b)
            if path is None:
                base = 0.0
                g = float(sk.glue_pos[b])  # 0.0 for the root branch
                if g > POINT_TOL:
                    pb = int(sk.parent[b])
                    base = self._branches[pb].value(g - float(sk.lo[pb]))
                path = _LazyGaussianPath((self.seed, _TREE_TAG, b), base)
                self._branches[b] = path
                if steps is not None:  # the sequential adds of `insert`
                    path.pos += new[b]
                    path.val = list(accumulate(islice(steps, len(new[b])), initial=base))
                    path.drawn = len(new[b])
                    continue
            path.insert_batch(need[b])
        return np.asarray(
            [self._branches[b].value(s) if keep else 0.0 for b, s, keep in queries]
        )

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
        if len(alphas) >= _PROFILE_BATCH:
            loc = locate(self.sample, alphas)
            return self._fennec_values(loc, profiles(self.sample, loc))
        return self._fennec_walks([_check_loop_point(self.sample, a) for a in alphas])

    def _tree_part(self, pos) -> np.ndarray:
        """The tree term of the fennec, theta0/sqrt(6) times the tree field."""
        theta0 = math.sqrt(self.sample.measure.theta0_sq)
        g = self.tree_values(pos) if theta0 > 0 else np.zeros(len(pos))
        return theta0 / math.sqrt(6.0) * g

    def _fennec_walks(self, pts) -> np.ndarray:
        """`fennec_values` of checked points by one `path_atom_angles` walk
        each, every bridge refined by `insert`."""
        per_point = [path_atom_angles(self.sample, a) for a in pts]
        needs: dict[int, set] = {}
        for i, u in (t for terms in per_point for t in terms):
            needs.setdefault(i, set()).add(u)
        for i, angs in needs.items():
            self._bridge(i).insert_batch(angs)
        sq, tail = np.sqrt(self.sample.measure.ws).tolist(), []
        for terms in per_point:
            t = 0.0
            for i, u in terms:  # not sum(), which compensates from Python 3.12 on
                t += sq[i] * self._bridges[i].value(u)
            tail.append(t)
        return self._tree_part([a.pos for a in pts]) + np.asarray(tail)

    def _fennec_values(self, loc, prof) -> np.ndarray:
        """`fennec_values` of located points from their `profiles`: the
        bridge terms added one column at a time, in walk order."""
        atoms = self.sample.atoms
        sq, tail = np.sqrt(atoms.ws), np.zeros(loc.pos.size)  # a pad reads 0.0
        for j, v in zip(prof.at.T, self._bridge_table(atoms.ix, prof.at, prof.ang).T):
            tail += sq[j] * v  # not sum(), which compensates from Python 3.12 on
        return self._tree_part(loc.pos) + tail

    def _bridge_table(self, ix, at, ang) -> np.ndarray:
        """Bridge ix[j] at angle u for each (j, u) of the padded arrays of a
        `ProfileSet`, 0.0 at a pad: bridges that hold values refine by
        `insert`, fresh ones are filled by `_fill_bridges`."""
        pad = at > 0
        key = np.lexsort((ang[pad], at[pad]))  # by atom, then angle
        jj, uu = at[pad][key], ang[pad][key]
        new = np.ones(jj.size, bool)
        new[1:] = (jj[1:] != jj[:-1]) | (uu[1:] != uu[:-1])
        ii, uu, pair = ix[jj[new]], uu[new], np.cumsum(new) - 1
        # each atom's sorted angles are uu[a:a + n]
        vals, fresh = np.zeros(ii.size), np.ones(ii.size, bool)  # 0.0 at 0 and 1
        start, count = _runs(ii)
        for i, a, n in zip(ii[start].tolist(), start.tolist(), count.tolist()):
            if i in self._bridges:
                vals[a : a + n] = self.bridge_values(i, uu[a : a + n])
                fresh[a : a + n] = False
            else:
                self._bridge(i)
        inner = np.flatnonzero(fresh & (uu > 0.0) & (uu < 1.0))
        if inner.size:
            vals[inner] = self._fill_bridges(ii[inner], uu[inner])
        out, got = np.zeros(at.shape), np.empty(key.size)
        got[key] = vals[pair]
        out[pad] = got
        return out

    def _fill_bridges(self, ii, uu) -> np.ndarray:
        """`insert_batch` on fresh bridges, bit for bit: per bridge i its
        angles uu (sorted, inside (0, 1)), each inserted between the last
        one and 1, with all bridges at one insertion rank per step."""
        first, k = _runs(ii)
        ids = ii[first].tolist()
        paths = [self._bridges[i] for i in ids]
        # values stored rank by rank; in each rank the bridges keep fixed
        # slots, most angles first, so the bridges at rank r are a prefix of
        # those at rank r - 1
        slot = np.empty_like(k)
        slot[np.argsort(-k, kind="stable")] = np.arange(k.size)
        rank = np.arange(ii.size) - np.repeat(first, k)
        size = np.bincount(rank)
        base = np.cumsum(size) - size
        at = base[rank] + np.repeat(slot, k)
        s, z, v = np.empty(ii.size), np.empty(ii.size), np.empty(ii.size)
        s[at] = uu
        z[at] = keyed_normals([(self.seed, _BRIDGE_TAG, i) for i in ids], k)
        a = b = np.zeros(k.size)  # the last position and value of each bridge
        for o, m in zip(base.tolist(), size.tolist()):
            sr, a, b = s[o : o + m], a[:m], b[:m]
            mean = b + (0.0 - b) * ((sr - a) / (1.0 - a))
            var = (1.0 - sr) * (sr - a) / (1.0 - a)
            v[o : o + m] = mean + np.sqrt(np.maximum(var, 0.0)) * z[o : o + m]
            a, b = sr, v[o : o + m]
        vals = v[at]
        ul, vl = uu.tolist(), vals.tolist()
        for path, f, m in zip(paths, first.tolist(), k.tolist()):
            path.pos[1:1], path.val[1:1] = ul[f : f + m], vl[f : f + m]
            path.drawn = m
        return vals

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
) -> FieldSpec:
    """Empirical audit on a 257-point angle grid: zero at 0, centered at a
    uniform angle, and kappa-th moment of the sup at most 1 (plus a slack of
    0.05).  Rejects on failure."""
    grid = np.linspace(0.0, 1.0, 257)
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
    if moment > 1.05:
        raise FieldError(f"sup-moment {moment} exceeds 1 + 0.05")
    return replace(spec, validated=True)


class GeneralizedField:
    """Realized family (D_i) for one sample; D_i(0) = 0 keeps atoms off the
    root path silent."""

    def __init__(self, sample: IcrtSample, spec: FieldSpec, seed: int):
        if not spec.validated:
            raise FieldError("field spec must pass register_field_spec first")
        if int(seed) < 0:
            raise FieldError(f"field seed {seed} is negative")
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
