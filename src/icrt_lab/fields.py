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

Every batch takes one route: a plan, which depends on the sample and the
query alone and is kept on the sample for a repeated query, then a fill
that refines paths holding values by `insert` and fills fresh ones in
array passes, with the values the scalar insertions give.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, replace
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
_PLANS = 8  # plans kept per sample, the oldest dropped first


class FieldError(ValueError):
    pass


class _LazyGaussianPath:
    """Exact conditional Gaussian values along one segment (local coords).
    `drawn` counts the normals of the key's stream used; `_gen` skips them."""

    __slots__ = ("pos", "val", "key", "drawn", "_rng")

    def __init__(self, key, base: float):
        self.pos = [0.0]
        self.val = [base]
        self.key = key
        self.drawn, self._rng = 0, None

    @classmethod
    def bridge(cls, key) -> _LazyGaussianPath:
        """A Brownian bridge on [0, 1], pinned to 0.0 at both ends."""
        path = cls(key, 0.0)
        path.pos, path.val = [0.0, 1.0], [0.0, 0.0]
        return path

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


def _distinct(major, minor) -> tuple:
    """The distinct pairs (major, minor) by major, then minor, from one
    lexsort, and the index of each pair's distinct pair."""
    key = np.lexsort((minor, major))
    a, b, new = major[key], minor[key], np.ones(key.size, bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    inv = np.empty_like(key)
    inv[key] = np.cumsum(new) - 1
    return a[new], b[new], inv


def _runs(ii) -> tuple:
    """Start and length of each run of equal values of a sorted array."""
    start = np.flatnonzero(np.append(True, ii[1:] != ii[:-1])) if ii.size else ii
    return start, np.append(start[1:], ii.size) - start


# A plan depends on the sample and the query alone.  Each part holds the
# distinct pairs (path, position) of the query by path, then position (the
# positions `pos`, `posl` as a list), in runs of one path: rows (path,
# first pair, count) of `runs`; `fills` keeps the array layouts of its
# last fills, by their set of fresh runs.
# In the tree part a path is a branch, a run's fourth column is the pair
# it is based at and `take` is each query's pair (-1, reading 0.0, at the
# root).  In the bridge part a path is an atom's bridge; the profile's
# entries (`pad` marks them) read pairs `which`, times `wsq` (the square
# root of each atom's weight), into a table of terms, a row per point.
_TreePlan = namedtuple("_TreePlan", "pos posl runs fills take")
_BridgePlan = namedtuple("_BridgePlan", "pos posl runs fills pad which wsq")


def _tree_plan(sk, ps, br) -> _TreePlan:
    """The tree part of real-line positions ps on branches br (any order):
    the branches on their root paths are marked in one pass over `parent`,
    and the glue points off the root on their edges join the queries, all
    deduplicated by one lexsort."""
    ps = np.clip(ps, 0.0, sk.total_length)
    keep = ps > POINT_TOL
    on, b = np.zeros(sk.n_branches, bool), br[keep]
    while b.size:  # the branches on the queries' root paths
        on[b] = True
        b = sk.parent[b[b > 0]]
        b = b[~on[b]]
    c = np.flatnonzero(on[1:] & (sk.glue_pos[1:] > POINT_TOL)) + 1  # their edges
    nq, pb = np.count_nonzero(keep), np.r_[br[keep], sk.parent[c]]
    pb, off, inv = _distinct(pb, np.r_[ps[keep], sk.glue_pos[c]] - sk.lo[pb])
    glued = np.full(sk.n_branches, -1)  # the pair of each edge's glue point
    glued[c] = inv[nq:]
    take = np.full(ps.size, -1)
    take[keep] = inv[:nq]
    a, n = _runs(pb)
    return _TreePlan(off, off.tolist(), np.c_[pb[a], a, n, glued[pb[a]]], {}, take)


def _tree_layout(runs, off, f) -> tuple:
    """The fill of the fresh runs f of a tree part: row k of an array holds
    run f[k], its pairs p in the columns col >= 1 of rows `row`, with the
    deviations sds of their increments; `gens` lists the rows of each
    generation, a run after its parent's."""
    _, a, n, g = runs.T
    up = np.append(np.repeat(np.arange(n.size), n), n.size)[g]  # the parent run
    pend, gen, k = np.zeros(n.size + 1, bool), np.zeros(n.size, np.intp), 0
    pend[f] = True
    while pend.any():
        r = np.flatnonzero(pend[:-1] & ~pend[up])
        gen[r], pend[r], k = k, False, k + 1
    row = np.repeat(np.arange(f.size), n[f])
    col = np.arange(row.size) - np.repeat(np.cumsum(n[f]) - n[f], n[f]) + 1
    p = a[f][row] + col - 1
    sds = np.sqrt(off[p] - np.where(col > 1, off[p - 1], 0.0))
    gens = np.split(np.argsort(gen[f], kind="stable"), np.cumsum(np.bincount(gen[f]))[:-1])
    return runs[f], row, col, p, sds, gens


def _bridge_plan(atoms, at, ang) -> _BridgePlan:
    """The bridge part of the padded atom rows and angles of a `ProfileSet`.
    Most entries sit at their atom's own angle: those are not sorted, but
    read the pair of their atom, which joins the other entries'."""
    pad = at > 0
    j, u = at[pad], ang[pad]
    own, slot = u == atoms.us[j], np.zeros(atoms.ix.size, np.intp)
    slot[j[own]] = 1  # the atoms seen at their own angle
    jo, rest = np.flatnonzero(slot), np.flatnonzero(~own)
    # those atoms once each and the other entries, as distinct pairs
    jj, uu, pair = _distinct(np.r_[jo, j[rest]], np.r_[atoms.us[jo], u[rest]])
    slot[jo] = pair[: jo.size]
    which = slot[j]  # each entry's pair
    which[rest] = pair[jo.size :]
    a, n = _runs(jj)
    return _BridgePlan(uu, uu.tolist(), np.c_[atoms.ix[jj[a]], a, n], {}, pad, which,
                       np.sqrt(atoms.ws[j]))


def _bridge_layout(runs, uu, f) -> tuple:
    """The fill of the fresh runs f of a bridge part, whose bridges hold
    values at 0 and 1 only: per row (bridge, lo, hi), the pairs lo:hi
    (`sel`, end to end), angles inside (0, 1), are inserted in turn between
    the last one and 1, the mean weighting the last value by 1 - w, the
    deviations sd; `ranks` lists the pairs of each insertion rank."""
    i, a, n = runs[f].T
    lo, hi = a + (uu[a] <= 0.0), a + n - (uu[a + n - 1] >= 1.0)
    k = hi - lo
    sel = np.repeat(lo - np.cumsum(k) + k, k) + np.arange(k.sum())
    rank = sel - np.repeat(lo, k)
    s, last = uu[sel], np.where(rank > 0, uu[sel - 1], 0.0)
    sd = np.sqrt(np.maximum((1.0 - s) * (s - last) / (1.0 - last), 0.0))
    ranks = np.split(np.argsort(rank, kind="stable"), np.cumsum(np.bincount(rank))[:-1])
    return np.c_[i, lo, hi], sel, (s - last) / (1.0 - last), sd, ranks


def _fennec_plan(sample: IcrtSample, loc, prof=None) -> tuple:
    """The plan of located points: theta0/sqrt(6), the tree part (every
    query at the root when theta0 = 0) and the bridge part of `profiles`."""
    theta0 = math.sqrt(sample.measure.theta0_sq)
    prof = profiles(sample, loc) if prof is None else prof
    pos = loc.pos if theta0 > 0 else np.zeros_like(loc.pos)
    return (theta0 / math.sqrt(6.0), _tree_plan(sample.skeleton, pos, loc.br),
            _bridge_plan(sample.atoms, prof.at, prof.ang))


def _kept(store: dict, key, build):
    """store[key], `build()` unless kept; past `_PLANS` entries the oldest
    goes.  A race may build one twice, but keeps no wrong one."""
    value = store.get(key)
    if value is None:
        value = store[key] = build()
        for old in list(store)[:-_PLANS]:
            store.pop(old, None)
    return value


def _refine(paths: dict, part, vals, layout) -> tuple:
    """The values of the runs of a plan's part whose paths hold values, by
    `insert`, into vals; the fill of the others, laid out by `layout`."""
    fresh, pos, runs = [], part.posl, part.runs
    for r, (i, a, n) in enumerate(runs[:, :3].tolist() if paths else []):
        path = paths.get(i)
        if path is None:
            fresh.append(r)
        else:
            vals[a : a + n] = [path.insert(s) for s in pos[a : a + n]]
    key = tuple(fresh) if paths and len(fresh) < len(runs) else None  # None: all
    f = range(len(runs)) if key is None else fresh
    return _kept(part.fills, key, lambda: layout(runs, part.pos, np.array(f, np.intp)))


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
    def tree_values(self, positions) -> np.ndarray:
        """Tree-field values at real-line positions (batch, any order)."""
        sk, ps = self.sample.skeleton, np.asarray(positions, dtype=float)
        key = ("tree", ps.shape, ps.tobytes())  # branches_of rejects a bad point
        tree = _kept(self.sample._field_plans, key, lambda: _tree_plan(sk, ps, sk.branches_of(ps)))
        return self._fill(tree)[0][tree.take]

    def tree_value(self, p: float) -> float:
        return float(self.tree_values([p])[0])

    def bridge_values(self, i: int, angles) -> np.ndarray:
        angs = [float(u) for u in angles]
        for u in angs:
            if not (0.0 <= u <= 1.0):
                raise FieldError(f"bridge angle {u} outside [0, 1]")
        path = self._bridges.get(i)
        if path is None:
            path = self._bridges[i] = _LazyGaussianPath.bridge((self.seed, _BRIDGE_TAG, i))
        path.insert_batch(angs)
        return np.asarray([path.value(u) for u in angs])

    def bridge_value(self, i: int, u: float) -> float:
        return float(self.bridge_values(i, [u])[0])

    # ------------------------------------------------------------------
    def fennec_values(self, alphas) -> np.ndarray:
        """Combined field at loop points (batch, order-independent)."""
        s, pts = self.sample, np.array(alphas, dtype=float)
        key = ("fennec", pts.shape, pts.tobytes())
        return self._fennec(*_kept(s._field_plans, key, lambda: _fennec_plan(s, locate(s, pts))))

    def _fennec_values(self, loc, prof) -> np.ndarray:
        """`fennec_values` of located points from their `profiles`; the
        sample keeps no plan."""
        return self._fennec(*_fennec_plan(self.sample, loc, prof))

    def _fennec(self, scale: float, tree: _TreePlan, bridge: _BridgePlan) -> np.ndarray:
        tv, bv = self._fill(tree, bridge)
        terms = np.zeros((bridge.pad.shape[0], bridge.pad.shape[1] + 1))
        terms[:, 1:][bridge.pad] = bridge.wsq * bv[bridge.which]
        # row sums in sequence from 0.0 (column 0), not pairwise: walk order
        return scale * tv[tree.take] + np.cumsum(terms, axis=1, out=terms)[:, -1]

    def _fill(self, tree: _TreePlan, bridge: _BridgePlan | None = None) -> tuple:
        """The values of the pairs of a plan's tree part, and a last 0.0,
        and of its bridge part.  Paths that hold values are refined by
        `insert`; fresh ones are filled in array passes, seeded by one
        `keyed_normals` call."""
        tv, bv = np.zeros(tree.pos.size + 1), None
        tl = _refine(self._branches, tree, tv, _tree_layout)
        draws = [(_TREE_TAG, b, n) for b, _, n, _ in tl[0].tolist()]
        if bridge is not None:  # a fresh bridge draws its angles inside (0, 1)
            bv = np.zeros(bridge.pos.size)
            bl = _refine(self._bridges, bridge, bv, _bridge_layout)
            draws += [(_BRIDGE_TAG, i, hi - lo) for i, lo, hi in bl[0].tolist() if hi > lo]
        z = keyed_normals([(self.seed, t, i) for t, i, _ in draws], [n for *_, n in draws])
        nt = tl[1].size  # the tree's draws, one per pair it fills, come first
        self._fill_tree(tree, tl, tv, z[:nt])
        if bridge is not None:
            self._fill_bridges(bridge, bl, bv, z[nt:])
        return tv, bv

    def _fill_tree(self, tree: _TreePlan, layout, vals, z) -> None:
        """`insert_batch` on fresh tree paths, bit for bit: row
        [base, sqrt(Δs) * z, ...] adds in sequence under `np.cumsum`, once
        the base is known (vals[-1] = 0.0 at the root)."""
        runs, row, col, p, sds, gens = layout
        m = np.zeros((len(runs), runs[:, 2].max(initial=0) + 1))
        m[row, col] = sds * z
        for r in gens:
            m[r, 0] = vals[runs[r, 3]]
            m[r] = np.cumsum(m[r], axis=1)
            vals[p] = m[row, col]
        offs, vl = tree.posl, vals.tolist()
        for (b, a, n, _), base in zip(runs.tolist(), m[:, 0].tolist()):
            path = self._branches[b] = _LazyGaussianPath((self.seed, _TREE_TAG, b), base)
            path.pos[1:], path.val[1:], path.drawn = offs[a : a + n], vl[a : a + n], n

    def _fill_bridges(self, bridge: _BridgePlan, layout, vals, z) -> None:
        """`insert_batch` on fresh bridges, bit for bit, one insertion rank
        at a time; past rank 0, entry j - 1 of `sel` holds entry j's last
        value."""
        runs, sel, w, sd, ranks = layout
        v, e = np.empty(z.size), sd * z
        for r, j in enumerate(ranks):
            b = v[j - 1] if r else np.zeros(j.size)
            v[j] = b + (0.0 - b) * w[j] + e[j]
        vals[sel] = v
        ul, vl = bridge.posl, vals.tolist()
        for i, lo, hi in runs.tolist():
            path = self._bridges[i] = _LazyGaussianPath.bridge((self.seed, _BRIDGE_TAG, i))
            path.pos[1:1], path.val[1:1], path.drawn = ul[lo:hi], vl[lo:hi], hi - lo

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
                path = _LazyGaussianPath.bridge((self.seed, _GENERAL_TAG, i))
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
