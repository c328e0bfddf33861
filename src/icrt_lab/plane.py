"""Plane structure of a truncated ICRT.

Loop points are pairs (tree position, angle).  This module answers angle
queries, the total contour order (left-of / in-front-of comparison at the
meet point), and computes the left/front/right mass functionals exactly by
decomposing the root path, with per-level subtree aggregates cached on the
sample.  A batch of loop points is an (n, 2) array (positions, angles),
located once (`locate`): `left_fractions` batches the mass walk and
`compare_many` the order.  Root-path atom walks read the sample's atom
table and the per-edge rows of `PathAtoms`; `profiles` climbs a batch's
root paths together, listing their atoms in padded arrays.
"""
from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .skeleton import POINT_TOL
from .sampler import IcrtSample


class LoopPoint(NamedTuple):
    pos: float
    angle: float


class Order(Enum):
    LEFT = "L"
    FRONT = "F"
    BEHIND = "B"
    RIGHT = "R"
    EQUAL = "E"


class PlaneError(ValueError):
    pass


def _check_loop_point(sample: IcrtSample, alpha, l: float | None = None) -> LoopPoint:
    """Validated loop point; a position within POINT_TOL of an atom becomes
    the atom's exact coordinate, so every later lookup is exact."""
    pos, angle = float(alpha[0]), float(alpha[1])
    limit = sample.level if l is None else l
    if not (-POINT_TOL <= pos <= limit + POINT_TOL):
        raise PlaneError(f"tree position {pos} outside [0, {limit}]")
    if not (0.0 <= angle <= 1.0):
        raise PlaneError(f"angle {angle} outside [0, 1]")
    return LoopPoint(sample.snap(pos), angle)


class Located(NamedTuple):
    """Loop points checked once, by `locate`: positions, angles, branches."""

    pos: np.ndarray
    ang: np.ndarray
    br: np.ndarray


def _check_points(sample: IcrtSample, points, l: float | None = None) -> np.ndarray:
    """A batch of loop points, an (n, 2) array or a list of pairs, copied
    into an (n, 2) array and checked as `_check_loop_point` checks one: a
    bad point raises the scalar message."""
    pts = np.array(points, dtype=float)
    if pts.shape[1:] != (2,) and pts.shape != (0,):
        raise PlaneError(f"loop points must be an (n, 2) batch, got shape {pts.shape}")
    pts = pts.reshape(-1, 2)
    pos, ang = pts.T
    limit = sample.level if l is None else l
    ok = (-POINT_TOL <= pos) & (pos <= limit + POINT_TOL) & (0.0 <= ang) & (ang <= 1.0)
    if not np.all(ok):
        _check_loop_point(sample, pts[int(np.argmin(ok))], l)
    return pts


def locate(sample: IcrtSample, points, l: float | None = None) -> Located:
    """`_check_loop_point` for a batch of points (`_check_points`), with one
    branch lookup.  The result holds copies, not views of the batch."""
    pos, ang = _check_points(sample, points, l).T
    # snap: the atom within POINT_TOL, the one below first, as in `snap`
    xs, out = sample.atoms.xs, pos  # after a sentinel at -inf
    j = np.searchsorted(xs, pos, side="left")
    for k in (j, j - 1):
        x = xs[np.clip(k, 0, xs.size - 1)]
        hit = (k >= 0) & (k < xs.size) & (np.abs(x - pos) <= POINT_TOL)
        out = np.where(hit, x, out)
    return Located(out, ang, sample.skeleton.branches_of(out))


# ---------------------------------------------------------------------------
# order relations
# ---------------------------------------------------------------------------
def compare(sample: IcrtSample, alpha, beta) -> Order:
    """Relation of alpha to beta under the contour order.

    Angles are compared at the meet; equality of angles with the meet at one
    of the two tree points is the front/behind case.
    """
    return compare_canonical(
        sample, _check_loop_point(sample, alpha), _check_loop_point(sample, beta)
    )


def compare_canonical(sample: IcrtSample, a: LoopPoint, b: LoopPoint) -> Order:
    """`compare` on points that `_check_loop_point` has already validated
    and snapped."""
    _, px, cx, py, cy = sample.skeleton.meet_walk(a.pos, b.pos)
    # angle and rank of the meet component each side lives in: own point
    # -2, glued branch c >= 0, or continuation -1 when the other side
    # reaches the meet branch lower down
    ua, rank_x = (a.angle, -2) if cx < 0 else (sample.branch_angle(cx), cx)
    ub, rank_y = (b.angle, -2) if cy < 0 else (sample.branch_angle(cy), cy)
    if px < py:
        ub, rank_y = sample.cont_angle(px), -1
    elif py < px:
        ua, rank_x = sample.cont_angle(py), -1
    if ua < ub:
        return Order.LEFT
    if ua > ub:
        return Order.RIGHT
    # equal angles at the meet
    if rank_x == -2 and rank_y == -2:
        return Order.EQUAL
    if rank_x == -2:
        return Order.FRONT
    if rank_y == -2:
        return Order.BEHIND
    # distinct components sharing an angle: deterministic tie-break
    return Order.LEFT if rank_x < rank_y else Order.RIGHT


def compare_many(sample: IcrtSample, loc: Located, i, k) -> np.ndarray:
    """Pair by pair, the `Order` code (its value, "L", "F", ...) of
    `compare_canonical` of point i of loc against point k: the same meet
    walk, angles and ranks, on arrays of indices."""
    pos, ang, br = loc
    _, px, cx, py, cy = sample.skeleton.meet_walks(br[i], pos[i], br[k], pos[k])
    glued = np.r_[0.0, sample.angles.glue_angles]
    ua, rank_x = np.where(cx < 0, ang[i], glued[cx]), np.where(cx < 0, -2, cx)
    ub, rank_y = np.where(cy < 0, ang[k], glued[cy]), np.where(cy < 0, -2, cy)
    # the side that reaches the meet branch higher up sees the continuation,
    # at the angle of an atom exactly at the meet point, else 1/2
    m, (xs, us) = np.minimum(px, py), sample.atoms[:2]
    j = np.searchsorted(xs, m, side="right") - 1  # the last atom at m, as atom_at
    cont = np.where(xs[j] == m, us[j], 0.5)
    ub, rank_y = np.where(px < py, cont, ub), np.where(px < py, -1, rank_y)
    ua, rank_x = np.where(py < px, cont, ua), np.where(py < px, -1, rank_x)
    own_x, own_y = rank_x == -2, rank_y == -2
    return np.select(
        [ua < ub, ua > ub, own_x & own_y, own_x, own_y, rank_x < rank_y],
        ["L", "R", "E", "F", "B", "L"],
        "R",
    )


def precedes(sample: IcrtSample, loc: Located, i, k) -> np.ndarray:
    """Pair by pair, whether `compare_canonical` puts point i of loc before
    point k (LEFT or FRONT)."""
    return np.isin(compare_many(sample, loc, i, k), ("L", "F"))


def angle_toward(sample: IcrtSample, x: float, target) -> float:
    """Angle at tree point x of the component containing the target."""
    t = _check_loop_point(sample, target)
    x = sample.snap(sample.skeleton.check_point(x))
    if abs(x - t.pos) <= POINT_TOL:
        return t.angle
    m = sample.skeleton.meet(x, t.pos)
    if abs(m - x) > POINT_TOL:
        return 0.0  # target sits on the root side of x
    _, a_m = _side_terms(sample, t.pos, t.angle, x, sample.skeleton.branch_of(x))
    return a_m


def _side_terms(sample: IcrtSample, x: float, v: float, m: float, bm: int):
    """Atoms strictly above m on the root path of (x, v), as (atom index,
    angle toward (x, v), position); plus the angle at m toward (x, v)."""
    sk, pa = sample.skeleton, PathAtoms.of(sample)
    terms = []
    for b, top, child in sk.ascend(x, bm):
        if b == bm:
            break
        terms += pa.row(child) if child >= 0 else pa.segment(b, pa.lo[b], x, v)
    tau = v if child < 0 else sample.branch_angle(child)
    above = top - m > POINT_TOL
    terms += pa.segment(bm, m, top, tau if above else None)
    return terms, sample.cont_angle(m) if above else tau


class PathAtoms:
    """Per edge c > 0, the `segment` a root path adds on parent[c] coming up
    through c: `edges` as arrays (`_ranges` of the sample's atom table, then
    the glue angle), `row(c)` as a list; `segment` reads list copies of the
    table.  One per sample, built on first use (`of`)."""

    def __init__(self, sample: IcrtSample):
        # no reference back to the sample, which keeps this table: the pair
        # is freed without waiting for the cycle collector
        sk, at = sample.skeleton, sample.atoms
        p = np.maximum(sk.parent, 0)  # edge 0 is never read
        tau = np.r_[0.0, sample.angles.glue_angles]  # branch_angle
        self.edges = (*_ranges(at, p, sk.lo[p], sk.glue_pos), tau)
        # the scalar walks; they return at once on a sample without atoms
        self.any, self._atom_at = bool(sample.atom_index_at), sample.atom_index_at.get
        self._xs, self.lo = at.xl, sk.lo.tolist()
        self._first, self._last = at.first.tolist(), at.last.tolist()
        self._list = list(zip(at.ix.tolist(), at.us.tolist(), at.xl))
        self._rows = list(zip(*(v.tolist() for v in self.edges))) if self.any else []

    def segment(self, b: int, lo: float, top: float, tau) -> list:
        """Atoms of branch b strictly inside (lo, top) with their own
        angles, then the atom at top (if any) with angle tau, the angle
        toward the walker there; tau None leaves the top out.  Entries are
        (atom index, angle, position)."""
        if not self.any:
            return []
        start, stop = _inside(
            bisect_right(self._xs, lo), bisect_left(self._xs, top),
            self._first[b], self._last[b], max, min,
        )
        out = self._list[start:stop]
        i = None if tau is None else self._atom_at(top)
        if i is not None:
            out.append((i, tau, top))
        return out

    def row(self, c: int) -> list:
        if not self.any:
            return []
        start, stop, t, tau = self._rows[c]
        out = self._list[start:stop]
        if t:
            out.append((self._list[t][0], tau, self._xs[t]))
        return out

    @staticmethod
    def of(sample: IcrtSample) -> "PathAtoms":
        if sample._path_atoms is None:
            sample._path_atoms = PathAtoms(sample)
        return sample._path_atoms


def _inside(start, stop, first, last, hi, lo) -> tuple:
    """A range [start, stop) of the sorted atoms clamped into a branch's
    block [first, last), by hi = max and lo = min on scalars or their numpy
    forms on arrays."""
    start = lo(hi(start, first), last)
    return start, lo(hi(stop, start), last)


def _ranges(atoms, b, lo, top) -> tuple:
    """`PathAtoms.segment` of branches b on (lo, top), on arrays: the rows
    [start, stop) of the atom table inside, and the row of the atom at top
    (0, the sentinel, for none)."""
    xs, first, last = atoms.xs, atoms.first, atoms.last
    start = np.searchsorted(xs, lo, side="right")
    stop = np.searchsorted(xs, top, side="left")
    j = np.searchsorted(xs, top, side="right") - 1
    ins = _inside(start, stop, first[b], last[b], np.maximum, np.minimum)
    return (*ins, np.where(xs[j] == top, j, 0))


class ProfileSet(NamedTuple):
    """Root paths of located points (`profiles`), one padded row each: the
    root depth; the chain (`br`, `top`; -1 and inf pad): the own branch and
    the point, then each parent branch and the glue point the path comes up
    through; the atoms on the path, each segment's by position with the
    atom at its top last, as the chain level, the row of the sample's atom
    table (`atoms`) and the angle toward the point (0, the sentinel 0 and
    0.0 pad).  The atom index, -1 at a pad, is `ix[at]`, the weight
    (0.0 at a pad) `ws[at]`."""

    depth: np.ndarray
    br: np.ndarray
    top: np.ndarray
    lev: np.ndarray
    at: np.ndarray
    ang: np.ndarray


def profiles(sample: IcrtSample, loc: Located, root_first: bool = False) -> ProfileSet:
    """The exploration profiles of located points, all chains climbed
    together one level per step.  In walk order (own segment first) a row
    lists the atoms of `path_atom_angles`, which leaves an atom at a top
    within POINT_TOL of the root to the meet there.  root_first reverses
    the segments and keeps that atom, as `LoopCloud` reads them."""
    sk, pa, atoms = sample.skeleton, PathAtoms.of(sample), sample.atoms
    n = loc.pos.size
    depth = sk.attach_depth[loc.br] + np.maximum(loc.pos - sk.lo[loc.br], 0.0)
    # one segment per point and chain level: its row, branch, exit and the
    # edge the path came up through (-1 on the point's own branch)
    levels = list(sk.climb(loc.br, loc.pos))
    row, b, x, c = (np.concatenate(v) for v in zip(*levels))
    col = np.repeat(np.arange(len(levels)), [v[0].size for v in levels])
    if root_first:
        col = np.bincount(row, minlength=n)[row] - 1 - col
    br, top = np.full((n, len(levels)), -1), np.full((n, len(levels)), np.inf)
    br[row, col], top[row, col] = b, x
    # each segment's atoms: rows [start, stop) of the atom table, then the
    # atom at its top (0 for none) at angle tau
    own = (*_ranges(atoms, loc.br, sk.lo[loc.br], loc.pos), loc.ang)
    segs = zip(own, pa.edges)
    start, stop, t, tau = (np.concatenate((o, e[c[n:]])) for o, e in segs)
    if not root_first:
        t[(b == 0) & (x <= POINT_TOL)] = 0
    # the first atom column of each segment: the atoms of the row's
    # segments before it, in chain-column order
    m, h = stop - start, np.flatnonzero(t > 0)
    size = m + (t > 0)
    total = np.bincount(row, size, minlength=n).astype(np.int64)
    order = np.lexsort((col, row))
    before = np.cumsum(size[order]) - size[order]
    off = np.empty_like(before)
    off[order] = before - (np.cumsum(total) - total)[row[order]]
    a = int(total.max(initial=0))
    lev, at = np.zeros((n, a), np.int32), np.zeros((n, a), np.int32)
    ang = np.zeros((n, a))
    # the atoms inside each segment, then the one at its top
    r = np.repeat(np.arange(m.size), m)
    k = np.arange(r.size) - np.repeat(np.cumsum(m) - m, m)
    sel, src = np.concatenate((r, h)), np.concatenate((start[r] + k, t[h]))
    rr, cc = row[sel], off[sel] + np.concatenate((k, m[h]))
    lev[rr, cc], at[rr, cc], ang[rr, cc] = col[sel], src, atoms.us[src]
    ang[rr[r.size :], cc[r.size :]] = tau[h]
    return ProfileSet(depth, br, top, lev, at, ang)


def lukasiewicz_values(sample: IcrtSample, prof: ProfileSet) -> np.ndarray:
    """`lukasiewicz_value` of each profiled point, bit for bit: the atom
    terms added one column at a time, in walk order (a pad adds 0.0)."""
    tail, ws = np.zeros(prof.depth.size), sample.atoms.ws
    for j, u in zip(prof.at.T, prof.ang.T):
        tail += ws[j] * (1.0 - u)
    return 0.5 * sample.measure.theta0_sq * prof.depth + tail


def path_atom_angles(sample: IcrtSample, alpha) -> list:
    """(atom index, angle toward alpha) for atoms on the closed root path,
    the point's own atom entering with its own angle."""
    a = _check_loop_point(sample, alpha)
    terms, _ = _side_terms(sample, a.pos, a.angle, 0.0, 0)
    return [(i, u) for i, u, _ in terms]


def lukasiewicz_value(sample: IcrtSample, alpha) -> float:
    """theta0^2/2 * root depth plus sum of theta_i (1 - angle toward alpha)
    over root-path atoms."""
    a = _check_loop_point(sample, alpha)
    ws, tail = sample.measure._ws, 0.0
    for i, u in path_atom_angles(sample, alpha):  # not sum(), which
        tail += ws[i] * (1.0 - u)  # compensates from Python 3.12 on
    return 0.5 * sample.measure.theta0_sq * sample.skeleton.depth(a.pos) + tail


# ---------------------------------------------------------------------------
# per-level mass cache
# ---------------------------------------------------------------------------
# whether an angle lies on a side of the direction tau
_BEYOND = {"left": operator.lt, "right": operator.gt, "front": operator.eq}


class MassCache:
    """Subtree aggregates of mu restricted to [0, l], built once per level.

    Each branch keeps one sorted list of events: its atoms and the points
    where branches are glued to it.  An event has a weight theta and an
    angle u (an atom's own; a glue point off the atoms has weight 0 and
    angle 1/2) and a hang table: the branches glued there sorted by angle,
    with cumulated subtree masses.  Seen from a root path that passes the
    event, theta*u and the branches at angles below u lie on the left,
    theta*(1-u) and those above u on the right; `cum[side]` holds these
    masses as prefix sums over the events.  The lists lie end to end in
    branch order, sorted as a whole, as a branch's events lie on it; the
    events below a point of branch b, plus b, index b's prefix sums.

    The events lie in one flat table (`_ev`, lists): per event e, th[e],
    u[e], the hang angles hang[start[e]:start[e + 1]] and their cumulated
    masses cm[start[e] + e : start[e + 1] + e + 1]; event len(pos) is the
    point off every event.
    """

    def __init__(self, sample: IcrtSample, l: float):
        sk, at = sample.skeleton, sample.atoms
        nb = sk.branch_of(l) + 1
        self.t0 = t0 = sample.measure.theta0_sq
        self.clip_hi = np.minimum(sk.hi[:nb], l)
        xl, wl, ul, glue = at.xl, at.ws.tolist(), at.us.tolist(), sk.glue_pos.tolist()

        # each branch's atoms within the level, as rows [first, stop) of the
        # atom table, and its children by glue position, ties in branch order
        first = at.first[:nb]
        stop = np.clip(np.searchsorted(at.xs, l, side="right"), first, at.last[:nb])
        rows = list(zip(first.tolist(), stop.tolist()))
        kids, parent = [[] for _ in range(nb)], sk.parent.tolist()
        for c in sorted(range(1, nb), key=glue.__getitem__):
            kids[parent[c]].append(c)

        # subtree masses, leaves first
        self.mass_sub = np.zeros(nb)
        for b in range(nb - 1, -1, -1):
            (i, j), leb = rows[b], t0 * (self.clip_hi[b] - sk.lo[b])
            atom = float(np.sum(at.ws[i:j])) if j > i else 0.0
            kid = float(np.sum(self.mass_sub[kids[b]])) if kids[b] else 0.0
            self.mass_sub[b] = leb + atom + kid
        sub = self.mass_sub.tolist()

        # per branch: the events by position, and prefix sums over them of
        # each side's mass and, for mass_above, of atom and child masses
        self.pos, self.atom_cum, self.kid_cum = [], [], []
        self.cum = {"left": [], "right": []}
        self.last = []  # where each branch's prefix sums end
        self._ev = th, u, hang, cm, start = [], [], [], [], [0]
        for (i, j), ks in zip(rows, kids):
            at_x = {xl[k]: (wl[k], ul[k], []) for k in range(i, j)}
            for c in ks:
                at_x.setdefault(glue[c], (0.0, 0.5, []))[2].append(c)
            pos, e0 = sorted(at_x), len(th)
            acum, kcum = [0.0], [0.0]
            for x in pos:
                w, v, cs = at_x[x]
                acum.append(acum[-1] + w)
                kcum.append(kcum[-1])
                for c in cs:  # in glue-position order, like mass_sub
                    kcum[-1] += sub[c]
                cs.sort(key=sample.branch_angle)
                th.append(w)
                u.append(v)
                hang += map(sample.branch_angle, cs)
                cm += accumulate((sub[c] for c in cs), initial=0.0)
                start.append(len(hang))
            self.pos += pos
            self.atom_cum += acum
            self.kid_cum += kcum
            self.last.append(len(self.atom_cum) - 1)
            for side, cum in self.cum.items():
                sums = (self._event_mass(e, u[e], side) for e in range(e0, len(th)))
                cum += accumulate(sums, initial=0.0)
        # then the point off every event: weight 0, angle 1/2, no hang
        self._ev = th + [0.0], u + [0.5], hang, cm + [0.0], start + [len(hang)]

        self.lo = sk.lo[:nb].tolist()
        # per edge c > 0: its parent, glue point and angle (`steps`)
        tau = sample.angles.glue_angles[: nb - 1]
        self._edges = sk.parent[1:nb], sk.glue_pos[1:nb], tau
        self._steps = {}

    # ------------------------------------------------------------------
    def _event_mass(self, e: int, tau: float, side: str) -> float:
        """Mass of event e on one side of the direction tau: the atom's
        share of its loop, plus the branches glued there whose angle is
        below tau (left), above it (right) or equal to it (front)."""
        th, _, hang, cm, start = self._ev
        a, z = start[e], start[e + 1]
        j = bisect_left(hang, tau, a, z) + e
        if side == "left":
            return th[e] * tau + cm[j]
        k = bisect_right(hang, tau, a, z) + e
        if side == "right":
            return th[e] * (1.0 - tau) + (cm[z + e] - cm[k])
        return cm[k] - cm[j]

    def _event_masses(self, e, tau, side: str) -> np.ndarray:
        """`_event_mass` on arrays, left or right: the same float operations.
        A hang angle lies below (left; up to, right) tau when fewer lie below
        it than below (up to) tau: one exact merge of (event, count) keys."""
        th, _, hang, cm, start = self._arrays[-1]
        angles = np.sort(hang)
        key = np.repeat(np.arange(th.size), np.diff(start)) * (hang.size + 1)
        key += np.searchsorted(angles, hang)  # sorted as the table is
        q = np.searchsorted(angles, tau, side=side)
        j = np.searchsorted(key, e * (hang.size + 1) + q) + e
        if side == "left":
            return th[e] * tau + cm[j]
        return th[e] * (1.0 - tau) + (cm[start[e + 1] + e] - cm[j])

    def step(self, b: int, x: float, tau: float, side: str) -> tuple:
        """The three terms a root-path walk adds on branch b when it reaches
        x with direction tau: the Lebesgue mass of [lo[b], x], which splits
        evenly (angle 1/2); the events of b below x (they lie above lo[b],
        or at the root on branch 0); and the mass at x on that side."""
        return (
            0.5 * self.t0 * (x - self.lo[b]),
            self.cum[side][bisect_left(self.pos, x) + b],
            self.point_mass(b, x, tau, side),
        )

    def steps(self, side: str) -> tuple:
        """Per branch c > 0, the `step` of a walk that comes up through c onto
        its parent at glue_pos[c] with c's angle, all from one `step_arrays`
        call: a (3, nb) array with column 0 unused (zeros), and its columns
        as tuples for the scalar walk."""
        out = self._steps.get(side)
        if out is None:
            table = np.c_[np.zeros(3), self.step_arrays(*self._edges, side)]
            out = self._steps[side] = table, list(zip(*table.tolist()))
        return out

    def step_arrays(self, br, x, tau, side: str) -> np.ndarray:
        """`step` for arrays of points on the left or right side, as a (3, n)
        array of terms: the same float operations, the events' masses from
        `_event_masses`."""
        pos, ac, kc, last, lo, cum, (_, u, *_) = self._arrays
        g = np.searchsorted(pos, x)
        on = pos[g] == x
        e = np.where(on, g, len(self.pos))  # the event at x, or the off event
        k, last = g + on + br, last[br]  # mass_above
        above = self.t0 * np.maximum(self.clip_hi[br] - x, 0.0)
        above += ac[last] - ac[k]
        above += kc[last] - kc[k]
        here = self._event_masses(e, tau, side)
        here = np.where(_BEYOND[side](u[e], tau), here + above, here)
        lebesgue = 0.5 * self.t0 * (x - lo[br])
        return np.array([lebesgue, cum[side][g + br], here])

    @cached_property
    def _arrays(self) -> tuple:
        """Array copies for `step_arrays`: pos (then inf), the prefix sums,
        last, lo, cum and the event table."""
        lists = self.atom_cum, self.kid_cum, self.last, self.lo
        cum = {side: np.asarray(v) for side, v in self.cum.items()}
        ev = tuple(map(np.asarray, self._ev))
        return np.r_[self.pos, np.inf], *map(np.asarray, lists), cum, ev

    def mass_above(self, b: int, x: float) -> float:
        """Mass of the continuing component of branch b strictly above x."""
        k, last = bisect_right(self.pos, x) + b, self.last[b]
        out = self.t0 * max(self.clip_hi[b] - x, 0.0)
        out += self.atom_cum[last] - self.atom_cum[k]
        out += self.kid_cum[last] - self.kid_cum[k]
        return out

    def point_mass(self, b: int, x: float, tau: float, side: str) -> float:
        """Mass at the point x of branch b on one side of the direction tau:
        the event at x, and the continuing component above x when its
        angle lies on that side."""
        pos = self.pos
        e = bisect_left(pos, x)
        e = e if e < len(pos) and pos[e] == x else len(pos)
        out = self._event_mass(e, tau, side)
        if _BEYOND[side](self._ev[1][e], tau):
            out += self.mass_above(b, x)
        return out


def mass_cache(sample: IcrtSample, l: float) -> MassCache:
    key = float(l)
    cache = sample._mass_caches.get(key)
    if cache is None:
        cache = MassCache(sample, key)
        sample._mass_caches[key] = cache
    return cache


# ---------------------------------------------------------------------------
# mass functionals
# ---------------------------------------------------------------------------
def _directional_mass(sample: IcrtSample, l: float, alpha, side: str) -> float:
    a = _check_loop_point(sample, alpha, l)
    mc = mass_cache(sample, l)
    _, steps = mc.steps(side)
    total = 0.0
    for b, _, child in sample.skeleton.ascend(a.pos):
        for term in mc.step(b, a.pos, a.angle, side) if child < 0 else steps[child]:
            total += term
    return total


def _directional_masses(sample: IcrtSample, l: float, points, side: str) -> np.ndarray:
    """`_directional_mass` of each point, bit for bit: the same terms added
    in the same order, with the walks above the points' own branches taken
    together (`Skeleton.climb`), one level of the step table at a time.  The
    points may come as a `Located` of `locate` at level l."""
    loc = points if isinstance(points, Located) else locate(sample, points, l)
    total = np.zeros(loc.pos.size)
    mc = mass_cache(sample, l)
    for term in mc.step_arrays(loc.br, loc.pos, loc.ang, side):
        total += term
    steps, _ = mc.steps(side)
    levels = sample.skeleton.climb(loc.br, loc.pos)
    next(levels)  # the own branches, stepped above
    for rows, _, _, c in levels:
        for term in steps:
            total[rows] += term[c]
    return total


def left_mass(sample: IcrtSample, l: float, alpha) -> float:
    """Mass of loop points strictly at the left of alpha within [0, l]."""
    return _directional_mass(sample, l, alpha, "left")


def right_mass(sample: IcrtSample, l: float, alpha) -> float:
    return _directional_mass(sample, l, alpha, "right")


def front_mass(sample: IcrtSample, l: float, alpha) -> float:
    """Mass of the components directly in front of alpha (angle match)."""
    a = _check_loop_point(sample, alpha, l)
    b = sample.skeleton.branch_of(a.pos)
    return mass_cache(sample, l).point_mass(b, a.pos, a.angle, "front")


def _mass_total(sample: IcrtSample, l: float) -> float:
    tot = sample.mass_prefix(l)
    if tot <= 0:
        raise PlaneError("zero total mass at this level")
    return tot


def left_fraction(sample: IcrtSample, l: float, alpha) -> float:
    tot = _mass_total(sample, l)
    return left_mass(sample, l, alpha) / tot


def left_fractions(sample: IcrtSample, l: float, points) -> np.ndarray:
    """`left_fraction` of each point, bit for bit, in one batched pass."""
    tot = _mass_total(sample, l)
    return _directional_masses(sample, l, points, "left") / tot


# ---------------------------------------------------------------------------
# measure draws
# ---------------------------------------------------------------------------
def sample_loop_point(sample: IcrtSample, l: float, rng) -> LoopPoint:
    """A position drawn from mu restricted to [0, l], normalized, and a
    uniform angle."""
    return LoopPoint(sample.measure.draw_position(l, rng), rng.random())


def sample_loop_points(sample: IcrtSample, l: float, rng, n: int) -> np.ndarray:
    """n `sample_loop_point` draws as an (n, 2) array, bit for bit and
    leaving rng in the same state: one block of uniforms, position first
    and angle second, the positions inverted in place."""
    u = rng.random((n, 2))
    u[:, 0] = sample.measure._invert(l, u[:, 0])
    return u


def monte_carlo_left_mass(
    sample: IcrtSample, l: float, alpha, rng, n: int = 100_000
) -> tuple[float, float]:
    """Independent oracle: empirical fraction of measure draws at the left.

    Returns (estimate, standard error), both in mass units.
    """
    tot = sample.mass_prefix(l)
    loc = locate(sample, np.vstack([sample_loop_points(sample, l, rng, n), alpha]))
    order = compare_many(sample, loc, np.arange(n), np.full(n, n))
    p = int(np.count_nonzero(order == Order.LEFT.value)) / n
    return tot * p, tot * np.sqrt(p * (1.0 - p) / n)
