"""Plane structure of a truncated ICRT.

Loop points are pairs (tree position, angle).  This module answers angle
queries, the total contour order (left-of / in-front-of comparison at the
meet point), and computes the left/front/right mass functionals exactly by
decomposing the root path, with per-level subtree aggregates cached on the
sample.
"""
from __future__ import annotations

from enum import Enum
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
    pos, angle = float(alpha[0]), float(alpha[1])
    limit = sample.level if l is None else l
    if not (-POINT_TOL <= pos <= limit + POINT_TOL):
        raise PlaneError(f"tree position {pos} outside [0, {limit}]")
    if not (0.0 <= angle <= 1.0):
        raise PlaneError(f"angle {angle} outside [0, 1]")
    return LoopPoint(pos, angle)


# ---------------------------------------------------------------------------
# order relations
# ---------------------------------------------------------------------------
def compare(sample: IcrtSample, alpha, beta) -> Order:
    """Relation of alpha to beta under the contour order.

    Angles are compared at the meet; equality of angles with the meet at one
    of the two tree points is the front/behind case.
    """
    a = _check_loop_point(sample, alpha)
    b = _check_loop_point(sample, beta)
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


def order_cmp(sample: IcrtSample):
    """cmp function for sorting loop points by the contour order."""

    def _cmp(a, b) -> int:
        out = compare(sample, a, b)
        if out is Order.EQUAL:
            return 0
        return -1 if out in (Order.LEFT, Order.FRONT) else 1

    return _cmp


def angle_toward(sample: IcrtSample, x: float, target) -> float:
    """Angle at tree point x of the component containing the target."""
    t = _check_loop_point(sample, target)
    x = sample.skeleton.check_point(x)
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
    sk = sample.skeleton
    terms = []
    for b, top, child in sk.ascend(x, bm):
        tau = v if child < 0 else sample.branch_angle(child)
        if b == bm:
            break
        terms += _segment_atoms(sample, b, float(sk.lo[b]), top, tau)
    above = top - m > POINT_TOL
    terms += _segment_atoms(sample, bm, m, top, tau if above else None)
    return terms, sample.cont_angle(m) if above else tau


def _segment_atoms(sample: IcrtSample, b: int, lo: float, top: float, tau):
    """Atoms of branch b strictly inside (lo, top) with their own angles,
    then the atom at top (if any) with angle tau, the angle toward the
    walker there; tau None leaves the top out.  Entries are (atom index,
    angle, position)."""
    out = []
    pos = sample.branch_atoms_pos[b]
    if pos.size:
        i0 = pos.searchsorted(lo, side="right")
        i1 = pos.searchsorted(top, side="left")
        idx = sample.branch_atoms_idx[b][i0:i1]
        angs = sample.angles.atom_angles[idx]
        out = list(zip(idx.tolist(), angs.tolist(), pos[i0:i1].tolist()))
    if tau is not None:
        i = sample.atom_at(top)
        if i is not None:
            out.append((i, tau, top))
    return out


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
    ws = sample.measure.ws
    tail = sum(ws[i] * (1.0 - u) for i, u in path_atom_angles(sample, alpha))
    return 0.5 * sample.measure.theta0_sq * sample.skeleton.depth(a.pos) + tail


# ---------------------------------------------------------------------------
# per-level mass cache
# ---------------------------------------------------------------------------
class MassCache:
    """Subtree aggregates of mu restricted to [0, l], built once per level."""

    def __init__(self, sample: IcrtSample, l: float):
        sk = sample.skeleton
        self.level = float(l)
        self.sample = sample
        self.top_branch = B = sk.branch_of(l)
        nb = B + 1
        self.clip_hi = np.minimum(sk.hi[:nb], l)

        t0 = sample.measure.theta0_sq
        ws = sample.measure.ws
        ux = sample.angles.atom_angles

        # per-branch atoms clipped to the level
        self.a_pos, self.a_idx = [], []
        for b in range(nb):
            pos, idx = sample.branch_atoms_pos[b], sample.branch_atoms_idx[b]
            if b == B and pos.size:
                kk = int(np.searchsorted(pos, l, side="right"))
                pos, idx = pos[:kk], idx[:kk]
            self.a_pos.append(pos)
            self.a_idx.append(idx)

        # children within the level, sorted by glue position
        kids = [[c for c in sk.children[b] if c < nb] for b in range(nb)]
        self.c_pos, self.c_ids = [], []
        for b in range(nb):
            cs = sorted(kids[b], key=lambda c: float(sk.glue_pos[c]))
            self.c_ids.append(np.asarray(cs, dtype=int))
            self.c_pos.append(np.asarray([float(sk.glue_pos[c]) for c in cs]))

        # subtree masses, leaves first
        self.mass_sub = np.zeros(nb)
        for b in range(nb - 1, -1, -1):
            leb = t0 * (self.clip_hi[b] - sk.lo[b])
            at = float(np.sum(ws[self.a_idx[b]])) if self.a_idx[b].size else 0.0
            kid = float(np.sum(self.mass_sub[self.c_ids[b]])) if kids[b] else 0.0
            self.mass_sub[b] = leb + at + kid

        # branch-sorted hang tables at glue positions
        atom_positions = set(sample.atom_index_at.keys())
        self.hang: dict[float, tuple] = {}
        for b in range(nb):
            pp = self.c_pos[b]
            ii = self.c_ids[b]
            for p in np.unique(pp):
                sel = ii[pp == p]
                angs = np.asarray([sample.branch_angle(c) for c in sel])
                o = np.argsort(angs, kind="stable")
                self.hang[float(p)] = (
                    angs[o],
                    np.concatenate([[0.0], np.cumsum(self.mass_sub[sel[o]])]),
                    sel[o],
                )

        # cumulative tables per branch
        self.a_th_cum, self.a_thu_cum, self.a_th1mu_cum = [], [], []
        self.a_hl_cum, self.a_hr_cum = [], []
        self.cg_pos, self.cg_l_cum, self.cg_r_cum, self.c_mass_cum = [], [], [], []
        for b in range(nb):
            idx = self.a_idx[b]
            th = ws[idx] if idx.size else np.empty(0)
            uu = ux[idx] if idx.size else np.empty(0)
            self.a_th_cum.append(np.concatenate([[0.0], np.cumsum(th)]))
            self.a_thu_cum.append(np.concatenate([[0.0], np.cumsum(th * uu)]))
            self.a_th1mu_cum.append(
                np.concatenate([[0.0], np.cumsum(th * (1.0 - uu))])
            )
            apos = self.a_pos[b]
            hl = np.asarray(
                [self.hang_mass(float(p), u, "left") for p, u in zip(apos, uu)]
            )
            hr = np.asarray(
                [self.hang_mass(float(p), u, "right") for p, u in zip(apos, uu)]
            )
            self.a_hl_cum.append(np.concatenate([[0.0], np.cumsum(hl)]))
            self.a_hr_cum.append(np.concatenate([[0.0], np.cumsum(hr)]))
            # generic glue positions: not sitting on an atom
            pp, ii = self.c_pos[b], self.c_ids[b]
            gen = np.asarray(
                [k for k in range(ii.size) if float(pp[k]) not in atom_positions],
                dtype=int,
            )
            gpos = pp[gen] if gen.size else np.empty(0)
            gmass = self.mass_sub[ii[gen]] if gen.size else np.empty(0)
            gang = (
                np.asarray([sample.branch_angle(c) for c in ii[gen]])
                if gen.size
                else np.empty(0)
            )
            self.cg_pos.append(gpos)
            self.cg_l_cum.append(
                np.concatenate([[0.0], np.cumsum(gmass * (gang < 0.5))])
            )
            self.cg_r_cum.append(
                np.concatenate([[0.0], np.cumsum(gmass * (gang > 0.5))])
            )
            self.c_mass_cum.append(
                np.concatenate([[0.0], np.cumsum(self.mass_sub[ii])])
            )

    # ------------------------------------------------------------------
    def mass_above(self, b: int, x: float) -> float:
        """Mass of the continuing component of branch b strictly above x."""
        t0 = self.sample.measure.theta0_sq
        out = t0 * max(self.clip_hi[b] - x, 0.0)
        pos = self.a_pos[b]
        j = int(np.searchsorted(pos, x, side="right")) if pos.size else 0
        out += self.a_th_cum[b][-1] - self.a_th_cum[b][j]
        cp = self.c_pos[b]
        j = int(np.searchsorted(cp, x, side="right")) if cp.size else 0
        out += self.c_mass_cum[b][-1] - self.c_mass_cum[b][j]
        return out

    def hang_mass(self, pos: float, tau: float, side: str) -> float:
        """Mass of branches glued at pos whose angle is strictly beyond tau."""
        entry = self.hang.get(pos)
        if entry is None:
            return 0.0
        angs, cmass, _ = entry
        if side == "left":
            j = int(np.searchsorted(angs, tau, side="left"))
            return float(cmass[j])
        j = int(np.searchsorted(angs, tau, side="right"))
        return float(cmass[-1] - cmass[j])

    def hang_mass_equal(self, pos: float, tau: float) -> float:
        entry = self.hang.get(pos)
        if entry is None:
            return 0.0
        angs, cmass, _ = entry
        j0 = int(np.searchsorted(angs, tau, side="left"))
        j1 = int(np.searchsorted(angs, tau, side="right"))
        return float(cmass[j1] - cmass[j0])


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
    sk = sample.skeleton
    ws = sample.measure.ws
    t0 = sample.measure.theta0_sq
    left = side == "left"

    total = 0.0
    for b, cur, child in sk.ascend(a.pos):
        tau = a.angle if child < 0 else sample.branch_angle(child)
        s = float(sk.lo[b])
        total += 0.5 * t0 * (cur - s)
        pos = mc.a_pos[b]
        if pos.size:
            i0 = int(np.searchsorted(pos, s, side="right"))
            i1 = int(np.searchsorted(pos, cur, side="left"))
            if left:
                total += mc.a_thu_cum[b][i1] - mc.a_thu_cum[b][i0]
                total += mc.a_hl_cum[b][i1] - mc.a_hl_cum[b][i0]
            else:
                total += mc.a_th1mu_cum[b][i1] - mc.a_th1mu_cum[b][i0]
                total += mc.a_hr_cum[b][i1] - mc.a_hr_cum[b][i0]
        gp = mc.cg_pos[b]
        if gp.size:
            j0 = int(np.searchsorted(gp, s, side="right"))
            j1 = int(np.searchsorted(gp, cur, side="left"))
            cum = mc.cg_l_cum[b] if left else mc.cg_r_cum[b]
            total += cum[j1] - cum[j0]
        # the top point of this segment
        i = sample.atom_at(cur)
        if i is not None:
            total += ws[i] * (tau if left else 1.0 - tau)
        ca = sample.cont_angle(cur)
        if (ca < tau) if left else (ca > tau):
            total += mc.mass_above(b, cur)
        total += mc.hang_mass(cur, tau, side)
    return total


def left_mass(sample: IcrtSample, l: float, alpha) -> float:
    """Mass of loop points strictly at the left of alpha within [0, l]."""
    return _directional_mass(sample, l, alpha, "left")


def right_mass(sample: IcrtSample, l: float, alpha) -> float:
    return _directional_mass(sample, l, alpha, "right")


def front_mass(sample: IcrtSample, l: float, alpha) -> float:
    """Mass of the components directly in front of alpha (angle match)."""
    a = _check_loop_point(sample, alpha, l)
    mc = mass_cache(sample, l)
    sk = sample.skeleton
    b = sk.branch_of(a.pos)
    total = 0.0
    if sample.cont_angle(a.pos) == a.angle and sk.hi[b] - a.pos > 0:
        total += mc.mass_above(b, a.pos)
    total += mc.hang_mass_equal(a.pos, a.angle)
    return total


def left_fraction(sample: IcrtSample, l: float, alpha) -> float:
    tot = sample.mass_prefix(l)
    if tot <= 0:
        raise PlaneError("zero total mass at this level")
    return left_mass(sample, l, alpha) / tot


# ---------------------------------------------------------------------------
# measure draws
# ---------------------------------------------------------------------------
def sample_tree_position(sample: IcrtSample, l: float, rng) -> float:
    """Draw from mu restricted to [0, l], normalized."""
    return sample.measure.draw_position(l, rng)


def sample_loop_point(sample: IcrtSample, l: float, rng) -> LoopPoint:
    return LoopPoint(sample_tree_position(sample, l, rng), rng.random())


def monte_carlo_left_mass(
    sample: IcrtSample, l: float, alpha, rng, n: int = 100_000
) -> tuple[float, float]:
    """Independent oracle: empirical fraction of measure draws at the left.

    Returns (estimate, standard error), both in mass units.
    """
    tot = sample.mass_prefix(l)
    hits = 0
    for _ in range(n):
        beta = sample_loop_point(sample, l, rng)
        if compare(sample, beta, alpha) is Order.LEFT:
            hits += 1
    p = hits / n
    return tot * p, tot * np.sqrt(p * (1.0 - p) / n)
