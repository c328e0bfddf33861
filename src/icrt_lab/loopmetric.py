"""Looptree pseudo-metric, the field metric, loop projections, and
truncation-gap diagnostics.

Only atoms on the geodesic (plus coinciding endpoints) contribute to the
distances, so both metrics are evaluated by a single path walk.  A
brute-force full-sum oracle over every atom is kept for testing.
"""
from __future__ import annotations

from .skeleton import POINT_TOL
from .sampler import IcrtSample
from .plane import LoopPoint, _check_loop_point, _side_terms, angle_toward
from .util import fmt17


def torus_distance(u: float, v: float) -> float:
    """Distance on the unit torus: min(|u - v|, 1 - |u - v|)."""
    d = abs(u - v)
    return min(d, 1.0 - d)


def _bridge_var(u: float, v: float) -> float:
    d = abs(u - v)
    return d * (1.0 - d)


def _path_sum(sample: IcrtSample, alpha, beta, tree, kernel) -> float:
    """tree(theta0^2, tree distance) plus the atom terms of the geodesic:
    weight times kernel(angle, 0) on either side of the meet, and weight
    times kernel of the meet atom's two angles."""
    a = _check_loop_point(sample, alpha)
    b = _check_loop_point(sample, beta)
    if (b.pos, b.angle) < (a.pos, a.angle):
        a, b = b, a  # canonical order keeps evaluation exactly symmetric
    sk = sample.skeleton
    bm, pa, _, pb, _ = sk.meet_walk(a.pos, b.pos)
    m = min(pa, pb)
    d_t = sk.depth(a.pos) + sk.depth(b.pos) - 2.0 * sk.depth(m)
    terms_a, am = _side_terms(sample, a.pos, a.angle, m, bm)
    terms_b, bm_angle = _side_terms(sample, b.pos, b.angle, m, bm)
    meet_atom = sample.atom_at(m)
    ws = sample.measure.ws
    out = tree(sample.measure.theta0_sq, d_t)
    for terms in (terms_a, terms_b):
        side = 0.0
        for i, u, _ in terms:  # not sum(), which compensates from Python 3.12 on
            side += ws[i] * kernel(u, 0.0)
        out += side
    if meet_atom is not None:
        out += ws[meet_atom] * kernel(am, bm_angle)
    return out


def loop_distance(sample: IcrtSample, alpha, beta) -> float:
    """theta0^2/4 times the tree distance plus torus gaps at path atoms."""
    return _path_sum(sample, alpha, beta, lambda t0, d: 0.25 * t0 * d, torus_distance)


def gff_distance(sample: IcrtSample, alpha, beta) -> float:
    """Variance metric: theta0^2/6 tree part plus bridge variances."""
    return _path_sum(sample, alpha, beta, lambda t0, d: t0 * d / 6.0, _bridge_var)


def path_mass(sample: IcrtSample, alpha, beta) -> float:
    """mu of the closed geodesic, endpoints included."""
    return _path_sum(sample, alpha, beta, lambda t0, d: t0 * d, lambda u, v: 1.0)


def loop_distance_bruteforce(sample: IcrtSample, alpha, beta) -> float:
    """Oracle: full sum over every atom via generic angle queries."""
    a = _check_loop_point(sample, alpha)
    b = _check_loop_point(sample, beta)
    sk = sample.skeleton
    out = 0.25 * sample.measure.theta0_sq * sk.tree_distance(a.pos, b.pos)
    for x, i in sample.atom_index_at.items():
        ua = angle_toward(sample, x, a)
        ub = angle_toward(sample, x, b)
        out += sample.measure.ws[i] * torus_distance(ua, ub)
    return out


def project_loop(sample: IcrtSample, alpha, l: float) -> LoopPoint:
    """Closest point of [0, l] x [0, 1]: project the tree part, keep the
    angle seen from the projection."""
    a = _check_loop_point(sample, alpha)
    rho = sample.skeleton.project_to_prefix(a.pos, l)
    if abs(rho - a.pos) <= POINT_TOL:
        return LoopPoint(a.pos, a.angle)
    return LoopPoint(rho, angle_toward(sample, rho, a))


def hausdorff_gap(sample: IcrtSample, l: float, probes) -> float:
    """Empirical sup over probes of the distance to the level-l sub-looptree.

    Certificate attached to truncated outputs; probes should be drawn beyond
    the level l.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe point")
    gap = 0.0
    for p in probes:
        q = project_loop(sample, p, l)
        gap = max(gap, loop_distance(sample, p, q))
    return gap


def export_distance_matrix(path, sample: IcrtSample, points):
    """Looptree distances as CSV with a header row of point ids;
    deterministic ordering."""
    pts = [(float(p[0]), float(p[1])) for p in points]
    ids = [f"p{k}" for k in range(len(pts))]
    with open(path, "w") as fh:
        fh.write("id," + ",".join(ids) + "\n")
        for k, p in enumerate(pts):
            row = [fmt17(loop_distance(sample, p, q)) for q in pts]
            fh.write(ids[k] + "," + ",".join(row) + "\n")
