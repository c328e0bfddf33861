"""Finite-truncation contour path and the derived processes.

The contour is represented by a finite table of candidate loop points,
each carrying its exact left fraction and ordered by it: the contour point
at time t is the one with left fraction t.  The candidates are located
once and their fractions computed in one batched pass (`left_fractions`,
equal to the scalar `left_fraction` bit for bit).  Rounds of the batched
order check `precedes` on adjacent pairs settle exact and near ties of the
fraction, each round swapping the pairs of one parity that are out of
contour order, and check that the contour order agrees with the fractions.
The crucial left-mass bound makes the table a Lipschitz certificate:
adjacent candidates are at looptree distance at most the total mass times
their fraction gap, and evaluation at any fraction lands within the
reported resolution of the true equivalence class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sampler import IcrtSample
from .plane import (
    Located,
    LoopPoint,
    left_fractions,
    locate,
    lukasiewicz_value,
    lukasiewicz_values,
    precedes,
    profiles,
    sample_loop_points,
)
from .fields import FieldRealization


class ContourError(ValueError):
    pass


@dataclass
class ContourTable:
    sample: IcrtSample
    level: float
    ts: np.ndarray
    mass_total: float
    eps: float  # round-trip resolution: mass * largest fraction gap
    resolution: int
    loc: Located  # the points checked and located, in table order

    def __len__(self) -> int:
        return self.ts.size

    @cached_property
    def points(self) -> np.ndarray:
        """The located points as a read-only (n, 2) array."""
        pts = np.column_stack(self.loc[:2])
        pts.flags.writeable = False
        return pts


def build_contour_table(
    sample: IcrtSample,
    l: float | None = None,
    resolution: int | None = None,
    rng: np.random.Generator | None = None,
) -> ContourTable:
    """Candidates: both root corners, branch tips and glue corners, an angle
    grid of 64 on the fibers of atoms of weight at least 0.01, and
    `resolution` measure draws."""
    level = sample.level if l is None else float(l)
    mass = sample.mass_prefix(level)
    if mass <= 0:
        raise ContourError("degenerate measure at this level")
    sk = sample.skeleton
    top = sk.branch_of(level)
    if resolution is None:
        resolution = min(max(64 * (top + 1), 256), 20_000)
    if resolution < 2:
        raise ContourError("resolution must be at least 2")

    xs, ws = sample.atoms.xs[1:], sample.atoms.ws[1:]
    heavy = xs[(xs <= level) & (ws >= 0.01)]
    cands = [
        [(0.0, 0.0), (0.0, 1.0)],
        np.c_[np.minimum(sk.hi[: top + 1], level), np.zeros(top + 1)],
        np.c_[sk.glue_pos[1 : top + 1], sample.angles.glue_angles[:top]],
        np.c_[np.repeat(heavy, 64), np.tile(np.arange(64) / 64, heavy.size)],
    ]
    if rng is not None:
        cands.append(sample_loop_points(sample, level, rng, resolution))
    # exact duplicates dropped: rows sorted by position, then angle, and
    # each compared with the one before
    cands = np.concatenate(cands)
    cands = cands[np.lexsort(cands.T[::-1])]
    cands = cands[np.r_[True, np.any(cands[1:] != cands[:-1], axis=1)]]

    # the candidates located once: fractions and order are computed on the
    # snapped arrays
    loc = locate(sample, cands, level)
    fr = left_fractions(sample, level, loc)
    order = np.argsort(fr, kind="stable")
    # odd-even rounds on the adjacent pairs: inv[j] says the pair (j, j + 1)
    # is out of contour order; a round swaps the inverted pairs of one
    # parity, and only the pairs next to a swap are checked again
    inv, parity = precedes(sample, loc, order[1:], order[:-1]), 0
    while np.any(inv):
        j = np.flatnonzero(inv[parity::2]) * 2 + parity
        parity ^= 1
        # the contour order moves a point left only at a tie of the
        # fractions; a swap across a larger gap means the two disagree
        if np.any(fr[order[j + 1]] - fr[order[j]] > 1e-9):
            raise ContourError("left fractions disagree with the contour order")
        order[j], order[j + 1], inv[j] = order[j + 1], order[j], False
        k = np.union1d(j[j > 0] - 1, j[j < inv.size - 1] + 1)
        inv[k] = precedes(sample, loc, order[k + 1], order[k])
    ts = fr[order]
    gaps = np.diff(ts)
    if gaps.size and float(np.min(gaps)) < -1e-9:
        raise ContourError("left fractions disagree with the contour order")
    eps = mass * float(np.max(gaps)) if gaps.size else mass
    loc = Located(*(v[order] for v in loc))
    return ContourTable(sample, level, ts, mass, eps, resolution, loc)


def contour_eval(table: ContourTable, t: float) -> LoopPoint:
    """Bracketing located candidate; equal-fraction ties yield their
    earliest representative, so the walk starts at the root corner."""
    if not (0.0 <= t <= 1.0):
        raise ContourError(f"contour time {t} outside [0, 1]")
    k, (pos, ang) = int(_eval_indices(table, [t])[0]), table.loc[:2]
    return LoopPoint(float(pos[k]), float(ang[k]))


def _eval_indices(table: ContourTable, times) -> np.ndarray:
    ts = table.ts
    idx = np.searchsorted(ts, np.asarray(times, dtype=float), side="right") - 1
    # the earliest candidate of the run of equal fractions at each index
    starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
    return starts[np.searchsorted(starts, np.maximum(idx, 0), side="right") - 1]


def height_eval(table: ContourTable, t: float) -> float:
    return table.sample.skeleton.depth(contour_eval(table, t).pos)


def lukasiewicz_eval(table: ContourTable, t: float) -> float:
    return lukasiewicz_value(table.sample, contour_eval(table, t))


def snake_eval(table: ContourTable, realization: FieldRealization, t: float) -> float:
    return realization.fennec_value(contour_eval(table, t))


def process_grid(
    table: ContourTable, realization: FieldRealization | None, n: int
) -> dict:
    """Uniform grid of the height, Lukasiewicz, and snake processes."""
    if n < 2:
        raise ContourError("need at least two grid points")
    times = np.linspace(0.0, 1.0, n)
    uniq, inv = np.unique(_eval_indices(table, times), return_inverse=True)
    # one profile set of the table's located points (height, Lukasiewicz,
    # snake)
    pts = Located(*(v[uniq] for v in table.loc))
    prof = profiles(table.sample, pts)
    w = lukasiewicz_values(table.sample, prof)
    out = {"t": times, "height": prof.depth[inv], "lukasiewicz": w[inv]}
    if realization is not None:
        out["snake"] = realization._fennec_values(pts, prof)[inv]
    return out


# ---------------------------------------------------------------------------
# modulus-of-continuity estimators
# ---------------------------------------------------------------------------
@dataclass
class HolderEstimate:
    exponent: float
    stderr: float
    lags: np.ndarray
    moduli: np.ndarray


def holder_estimate(series) -> HolderEstimate:
    """Slope of log sup-modulus against log lag over dyadic lags."""
    z = np.asarray(series, dtype=float)
    n = z.size
    if n < 1024:
        raise ContourError(f"series too short: {n} < 1024")
    lags = np.asarray([1 << k for k in range(int(math.log2(n / 8)) + 1)])
    moduli = np.asarray([float(np.max(np.abs(z[h:] - z[:-h]))) for h in lags])
    keep = moduli > 0
    lags, moduli = lags[keep], moduli[keep]
    if lags.size < 3:
        raise ContourError("not enough nonzero moduli for a fit")
    x = np.log(lags / n)
    y = np.log(moduli)
    (slope, _), cov = np.polyfit(x, y, 1, cov=True)
    return HolderEstimate(float(slope), float(np.sqrt(cov[0, 0])), lags, moduli)


def modulus_vs_distance(dists, diffs) -> HolderEstimate:
    """Slope of log sup-increment against log distance over ten geometric
    bins."""
    d = np.asarray(dists, dtype=float)
    f = np.asarray(diffs, dtype=float)
    keep = d > 0
    d, f = d[keep], np.abs(f[keep])
    if d.size < 16:
        raise ContourError("not enough pairs")
    edges = np.geomspace(np.min(d), np.max(d) * (1 + 1e-12), 11)
    centers, sups = [], []
    for k in range(10):
        sel = (d >= edges[k]) & (d < edges[k + 1])
        if np.count_nonzero(sel) >= 3 and np.max(f[sel]) > 0:
            centers.append(math.sqrt(edges[k] * edges[k + 1]))
            sups.append(float(np.max(f[sel])))
    if len(centers) < 3:
        raise ContourError("not enough populated distance bins")
    x, y = np.log(centers), np.log(sups)
    (slope, _), cov = np.polyfit(x, y, 1, cov=True)
    return HolderEstimate(
        float(slope), float(np.sqrt(cov[0, 0])), np.asarray(centers), np.asarray(sups)
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------
def export_process_csv(
    path, table: ContourTable, realization: FieldRealization | None, n: int
) -> dict:
    grid = process_grid(table, realization, n)
    cols = ["t", "height", "lukasiewicz"] + (
        ["snake"] if "snake" in grid else []
    )
    row = ",".join(["%.17g"] * len(cols)) + "\n"  # as util.fmt17
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(row % r for r in zip(*(grid[c].tolist() for c in cols)))
    return grid


# the size of every SVG plot and the padding of its plot area, in pixels
_WIDTH, _HEIGHT, _PAD = 640, 360, 24.0


def _svg_plot(xs, ys, label: str, marks) -> str:
    """A white SVG frame with a label; the points (xs, ys) scaled into the
    padded plot area, as pairs of pixel coordinates formatted to two
    decimals, are drawn by `marks`."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    sx = (_WIDTH - 2 * _PAD) / ((x1 - x0) or 1.0)
    sy = (_HEIGHT - 2 * _PAD) / ((y1 - y0) or 1.0)
    pts = [
        (f"{_PAD + (x - x0) * sx:.2f}", f"{_HEIGHT - _PAD - (y - y0) * sy:.2f}")
        for x, y in zip(xs, ys)
    ]
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">'
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>'
        f"{marks(pts)}"
        f'<text x="{_PAD}" y="16" font-size="12" font-family="monospace">{label}</text>'
        "</svg>"
    )


def polyline_svg(xs, ys, label: str = "") -> str:
    """Static SVG polyline with a framed plot area."""

    def marks(pts):
        line = " ".join(f"{x},{y}" for x, y in pts)
        return (
            f'<rect x="{_PAD}" y="{_PAD}" width="{_WIDTH - 2 * _PAD}" '
            f'height="{_HEIGHT - 2 * _PAD}" fill="none" stroke="#999"/>'
            f'<polyline points="{line}" fill="none" stroke="#1f5fa8" stroke-width="1"/>'
        )

    return _svg_plot(xs, ys, label, marks)


def scatter_svg(xs, ys, label: str = "") -> str:
    return _svg_plot(xs, ys, label, lambda pts: "".join(
        f'<circle cx="{x}" cy="{y}" r="1.5" fill="#a33"/>' for x, y in pts
    ))
