"""Finite-truncation contour path and the derived processes.

The contour is represented by a finite table of candidate loop points
sorted by the contour order, each carrying its exact left fraction.  The
crucial left-mass bound makes the table a Lipschitz certificate: adjacent
candidates are at looptree distance at most the total mass times their
fraction gap, and evaluation at any fraction lands within the reported
resolution of the true equivalence class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key

import numpy as np

from .sampler import IcrtSample
from .plane import (
    LoopPoint,
    left_fraction,
    lukasiewicz_value,
    order_cmp,
    sample_loop_point,
)
from .fields import FieldRealization
from .util import fmt17


class ContourError(ValueError):
    pass


@dataclass
class ContourTable:
    sample: IcrtSample
    level: float
    points: list
    ts: np.ndarray
    mass_total: float
    eps: float  # round-trip resolution: mass * largest fraction gap
    resolution: int

    def __len__(self) -> int:
        return len(self.points)


def build_contour_table(
    sample: IcrtSample,
    l: float | None = None,
    resolution: int | None = None,
    rng: np.random.Generator | None = None,
    atom_grid: int = 64,
    atom_weight_cut: float = 0.01,
) -> ContourTable:
    """Candidates: both root corners, branch tips and glue corners, an angle
    grid on heavy atom fibers, and `resolution` measure draws."""
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

    cands = {(0.0, 0.0), (0.0, 1.0)}
    for b in range(top + 1):
        tip = min(float(sk.hi[b]), level)
        cands.add((tip, 0.0))
        if b > 0:
            cands.add((float(sk.glue_pos[b]), sample.branch_angle(b)))
    for x, i in sample.atom_index_at.items():
        if x <= level and sample.measure.ws[i] >= atom_weight_cut:
            for k in range(atom_grid):
                cands.add((float(x), k / atom_grid))
    if rng is not None:
        for _ in range(resolution):
            p = sample_loop_point(sample, level, rng)
            cands.add((p.pos, p.angle))

    points = [LoopPoint(*c) for c in cands]
    points.sort(key=cmp_to_key(order_cmp(sample)))
    ts = np.asarray([left_fraction(sample, level, p) for p in points])
    gaps = np.diff(ts)
    if gaps.size and float(np.min(gaps)) < -1e-9:
        raise ContourError("left fractions disagree with the contour order")
    eps = mass * float(np.max(gaps)) if gaps.size else mass
    return ContourTable(sample, level, points, ts, mass, eps, resolution)


def contour_eval(table: ContourTable, t: float) -> LoopPoint:
    """Bracketing candidate; equal-fraction ties yield their earliest
    representative, so the walk starts at the root corner."""
    if not (0.0 <= t <= 1.0):
        raise ContourError(f"contour time {t} outside [0, 1]")
    return table.points[int(_eval_indices(table, [t])[0])]


def _eval_indices(table: ContourTable, times) -> np.ndarray:
    ts = table.ts
    idx = np.searchsorted(ts, np.asarray(times, dtype=float), side="right") - 1
    idx = np.maximum(idx, 0)
    out = np.empty(idx.size, dtype=int)
    for j, k in enumerate(idx):
        k = int(k)
        while k > 0 and ts[k - 1] == ts[k]:
            k -= 1
        out[j] = k
    return out


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
    idx = _eval_indices(table, times)
    uniq = sorted(set(int(k) for k in idx))
    pts = [table.points[k] for k in uniq]
    sk = table.sample.skeleton
    h = {k: sk.depth(p.pos) for k, p in zip(uniq, pts)}
    w = {k: lukasiewicz_value(table.sample, p) for k, p in zip(uniq, pts)}
    out = {
        "t": times,
        "height": np.asarray([h[int(k)] for k in idx]),
        "lukasiewicz": np.asarray([w[int(k)] for k in idx]),
    }
    if realization is not None:
        f = realization.fennec_values(pts)
        z = {k: float(v) for k, v in zip(uniq, f)}
        out["snake"] = np.asarray([z[int(k)] for k in idx])
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

    @property
    def band(self) -> tuple:
        return (self.exponent - 2 * self.stderr, self.exponent + 2 * self.stderr)


def holder_estimate(series, lags=None, min_points: int = 1024) -> HolderEstimate:
    """Slope of log sup-modulus against log lag over dyadic lags."""
    z = np.asarray(series, dtype=float)
    n = z.size
    if n < min_points:
        raise ContourError(f"series too short: {n} < {min_points}")
    if lags is None:
        lags = [1 << k for k in range(int(math.log2(n / 8)) + 1)]
    lags = np.asarray([h for h in lags if 0 < h < n], dtype=int)
    moduli = np.asarray([float(np.max(np.abs(z[h:] - z[:-h]))) for h in lags])
    keep = moduli > 0
    lags, moduli = lags[keep], moduli[keep]
    if lags.size < 3:
        raise ContourError("not enough nonzero moduli for a fit")
    x = np.log(lags / n)
    y = np.log(moduli)
    (slope, _), cov = np.polyfit(x, y, 1, cov=True)
    return HolderEstimate(float(slope), float(np.sqrt(cov[0, 0])), lags, moduli)


def modulus_vs_distance(dists, diffs, n_bins: int = 10) -> HolderEstimate:
    """Slope of log sup-increment against log distance over dyadic bins."""
    d = np.asarray(dists, dtype=float)
    f = np.asarray(diffs, dtype=float)
    keep = d > 0
    d, f = d[keep], np.abs(f[keep])
    if d.size < 16:
        raise ContourError("not enough pairs")
    edges = np.geomspace(np.min(d), np.max(d) * (1 + 1e-12), n_bins + 1)
    centers, sups = [], []
    for k in range(n_bins):
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
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(n):
            fh.write(",".join(fmt17(grid[c][k]) for c in cols) + "\n")
    return grid


def polyline_svg(xs, ys, width: int = 640, height: int = 360, label: str = "") -> str:
    """Static SVG polyline with a framed plot area."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    pad = 24.0
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    sx = (width - 2 * pad) / ((x1 - x0) or 1.0)
    sy = (height - 2 * pad) / ((y1 - y0) or 1.0)
    pts = " ".join(
        f"{pad + (x - x0) * sx:.2f},{height - pad - (y - y0) * sy:.2f}"
        for x, y in zip(xs, ys)
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
        f'height="{height - 2 * pad}" fill="none" stroke="#999"/>'
        f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" stroke-width="1"/>'
        f'<text x="{pad}" y="16" font-size="12" font-family="monospace">{label}</text>'
        "</svg>"
    )


def scatter_svg(xs, ys, width: int = 640, height: int = 360, label: str = "") -> str:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    pad = 24.0
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    sx = (width - 2 * pad) / ((x1 - x0) or 1.0)
    sy = (height - 2 * pad) / ((y1 - y0) or 1.0)
    dots = "".join(
        f'<circle cx="{pad + (x - x0) * sx:.2f}" '
        f'cy="{height - pad - (y - y0) * sy:.2f}" r="1.5" fill="#a33"/>'
        for x, y in zip(xs, ys)
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f"{dots}"
        f'<text x="{pad}" y="16" font-size="12" font-family="monospace">{label}</text>'
        "</svg>"
    )
