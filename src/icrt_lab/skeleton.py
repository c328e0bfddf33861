"""Deterministic stick-breaking geometry.

A skeleton is the finite rooted R-tree obtained by cutting the half line at
positions ``y_1 < ... < y_n`` and gluing each segment ``(y_i, y_{i+1}]`` back
at a point ``z_i <= y_i``.  Points of the tree are identified with their real
line coordinate in ``[0, y_n]``; branch lookup is a binary search over the
cut positions.

Every root-path query goes through one walk: ``ascend`` lists the segments
of a point's ancestral line, ``meet_walk`` climbs two lines to their meet.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

# Below this gap two coordinates name the same tree point (glue/cut
# coincidences resolve toward the lower branch).
POINT_TOL = 1e-12


class SkeletonError(ValueError):
    pass


def validate_cut_glue(cuts, glues) -> None:
    """Reject invalid cut/glue sequences, naming the offending index."""
    cuts = np.asarray(cuts, dtype=float)
    glues = np.asarray(glues, dtype=float)
    if cuts.ndim != 1 or cuts.size == 0:
        raise SkeletonError("need at least one cut")
    if glues.ndim != 1 or glues.size != cuts.size - 1:
        raise SkeletonError(f"expected {cuts.size - 1} glue points, got {glues.size}")
    if not np.all(np.isfinite(cuts)) or not np.all(np.isfinite(glues)):
        raise SkeletonError("cuts and glues must be finite")
    if cuts[0] <= 0:
        raise SkeletonError("cut 0 must be positive")
    bad = np.nonzero(np.diff(cuts) <= 0)[0]
    if bad.size:
        raise SkeletonError(f"cuts must be strictly increasing (index {bad[0] + 1})")
    for i, z in enumerate(glues):
        if z < -POINT_TOL or z > cuts[i] + POINT_TOL:
            raise SkeletonError(f"glue {i + 1} out of range: z={z} > y={cuts[i]}")


@dataclass(frozen=True)
class PathSegment:
    branch: int
    lo: float
    hi: float

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass
class PathSummary:
    """Oriented decomposition of the geodesic between two points."""

    segments: list = field(default_factory=list)  # first-point side, then second
    meet: float = 0.0
    length: float = 0.0
    endpoints: tuple = (0.0, 0.0)

    def branch_count(self) -> int:
        return sum(1 for s in self.segments if s.length > 0.0)


class Skeleton:
    """Immutable after build; every query is read-only."""

    def __init__(self, cuts, glues):
        validate_cut_glue(cuts, glues)
        self.cuts = np.asarray(cuts, dtype=float).copy()
        self.glues = np.minimum(np.asarray(glues, dtype=float), self.cuts[:-1]).copy()
        self.glues = np.maximum(self.glues, 0.0)
        n = self.cuts.size
        self.n_branches = n
        self.total_length = float(self.cuts[-1])
        # branch b covers coordinates (lo[b], hi[b]] (branch 0: [0, y_1])
        self.lo = np.concatenate([[0.0], self.cuts[:-1]])
        self.hi = self.cuts
        # glue_pos[b]: where branch b attaches (branch 0 is rooted at 0)
        self.glue_pos = np.concatenate([[0.0], self.glues])
        # list copies: scalar lookups on lists are several times cheaper
        self._cut_list = self.cuts.tolist()
        self._glue_list = self.glue_pos.tolist()
        self.parent = np.full(n, -1, dtype=int)
        self.attach_depth = np.zeros(n)
        for b in range(1, n):
            p = self.branch_of(self.glue_pos[b])
            if p >= b:
                raise SkeletonError(f"glue {b} does not land on an earlier branch")
            self.parent[b] = p
            self.attach_depth[b] = self.depth(self.glue_pos[b])
        self.children: list[list[int]] = [[] for _ in range(n)]
        for b in range(1, n):
            self.children[self.parent[b]].append(b)
        self._parent_list = self.parent.tolist()
        self.max_depth = float(np.max(self.attach_depth + (self.hi - self.lo)))

    # ------------------------------------------------------------------
    # point location
    # ------------------------------------------------------------------
    def check_point(self, p: float) -> float:
        if not (-POINT_TOL <= p <= self.total_length + POINT_TOL):
            raise SkeletonError(f"point {p} outside [0, {self.total_length}]")
        return min(max(p, 0.0), self.total_length)

    def branch_of(self, p: float) -> int:
        p = self.check_point(p)
        j = bisect_left(self._cut_list, p)
        if j == self.n_branches:
            return self.n_branches - 1
        if j > 0 and p - self._cut_list[j - 1] <= POINT_TOL:
            return j - 1
        return j

    def depth(self, p: float) -> float:
        """Root distance d_T(0, p)."""
        b = self.branch_of(p)
        return float(self.attach_depth[b] + max(p - self.lo[b], 0.0))

    # ------------------------------------------------------------------
    # the root-path walk
    # ------------------------------------------------------------------
    def ascend(self, p: float, stop: int = 0):
        """Yield (branch, top, child) for each segment of the root path of p,
        from p's own branch up to branch `stop`, an ancestor branch.

        The segment runs from lo[branch] up to top (p itself, then the glue
        point of child); child is the branch the walk came up through, -1 on
        p's own branch.
        """
        glue, parent = self._glue_list, self._parent_list
        b, top, child = self.branch_of(p), p, -1
        while True:
            yield b, top, child
            if b <= stop:
                return
            b, top, child = parent[b], glue[b], b

    def meet_walk(self, p: float, q: float):
        """Climb the root paths of p and q to their meet branch.

        Returns (meet branch, exit of p, child of p, exit of q, child of q):
        the position where each path reaches the meet branch and the branch
        it came up through (-1 when the point lies on the meet branch).  The
        meet point is the lower of the two exits.
        """
        glue, parent = self._glue_list, self._parent_list
        bp, bq = self.branch_of(p), self.branch_of(q)
        cp = cq = -1
        while bp != bq:
            if bp > bq:
                bp, p, cp = parent[bp], glue[bp], bp
            else:
                bq, q, cq = parent[bq], glue[bq], bq
        return bp, p, cp, q, cq

    # ------------------------------------------------------------------
    # metric queries
    # ------------------------------------------------------------------
    def meet(self, p: float, q: float) -> float:
        """Closest common ancestor, as a real-line coordinate."""
        _, pp, _, qq, _ = self.meet_walk(p, q)
        return min(pp, qq)

    def tree_distance(self, p: float, q: float) -> float:
        p, q = self.check_point(p), self.check_point(q)
        m = self.meet(p, q)
        return self.depth(p) + self.depth(q) - 2.0 * self.depth(m)

    def _side_segments(self, p: float, m: float, bm: int) -> list:
        segs = []
        for b, top, _ in self.ascend(p, bm):
            if b != bm:
                segs.append(PathSegment(b, float(self.lo[b]), top))
            elif top - m > 0.0:
                segs.append(PathSegment(bm, m, top))
        return segs

    def path(self, p: float, q: float) -> PathSummary:
        p, q = self.check_point(p), self.check_point(q)
        bm, pp, _, qq, _ = self.meet_walk(p, q)
        m = min(pp, qq)
        segs = self._side_segments(p, m, bm) + self._side_segments(q, m, bm)
        total = sum(s.length for s in segs)
        return PathSummary(segments=segs, meet=m, length=total, endpoints=(p, q))

    def branch_count_distance(self, p: float, q: float) -> int:
        """Number of branch segments the geodesic touches (0 iff p = q)."""
        return self.path(p, q).branch_count()

    def project_to_prefix(self, p: float, l: float) -> float:
        """Closest point of [0, l] on the root path of p."""
        p = self.check_point(p)
        l = self.check_point(l)
        if p <= l:
            return p
        for b, top, _ in self.ascend(p):
            if top <= l:
                return top
            if b == 0 or self.lo[b] < l:
                return l

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({"cuts": self.cuts.tolist(), "glues": self.glues.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Skeleton":
        obj = json.loads(text)
        return cls(obj["cuts"], obj["glues"])
