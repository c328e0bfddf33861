import json
from bisect import bisect_left

import numpy as np
import pytest

from icrt_lab import Skeleton, SkeletonError
from icrt_lab.skeleton import POINT_TOL


def dt_reference(cuts, glues, x, y):
    """Direct transcription of the gluing recursion."""
    if x == y:
        return 0.0
    if x > y:
        x, y = y, x
    i = bisect_left(cuts, y)
    if i == 0 or x > cuts[i - 1]:
        return y - x
    return dt_reference(cuts, glues, x, glues[i - 1]) + (y - cuts[i - 1])


def dn_reference(cuts, glues, x, y):
    """Branch-counting recursion: distinct same-segment points sit at 1."""
    if x == y:
        return 0
    if x > y:
        x, y = y, x
    i = bisect_left(cuts, y)
    if i == 0 or x > cuts[i - 1]:
        return 1
    return dn_reference(cuts, glues, x, glues[i - 1]) + 1


def graph_distance(cuts, glues, pts, step=0.01):
    """Shortest path on a discretized graph of the skeleton (exact for
    node-aligned queries since junctions are nodes)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    nodes = sorted(
        set(np.round(np.arange(0.0, cuts[-1] + step / 2, step), 9).tolist())
        | set(float(v) for v in pts)
        | set(float(v) for v in cuts)
        | set(float(v) for v in glues)
    )
    idx = {v: k for k, v in enumerate(nodes)}
    boundary = set(float(v) for v in cuts[:-1])
    rows, cols, vals = [], [], []
    for a, b in zip(nodes, nodes[1:]):
        if a in boundary:
            continue  # segments do not touch across a cut
        rows.append(idx[a])
        cols.append(idx[b])
        vals.append(b - a)
    for i in range(1, len(cuts)):
        lo = float(cuts[i - 1])
        first = nodes[bisect_left(nodes, lo) + 1]
        rows.append(idx[float(glues[i - 1])])
        cols.append(idx[first])
        vals.append(first - lo)
    n = len(nodes)
    g = coo_matrix((vals, (rows, cols)), shape=(n, n))
    dist = dijkstra(g, directed=False, indices=[idx[float(pts[0])]])
    return float(dist[0, idx[float(pts[1])]])


def random_skeleton(rng, n=12):
    cuts = np.cumsum(rng.uniform(0.2, 1.0, n))
    glues = np.asarray([rng.uniform(0, cuts[i]) for i in range(n - 1)])
    return Skeleton(cuts, glues), cuts, glues


class TestBuild:
    def test_fixture_structure(self, skeleton_fixture):
        sk = skeleton_fixture
        assert sk.n_branches == 3
        assert sk.parent[2] == 1
        assert sk.parent[1] == 0

    def test_single_segment(self):
        sk = Skeleton([1.0], [])
        assert sk.tree_distance(0.2, 0.9) == pytest.approx(0.7)

    def test_bad_glue_reports_index(self):
        with pytest.raises(SkeletonError, match="glue 1"):
            Skeleton([1.0, 2.0], [1.5])

    def test_nonincreasing_cuts_rejected(self):
        with pytest.raises(SkeletonError, match="increasing"):
            Skeleton([1.0, 1.0, 3.0], [0.5, 0.7])


class TestDistance:
    def test_fixture_values(self, skeleton_fixture):
        sk = skeleton_fixture
        assert sk.tree_distance(0.8, 2.5) == pytest.approx(1.3)
        assert sk.tree_distance(1.1, 1.1) == 0.0
        assert sk.tree_distance(0.2, 0.9) == pytest.approx(0.7)

    def test_against_recursion_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sk, cuts, glues = random_skeleton(rng)
            for _ in range(40):
                x, y = rng.uniform(0, cuts[-1], 2)
                assert sk.tree_distance(x, y) == pytest.approx(
                    dt_reference(list(cuts), list(glues), x, y), abs=1e-9
                )

    def test_against_graph_oracle(self):
        got = graph_distance([1.0, 2.0, 3.0], [0.5, 1.5], (0.8, 2.5))
        assert got == pytest.approx(1.3, abs=1e-9)

    def test_metric_axioms(self, skeleton_fixture):
        sk = skeleton_fixture
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 3, (10_000, 3))
        for p, q, r in pts:
            dpq = sk.tree_distance(p, q)
            assert dpq >= 0
            assert dpq == pytest.approx(sk.tree_distance(q, p), abs=1e-12)
            assert dpq <= sk.tree_distance(p, r) + sk.tree_distance(r, q) + 1e-9

    def test_four_point_condition(self):
        rng = np.random.default_rng(2)
        sk, cuts, _ = random_skeleton(rng)
        d = sk.tree_distance
        for _ in range(2000):
            p, q, r, s = rng.uniform(0, cuts[-1], 4)
            lhs = d(p, q) + d(r, s)
            assert lhs <= max(d(p, r) + d(q, s), d(p, s) + d(q, r)) + 1e-9


class TestMeetAndPath:
    def test_meet_examples(self, skeleton_fixture):
        sk = skeleton_fixture
        assert sk.meet(0.8, 2.5) == pytest.approx(0.5)
        assert sk.meet(0.2, 0.9) == pytest.approx(0.2)
        assert sk.meet(1.7, 0.0) == 0.0

    def test_path_decomposition(self, skeleton_fixture):
        sk = skeleton_fixture
        p = sk.path(0.8, 2.5)
        got = {(s.branch, round(s.lo, 9), round(s.hi, 9)) for s in p.segments}
        assert got == {(0, 0.5, 0.8), (1, 1.0, 1.5), (2, 2.0, 2.5)}
        assert p.meet == pytest.approx(0.5)
        assert p.length == pytest.approx(sk.tree_distance(0.8, 2.5))

    def test_path_trivial(self, skeleton_fixture):
        sk = skeleton_fixture
        assert skeleton_fixture.path(1.3, 1.3).segments == []
        p = sk.path(0.0, 1.0)
        assert len(p.segments) == 1
        assert p.length == pytest.approx(1.0)

    def test_path_lengths_sum(self):
        rng = np.random.default_rng(3)
        sk, cuts, _ = random_skeleton(rng)
        for _ in range(300):
            x, y = rng.uniform(0, cuts[-1], 2)
            p = sk.path(x, y)
            assert sum(s.length for s in p.segments) == pytest.approx(
                sk.tree_distance(x, y), abs=1e-9
            )


class TestBranchCount:
    def test_fixture_values(self, skeleton_fixture):
        sk = skeleton_fixture
        assert sk.branch_count_distance(2.5, 0.8) == 3
        assert sk.branch_count_distance(1.4, 1.4) == 0
        assert sk.branch_count_distance(1.2, 1.8) == 1

    def test_against_recursion_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            sk, cuts, glues = random_skeleton(rng)
            for _ in range(40):
                x, y = rng.uniform(0, cuts[-1], 2)
                assert sk.branch_count_distance(x, y) == dn_reference(
                    list(cuts), list(glues), x, y
                )

    def test_zero_iff_equal(self, skeleton_fixture):
        assert skeleton_fixture.branch_count_distance(0.3, 0.3) == 0
        assert skeleton_fixture.branch_count_distance(0.3, 0.30001) == 1

    def test_constant_along_branch_to_prefix(self):
        rng = np.random.default_rng(5)
        sk, cuts, _ = random_skeleton(rng)
        l = cuts[-1] / 3
        for b in range(sk.n_branches):
            if sk.lo[b] <= l:
                continue
            vals = {
                sk.branch_count_distance(p, sk.project_to_prefix(p, l))
                for p in np.linspace(sk.lo[b] + 1e-6, sk.hi[b], 5)
            }
            assert len(vals) == 1


class TestProjection:
    def test_examples(self, skeleton_fixture):
        sk = skeleton_fixture
        assert sk.project_to_prefix(2.5, 1.2) == pytest.approx(1.2)
        assert sk.project_to_prefix(0.8, 3.0) == pytest.approx(0.8)
        assert sk.project_to_prefix(2.5, 0.3) == pytest.approx(0.3)

    def test_lies_on_root_path(self, skeleton_fixture):
        sk = skeleton_fixture
        for p in (2.5, 1.7, 0.9):
            for l in (0.2, 0.7, 1.4, 2.2):
                z = sk.project_to_prefix(p, l)
                assert z <= l + 1e-12
                assert sk.meet(z, p) == pytest.approx(z)

    def test_composition(self):
        rng = np.random.default_rng(6)
        sk, cuts, _ = random_skeleton(rng)
        for _ in range(2000):
            p = rng.uniform(0, cuts[-1])
            r, s = sorted(rng.uniform(0, cuts[-1], 2))
            via = sk.project_to_prefix(sk.project_to_prefix(p, r), s)
            assert via == pytest.approx(
                sk.project_to_prefix(p, min(r, s)), abs=1e-12
            )

    def test_out_of_range(self, skeleton_fixture):
        with pytest.raises(SkeletonError):
            skeleton_fixture.project_to_prefix(2.5, 9.0)
        with pytest.raises(SkeletonError):
            skeleton_fixture.tree_distance(-1.0, 1.0)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(7)
        sk, _, _ = random_skeleton(rng)
        clone = Skeleton.from_json(sk.to_json())
        assert clone.to_json() == sk.to_json()
        assert json.loads(sk.to_json())["cuts"] == sk.cuts.tolist()


def ancestry_reference(cuts, glues, p):
    """Ancestral line of p by direct scans: [(branch, top, child)] from p's
    branch to the root.  A point lies on the first branch whose cut it does
    not exceed (a cut belongs to the branch below it)."""

    def branch(x):
        return next(b for b, y in enumerate(cuts) if x <= y + 1e-12)

    line, b, top, child = [], branch(p), p, -1
    while True:
        line.append((b, top, child))
        if b == 0:
            return line
        b, top, child = branch(glues[b - 1]), glues[b - 1], b


def meet_reference(cuts, glues, p, q):
    """(meet branch, exit of p, child of p, exit of q, child of q) from the
    two ancestral lines: the meet branch is the deepest one they share."""
    lp = {b: (top, child) for b, top, child in ancestry_reference(cuts, glues, p)}
    lq = {b: (top, child) for b, top, child in ancestry_reference(cuts, glues, q)}
    bm = max(set(lp) & set(lq))
    return (bm,) + lp[bm] + lq[bm]


DEGENERATE = {
    "glue at 0": ([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 2.5]),
    "glue at a cut": ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 1.0]),
    "coincident glues": ([1.0, 2.0, 3.0, 4.0], [0.5, 0.5, 1.5]),
}


def walk_cases(skeleton_fixture):
    yield skeleton_fixture, [1.0, 2.0, 3.0], [0.5, 1.5]
    for cuts, glues in DEGENERATE.values():
        yield Skeleton(cuts, glues), cuts, glues
    rng = np.random.default_rng(8)
    sk, cuts, glues = random_skeleton(rng, 20)
    yield sk, list(cuts), list(glues)


def walk_points(cuts, glues):
    pts = {0.0, cuts[-1]} | set(cuts) | set(glues)
    lo = [0.0] + list(cuts[:-1])
    pts |= {0.5 * (a + b) for a, b in zip(lo, cuts)}
    return sorted(pts)


class TestRootPathWalk:
    def test_ascend_matches_reference(self, skeleton_fixture):
        for sk, cuts, glues in walk_cases(skeleton_fixture):
            for p in walk_points(cuts, glues):
                assert list(sk.ascend(p)) == ancestry_reference(cuts, glues, p)

    def test_climb_matches_reference(self, skeleton_fixture):
        for sk, cuts, glues in walk_cases(skeleton_fixture):
            pts = np.asarray(walk_points(cuts, glues))
            lines = [[] for _ in pts]
            for rows, *level in sk.climb(sk.branches_of(pts), pts):
                for r, step in zip(rows.tolist(), zip(*(v.tolist() for v in level))):
                    lines[r].append(step)
            for p, line in zip(pts.tolist(), lines):
                assert line == ancestry_reference(cuts, glues, p)

    def test_meet_walk_matches_reference(self, skeleton_fixture):
        for sk, cuts, glues in walk_cases(skeleton_fixture):
            pts = walk_points(cuts, glues)
            for p in pts:
                for q in pts:
                    want = meet_reference(cuts, glues, p, q)
                    assert sk.meet_walk(p, q) == want
                    assert sk.meet(p, q) == min(want[1], want[3])

    def test_stop_ends_at_meet_branch(self, skeleton_fixture):
        for sk, cuts, glues in walk_cases(skeleton_fixture):
            pts = walk_points(cuts, glues)
            for p in pts:
                for q in pts:
                    bm, px, cx, qx, cq = sk.meet_walk(p, q)
                    for x, exit_x, child in ((p, px, cx), (q, qx, cq)):
                        line = list(sk.ascend(x, bm))
                        assert line[-1] == (bm, exit_x, child)
                        assert all(b > bm for b, _, _ in line[:-1])
                        assert line == list(sk.ascend(x))[: len(line)]

    def test_branches_of_matches_branch_of(self, skeleton_fixture):
        rng = np.random.default_rng(9)
        for sk, cuts, glues in walk_cases(skeleton_fixture):
            tol = POINT_TOL
            near = [y + d for y in cuts for d in (-2 * tol, -tol / 2, tol / 2, 2 * tol)]
            pts = [0.0, sk.total_length, *cuts, *near, *rng.uniform(0, cuts[-1], 200)]
            pts = [p for p in pts if -tol <= p <= sk.total_length + tol]
            got = sk.branches_of(pts)
            assert got.tolist() == [sk.branch_of(p) for p in pts]
        with pytest.raises(SkeletonError, match="outside"):
            sk.branches_of([0.5, sk.total_length + 1.0])

    def test_build_matches_branch_of_loop(self, skeleton_fixture):
        # parents and attachment depths of the one-pass build, bit for bit
        # against the per-branch branch_of/depth recursion
        for sk, cuts, glues in walk_cases(skeleton_fixture):
            depth = np.zeros(sk.n_branches)
            for b in range(1, sk.n_branches):
                p = sk.branch_of(sk.glue_pos[b])
                depth[b] = depth[p] + max(sk.glue_pos[b] - sk.lo[p], 0.0)
                assert sk.parent[b] == p
            assert sk.attach_depth.tolist() == depth.tolist()

    def test_degenerate_glues(self):
        sk = Skeleton(*DEGENERATE["glue at 0"])
        assert list(sk.ascend(1.5)) == [(1, 1.5, -1), (0, 0.0, 1)]
        assert sk.meet_walk(1.5, 2.5) == (0, 0.0, 1, 0.0, 2)
        sk = Skeleton(*DEGENERATE["glue at a cut"])
        # the glue at cut 1.0 lands on branch 0, the one at 2.0 on branch 1
        assert list(sk.ascend(2.5)) == [(2, 2.5, -1), (1, 2.0, 2), (0, 1.0, 1)]
        sk = Skeleton(*DEGENERATE["coincident glues"])
        assert sk.meet_walk(1.5, 2.5) == (0, 0.5, 1, 0.5, 2)
        assert sk.meet(1.5, 2.5) == 0.5
