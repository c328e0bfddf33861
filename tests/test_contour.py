import math
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cmp_to_key

import numpy as np
import pytest

import icrt_lab.contour
from icrt_lab import (
    AngleTable,
    FieldRealization,
    IcrtSample,
    MeasureState,
    Order,
    StopRule,
    ThetaSpec,
    assemble_sample,
    compare,
    build_contour_table,
    contour_eval,
    height_eval,
    holder_estimate,
    left_fraction,
    loop_distance,
    lukasiewicz_eval,
    process_grid,
    sample_icrt,
    sample_loop_point,
    snake_eval,
)
from icrt_lab.fields import _BRIDGE_TAG, _PLANS, _TREE_TAG, _LazyGaussianPath
from icrt_lab.contour import (
    ContourError,
    _eval_indices,
    export_process_csv,
    modulus_vs_distance,
    polyline_svg,
    scatter_svg,
)
from icrt_lab.loopmetric import project_loop
from icrt_lab.plane import (
    PlaneError,
    _check_loop_point,
    left_fractions,
    lukasiewicz_value,
    path_atom_angles,
    precedes,
    sample_loop_points,
)
from icrt_lab.skeleton import POINT_TOL
from icrt_lab.util import keyed_generator


@pytest.fixture(scope="module")
def cycle_table(cycle_sample):
    return build_contour_table(cycle_sample, resolution=64, rng=keyed_generator(1, 1))


@pytest.fixture(scope="module")
def mixed_table(powerlaw_sample):
    return build_contour_table(
        powerlaw_sample, resolution=1500, rng=keyed_generator(2, 2)
    )


@pytest.fixture(scope="module")
def tied_tables():
    """theta0 = 0 tables: points on distinct branches can share a fraction."""
    spec = ThetaSpec.power_law(1.5, 50)
    return [
        build_contour_table(
            sample_icrt(spec, seed, StopRule(max_branches=40)),
            resolution=500,
            rng=keyed_generator(seed, 7),
        )
        for seed in (0, 1)
    ]


def _contour_sorted(sample, points):
    """Oracle: the points sorted by a comparator built from compare."""

    def cmp(a, b):
        out = compare(sample, a, b)
        if out is Order.EQUAL:
            return 0
        return -1 if out in (Order.LEFT, Order.FRONT) else 1

    return sorted(points, key=cmp_to_key(cmp))


def _fennec_by_insert(r, alphas) -> list:
    """`fennec_values` of realization r by scalar walks and
    `_LazyGaussianPath.insert` alone: each path r lacks is created, then
    every path refined by `insert_batch` of the batch's positions."""
    s, sk = r.sample, r.sample.skeleton
    pts = [_check_loop_point(s, a) for a in alphas]
    terms = [path_atom_angles(s, p) for p in pts]
    angles = {}
    for i, u in (t for ts in terms for t in ts):
        angles.setdefault(i, set()).add(u)
    for i in sorted(angles):
        key = (r.seed, _BRIDGE_TAG, i)
        r._bridges.setdefault(i, _LazyGaussianPath.bridge(key))
        r._bridges[i].insert_batch(angles[i])
    theta0 = math.sqrt(s.measure.theta0_sq)
    on = [(sk.branch_of(p.pos), p.pos) for p in pts if p.pos > POINT_TOL]
    offsets = {}
    for b, x in on:
        offsets.setdefault(b, set()).add(x - float(sk.lo[b]))
    for b in list(offsets):  # the glue points on each root path
        for a, g, child in sk.ascend(float(sk.hi[b])):
            if child >= 0 and g > POINT_TOL:
                offsets.setdefault(a, set()).add(g - float(sk.lo[a]))
    for b in sorted(offsets) if theta0 > 0 else []:
        if b not in r._branches:
            g, base = float(sk.glue_pos[b]), 0.0
            if g > POINT_TOL:
                pb = int(sk.parent[b])
                base = r._branches[pb].value(g - float(sk.lo[pb]))
            r._branches[b] = _LazyGaussianPath((r.seed, _TREE_TAG, b), base)
        r._branches[b].insert_batch(offsets[b])
    out = []
    for p, ts in zip(pts, terms):
        b, g = sk.branch_of(p.pos), 0.0
        if theta0 and p.pos > POINT_TOL:
            g = r._branches[b].value(p.pos - sk.lo[b])
        tail = 0.0
        for i, u in ts:
            tail += math.sqrt(s.measure.ws[i]) * r._bridges[i].value(u)
        out.append(theta0 / math.sqrt(6.0) * g + tail)
    return out


def _same_paths(r1, r2) -> bool:
    def paths(r):
        return {
            (k, tag): (p.pos, p.val)
            for tag in ("_branches", "_bridges")
            for k, p in getattr(r, tag).items()
        }

    return paths(r1) == paths(r2)


class TestTable:
    def test_endpoints(self, cycle_table, mixed_table):
        for tab in (cycle_table, mixed_table):
            assert tab.ts[0] == 0.0
            assert tab.ts[-1] == pytest.approx(1.0, abs=1e-12)
            assert tab.points[0].tolist() == [0.0, 0.0]
            assert tab.points[-1].tolist() == [0.0, 1.0]

    def test_fractions_nondecreasing(self, mixed_table):
        assert np.all(np.diff(mixed_table.ts) >= -1e-9)

    def test_cycle_fraction_equals_angle(self, cycle_table, cycle_sample):
        x1 = float(cycle_sample.measure.xs[0])
        for (pos, angle), t in zip(cycle_table.points, cycle_table.ts):
            if pos == x1:
                assert t == pytest.approx(angle, abs=1e-12)

    def test_lipschitz_certificate(self, mixed_table, powerlaw_sample):
        tab = mixed_table
        for k in range(len(tab) - 1):
            d = loop_distance(powerlaw_sample, tab.points[k], tab.points[k + 1])
            assert d <= tab.mass_total * (tab.ts[k + 1] - tab.ts[k]) + 1e-9

    def test_equal_fraction_ties_are_loop_equivalent(self, cycle_table, cycle_sample):
        ties = 0
        for k in range(len(cycle_table) - 1):
            if cycle_table.ts[k + 1] - cycle_table.ts[k] <= 1e-15:
                ties += 1
                d = loop_distance(
                    cycle_sample, cycle_table.points[k], cycle_table.points[k + 1]
                )
                assert d <= 1e-9
        assert ties >= 1  # the root corner ties with the atom fiber at angle 0

    def test_order_matches_comparator_sort(
        self, tied_tables, brownian_sample, cycle_table
    ):
        brownian_table = build_contour_table(
            brownian_sample, resolution=500, rng=keyed_generator(3, 3)
        )
        for tab in (*tied_tables, brownian_table, cycle_table):
            assert np.array_equal(tab.points, _contour_sorted(tab.sample, tab.points))
        for tab in tied_tables:
            assert np.count_nonzero(np.diff(tab.ts) == 0.0) >= 1

    def test_disagreeing_fractions_rejected(self, hand_sample, monkeypatch):
        calls = []

        def counting_precedes(sample, loc, i, k):
            calls.append(1)
            return precedes(sample, loc, i, k)

        def flipped(sample, l, points):
            return 1.0 - left_fractions(sample, l, points)

        n = len(build_contour_table(hand_sample))
        monkeypatch.setattr(icrt_lab.contour, "left_fractions", flipped)
        monkeypatch.setattr(icrt_lab.contour, "precedes", counting_precedes)
        with pytest.raises(ContourError, match="disagree"):
            build_contour_table(hand_sample)
        # the first move across a real gap stops the pass
        assert len(calls) < 10 < n

    def test_reversed_ties_sorted_in_rounds(self, hand_sample, monkeypatch):
        # all fractions equal and the candidates in reverse contour order:
        # the rounds alone sort them, one check per round at most
        calls, locate_ = [], icrt_lab.contour.locate

        def reversing_locate(sample, points, l=None):
            return locate_(sample, _contour_sorted(sample, points)[::-1], l)

        def counting_precedes(sample, loc, i, k):
            out = precedes(sample, loc, i, k)
            calls.append(out.copy())  # the build updates its checks in place
            return out

        def constant(sample, l, points):
            return np.full(len(points.pos), 0.5)

        monkeypatch.setattr(icrt_lab.contour, "locate", reversing_locate)
        monkeypatch.setattr(icrt_lab.contour, "left_fractions", constant)
        monkeypatch.setattr(icrt_lab.contour, "precedes", counting_precedes)
        tab = build_contour_table(hand_sample)
        assert np.array_equal(tab.points, _contour_sorted(hand_sample, tab.points))
        assert np.all(calls[0])  # every adjacent pair started out of order
        assert len(calls) <= len(tab) + 1

    def test_coincident_candidates_kept_once(self):
        # a glue corner on the root corner (0, 0), and one on the angle grid
        # of the atom at 0.25, at 0.5 = 32/64
        spec = ThetaSpec(math.sqrt(0.55), (0.6, 0.3))
        measure = MeasureState(0.55, [0.25, 1.25], [0.6, 0.3])
        angles = AngleTable([0.2, 0.8], [0.0, 0.5])
        s = assemble_sample(spec, measure, [1.0, 2.0], [0.0, 0.25], angles, 3.0)
        want = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)}
        want |= {(0.0, 0.0), (0.25, 0.5)}
        want |= {(x, k / 64) for x in (0.25, 1.25) for k in range(64)}
        tab = build_contour_table(s)
        assert len(tab) == len(want) == 133
        assert sorted(map(tuple, tab.points.tolist())) == sorted(want)

    def test_degenerate_measure_rejected(self, powerlaw_sample):
        with pytest.raises(ContourError):
            build_contour_table(powerlaw_sample, l=0.0)

    def test_resolution_floor(self, powerlaw_sample):
        with pytest.raises(ContourError):
            build_contour_table(powerlaw_sample, resolution=1)


class TestEval:
    def test_zero_time(self, cycle_table):
        assert contour_eval(cycle_table, 0.0) == (0.0, 0.0)

    def test_cycle_representative(self, cycle_table, cycle_sample):
        x1 = float(cycle_sample.measure.xs[0])
        p = contour_eval(cycle_table, 23 / 64)
        assert p == (x1, 23 / 64)

    def test_out_of_range(self, cycle_table):
        with pytest.raises(ContourError):
            contour_eval(cycle_table, 1.5)

    def test_earliest_of_equal_run(self, tied_tables, cycle_table):
        for tab in (*tied_tables, cycle_table):
            times = np.r_[tab.ts, np.linspace(0.0, 1.0, 1001)]
            want = np.searchsorted(tab.ts, times, side="right") - 1
            for j, k in enumerate(np.maximum(want, 0)):
                while k > 0 and tab.ts[k - 1] == tab.ts[k]:
                    k -= 1
                want[j] = k
            assert _eval_indices(tab, times).tolist() == want.tolist()

    def test_round_trip(self, mixed_table, powerlaw_sample):
        s = powerlaw_sample
        rng = np.random.default_rng(3)
        for _ in range(300):
            a = sample_loop_point(s, s.level, rng)
            t = left_fraction(s, s.level, a)
            c = contour_eval(mixed_table, t)
            assert loop_distance(s, c, a) <= mixed_table.eps + 1e-9

    def test_nested_truncation_stability(self, powerlaw_sample):
        s = powerlaw_sample
        r = s.level / 2
        tab_l = build_contour_table(s, resolution=800, rng=keyed_generator(4, 4))
        tab_r = build_contour_table(s, l=r, resolution=800, rng=keyed_generator(5, 5))
        for t in np.linspace(0, 1, 60):
            a = contour_eval(tab_l, t)
            b = project_loop(s, a, r)
            c = contour_eval(tab_r, left_fraction(s, r, b))
            assert loop_distance(s, b, c) <= tab_r.eps + 1e-9


class TestProcesses:
    def test_zero_row(self, mixed_table):
        r = FieldRealization(mixed_table.sample, 1)
        assert height_eval(mixed_table, 0.0) == 0.0
        assert lukasiewicz_eval(mixed_table, 0.0) == 0.0
        assert snake_eval(mixed_table, r, 0.0) == 0.0

    def test_cycle_processes(self, cycle_table, cycle_sample):
        s = cycle_sample
        x1 = float(s.measure.xs[0])
        r = FieldRealization(s, 2)
        for t in (5 / 64, 23 / 64, 50 / 64):
            assert height_eval(cycle_table, t) == pytest.approx(x1)
            assert lukasiewicz_eval(cycle_table, t) == pytest.approx(1 - t)
            assert snake_eval(cycle_table, r, t) == r.bridge_value(0, t)

    def test_height_bounded(self, mixed_table):
        cap = mixed_table.sample.skeleton.max_depth
        for t in np.linspace(0, 1, 100):
            assert height_eval(mixed_table, t) <= cap + 1e-12

    def test_lukasiewicz_nonnegative(self, mixed_table):
        for t in np.linspace(0, 1, 200):
            assert lukasiewicz_eval(mixed_table, t) >= 0

    def test_grid_shape_and_determinism(self, mixed_table, tmp_path):
        r1 = FieldRealization(mixed_table.sample, 3)
        g = process_grid(mixed_table, r1, 1 << 10)
        assert g["t"].size == 1 << 10
        assert g["height"][0] == 0.0 and g["snake"][0] == 0.0
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_process_csv(p1, mixed_table, FieldRealization(mixed_table.sample, 3), 1 << 10)
        export_process_csv(p2, mixed_table, FieldRealization(mixed_table.sample, 3), 1 << 10)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "t,height,lukasiewicz,snake"

    def test_grid_columns_equal_scalar_oracles(
        self, mixed_table, tied_tables, cycle_table, brownian_sample
    ):
        brownian = build_contour_table(
            brownian_sample, resolution=500, rng=keyed_generator(3, 3)
        )
        for table in (mixed_table, *tied_tables, cycle_table, brownian):
            s = table.sample
            grid = process_grid(table, FieldRealization(s, 21), 1024)
            pts = [contour_eval(table, t) for t in grid["t"].tolist()]
            assert grid["height"].tolist() == [height_eval(table, t) for t in grid["t"]]
            luk = [lukasiewicz_value(s, p) for p in pts]
            assert grid["lukasiewicz"].tolist() == luk
            snake = grid["snake"].tolist()
            assert snake == FieldRealization(s, 21).fennec_values(pts).tolist()
            assert snake == _fennec_by_insert(FieldRealization(s, 21), pts)

    def test_grid_on_realization_with_values(self, mixed_table, tied_tables):
        for table in (mixed_table, *tied_tables):
            s = table.sample
            rng = np.random.default_rng(23)
            # values on part of the grid's paths first, then the grid
            first = [table.points[k] for k in rng.integers(len(table), size=40)]
            r, ref = FieldRealization(s, 22), FieldRealization(s, 22)
            assert r.fennec_values(first).tolist() == _fennec_by_insert(ref, first)
            grid = process_grid(table, r, 1024)
            pts = [contour_eval(table, t) for t in grid["t"].tolist()]
            assert grid["snake"].tolist() == _fennec_by_insert(ref, pts)
            assert _same_paths(r, ref)

    def test_every_batch_size_equals_insert(self, mixed_table, tied_tables):
        # one route for every batch size, on fresh realizations and on one
        # that holds the values of the batches before
        sizes = (1, 2, 3, 31, 32, 49)
        for table in (mixed_table, *tied_tables):
            s, rng = table.sample, np.random.default_rng(24)
            pts = [table.points[k] for k in rng.integers(len(table), size=sum(sizes))]
            cut = np.cumsum((0, *sizes)).tolist()
            batches = [pts[a:b] for a, b in zip(cut, cut[1:])]
            r, ref = FieldRealization(s, 25), FieldRealization(s, 25)
            for batch in batches:
                fresh = FieldRealization(s, 26).fennec_values(batch).tolist()
                assert fresh == _fennec_by_insert(FieldRealization(s, 26), batch)
                assert r.fennec_values(batch).tolist() == _fennec_by_insert(ref, batch)
            assert _same_paths(r, ref)

    def test_plans_kept_on_the_sample(self, powerlaw_sample):
        s = IcrtSample.from_json(powerlaw_sample.to_json())  # keeps no plan
        tab = build_contour_table(s, resolution=400, rng=keyed_generator(6, 6))
        plans = s._field_plans
        assert not plans
        # two point sets in turn on each realization, as snake_eval(t1),
        # snake_eval(t2): each planned once, and each value the oracle's
        pair = [[contour_eval(tab, t)] for t in (0.31, 0.74)]
        for k in range(3):
            r, ref = FieldRealization(s, 40 + k), FieldRealization(s, 40 + k)
            for pts in pair:
                assert r.fennec_values(pts).tolist() == _fennec_by_insert(ref, pts)
            assert _same_paths(r, ref)
            if not k:
                kept = list(plans.values())
            assert len(plans) == 2 and all(a is b for a, b in zip(plans.values(), kept))
        # a JSON copy keeps none of them and gives the same values
        copy = IcrtSample.from_json(s.to_json())
        for pts in pair:
            want = FieldRealization(s, 43).fennec_values(pts).tolist()
            assert FieldRealization(copy, 43).fennec_values(pts).tolist() == want
        assert len(copy._field_plans) == 2
        # the grid keeps no plan
        process_grid(tab, FieldRealization(s, 44), 64)
        assert len(plans) == 2
        # the bound: the oldest plans go first, and a dropped plan is built
        # again; a kept plan answers no other query shape
        more = [[contour_eval(tab, t)] for t in np.linspace(0.05, 0.95, _PLANS)]
        for pts in more:
            FieldRealization(s, 45).fennec_values(pts)
        assert len(plans) == _PLANS
        assert not any(p is q for p in plans.values() for q in kept)
        for pts in (pair[0], more[-1]):
            want = _fennec_by_insert(FieldRealization(s, 46), pts)
            assert FieldRealization(s, 46).fennec_values(pts).tolist() == want
        with pytest.raises(PlaneError, match="batch"):
            FieldRealization(s, 47).fennec_values(np.ravel(more[-1]))

    def test_plans_shared_by_threads(self, powerlaw_sample):
        # realizations of one sample in four threads, which build and read
        # the same kept plans and fills, switching often, give the values
        # of a sample that keeps none
        s = IcrtSample.from_json(powerlaw_sample.to_json())
        rng = np.random.default_rng(27)
        sets = [sample_loop_points(s, s.level, rng, m) for m in (1, 2, 5, 20)]

        def run(sample, k):
            r = FieldRealization(sample, k)
            out = [r.fennec_values(p).tolist() for p in sets]  # held paths too
            return out + [FieldRealization(sample, k).tree_values(sets[2][:, 0]).tolist()]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(run, [s] * 40, range(40), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        copy = IcrtSample.from_json(s.to_json())
        assert got == [run(copy, k) for k in range(40)]
        assert len(s._field_plans) == len(sets) + 1

    def test_snake_variance_matches_metric(self, powerlaw_sample):
        from icrt_lab import gff_distance

        s = powerlaw_sample
        tab = build_contour_table(s, resolution=400, rng=keyed_generator(6, 6))
        t1, t2 = 0.31, 0.74
        a, b = contour_eval(tab, t1), contour_eval(tab, t2)
        target = gff_distance(s, a, b)
        n = 4000
        diffs = np.empty(n)
        for k in range(n):
            r = FieldRealization(s, 500 + k)
            diffs[k] = snake_eval(tab, r, t1) - snake_eval(tab, r, t2)
        assert abs(float(np.var(diffs, ddof=1)) - target) <= 4 * target * np.sqrt(
            2 / n
        )


class TestHolder:
    def test_linear_series(self):
        est = holder_estimate(np.linspace(0, 1, 4096))
        assert est.exponent == pytest.approx(1.0, abs=1e-9)

    def test_brownian_series(self):
        rng = np.random.default_rng(7)
        w = np.cumsum(rng.standard_normal(8192)) / np.sqrt(8192)
        est = holder_estimate(w)
        assert abs(est.exponent - 0.5) <= 0.1

    def test_short_series_rejected(self):
        with pytest.raises(ContourError):
            holder_estimate(np.zeros(100))

    def test_modulus_vs_distance_linear(self):
        rng = np.random.default_rng(8)
        d = rng.uniform(0.01, 1.0, 4000)
        est = modulus_vs_distance(d, 3.0 * d)
        assert est.exponent == pytest.approx(1.0, abs=0.05)


class TestSvg:
    def test_emitters(self):
        xs = np.linspace(0, 1, 50)
        svg = polyline_svg(xs, np.sin(xs), label="demo")
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "polyline" in svg
        svg2 = scatter_svg(xs, np.cos(xs))
        assert "circle" in svg2
