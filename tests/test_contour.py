from functools import cmp_to_key

import numpy as np
import pytest

import icrt_lab.contour
from icrt_lab import (
    FieldRealization,
    Order,
    StopRule,
    ThetaSpec,
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
from icrt_lab.contour import (
    ContourError,
    _eval_indices,
    export_process_csv,
    modulus_vs_distance,
    polyline_svg,
    scatter_svg,
)
from icrt_lab.loopmetric import project_loop
from icrt_lab.plane import compare_canonical, left_fractions
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


class TestTable:
    def test_endpoints(self, cycle_table, mixed_table):
        for tab in (cycle_table, mixed_table):
            assert tab.ts[0] == 0.0
            assert tab.ts[-1] == pytest.approx(1.0, abs=1e-12)
            assert tab.points[0] == (0.0, 0.0)
            assert tab.points[-1] == (0.0, 1.0)

    def test_fractions_nondecreasing(self, mixed_table):
        assert np.all(np.diff(mixed_table.ts) >= -1e-9)

    def test_cycle_fraction_equals_angle(self, cycle_table, cycle_sample):
        x1 = float(cycle_sample.measure.xs[0])
        for p, t in zip(cycle_table.points, cycle_table.ts):
            if p.pos == x1:
                assert t == pytest.approx(p.angle, abs=1e-12)

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
            assert tab.points == _contour_sorted(tab.sample, tab.points)
        for tab in tied_tables:
            assert np.count_nonzero(np.diff(tab.ts) == 0.0) >= 1

    def test_disagreeing_fractions_rejected(self, hand_sample, monkeypatch):
        calls = []

        def counting_compare(sample, a, b):
            calls.append(1)
            return compare_canonical(sample, a, b)

        def flipped(sample, l, points):
            return 1.0 - left_fractions(sample, l, points)

        n = len(build_contour_table(hand_sample))
        monkeypatch.setattr(icrt_lab.contour, "left_fractions", flipped)
        monkeypatch.setattr(icrt_lab.contour, "compare_canonical", counting_compare)
        with pytest.raises(ContourError, match="disagree"):
            build_contour_table(hand_sample)
        # the first move across a real gap stops the pass
        assert len(calls) < 10 < n

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
