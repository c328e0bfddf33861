import math

import numpy as np
import pytest

from icrt_lab import loopmetric, skeleton
from icrt_lab import (
    LoopPoint,
    StopRule,
    ThetaSpec,
    gff_distance,
    hausdorff_gap,
    left_mass,
    loop_distance,
    path_mass,
    project_loop,
    sample_icrt,
    sample_loop_point,
    torus_distance,
)
from icrt_lab.loopmetric import export_distance_matrix, loop_distance_bruteforce
from icrt_lab.util import keyed_generator


class TestTorus:
    def test_values(self):
        assert torus_distance(0.0, 0.8) == pytest.approx(0.2)
        assert torus_distance(0.3, 0.4) == pytest.approx(0.1)
        assert torus_distance(0.0, 0.5) == 0.5

    def test_triangle_on_torus(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            u, v, w = rng.random(3)
            assert torus_distance(u, w) <= (
                torus_distance(u, v) + torus_distance(v, w) + 1e-12
            )


class TestLoopDistance:
    def test_fixture_value(self, hand_sample):
        s = hand_sample
        assert loop_distance(s, (0.8, 0.0), (2.5, 0.0)) == pytest.approx(
            0.23875, abs=1e-12
        )
        assert loop_distance(s, (1.3, 0.4), (1.3, 0.4)) == 0.0

    def test_cycle_case(self, cycle_sample):
        s = cycle_sample
        x1 = float(s.measure.xs[0])
        assert loop_distance(s, (x1, 0.1), (x1, 0.75)) == pytest.approx(
            torus_distance(0.1, 0.75)
        )

    def test_matches_bruteforce_full_sum(self, hand_sample, powerlaw_sample):
        for s in (hand_sample, powerlaw_sample):
            rng = np.random.default_rng(1)
            for _ in range(150):
                a = sample_loop_point(s, s.level, rng)
                b = sample_loop_point(s, s.level, rng)
                assert loop_distance(s, a, b) == pytest.approx(
                    loop_distance_bruteforce(s, a, b), abs=1e-9
                )

    def test_pseudo_metric_axioms(self, powerlaw_sample):
        s = powerlaw_sample
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            a = sample_loop_point(s, s.level, rng)
            b = sample_loop_point(s, s.level, rng)
            c = sample_loop_point(s, s.level, rng)
            dab = loop_distance(s, a, b)
            assert dab >= 0
            assert dab == loop_distance(s, b, a)
            assert loop_distance(s, a, c) <= dab + loop_distance(s, b, c) + 1e-9

    def test_same_bits_under_compensated_sum(self, powerlaw_sample, monkeypatch):
        """The distances and path lengths add their terms one at a time, so
        a compensated builtin sum() (Python 3.12 on; math.fsum here) leaves
        every value unchanged."""
        s = powerlaw_sample
        rng = np.random.default_rng(7)
        pts = [sample_loop_point(s, s.level, rng) for _ in range(30)]

        def values():
            return [
                (loop_distance(s, a, b), gff_distance(s, a, b),
                 s.skeleton.path(a.pos, b.pos).length)
                for a in pts for b in pts
            ]

        want = values()
        monkeypatch.setattr(loopmetric, "sum", math.fsum, raising=False)
        monkeypatch.setattr(skeleton, "sum", math.fsum, raising=False)
        assert values() == want


class TestFieldMetric:
    def test_fixture_value(self, hand_sample):
        got = gff_distance(hand_sample, (0.8, 0.0), (2.5, 0.0))
        assert got == pytest.approx(0.55 / 6 * 1.3 + 0.3 * 0.8 * 0.2, abs=1e-12)

    def test_cycle_bridge_variance(self, cycle_sample):
        s = cycle_sample
        x1 = float(s.measure.xs[0])
        assert gff_distance(s, (x1, 0.0), (x1, 0.5)) == pytest.approx(0.25)

    def test_sandwich(self, hand_sample, powerlaw_sample, brownian_sample):
        for s in (hand_sample, powerlaw_sample, brownian_sample):
            rng = np.random.default_rng(3)
            for _ in range(2000):
                a = sample_loop_point(s, s.level, rng)
                b = sample_loop_point(s, s.level, rng)
                dl = loop_distance(s, a, b)
                dg = gff_distance(s, a, b)
                assert 0.5 * dl - 1e-9 <= dg <= dl + 1e-9


class TestPathMass:
    def test_fixture_value(self, hand_sample):
        s = hand_sample
        assert path_mass(s, (0.8, 0.0), (2.5, 0.0)) == pytest.approx(1.015, abs=1e-12)
        assert path_mass(s, (0.9, 0.2), (0.9, 0.7)) == 0.0
        assert path_mass(s, (0.25, 0.2), (0.25, 0.9)) == pytest.approx(0.6)

    def test_dominates_loop_distance(self, hand_sample, powerlaw_sample):
        for s in (hand_sample, powerlaw_sample):
            rng = np.random.default_rng(4)
            for _ in range(3000):
                a = sample_loop_point(s, s.level, rng)
                b = sample_loop_point(s, s.level, rng)
                assert loop_distance(s, a, b) <= path_mass(s, a, b) + 1e-9


class TestCrucialBound:
    def test_left_mass_gap_dominates_distance(self, hand_sample, powerlaw_sample):
        for s in (hand_sample, powerlaw_sample):
            rng = np.random.default_rng(5)
            for _ in range(2000):
                a = sample_loop_point(s, s.level, rng)
                b = sample_loop_point(s, s.level, rng)
                gap = abs(
                    left_mass(s, s.level, a) - left_mass(s, s.level, b)
                )
                assert gap >= loop_distance(s, a, b) - 1e-9


class TestProjection:
    def test_examples(self, hand_sample):
        s = hand_sample
        assert project_loop(s, (2.5, 0.0), 1.2) == LoopPoint(1.2, 0.5)
        assert project_loop(s, (0.8, 0.3), 3.0) == LoopPoint(0.8, 0.3)

    def test_minimizes_distance(self, powerlaw_sample):
        s = powerlaw_sample
        rng = np.random.default_rng(6)
        for _ in range(300):
            a = sample_loop_point(s, s.level, rng)
            l = rng.uniform(0.3, s.level)
            p = project_loop(s, a, l)
            d0 = loop_distance(s, a, p)
            for _ in range(10):
                q = sample_loop_point(s, l, rng)
                assert d0 <= loop_distance(s, a, q) + 1e-9

    def test_composition(self, powerlaw_sample):
        s = powerlaw_sample
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            a = sample_loop_point(s, s.level, rng)
            r, l = sorted(rng.uniform(0.2, s.level, 2))
            via = project_loop(s, project_loop(s, a, l), r)
            assert via == project_loop(s, a, r)


class TestHausdorffGap:
    def test_zero_at_full_level(self, powerlaw_sample):
        s = powerlaw_sample
        rng = np.random.default_rng(8)
        probes = [sample_loop_point(s, s.level, rng) for _ in range(50)]
        assert hausdorff_gap(s, s.level, probes) == 0.0

    def test_nonincreasing_in_level(self, powerlaw_sample):
        s = powerlaw_sample
        rng = np.random.default_rng(9)
        probes = [sample_loop_point(s, s.level, rng) for _ in range(100)]
        gaps = [hausdorff_gap(s, l, probes) for l in (1.0, 2.0, 4.0, s.level)]
        assert all(gaps[i] >= gaps[i + 1] - 1e-12 for i in range(len(gaps) - 1))

    def test_no_probes_rejected(self, powerlaw_sample):
        with pytest.raises(ValueError):
            hausdorff_gap(powerlaw_sample, 1.0, [])

    def test_dyadic_bound_brownian(self):
        # gap at level 2^6 within a tree built to 2^7, against 4 n^3 / 2^n
        bound = 4 * 6**3 / 2**6
        violations = 0
        for seed in range(100):
            s = sample_icrt(ThetaSpec.brownian(), 300 + seed, StopRule(max_level=128.0))
            rng = keyed_generator(seed, 9)
            probes = []
            while len(probes) < 1000:
                p = sample_loop_point(s, 128.0, rng)
                if p.pos > 64.0:
                    probes.append(p)
            if hausdorff_gap(s, 64.0, probes) > bound:
                violations += 1
        assert violations <= 5


class TestExport:
    def test_distance_matrix_csv(self, hand_sample, tmp_path):
        pts = [(0.8, 0.0), (2.5, 0.0), (1.25, 0.8)]
        path = tmp_path / "dm.csv"
        export_distance_matrix(path, hand_sample, pts)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,p0,p1,p2"
        row = lines[1].split(",")
        assert float(row[2]) == pytest.approx(0.23875)
        assert path.read_bytes() == (
            b"id,p0,p1,p2\n"
            b"p0,0,0.23874999999999996,0.135625\n"
            b"p1,0.23874999999999996,0,0.10312500000000001\n"
            b"p2,0.135625,0.10312500000000001,0\n"
        )
        export_distance_matrix(tmp_path / "dm2.csv", hand_sample, pts)
        assert (tmp_path / "dm2.csv").read_text() == path.read_text()
