import numpy as np
import pytest

from icrt_lab import ThetaSpec, loop_distance
from icrt_lab.sampler import PowerLawFamily
from icrt_lab import analysis as an
from icrt_lab.plane import PlaneError
from icrt_lab.util import keyed_generator


class TestTheoreticalDims:
    def test_brownian_exact(self):
        rep = an.theoretical_dims(ThetaSpec.brownian(), np.geomspace(1e2, 1e6, 33))
        assert rep.lower == pytest.approx(2.0, abs=1e-9)
        assert rep.upper == pytest.approx(2.0, abs=1e-9)

    def test_cycle_exact(self):
        rep = an.theoretical_dims(ThetaSpec.single_atom(), np.geomspace(1e2, 1e6, 33))
        assert rep.lower == pytest.approx(1.0, abs=1e-9)
        assert rep.upper == pytest.approx(1.0, abs=1e-9)

    def test_power_law_family(self):
        rep = an.theoretical_dims(
            PowerLawFamily(1.5), np.geomspace(10**1.5, 10**5.5, 33)
        )
        assert abs(rep.lower - 1.5) <= 0.05
        assert abs(rep.upper - 1.5) <= 0.05

    def test_ordering_invariant(self):
        rep = an.theoretical_dims(
            ThetaSpec.power_law(1.5, 100, theta0=0.2), np.geomspace(1, 1e4, 25)
        )
        assert 1.0 - 1e-9 <= rep.lower <= rep.upper <= 2.0 + 1e-9

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            an.theoretical_dims(ThetaSpec.brownian(), np.geomspace(1, 10, 33))
        with pytest.raises(ValueError):
            an.theoretical_dims(ThetaSpec.brownian(), [1, 2, 3])


class TestLoopCloud:
    def test_distance_agrees_with_walk(self, powerlaw_sample):
        s = powerlaw_sample
        cloud = an.make_loop_cloud(s, s.level, 150, keyed_generator(1, 1))
        rng = np.random.default_rng(2)
        for a in rng.integers(0, 150, 8):
            fast = cloud.dist_to_all(int(a))
            for b in rng.integers(0, 150, 20):
                want = loop_distance(s, cloud.points[int(a)], cloud.points[int(b)])
                assert fast[int(b)] == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("angle", [1.5, -0.5, float("nan")])
    def test_bad_point_raises(self, hand_sample, angle):
        # the check and the message of locate, naming the point's angle
        s = hand_sample
        with pytest.raises(PlaneError, match=f"angle {angle} outside"):
            an.LoopCloud(s, s.level, [(1.0, angle), (2.0, 0.2)])


class TestBoxcount:
    def test_cycle_dimension(self, cycle_sample):
        cloud = an.make_loop_cloud(
            cycle_sample, cycle_sample.level, 2000, keyed_generator(3, 3)
        )
        radii = an.farthest_first_radii(cloud, 0.0, max_net=2)
        diam = 2 * radii[0]
        bc = an.boxcount_dimension(cloud, np.geomspace(diam / 24, diam / 4, 8))
        assert abs(bc["estimate"] - 1.0) <= 0.15

    def test_single_point(self, cycle_sample):
        x1 = float(cycle_sample.measure.xs[0])
        cloud = an.LoopCloud(cycle_sample, cycle_sample.level, [(x1, 0.3)] * 50)
        bc = an.boxcount_dimension(cloud, [0.1, 0.2])
        assert bc["estimate"] == 0.0

    def test_eps_outside_diameter(self, cycle_sample):
        cloud = an.make_loop_cloud(
            cycle_sample, cycle_sample.level, 200, keyed_generator(4, 4)
        )
        with pytest.raises(ValueError):
            an.boxcount_dimension(cloud, [10.0, 20.0])


class TestLocalMass:
    def test_cycle_exponents_near_one(self, cycle_sample):
        s = cycle_sample
        cloud = an.make_loop_cloud(s, s.level, 3000, keyed_generator(5, 5))
        centers = an.make_loop_cloud(s, s.level, 10, keyed_generator(6, 6))
        out = an.local_mass_exponents(
            s, s.level, centers, np.geomspace(0.02, 0.2, 6), cloud
        )
        assert len(out["exponents"]) >= 8
        assert abs(float(np.mean(out["exponents"])) - 1.0) <= 0.25
        # the exponents bit for bit
        assert [x.hex() for x in out["exponents"]] == [
            "0x1.022eeb5303b66p+0", "0x1.0486218251f06p+0", "0x1.eeac8b057dfa0p-1",
            "0x1.f25c2fe719858p-1", "0x1.0ac1f0bef155fp+0", "0x1.0330cf317f1a5p+0",
            "0x1.f2cb779405e75p-1", "0x1.068d7c9f18b26p+0", "0x1.0706ca86077e8p+0",
            "0x1.f8851d3189fb4p-1",
        ]
        assert out["flagged"] == 0


class TestDistributionalTests:
    SPEC = ThetaSpec.power_law(1.5, 50, theta0=0.4)

    def test_reroot_null_and_control(self):
        rep = an.reroot_test(self.SPEC, 400, 10)
        assert rep.passed and rep.p_value > 0.01
        neg = an.reroot_test(self.SPEC, 400, 10, corrupt="glue_root")
        assert neg.p_value < 0.01

    def test_reroot_reproducible(self):
        a = an.reroot_test(self.SPEC, 150, 11).to_dict()
        b = an.reroot_test(self.SPEC, 150, 11).to_dict()
        assert a == b

    def test_permutation_null_and_control(self):
        rep = an.permutation_invariance_test(self.SPEC, 400, 12)
        assert rep.passed and rep.p_value > 0.01
        neg = an.permutation_invariance_test(self.SPEC, 400, 12, corrupt="glue_biased")
        assert neg.p_value < 0.01

    def test_polya_urn(self):
        rep = an.polya_urn_test(self.SPEC, 250, 13)
        assert rep.passed
        assert rep.details["violations"] == 0

    def test_uniformity_null_and_control(self):
        rep = an.uniformity_test(self.SPEC, 500, 14)
        assert rep.passed and rep.p_value > 0.01
        assert rep.config == {
            "n_seeds": 500, "seed": 14, "branches": 8, "corrupt": None
        }
        neg = an.uniformity_test(self.SPEC, 500, 14, corrupt="angles_const")
        assert neg.p_value < 0.01


class TestTails:
    def test_brownian_exponent(self):
        lo, hi, info = an.tail_exponents(
            ThetaSpec.brownian(), 4000, 15, [2.0**-k for k in range(2, 10)]
        )
        assert abs(lo - 2.0) <= 0.4
        assert abs(hi - 2.0) <= 0.4
        tails = np.asarray(info["tail"])
        assert np.all(np.diff(tails) >= 0)

    def test_cycle_exponent(self):
        lo, hi, _ = an.tail_exponents(
            ThetaSpec.single_atom(), 4000, 16, [2.0**-k for k in range(2, 10)]
        )
        assert abs(lo - 1.0) <= 0.2
        assert abs(hi - 1.0) <= 0.2


class TestConcentration:
    def test_constant_formula(self):
        c4 = 2 ** (4 + 1) * (2 * 4) ** 2
        assert an.concentration_constant(4.0) == 2 * 3**4 * c4

    def test_variance_proxy_hand_value(self):
        rep = an.concentration_check(
            4.0, an.VariableSpec("rademacher"), [100.0], 1000, 17
        )
        assert rep.details["V"] == pytest.approx(64.0)

    def test_bounds_hold(self):
        t_grid = np.geomspace(4, 2000, 20)
        for name in ("rademacher", "uniform", "exponential"):
            rep = an.concentration_check(4.0, an.VariableSpec(name), t_grid, 20_000, 18)
            assert rep.passed

    def test_far_tail_empirically_zero(self):
        rep = an.concentration_check(
            4.0, an.VariableSpec("uniform"), [10_000.0], 5000, 19
        )
        assert rep.details["empirical"][0] == 0.0

    def test_uncentered_rejected(self):
        with pytest.raises(ValueError):
            an.concentration_check(
                4.0, an.VariableSpec("rademacher", mean=0.5), [10.0], 100, 20
            )
        with pytest.raises(ValueError):
            an.concentration_check(3.0, an.VariableSpec("rademacher"), [10.0], 100, 21)
