import math

import numpy as np
import pytest
from scipy import stats

from icrt_lab import (
    IcrtSample,
    MeasureState,
    SamplerError,
    StopRule,
    ThetaSpec,
    expected_mass_prefix,
    sample_atoms,
    sample_cuts,
    sample_glue,
    sample_angles,
    sample_icrt,
)
from icrt_lab.sampler import PowerLawFamily
from icrt_lab.util import substream


class TestThetaSpec:
    def test_unit_square_sum_enforced(self):
        with pytest.raises(SamplerError):
            ThetaSpec(2.0, ())
        with pytest.raises(SamplerError):
            ThetaSpec(0.5, (0.5, 0.5))

    def test_nonincreasing_enforced(self):
        with pytest.raises(SamplerError):
            ThetaSpec(0.0, (0.3, 0.4, math.sqrt(1 - 0.25)))

    def test_non_finite_rejected(self):
        with pytest.raises(SamplerError, match="theta0"):
            ThetaSpec(math.nan, ())
        with pytest.raises(SamplerError, match="theta0"):
            ThetaSpec(math.inf, ())
        with pytest.raises(SamplerError, match="weights"):
            ThetaSpec(0.0, (math.nan,))
        with pytest.raises(SamplerError, match="weights"):
            ThetaSpec(0.0, (1.0, math.nan))

    def test_power_law(self):
        spec = ThetaSpec.power_law(1.5, 200)
        w = np.asarray(spec.weights)
        assert w.size == 200
        assert abs(float(np.sum(w**2)) - 1.0) < 1e-9
        assert np.all(np.diff(w) <= 0)
        spec2 = ThetaSpec.power_law(1.5, 50, theta0=0.4)
        assert abs(0.16 + float(np.sum(np.asarray(spec2.weights) ** 2)) - 1) < 1e-9


class TestAtoms:
    def test_inversion_formula(self):
        rng = substream(3, "atoms")
        u = substream(3, "atoms").random(1)[0]
        m = sample_atoms(ThetaSpec.single_atom(), rng)
        assert m.xs[0] == pytest.approx(-math.log(u))

    def test_empty_for_no_atoms(self):
        m = sample_atoms(ThetaSpec.brownian(), substream(0, "atoms"))
        assert m.xs.size == 0

    def test_mean_matches_rate(self):
        n = 10_000
        vals = np.asarray(
            [
                sample_atoms(ThetaSpec.single_atom(), substream(k, "atoms")).xs[0]
                for k in range(n)
            ]
        )
        se = float(np.std(vals, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(vals)) - 1.0) <= 3 * se


class TestMass:
    def test_prefix_examples(self, hand_sample):
        m = hand_sample.measure
        assert m.mass_prefix(3.0) == pytest.approx(2.55, abs=1e-12)
        assert m.mass_prefix(0.0) == 0.0
        assert MeasureState(1.0, [], []).mass_prefix(5.0) == 5.0
        with pytest.raises(SamplerError):
            m.mass_prefix(-1.0)

    def test_expected_mass_closed_forms(self):
        ls = np.linspace(0.0, 6.0, 25)
        assert np.allclose(expected_mass_prefix(ThetaSpec.brownian(), ls), ls)
        assert np.allclose(
            expected_mass_prefix(ThetaSpec.single_atom(), ls), 1 - np.exp(-ls)
        )

    def test_expected_mass_matches_monte_carlo(self):
        spec = ThetaSpec.power_law(1.5, 20, theta0=0.3)
        n = 10_000
        vals = np.asarray(
            [
                sample_atoms(spec, substream(k, "atoms")).mass_prefix(2.0)
                for k in range(n)
            ]
        )
        se = float(np.std(vals, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(vals)) - expected_mass_prefix(spec, 2.0)) <= 3 * se

    def test_expected_mass_concave(self):
        spec = ThetaSpec.power_law(1.5, 50, theta0=0.2)
        ls = np.linspace(0.1, 20.0, 200)
        e = expected_mass_prefix(spec, ls)
        second = np.diff(e, 2)
        assert np.all(second <= 1e-9)

    def test_power_law_family_matches_finite_head(self):
        fam = PowerLawFamily(1.5, head=100_000)
        spec = ThetaSpec.power_law(1.5, 3_000_000)
        for l in (1.0, 10.0):
            lo = float(expected_mass_prefix(spec, l))
            hi = float(fam.expected_mass(l))
            assert hi >= lo - 1e-9
            assert hi - lo < 0.05


class TestCuts:
    def test_first_cut_law_brownian(self):
        n = 5000
        vals = np.empty(n)
        for k in range(n):
            m = sample_atoms(ThetaSpec.brownian(), substream(k, "atoms"))
            vals[k] = m.next_cut(0.0, substream(k, "cuts").exponential())
        p = stats.kstest(vals**2 / 2.0, "expon").pvalue
        assert p > 0.01

    def test_monotone(self):
        m = sample_atoms(ThetaSpec.power_law(1.5, 30), substream(1, "atoms"))
        cuts = sample_cuts(m, substream(1, "cuts"), StopRule(max_branches=40))
        assert np.all(np.diff(cuts) > 0)

    def test_zero_measure_errors(self):
        m = MeasureState(0.0, [], [])
        with pytest.raises(SamplerError):
            m.next_cut(0.0, 1.0)
        with pytest.raises(SamplerError):
            m.draw_position(1.0, substream(0, "glues"))

    def test_safety_cap_failure_is_explicit(self, monkeypatch):
        from icrt_lab import sampler as sampler_mod

        monkeypatch.setattr(sampler_mod, "SAFETY_CAP", 10)
        m = sample_atoms(ThetaSpec.brownian(), substream(4, "atoms"))
        with pytest.raises(SamplerError, match="safety cap"):
            sample_cuts(m, substream(4, "cuts"), StopRule(max_level=1e6))

    def test_count_matches_cumulative_rate(self):
        # mean cut count over 100 seeds against Lambda(l), 4 SE band
        l = 4.0
        lam = 0.5 * l * l
        counts = []
        for k in range(100):
            m = sample_atoms(ThetaSpec.brownian(), substream(k, "atoms"))
            counts.append(
                sample_cuts(m, substream(k, "cuts"), StopRule(max_level=l)).size
            )
        assert abs(float(np.mean(counts)) - lam) <= 4 * math.sqrt(lam / 100)

    def test_count_bounded_by_mass_times_level(self):
        l = 8.0
        for k in range(50):
            m = sample_atoms(ThetaSpec.brownian(), substream(k, "atoms"))
            n = sample_cuts(m, substream(k, "cuts"), StopRule(max_level=l)).size
            assert n <= 2 * m.mass_prefix(l) * l


class TestGlue:
    def test_uniform_when_no_atoms(self):
        vals = []
        for k in range(3000):
            m = MeasureState(1.0, [], [])
            z = sample_glue(m, [2.0], substream(k, "glues"))[0]
            vals.append(z / 2.0)
        assert stats.kstest(vals, "uniform").pvalue > 0.01

    def test_atom_always_selected_when_only_mass(self):
        m = MeasureState(0.0, [0.7], [1.0])
        z = sample_glue(m, [2.0, 3.0, 4.0], substream(5, "glues"))
        assert np.all(z == 0.7)

    def test_atom_hit_frequency(self):
        # single atom of weight 0.6 under density 0.64 on [0, 2]
        m = MeasureState(0.64, [0.5], [0.6])
        y = 2.0
        p_atom = 0.6 / m.mass_prefix(y)
        hits = 0
        n = 4000
        for k in range(n):
            z = sample_glue(m, [y], substream(k, "glues"))[0]
            hits += z == 0.5
        se = math.sqrt(p_atom * (1 - p_atom) / n)
        assert abs(hits / n - p_atom) <= 3 * se


class TestAngles:
    def test_range_and_determinism(self):
        m = sample_atoms(ThetaSpec.power_law(1.5, 25), substream(2, "atoms"))
        a1 = sample_angles(m, [1.0], [0.5], substream(2, "angles"))
        a2 = sample_angles(m, [1.0], [0.5], substream(2, "angles"))
        assert np.all((a1.atom_angles >= 0) & (a1.atom_angles <= 1))
        assert np.array_equal(a1.atom_angles, a2.atom_angles)
        assert np.array_equal(a1.glue_angles, a2.glue_angles)

    def test_pooled_uniformity(self):
        pool = []
        for k in range(200):
            m = sample_atoms(ThetaSpec.power_law(1.5, 10), substream(k, "atoms"))
            a = sample_angles(m, [1.0], [0.4], substream(k, "angles"))
            pool.extend(a.atom_angles.tolist())
            pool.extend(a.glue_angles.tolist())
        assert stats.kstest(pool, "uniform").pvalue > 0.01


class TestPipeline:
    def test_invariants_audited(self):
        for seed in range(5):
            for spec in (ThetaSpec.brownian(), ThetaSpec.power_law(1.5, 30)):
                s = sample_icrt(spec, seed, StopRule(max_level=4.0))
                sk = s.skeleton
                for b in range(1, sk.n_branches):
                    assert sk.glue_pos[b] <= sk.lo[b] + 1e-12
                assert s.level == 4.0
                for x in s.measure.xs:
                    if x <= s.level:
                        assert s.atom_at(float(x)) is not None

    def test_brownian_has_no_atoms(self):
        s = sample_icrt(ThetaSpec.brownian(), 7, StopRule(max_level=8.0))
        assert s.measure.xs.size == 0

    def test_branch_budget_stop(self):
        s = sample_icrt(ThetaSpec.brownian(), 7, StopRule(max_branches=5))
        assert s.skeleton.n_branches == 5
        assert s.level == pytest.approx(float(s.skeleton.cuts[-1]))

    def test_stop_rule_validation(self):
        with pytest.raises(SamplerError):
            StopRule()
        with pytest.raises(SamplerError):
            StopRule(max_level=1.0, max_branches=2)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(SamplerError, match="max_level"):
                StopRule(max_level=bad)

    def test_seed_reproducibility_bitwise(self):
        spec = ThetaSpec.power_law(1.5, 40, theta0=0.3)
        a = sample_icrt(spec, 123, StopRule(max_level=5.0))
        b = sample_icrt(spec, 123, StopRule(max_level=5.0))
        assert a.to_json() == b.to_json()
        c = sample_icrt(spec, 124, StopRule(max_level=5.0))
        assert a.to_json() != c.to_json()

    def test_json_round_trip(self):
        spec = ThetaSpec.power_law(1.5, 15, theta0=0.5)
        s = sample_icrt(spec, 11, StopRule(max_level=4.0))
        clone = IcrtSample.from_json(s.to_json())
        assert clone.to_json() == s.to_json()
        s2 = sample_icrt(spec, 11, StopRule(max_branches=6))
        clone2 = IcrtSample.from_json(s2.to_json())
        assert clone2.to_json() == s2.to_json()
