import itertools
import math

import numpy as np
import pytest
from scipy import stats

from icrt_lab import (
    FieldRealization,
    FieldSpec,
    GeneralizedField,
    StopRule,
    ThetaSpec,
    gff_distance,
    register_field_spec,
    sample_icrt,
    sample_loop_point,
    uniform_tail,
)
from icrt_lab import fields
from icrt_lab.fields import (
    _BRIDGE_TAG,
    _TREE_TAG,
    FieldError,
    _LazyGaussianPath,
    atom_probe_points,
    export_field_trace,
)
from icrt_lab.plane import locate, path_atom_angles, profiles, sample_loop_points
from icrt_lab.skeleton import POINT_TOL
from icrt_lab.util import keyed_generator


class TestTreeField:
    def test_root_is_zero(self, hand_sample):
        r = FieldRealization(hand_sample, 0)
        assert r.tree_value(0.0) == 0.0

    def test_single_branch_variance(self):
        s = sample_icrt(ThetaSpec.brownian(), 1, StopRule(max_level=2.0))
        n = 10_000
        vals = np.asarray([FieldRealization(s, k).tree_value(0.8) for k in range(n)])
        var = float(np.var(vals, ddof=1))
        se = 0.8 * math.sqrt(2.0 / n)
        assert abs(var - 0.8) <= 4 * se

    def test_increment_variance_is_tree_distance(self, hand_sample):
        s = hand_sample
        target = s.skeleton.tree_distance(0.8, 2.5)
        n = 6000
        diffs = np.empty(n)
        for k in range(n):
            g = FieldRealization(s, k).tree_values([0.8, 2.5])
            diffs[k] = g[0] - g[1]
        var = float(np.var(diffs, ddof=1))
        assert abs(var - target) <= 4 * target * math.sqrt(2.0 / n)

    def test_lazy_refinement_keeps_values(self, hand_sample):
        r = FieldRealization(hand_sample, 3)
        v1 = r.tree_value(1.7)
        r.tree_values([1.2, 1.9, 0.3, 2.8])
        assert r.tree_value(1.7) == v1

    def test_batch_order_invariance(self, hand_sample):
        pts = [2.7, 0.4, 1.6, 1.1, 2.2, 0.9]
        r1 = FieldRealization(hand_sample, 4)
        a = r1.tree_values(pts)
        r2 = FieldRealization(hand_sample, 4)
        b = r2.tree_values(pts[::-1])[::-1]
        assert np.array_equal(a, b)

    def test_negative_seed_rejected(self, hand_sample):
        with pytest.raises(FieldError, match="-1"):
            FieldRealization(hand_sample, -1)

    def test_generalized_negative_seed_rejected(self, hand_sample):
        with pytest.raises(FieldError, match="-1"):
            GeneralizedField(hand_sample, FieldSpec(validated=True), -1)

    def test_out_of_range_query(self, hand_sample):
        with pytest.raises(ValueError):
            FieldRealization(hand_sample, 0).tree_value(9.0)


class TestBridges:
    def test_pinned_ends(self, hand_sample):
        r = FieldRealization(hand_sample, 5)
        assert r.bridge_value(0, 0.0) == 0.0
        assert r.bridge_value(0, 1.0) == 0.0

    def test_midpoint_variance(self, hand_sample):
        n = 10_000
        vals = np.asarray(
            [FieldRealization(hand_sample, k).bridge_value(0, 0.5) for k in range(n)]
        )
        assert abs(float(np.var(vals, ddof=1)) - 0.25) <= 4 * 0.25 * math.sqrt(2 / n)

    def test_increment_variance(self, hand_sample):
        n = 10_000
        diffs = np.empty(n)
        for k in range(n):
            v = FieldRealization(hand_sample, k).bridge_values(1, [0.2, 0.9])
            diffs[k] = v[0] - v[1]
        target = 0.7 * (1 - 0.7)
        assert abs(float(np.var(diffs, ddof=1)) - target) <= 4 * target * math.sqrt(
            2 / n
        )

    def test_angle_range(self, hand_sample):
        with pytest.raises(FieldError):
            FieldRealization(hand_sample, 0).bridge_value(0, 1.5)


def _tree_by_insert(r, positions) -> list:
    """`tree_values` of realization r by `_LazyGaussianPath.insert` alone:
    per branch, the offsets of the queries on it and of the glue points
    off the root on their root paths; each path r lacks is created (by
    branch, so after its parent's), then every path refined by
    `insert_batch`."""
    sk, offsets = r.sample.skeleton, {}
    for x in (x for x in positions if x > POINT_TOL):
        for a, top, c in sk.ascend(x):
            if c < 0 or top > POINT_TOL:
                offsets.setdefault(a, set()).add(top - float(sk.lo[a]))
    for b in sorted(offsets):
        if b not in r._branches:
            g, base = float(sk.glue_pos[b]), 0.0
            if g > POINT_TOL:
                pb = int(sk.parent[b])
                base = r._branches[pb].value(g - float(sk.lo[pb]))
            r._branches[b] = _LazyGaussianPath((r.seed, _TREE_TAG, b), base)
        r._branches[b].insert_batch(offsets[b])
    return [
        r._branches[sk.branch_of(x)].value(x - float(sk.lo[sk.branch_of(x)]))
        if x > POINT_TOL
        else 0.0
        for x in positions
    ]


class TestFreshFill:
    def test_tree_fill_equals_insert_batch(self, powerlaw_sample):
        """Fresh and held paths together, on the fixture and on a theta0 = 0
        sample (every branch glued on an atom, some on one atom), with
        points within POINT_TOL of the root and of the cuts, and at the glue
        points; and a batch on the deepest branch alone, whose ancestors
        hold no query."""
        zero = sample_icrt(
            ThetaSpec.power_law(1.5, 60, theta0=0.0), 6, StopRule(max_level=6.0)
        )
        for s, k in itertools.product((powerlaw_sample, zero), range(2)):
            rng, sk = np.random.default_rng(13), s.skeleton
            marks = [x + d * POINT_TOL for x in sk.lo.tolist() for d in (-0.5, 0, 0.5)]
            marks = [x for x in marks if x <= s.level] + sk.glues.tolist()
            big = (s.level * rng.random(300)).tolist() + marks
            if k:  # the deepest branch alone
                b = int(np.argmax(sk.attach_depth))
                big = (sk.hi[b] - (sk.hi[b] - sk.lo[b]) * rng.random(40)).tolist()
            for held in ([], (s.level * rng.random(5)).tolist()):
                got = FieldRealization(s, 3)
                got.tree_values(held)  # paths that already hold values
                vals = got.tree_values(big)  # fresh paths filled in one pass
                assert any(p._rng is None and p.drawn for p in got._branches.values())
                ref = FieldRealization(s, 3)
                _tree_by_insert(ref, held)
                assert _tree_by_insert(ref, big) == vals.tolist()
                assert got._branches.keys() == ref._branches.keys()
                for b, path in got._branches.items():
                    r = ref._branches[b]
                    assert (path.pos, path.val, path.drawn) == (r.pos, r.val, r.drawn)
                    for x in (0.5 * path.pos[-1], path.pos[-1] + 0.3):
                        assert path.insert(x) == r.insert(x)  # the same stream on

    def test_bridge_fill_equals_insert_batch(self, powerlaw_sample):
        """The bridge fill of a real `ProfileSet`, fresh and with bridges that
        already hold values, against one `insert_batch` per bridge.  The
        points are draws, and points at the atoms the draws pass at angles
        0.0, 1.0, the atom's own and a random one; one atom no draw passes
        is queried at 0.0 and 1.0 only, a bridge with no draw."""
        s, rng = powerlaw_sample, np.random.default_rng(12)
        atoms, draws = s.atoms, sample_loop_points(s, s.level, rng, 100)
        seen = set(profiles(s, locate(s, draws)).at.ravel().tolist())
        spare = min(set(range(1, atoms.xs.size)) - seen)
        marks = [
            (atoms.xl[j], u)
            for j in sorted(seen - {0})
            for u in (0.0, 1.0, float(atoms.us[j]), rng.random())
        ]
        ends = [(atoms.xl[spare], 0.0), (atoms.xl[spare], 1.0)]
        prof = profiles(s, locate(s, np.vstack([draws, marks, ends])))
        ix = atoms.ix[prof.at]
        own = (prof.at > 0) & (prof.ang == atoms.us[prof.at])
        assert own.any() and (prof.at > 0)[~own].any()  # both kinds of entries
        bridges = sorted(set(ix[prof.at > 0].tolist()))
        plan = fields._bridge_plan(atoms, prof.at, prof.ang)
        no_tree = fields._tree_plan(s.skeleton, np.zeros(0), np.zeros(0, np.intp))
        for held in ({}, {i: rng.random(3).tolist() for i in bridges[::4]}):
            r = FieldRealization(s, 31)
            for i, angs in held.items():
                r.bridge_values(i, angs)
            got = np.zeros(prof.at.shape)
            got[prof.at > 0] = r._fill(no_tree, plan)[1][plan.which]
            assert r._bridges[int(atoms.ix[spare])].drawn == 0  # a bridge with no draw
            for i in bridges:
                angs = prof.ang[ix == i].tolist()
                ref = _LazyGaussianPath.bridge((31, _BRIDGE_TAG, i))
                ref.insert_batch(held.get(i, []))
                ref.insert_batch(angs)
                path = r._bridges[i]
                assert (path.pos, path.val) == (ref.pos, ref.val)
                assert path.drawn == ref.drawn
                assert got[ix == i].tolist() == [ref.value(u) for u in angs]
                assert path.insert(0.123) == ref.insert(0.123)  # the same stream on


class TestFennec:
    def test_root_zero(self, hand_sample):
        assert FieldRealization(hand_sample, 6).fennec_value((0.0, 0.0)) == 0.0

    def test_cycle_equals_bridge(self, cycle_sample):
        s = cycle_sample
        x1 = float(s.measure.xs[0])
        r = FieldRealization(s, 7)
        got = r.fennec_value((x1, 0.3))
        assert got == r.bridge_value(0, 0.3)

    def test_decomposition(self, hand_sample):
        s = hand_sample
        r = FieldRealization(s, 8)
        alpha = (2.5, 0.4)
        val = r.fennec_value(alpha)
        tree = math.sqrt(0.55) / math.sqrt(6) * r.tree_value(2.5)
        atoms = sum(
            math.sqrt(s.measure.ws[i]) * r.bridge_value(i, u)
            for i, u in path_atom_angles(s, alpha)
        )
        assert val == pytest.approx(tree + atoms, abs=1e-12)

    def test_variance_identity(self, powerlaw_sample):
        s = powerlaw_sample
        rng = np.random.default_rng(9)
        pairs = [
            (sample_loop_point(s, s.level, rng), sample_loop_point(s, s.level, rng))
            for _ in range(3)
        ]
        n = 4000
        diffs = np.empty((n, 3))
        pts = [p for ab in pairs for p in ab]
        for k in range(n):
            v = FieldRealization(s, 1000 + k).fennec_values(pts)
            diffs[k] = v[0::2] - v[1::2]
        for j, (a, b) in enumerate(pairs):
            target = gff_distance(s, a, b)
            var = float(np.var(diffs[:, j], ddof=1))
            assert abs(var - target) <= 4 * target * math.sqrt(2 / n)

    def test_gaussianity(self, powerlaw_sample):
        s = powerlaw_sample
        rng = np.random.default_rng(10)
        a = sample_loop_point(s, s.level, rng)
        b = sample_loop_point(s, s.level, rng)
        n = 5000
        diffs = np.empty(n)
        for k in range(n):
            v = FieldRealization(s, 9000 + k).fennec_values([a, b])
            diffs[k] = v[0] - v[1]
        assert stats.shapiro(diffs).pvalue > 0.01

    def test_reproducibility(self, powerlaw_sample):
        s = powerlaw_sample
        rng = np.random.default_rng(11)
        pts = [sample_loop_point(s, s.level, rng) for _ in range(8)]
        v1 = FieldRealization(s, 12).fennec_values(pts)
        v2 = FieldRealization(s, 12).fennec_values(list(reversed(pts)))[::-1]
        assert np.array_equal(v1, v2)

    def test_trace_export(self, hand_sample, tmp_path):
        r = FieldRealization(hand_sample, 13)
        path = tmp_path / "trace.csv"
        export_field_trace(path, hand_sample, r, [(0.0, 0.0), (0.8, 0.2)])
        lines = path.read_text().splitlines()
        assert lines[0] == "id,position,angle,gfield,fennec"
        assert len(lines) == 3


class TestGeneralized:
    def test_bridge_spec_validates(self):
        spec = register_field_spec(
            FieldSpec(kind="bridge", kappa=4.0), keyed_generator(1, 1), n_audit=2000
        )
        assert spec.validated

    def test_zero_field_validates_and_sums_to_zero(self, powerlaw_sample):
        spec = register_field_spec(
            FieldSpec(kind="custom", kappa=4.0, factory=lambda rng: np.zeros_like),
            keyed_generator(2, 2),
            n_audit=500,
        )
        gf = GeneralizedField(powerlaw_sample, spec, 3)
        rng = np.random.default_rng(0)
        a = sample_loop_point(powerlaw_sample, powerlaw_sample.level, rng)
        assert gf.partial_sum(a, 1, 60) == 0.0

    def test_uncentered_rejected(self):
        def factory(rng):
            return lambda u: np.where(np.asarray(u) > 0, 1.0, 0.0)

        with pytest.raises(FieldError, match="centered"):
            register_field_spec(
                FieldSpec(kind="custom", kappa=4.0, factory=factory),
                keyed_generator(3, 3),
                n_audit=500,
            )

    def test_heavy_tail_rejected(self):
        def factory(rng):
            c = rng.standard_normal() * 3.0
            return lambda u: c * np.asarray(u)

        with pytest.raises(FieldError, match="sup-moment"):
            register_field_spec(
                FieldSpec(kind="custom", kappa=4.0, factory=factory),
                keyed_generator(4, 4),
                n_audit=2000,
            )

    def test_unregistered_rejected(self, powerlaw_sample):
        with pytest.raises(FieldError, match="register"):
            GeneralizedField(powerlaw_sample, FieldSpec(), 0)

    def test_partial_sum_matches_terms(self, powerlaw_sample):
        s = powerlaw_sample
        spec = register_field_spec(
            FieldSpec(kind="bridge", kappa=4.0), keyed_generator(5, 5), n_audit=500
        )
        gf = GeneralizedField(s, spec, 6)
        rng = np.random.default_rng(1)
        a = sample_loop_point(s, s.level, rng)
        manual = sum(
            math.sqrt(s.measure.ws[i]) * gf.d_value(i, u)
            for i, u in path_atom_angles(s, a)
            if 1 <= i + 1 <= 60
        )
        assert gf.partial_sum(a, 1, 60) == pytest.approx(manual, abs=1e-12)
        assert gf.partial_sum(a, 100, 200) == 0.0

    def test_partial_sum_variance_matches_bridge_part(self, powerlaw_sample):
        s = powerlaw_sample
        spec = register_field_spec(
            FieldSpec(kind="bridge", kappa=4.0), keyed_generator(6, 6), n_audit=500
        )
        rng = np.random.default_rng(2)
        a = sample_loop_point(s, s.level, rng)
        target = sum(
            s.measure.ws[i] * u * (1 - u) for i, u in path_atom_angles(s, a)
        )
        n = 4000
        vals = np.asarray(
            [
                GeneralizedField(s, spec, 100 + k).partial_sum(a, 1, 60)
                for k in range(n)
            ]
        )
        var = float(np.var(vals, ddof=1))
        assert abs(var - target) <= 4 * max(target, 1e-6) * math.sqrt(2 / n)

    def test_uniform_tail(self, powerlaw_sample):
        s = powerlaw_sample
        spec = register_field_spec(
            FieldSpec(kind="bridge", kappa=4.0), keyed_generator(7, 7), n_audit=500
        )
        gf = GeneralizedField(s, spec, 8)
        probes = atom_probe_points(s, 8)
        tails = [uniform_tail(gf, n, probes) for n in (1, 10, 20, 40, 1000)]
        assert all(tails[i] >= tails[i + 1] - 1e-12 for i in range(len(tails) - 1))
        assert tails[-1] == 0.0

    def test_tail_median_decreases(self):
        spec_t = ThetaSpec.power_law(1.5, 60)
        fspec = register_field_spec(
            FieldSpec(kind="bridge", kappa=4.0), keyed_generator(8, 8), n_audit=500
        )
        levels = (1, 8, 30)
        tails = {n: [] for n in levels}
        for seed in range(60):
            s = sample_icrt(spec_t, 500 + seed, StopRule(max_branches=6))
            gf = GeneralizedField(s, fspec, seed)
            probes = atom_probe_points(s, 4)
            if not probes:
                continue
            for n in levels:
                tails[n].append(uniform_tail(gf, n, probes))
        med = [float(np.median(tails[n])) for n in levels]
        assert med[0] >= med[1] >= med[2]
