import math

import numpy as np
import pytest

import icrt_lab.contour
from icrt_lab import (
    AngleTable,
    MeasureState,
    Order,
    StopRule,
    ThetaSpec,
    assemble_sample,
    angle_toward,
    build_contour_table,
    compare,
    front_mass,
    left_fraction,
    left_mass,
    lukasiewicz_value,
    right_mass,
    sample_icrt,
    sample_loop_point,
)
from icrt_lab.analysis import LoopCloud
from icrt_lab.plane import (
    _PLANS,
    LoopPoint,
    PathAtoms,
    PlaneError,
    _check_loop_point,
    _directional_masses,
    _ranges,
    _side_terms,
    compare_canonical,
    compare_many,
    left_fractions,
    locate,
    lukasiewicz_values,
    mass_cache,
    monte_carlo_left_mass,
    path_atom_angles,
    precedes,
    profiles,
    sample_loop_points,
)
from icrt_lab.skeleton import POINT_TOL
from icrt_lab.util import keyed_generator


def _degenerate_samples():
    """Hand-built samples on degenerate skeletons: a glue at 0, a glue at a
    cut, two glues on an atom, two glues off the atoms, and theta0 = 0."""

    def build(theta0_sq, ws, glues):
        spec = ThetaSpec(math.sqrt(theta0_sq), tuple(ws))
        measure = MeasureState(theta0_sq, [0.25, 1.25], ws)
        angles = AngleTable([0.2, 0.8], [0.7, 0.4])
        return assemble_sample(spec, measure, [1.0, 2.0], glues, angles, 3.0)

    return [
        build(0.55, [0.6, 0.3], [0.0, 1.5]),
        build(0.55, [0.6, 0.3], [0.5, 1.0]),
        build(0.55, [0.6, 0.3], [0.25, 0.25]),
        build(0.55, [0.6, 0.3], [0.5, 0.5]),
        build(0.0, [0.8, 0.6], [0.5, 1.5]),
    ]


def _corner_points(sample):
    """Loop points at the root, the cuts, the glue points and the atoms,
    on an angle grid."""
    sk = sample.skeleton
    xs = {0.0, *sk.cuts.tolist(), *sk.glues.tolist(), *sample.atom_index_at}
    return [(x, u) for x in sorted(xs) for u in np.linspace(0.0, 1.0, 9).tolist()]


def _tie_samples():
    """The `hand_sample` layout with tied angles: both glues at 0.5 at angle
    0.7, and glues at 0.5 and 1.5 with a glue angle of 0.5 off the atoms."""

    def build(glues, glue_angles):
        spec = ThetaSpec(math.sqrt(0.55), (0.6, 0.3))
        measure = MeasureState(0.55, [0.25, 1.25], [0.6, 0.3])
        angles = AngleTable([0.2, 0.8], glue_angles)
        return assemble_sample(spec, measure, [1.0, 2.0], glues, angles, 3.0)

    return [build([0.5, 0.5], [0.7, 0.7]), build([0.5, 1.5], [0.5, 0.4])]


class TestBatchedDraws:
    def test_sample_loop_points_equal_scalar_draws(
        self, hand_sample, powerlaw_sample, brownian_sample, cycle_sample
    ):
        for s in (hand_sample, powerlaw_sample, brownian_sample, cycle_sample):
            for l in (s.level, 0.5 * s.level):
                r1, r2 = keyed_generator(4, 1), keyed_generator(4, 1)
                got = sample_loop_points(s, l, r1, 500)
                want = [sample_loop_point(s, l, r2) for _ in range(500)]
                assert got.shape == (500, 2)
                assert got.tolist() == [list(p) for p in want]
                assert r1.bit_generator.state == r2.bit_generator.state
                assert sample_loop_points(s, l, r1, 0).shape == (0, 2)

    def test_locate_reads_lists_and_arrays(self, powerlaw_sample):
        s, rng = powerlaw_sample, keyed_generator(4, 2)
        pts = np.vstack([_corner_points(s), sample_loop_points(s, s.level, rng, 100)])
        want = locate(s, pts)
        for got in (locate(s, pts.tolist()), locate(s, [tuple(p) for p in pts])):
            for a, b in zip(got, want):
                assert a.tolist() == b.tolist()
        # the result holds copies: writing to the batch leaves it alone
        before = [v.copy() for v in want]
        pts[:] = 0.5
        assert all(np.array_equal(a, b) for a, b in zip(want, before))
        assert locate(s, []).pos.shape == (0,)

    def test_locate_rejects_malformed_batches(self, powerlaw_sample):
        s = powerlaw_sample
        rows_of_three = ([(0.5, 0.3, 0.1)] * 3, np.full((4, 3), 0.5))
        for bad in (*rows_of_three, (0.5, 0.3), np.full((2, 2, 2), 0.5)):
            with pytest.raises(PlaneError, match="shape"):
                locate(s, bad)

    def test_compare_many_equals_compare_canonical(self, hand_sample, brownian_sample):
        zero = sample_icrt(ThetaSpec.power_law(1.5, 50), 0, StopRule(max_branches=40))
        seen = set()
        for s in (hand_sample, *_tie_samples(), brownian_sample, zero):
            rng = np.random.default_rng(3)
            pts = np.vstack([_corner_points(s), sample_loop_points(s, s.level, rng, 200)])
            loc = locate(s, pts)
            canon = list(map(LoopPoint, loc.pos.tolist(), loc.ang.tolist()))
            n = len(canon)
            i = np.r_[rng.integers(n, size=3000), np.arange(n)]
            k = np.r_[rng.integers(n, size=3000), np.arange(n)]
            want = [
                compare_canonical(s, canon[a], canon[b]).value
                for a, b in zip(i.tolist(), k.tolist())
            ]
            assert compare_many(s, loc, i, k).tolist() == want
            seen.update(want)
        assert seen == {o.value for o in Order}


class TestAngles:
    def test_examples(self, hand_sample):
        s = hand_sample
        assert angle_toward(s, 0.25, (0.8, 0.0)) == pytest.approx(0.2)
        assert angle_toward(s, 0.5, (1.5, 0.0)) == pytest.approx(0.7)
        assert angle_toward(s, 0.8, (0.8, 0.3)) == pytest.approx(0.3)

    def test_root_side_is_zero(self, hand_sample):
        assert angle_toward(hand_sample, 1.25, (0.8, 0.0)) == 0.0
        assert angle_toward(hand_sample, 2.5, (0.1, 0.9)) == 0.0

    def test_generic_continuation_is_half(self, hand_sample):
        assert angle_toward(hand_sample, 0.9, (1.0, 0.0)) == 0.5

    def test_out_of_range(self, hand_sample):
        with pytest.raises(ValueError):
            angle_toward(hand_sample, 5.0, (0.5, 0.5))


class TestCompare:
    def test_examples(self, hand_sample):
        s = hand_sample
        assert compare(s, (0.25, 0.1), (0.8, 0.0)) is Order.LEFT
        assert compare(s, (0.5, 0.7), (1.5, 0.0)) is Order.FRONT
        assert compare(s, (0.8, 0.1), (0.8, 0.1)) is Order.EQUAL

    def test_root_corners_are_extremes(self, hand_sample):
        s = hand_sample
        rng = np.random.default_rng(0)
        for _ in range(50):
            b = sample_loop_point(s, 3.0, rng)
            assert compare(s, (0.0, 0.0), b) in (Order.LEFT, Order.FRONT, Order.EQUAL)
            assert compare(s, (0.0, 1.0), b) in (Order.RIGHT, Order.EQUAL)

    def test_serialization_letters(self):
        assert [o.value for o in Order] == ["L", "F", "B", "R", "E"]

    def _triples(self, sample, n, seed):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            yield (
                sample_loop_point(sample, sample.level, rng),
                sample_loop_point(sample, sample.level, rng),
                sample_loop_point(sample, sample.level, rng),
            )

    def test_trichotomy_antisymmetry(self, powerlaw_sample):
        s = powerlaw_sample
        mirror = {
            Order.LEFT: Order.RIGHT,
            Order.RIGHT: Order.LEFT,
            Order.FRONT: Order.BEHIND,
            Order.BEHIND: Order.FRONT,
            Order.EQUAL: Order.EQUAL,
        }
        for a, b, _ in self._triples(s, 10_000, 1):
            o = compare(s, a, b)
            assert mirror[o] is compare(s, b, a)

    def test_transitivity_implications(self, powerlaw_sample):
        s = powerlaw_sample
        for a, b, c in self._triples(s, 10_000, 2):
            ab, bc = compare(s, a, b), compare(s, b, c)
            ac = compare(s, a, c)
            if ab is Order.LEFT and bc is Order.LEFT:
                assert ac is Order.LEFT
            if ab is Order.LEFT and bc is Order.FRONT:
                assert ac is Order.LEFT
            if ab is Order.FRONT and bc is Order.LEFT:
                assert ac in (Order.LEFT, Order.FRONT)
            if ab is Order.FRONT and bc is Order.FRONT:
                assert ac is Order.FRONT

    def test_front_raises_order(self, powerlaw_sample):
        s = powerlaw_sample
        for b, c, a in self._triples(s, 10_000, 3):
            if compare(s, b, c) is Order.LEFT:
                if compare(s, c, a) is Order.FRONT:
                    assert compare(s, b, a) is Order.LEFT
                if compare(s, b, a) is Order.FRONT:
                    assert compare(s, a, c) is Order.LEFT


class TestMasses:
    def test_left_examples(self, hand_sample):
        s = hand_sample
        assert left_mass(s, 3.0, (0.8, 0.0)) == pytest.approx(0.34, abs=1e-12)
        assert left_mass(s, 3.0, (0.0, 0.0)) == 0.0
        assert left_mass(s, 3.0, (0.0, 1.0)) == pytest.approx(2.55, abs=1e-12)

    def test_right_of_root_corner_is_total(self, hand_sample):
        s = hand_sample
        assert right_mass(s, 3.0, (0.0, 0.0)) == pytest.approx(2.55, abs=1e-12)

    def test_mass_partition(self, hand_sample, powerlaw_sample):
        for s in (hand_sample, powerlaw_sample, *_degenerate_samples()):
            rng = np.random.default_rng(4)
            total = s.mass_prefix(s.level)
            pts = [sample_loop_point(s, s.level, rng) for _ in range(1000)]
            for a in pts + _corner_points(s):
                lm = left_mass(s, s.level, a)
                rm = right_mass(s, s.level, a)
                fm = front_mass(s, s.level, a)
                assert lm + rm + fm == pytest.approx(total, abs=1e-9)

    def test_partition_near_atom_glues(self):
        # points within 1e-13 of a glue point that sits on an atom take the
        # atom's coordinate
        spec = ThetaSpec.power_law(1.5, 10, theta0=0.3)
        for seed in range(3):
            s = sample_icrt(spec, seed, StopRule(max_level=6.0))
            total = s.mass_prefix(s.level)
            glues = s.skeleton.glues.tolist()
            on_atoms = [g for g in glues if s.atom_at(g) is not None]
            assert on_atoms
            for g in on_atoms:
                for x in (g - 1e-13, g + 1e-13):
                    for u in np.linspace(0.0, 1.0, 9).tolist():
                        parts = sum(
                            f(s, s.level, (x, u))
                            for f in (left_mass, right_mass, front_mass)
                        )
                        assert parts == pytest.approx(total, abs=1e-9)
                    assert s.snap(x) == g

    def test_front_zero_for_generic_points(self, powerlaw_sample):
        s = powerlaw_sample
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = sample_loop_point(s, s.level, rng)
            assert front_mass(s, s.level, a) == 0.0

    def test_front_at_constructed_match(self, hand_sample):
        # angle exactly equal to the glue angle at the junction
        s = hand_sample
        assert front_mass(s, 3.0, (0.5, 0.7)) == pytest.approx(1.4, abs=1e-12)
        assert front_mass(s, 3.0, (0.5, 0.5)) == pytest.approx(0.275, abs=1e-12)

    def test_against_monte_carlo_oracle(self, hand_sample, powerlaw_sample):
        rng = np.random.default_rng(6)
        for s in (hand_sample, powerlaw_sample):
            for _ in range(6):
                a = sample_loop_point(s, s.level, rng)
                exact = left_mass(s, s.level, a)
                mc, se = monte_carlo_left_mass(s, s.level, a, rng, 20_000)
                assert abs(exact - mc) <= 5 * max(se, 1e-12)

    def test_monte_carlo_equals_scalar_draws(self, hand_sample, powerlaw_sample):
        for s in (hand_sample, powerlaw_sample, *_tie_samples()):
            a = sample_loop_point(s, s.level, np.random.default_rng(8))
            rng, n = keyed_generator(5, 5), 3000
            hits = sum(
                compare(s, sample_loop_point(s, s.level, rng), a) is Order.LEFT
                for _ in range(n)
            )
            p, tot = hits / n, s.mass_prefix(s.level)
            want = (tot * p, tot * np.sqrt(p * (1.0 - p) / n))
            got = monte_carlo_left_mass(s, s.level, a, keyed_generator(5, 5), n)
            assert got == want

    def test_left_fraction(self, hand_sample):
        s = hand_sample
        assert left_fraction(s, 3.0, (0.8, 0.0)) == pytest.approx(0.34 / 2.55)
        assert left_fraction(s, 3.0, (0.0, 0.0)) == 0.0

    def test_left_fraction_monotone_along_order(self, powerlaw_sample):
        s = powerlaw_sample
        rng = np.random.default_rng(7)
        for _ in range(500):
            a = sample_loop_point(s, s.level, rng)
            b = sample_loop_point(s, s.level, rng)
            if compare(s, a, b) in (Order.LEFT, Order.FRONT):
                assert left_fraction(s, s.level, a) <= left_fraction(
                    s, s.level, b
                ) + 1e-12

    def test_sub_level_queries(self, hand_sample):
        s = hand_sample
        # at level 1.2 the second atom and third branch are absent
        assert s.mass_prefix(1.2) == pytest.approx(0.55 * 1.2 + 0.6)
        lm = left_mass(s, 1.2, (0.8, 0.0))
        assert lm == pytest.approx(0.55 * 0.5 * 0.8 + 0.6 * 0.2, abs=1e-12)
        # a point whose left side swallows the glued subtree: the subtree
        # mass is clipped at the level
        full = 0.55 * 0.5 * 0.45 + 0.6 * 0.2
        above_12 = 0.55 * (1.0 - 0.45) + 0.55 * 0.2
        above_3 = 0.55 * (1.0 - 0.45) + (0.55 * 2.0 + 0.3)
        assert left_mass(s, 1.2, (0.45, 0.9)) == pytest.approx(
            full + above_12, abs=1e-12
        )
        assert left_mass(s, 3.0, (0.45, 0.9)) == pytest.approx(
            full + above_3, abs=1e-12
        )

    def test_outside_truncation_rejected(self, hand_sample):
        with pytest.raises(PlaneError):
            left_mass(hand_sample, 1.0, (2.0, 0.5))

    def test_zero_total_mass_rejected(self, cycle_sample):
        x1 = float(cycle_sample.measure.xs[0])
        with pytest.raises(PlaneError):
            left_fraction(cycle_sample, x1 / 2, (x1 / 4, 0.5))

    def test_mass_caches_bounded(self):
        """20 levels on one sample keep `_PLANS` caches, and every left
        fraction, before and after the oldest caches go, is a fresh
        sample's bit for bit."""
        def fresh():
            spec = ThetaSpec.power_law(1.5, 60, theta0=0.4)
            return sample_icrt(spec, 6, StopRule(max_level=6.0))

        s, levels = fresh(), np.linspace(0.5, 6.0, 20).tolist()
        pts = sample_loop_points(s, levels[0], keyed_generator(0, 1), 5)
        got = [[left_fraction(s, l, a) for a in pts] for l in levels]
        assert len(s._mass_caches) == _PLANS
        assert [[left_fraction(s, l, a) for a in pts] for l in levels] == got
        assert got == [[left_fraction(fresh(), l, a) for a in pts] for l in levels]


def _near_points(sample, l):
    """Loop points within POINT_TOL of the root, the atoms and the glue
    points, on both sides of each, inside [0, l]."""
    sk = sample.skeleton
    xs = {0.0, *sk.glues.tolist(), *sample.atom_index_at}
    near = [x + d * POINT_TOL for x in sorted(xs) for d in (-0.9, -0.5, 0.5, 0.9)]
    near = [x for x in near if -POINT_TOL <= x <= l + POINT_TOL]
    return [(x, u) for x in near for u in (0.0, 0.3, 1.0)]


def _batch_cases(hand_sample, powerlaw_sample, brownian_sample):
    big = sample_icrt(
        ThetaSpec.power_law(1.5, 2000, theta0=0.3), 3, StopRule(max_branches=1000)
    )
    samples = (hand_sample, powerlaw_sample, brownian_sample, big)
    for s in (*samples, *_degenerate_samples()):
        for l in (s.level, 0.5 * s.level):
            rng = np.random.default_rng(11)
            marks = [p for p in _corner_points(s) if p[0] <= l] + _near_points(s, l)
            if len(marks) > 1500:  # the 1000-branch sample: a random subset
                marks = [marks[k] for k in rng.choice(len(marks), 1500, replace=False)]
            pts = [sample_loop_point(s, l, rng) for _ in range(300)]
            yield s, l, pts + marks


class TestBatch:
    def test_left_fractions_equal_scalar(
        self, hand_sample, powerlaw_sample, brownian_sample
    ):
        for s, l, pts in _batch_cases(hand_sample, powerlaw_sample, brownian_sample):
            scalar = [left_fraction(s, l, p) for p in pts]
            assert left_fractions(s, l, pts).tolist() == scalar
            # the root corners, whose fraction may round above 1
            assert left_fractions(s, l, [(0.0, 0.0), (0.0, 1.0)]).tolist() == [
                left_fraction(s, l, (0.0, 0.0)),
                left_fraction(s, l, (0.0, 1.0)),
            ]

    def test_right_masses_equal_scalar(
        self, hand_sample, powerlaw_sample, brownian_sample
    ):
        for s, l, pts in _batch_cases(hand_sample, powerlaw_sample, brownian_sample):
            scalar = [right_mass(s, l, p) for p in pts]
            assert _directional_masses(s, l, pts, "right").tolist() == scalar

    def test_step_arrays_equal_scalar_step(self, powerlaw_sample, brownian_sample):
        """Every contour candidate, plus each event at angles 0.0 and 1.0 and
        at the angles of the branches glued there, where tau equals a hang
        angle (`<` against `<=`); and the step table against `step` at each
        edge's glue point and angle.  The theta0 = 0 sample glues every
        branch on an atom, some of them on one atom."""
        zero = sample_icrt(
            ThetaSpec.power_law(1.5, 60, theta0=0.0), 6, StopRule(max_branches=17)
        )
        for s in (powerlaw_sample, zero, brownian_sample):
            sk, mc = s.skeleton, mass_cache(s, s.level)
            rng = np.random.default_rng(3)
            table = build_contour_table(s, resolution=500, rng=rng)
            hangs = {x: [0.0, 1.0] for x in mc.pos}
            for x, u in zip(sk.glues.tolist(), s.angles.glue_angles.tolist()):
                hangs[x].append(u)
            marks = [(x, u) for x, us in hangs.items() for u in us]
            loc = locate(s, np.vstack([table.points, marks]))
            on = np.isin(loc.pos, mc.pos)
            assert on.any() and not on.all()  # points on and off the events
            cols = loc.br.tolist(), loc.pos.tolist(), loc.ang.tolist()
            for side in ("left", "right"):
                got = mc.step_arrays(loc.br, loc.pos, loc.ang, side)
                assert got.T.tolist() == [list(mc.step(*p, side)) for p in zip(*cols)]
                steps, rows = mc.steps(side)
                edges = zip(sk.parent[1:].tolist(), sk.glues.tolist())
                want = [
                    mc.step(b, x, s.branch_angle(c), side)
                    for c, (b, x) in enumerate(edges, 1)
                ]
                assert steps[:, 1:].T.tolist() == [list(w) for w in want]
                assert rows == [(0.0, 0.0, 0.0), *want] and not steps[:, 0].any()

    def test_empty(self, hand_sample):
        out = left_fractions(hand_sample, 3.0, [])
        assert out.shape == (0,) and out.dtype == float

    @pytest.mark.parametrize(
        "bad",
        [
            (3.5, 0.5), (2.0, 0.5), (-1e-9, 0.5), (0.5, 1.5),
            (0.5, -0.1), (math.nan, 0.5),
        ],
    )
    def test_input_checks(self, hand_sample, bad):
        # level 1.2: a position of 2.0 lies in the sample but not in [0, l]
        with pytest.raises(PlaneError) as scalar:
            left_fraction(hand_sample, 1.2, bad)
        with pytest.raises(PlaneError) as batch:
            left_fractions(hand_sample, 1.2, [(0.5, 0.5), bad, (9.0, 9.0)])
        assert str(batch.value) == str(scalar.value)


class TestLukasiewicz:
    def test_examples(self, hand_sample):
        s = hand_sample
        assert lukasiewicz_value(s, (0.8, 0.0)) == pytest.approx(0.7, abs=1e-12)
        assert lukasiewicz_value(s, (0.0, 0.0)) == 0.0

    def test_atom_free_extension(self, hand_sample):
        s = hand_sample
        v1 = lukasiewicz_value(s, (0.8, 0.0))
        v2 = lukasiewicz_value(s, (0.95, 0.0))
        assert v2 - v1 == pytest.approx(0.55 / 2 * 0.15, abs=1e-12)

    def test_nonnegative(self, powerlaw_sample):
        s = powerlaw_sample
        rng = np.random.default_rng(8)
        for _ in range(500):
            assert lukasiewicz_value(s, sample_loop_point(s, s.level, rng)) >= 0


class TestSorting:
    def test_order_cmp_sorts_consistently(self, hand_sample):
        s = hand_sample
        rng = np.random.default_rng(9)
        pts = [sample_loop_point(s, 3.0, rng) for _ in range(60)]
        from functools import cmp_to_key

        def cmp(a, b):
            out = compare(s, a, b)
            if out is Order.EQUAL:
                return 0
            return -1 if out in (Order.LEFT, Order.FRONT) else 1

        pts.sort(key=cmp_to_key(cmp))
        fr = [left_fraction(s, 3.0, p) for p in pts]
        assert all(fr[i] <= fr[i + 1] + 1e-12 for i in range(len(fr) - 1))


# ---------------------------------------------------------------------------
# the batched order check and the per-edge atom rows against their oracles
# ---------------------------------------------------------------------------
def _segment_atoms_reference(sample, b, lo, top, tau):
    """The per-segment atom walk the atom rows replace."""
    at, out = sample.atoms, []
    for j in range(at.first[b], at.last[b]):
        i, x = int(at.ix[j]), float(at.xs[j])
        if lo < x < top:
            out.append((i, float(sample.angles.atom_angles[i]), x))
    if tau is not None:
        i = sample.atom_at(top)
        if i is not None:
            out.append((i, tau, top))
    return out


def _side_terms_reference(sample, x, v, m, bm):
    sk = sample.skeleton
    terms = []
    for b, top, child in sk.ascend(x, bm):
        tau = v if child < 0 else sample.branch_angle(child)
        if b == bm:
            break
        terms += _segment_atoms_reference(sample, b, float(sk.lo[b]), top, tau)
    above = top - m > POINT_TOL
    terms += _segment_atoms_reference(sample, bm, m, top, tau if above else None)
    return terms, sample.cont_angle(m) if above else tau


def _profile_atoms_reference(sample, p):
    """`LoopCloud` profile atoms by the per-segment walk: root first, the
    atom at every segment top kept, the root's too."""
    sk = sample.skeleton
    segs = [
        (b, top, p.angle if child < 0 else sample.branch_angle(child))
        for b, top, child in sk.ascend(p.pos)
    ][::-1]
    return [
        (lvl, i, u, x)
        for lvl, (b, top, tau) in enumerate(segs)
        for i, u, x in _segment_atoms_reference(sample, b, float(sk.lo[b]), top, tau)
    ]


def _root_atom_sample():
    """An atom and a glue point within POINT_TOL of the root."""
    spec = ThetaSpec(math.sqrt(0.55), (0.6, 0.3))
    measure = MeasureState(0.55, [0.5 * POINT_TOL, 1.25], [0.6, 0.3])
    angles = AngleTable([0.2, 0.8], [0.7, 0.4])
    return assemble_sample(spec, measure, [1.0, 2.0], [0.5 * POINT_TOL, 1.25], angles, 3.0)


def _oracle_cases(powerlaw_sample):
    """The 17-branch fixture, the degenerate skeletons and a root atom, each
    with corner points, points within POINT_TOL of the marks and draws."""
    for s in (powerlaw_sample, *_degenerate_samples(), _root_atom_sample()):
        rng = np.random.default_rng(17)
        pts = [sample_loop_point(s, s.level, rng) for _ in range(100)]
        yield s, _corner_points(s) + _near_points(s, s.level) + pts, rng


class TestBatchedOracles:
    def test_segment_clamped_to_branch_block(self, powerlaw_sample, brownian_sample):
        """Segments that start below their branch's first atom or end past
        its last, against a filter of the sorted atom table."""
        for s in (powerlaw_sample, brownian_sample):
            pa, sk = PathAtoms.of(s), s.skeleton
            xs, us, ix, _, first, last, _ = s.atoms
            cases = []
            for b in range(sk.n_branches):
                lo, hi, a = float(sk.lo[b]), float(sk.hi[b]), first[b]
                x0 = float(xs[a]) if a < last[b] else hi
                for bottom in (-1.0, 0.0, lo - 0.5, lo, x0, 0.5 * (lo + hi)):
                    cases += [(b, bottom, top) for top in (x0, hi, hi + 1.0, s.level)]
            for b, bottom, top in cases:
                inside = [
                    j for j in range(first[b], last[b]) if bottom < xs[j] < top
                ]
                want = [(int(ix[j]), float(us[j]), float(xs[j])) for j in inside]
                i = s.atom_index_at.get(top)
                tail = [] if i is None else [(i, 0.25, top)]
                assert pa.segment(b, bottom, top, 0.25) == want + tail
                arrays = map(np.asarray, ([b], [bottom], [top]))
                start, stop, t = _ranges(s.atoms, *arrays)
                assert list(range(start[0], stop[0])) == inside
                assert t[0] == (0 if i is None else int(np.flatnonzero(xs == top)[0]))

    def test_precedes_equals_compare_canonical(self, powerlaw_sample):
        for s, pts, rng in _oracle_cases(powerlaw_sample):
            loc = locate(s, pts)
            canon = list(map(LoopPoint, loc.pos.tolist(), loc.ang.tolist()))
            n = len(canon)
            # random pairs, equal pairs and pairs at one position
            i = np.r_[rng.integers(n, size=3000), np.arange(n), np.arange(n - 1)]
            k = np.r_[rng.integers(n, size=3000), np.arange(n), np.arange(1, n)]
            for a, b in ((i, k), (k, i)):
                want = [
                    compare_canonical(s, canon[x], canon[y]) in (Order.LEFT, Order.FRONT)
                    for x, y in zip(a.tolist(), b.tolist())
                ]
                assert precedes(s, loc, a, b).tolist() == want

    def test_side_terms_equal_segment_walk(self, powerlaw_sample):
        for s, pts, rng in _oracle_cases(powerlaw_sample):
            canon = [_check_loop_point(s, p) for p in pts]
            for a in canon:
                want, _ = _side_terms_reference(s, a.pos, a.angle, 0.0, 0)
                assert path_atom_angles(s, a) == [(i, u) for i, u, _ in want]
            for _ in range(500):
                a, b = (canon[j] for j in rng.integers(len(canon), size=2))
                bm, pa, _, pb, _ = s.skeleton.meet_walk(a.pos, b.pos)
                m = min(pa, pb)
                for p in (a, b):
                    want = _side_terms_reference(s, p.pos, p.angle, m, bm)
                    assert _side_terms(s, p.pos, p.angle, m, bm) == want

    def test_cloud_profiles_equal_segment_walk(self, powerlaw_sample):
        for s, pts, _ in _oracle_cases(powerlaw_sample):
            cloud = LoopCloud(s, s.level, pts)
            for k, p in enumerate(map(LoopPoint, *cloud.points.T.tolist())):
                want = np.asarray(_profile_atoms_reference(s, p), dtype=float)
                lev, i, u, x = want.reshape(-1, 4).T
                m = i.size
                assert np.array_equal(cloud._AK[k, :m], lev * cloud._key_base + x)
                assert np.all(cloud._AK[k, m:] == np.inf)
                assert cloud._AI[k, :m].tolist() == i.astype(int).tolist()
                assert np.array_equal(cloud._AA[k, :m], u)

    def test_profiles_equal_path_atom_angles(self, powerlaw_sample, brownian_sample):
        cases = [*_oracle_cases(powerlaw_sample)]
        rng = np.random.default_rng(5)
        cases.append((brownian_sample, _corner_points(brownian_sample) + [
            sample_loop_point(brownian_sample, brownian_sample.level, rng)
            for _ in range(200)
        ], None))
        for s, pts, _ in cases:
            loc = locate(s, pts)
            prof = profiles(s, loc)
            luk = lukasiewicz_values(s, prof)
            ix = s.atoms.ix
            for k, a in enumerate(map(LoopPoint, loc.pos.tolist(), loc.ang.tolist())):
                want = path_atom_angles(s, a)
                m = len(want)
                assert ix[prof.at[k, :m]].tolist() == [i for i, _ in want]
                assert prof.ang[k, :m].tolist() == [u for _, u in want]
                assert prof.at[k, m:].tolist() == [0] * (prof.at.shape[1] - m)
                chain = list(s.skeleton.ascend(a.pos))
                assert prof.br[k, : len(chain)].tolist() == [b for b, _, _ in chain]
                assert prof.top[k, : len(chain)].tolist() == [t for _, t, _ in chain]
                assert prof.depth[k] == s.skeleton.depth(a.pos)
                assert luk[k] == lukasiewicz_value(s, a)

    def test_contour_build_equals_scalar_pass(
        self, powerlaw_sample, brownian_sample, monkeypatch
    ):
        cands, calls = [], []
        locate_ = icrt_lab.contour.locate

        def recording_locate(sample, points, l=None):
            # rows reversed: in the build's own order (by position, then
            # angle) the ties of the tied samples lie in contour order
            # already, and no round would run
            cands.append(points[::-1])
            return locate_(sample, cands[-1], l)

        def counting_precedes(sample, loc, i, k):
            calls.append(1)
            return precedes(sample, loc, i, k)

        monkeypatch.setattr(icrt_lab.contour, "locate", recording_locate)
        monkeypatch.setattr(icrt_lab.contour, "precedes", counting_precedes)
        # theta0 = 0: points on distinct branches share exact fractions
        tied = [
            sample_icrt(ThetaSpec.power_law(1.5, 50), seed, StopRule(max_branches=40))
            for seed in (0, 1)
        ]
        cases = [(s, 500, keyed_generator(k, 7)) for k, s in enumerate(tied)]
        cases += [(brownian_sample, 500, keyed_generator(3, 3))]
        cases += [(powerlaw_sample, 1500, keyed_generator(2, 2))]
        cases += [(s, None, None) for s in (*_degenerate_samples(), _root_atom_sample())]
        for s, resolution, rng in cases:
            for level in (s.level, 0.5 * s.level):
                calls.clear()
                tab = build_contour_table(s, level, resolution, rng)
                points, ts, eps = _scalar_insertion_table(s, level, cands[-1])
                assert tab.points.tolist() == [list(p) for p in points]
                assert tab.ts.tolist() == ts.tolist()
                assert tab.eps == eps
                if s in tied and level == s.level:
                    # ties out of contour order: a round swapped pairs and
                    # checked their neighbours again
                    assert len(calls) > 1


def _scalar_insertion_table(sample, level, cands):
    """The contour table by scalar fractions, a stable sort and a scalar
    insertion pass of `compare_canonical` from the first pair on, as the
    snapped points (`_check_loop_point`)."""
    canon = [_check_loop_point(sample, p, level) for p in cands.tolist()]
    fr = [left_fraction(sample, level, p) for p in canon]
    rows = sorted(zip(fr, canon), key=lambda r: r[0])
    first = (Order.LEFT, Order.FRONT)
    for i in range(1, len(rows)):
        j = i
        while j > 0 and compare_canonical(sample, rows[j][1], rows[j - 1][1]) in first:
            assert rows[j][0] - rows[j - 1][0] <= 1e-9
            rows[j - 1], rows[j] = rows[j], rows[j - 1]
            j -= 1
    ts = np.asarray([t for t, _ in rows])
    eps = sample.mass_prefix(level) * float(np.max(np.diff(ts)))
    return [p for _, p in rows], ts, eps
