"""Property tests: the batched left fractions and order check equal the
scalar ones."""
from hypothesis import given, settings, strategies as st

from icrt_lab import Order, StopRule, ThetaSpec, left_fraction, sample_icrt
from icrt_lab.plane import (
    LoopPoint,
    compare_canonical,
    left_fractions,
    locate,
    precedes,
)
from icrt_lab.skeleton import POINT_TOL

SPECS = (ThetaSpec.brownian(), ThetaSpec.power_law(1.5, 30, theta0=0.4))


@st.composite
def sample_and_points(draw):
    spec = draw(st.sampled_from(SPECS))
    s = sample_icrt(spec, draw(st.integers(0, 10_000)), StopRule(max_branches=12))
    sk = s.skeleton
    # free points, and points within POINT_TOL of the root, the atoms and
    # the glue points
    marks = [0.0, *sk.glues.tolist(), *s.atom_index_at]
    free = st.floats(0.0, s.level)
    near = st.builds(
        lambda x, d: min(max(x + d, -POINT_TOL), s.level),
        st.sampled_from(marks),
        st.floats(-POINT_TOL, POINT_TOL),
    )
    angle = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    points = draw(st.lists(st.tuples(st.one_of(free, near), angle), max_size=30))
    return s, points


@settings(derandomize=True, max_examples=40, deadline=None)
@given(sample_and_points())
def test_left_fractions_equal_scalar(case):
    s, points = case
    batch = left_fractions(s, s.level, points).tolist()
    assert batch == [left_fraction(s, s.level, p) for p in points]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(sample_and_points())
def test_precedes_equals_compare_canonical(case):
    s, points = case
    loc = locate(s, points)
    canon = list(map(LoopPoint, loc.pos.tolist(), loc.ang.tolist()))
    # every ordered pair, so both orientations of each
    n = len(canon)
    i = [x for x in range(n) for _ in range(n)]
    k = [y for _ in range(n) for y in range(n)]
    want = [
        compare_canonical(s, canon[x], canon[y]) in (Order.LEFT, Order.FRONT)
        for x, y in zip(i, k)
    ]
    assert precedes(s, loc, i, k).tolist() == want
