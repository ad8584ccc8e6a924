import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from residuelab import RadialProfile

import profile_reference

F = Fraction

# a non-dyadic knot: float(1/3) lies below 1/3 but compares equal to float(F(1, 3))
THIRD = RadialProfile((F(0), F(1, 3), F(1)), ((F(1), F(-3, 7), F(1, 3)), (F(5, 6), F(0), F(-1, 2))))
# support not starting at 0, with non-dyadic, dyadic and integer knots
OFFSET = RadialProfile(
    (F(1, 5), F(1, 3), F(3, 4), F(2)),
    ((F(2), F(-1, 3)), (F(1, 7), F(5), F(-2, 9), F(1)), (F(3),)),
)
PROFILES = [THIRD, OFFSET, RadialProfile.bump(3), RadialProfile.zero()]


def _float_points(rho):
    points = [float(F(1, 3)), 0.0, -1.0, 1e-300, 2.5, 1e3, math.inf, -math.inf, math.nan]
    for k in rho.knots:
        points.append(float(k))
    out = []
    for x in points:
        out += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
    return out


def test_value_float_matches_reference_bit_for_bit():
    for rho in PROFILES:
        for x in _float_points(rho):
            got = rho.value(x)
            assert type(got) is float
            assert repr(got) == repr(profile_reference.value_float(rho, x)), (str(rho), x)


def test_value_exact_for_int_and_fraction_float_for_float():
    bump = RadialProfile.bump(2)
    exact = [(0, 1), (1, 0), (2, 0), (-1, 0), (F(1, 2), F(1, 4)), (F(3), 0)]
    for t, want in exact:
        got = bump.value(t)
        assert type(got) is Fraction and got == want, t
    assert THIRD.value(F(1, 3)) == F(7, 9) and THIRD.value(1) == F(1, 3)
    assert type(RadialProfile.zero().value(3)) is Fraction
    for t, want in [(0.0, 1.0), (0.5, 0.25), (1.0, 0.0), (2.0, 0.0)]:
        got = bump.value(t)
        assert type(got) is float and got == want, t


def test_cached_evaluation_leaves_equality_hash_repr_to_obj():
    fresh = RadialProfile(OFFSET.knots, OFFSET.pieces)
    before = (repr(fresh), hash(fresh), fresh.to_obj())
    fresh.value(0.5)
    fresh.moment_tail(2, F(1, 2))
    assert (repr(fresh), hash(fresh), fresh.to_obj()) == before
    assert fresh == OFFSET


_rationals = st.builds(F, st.integers(-7, 7), st.integers(1, 9))


@st.composite
def _profiles(draw):
    knots = sorted(set(draw(st.lists(st.builds(F, st.integers(0, 12), st.integers(1, 6)), min_size=2, max_size=4))))
    if len(knots) < 2:
        knots.append(knots[0] + 1)
    pieces = tuple(tuple(draw(st.lists(_rationals, max_size=4))) for _ in knots[1:])
    return RadialProfile(tuple(knots), pieces)


@st.composite
def _tails(draw):
    rho = draw(_profiles())
    t0 = draw(
        st.one_of(
            st.builds(F, st.integers(-4, 30), st.integers(1, 7)),
            st.floats(0, 3).map(F),
            st.sampled_from(rho.knots),
        )
    )
    return rho, draw(st.integers(0, 4)), t0


@settings(max_examples=200, deadline=None)
@given(_tails())
def test_moment_tail_equals_fraction_sum(case):
    rho, b, t0 = case
    got = rho.moment_tail(b, t0)
    assert type(got) is Fraction
    assert got == profile_reference.moment_tail(rho, b, t0)


def test_moment_tail_edges():
    assert RadialProfile.zero().moment_tail(1, F(1, 2)) == 0
    # beyond the support, at its end and below its start
    assert OFFSET.moment_tail(0, F(3)) == 0
    assert OFFSET.moment_tail(3, F(2)) == 0
    assert OFFSET.moment_tail(2, F(0)) == OFFSET.moment_tail(2, 0) == profile_reference.moment_tail(OFFSET, 2, 0)
    assert RadialProfile.on_unit([1]).moment_tail(0, 0) == 1
