import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from residuelab import (
    ChartSpec,
    ExactnessError,
    Factor,
    InputError,
    LinForm,
    MeroValue,
    ProblemSignature,
    QI,
    RadialProfile,
    Scenario,
    SeparableTerm,
    SeparableTestForm,
    blowup_base,
    blowup_example,
    blowup_parts,
    diagonal_scenario,
    extreme_pole,
    mellin_exact,
    mellin_quadrature,
    residue_on,
    tube_integral,
    tube_spec_from_chart,
    value_at_origin,
)
from residuelab.linform import AffineForm
from residuelab.mellin import (
    DivergenceError,
    FloatRangeError,
    _gauss_legendre,
    _quad_variable,
    _radial_grid,
    chart_sum,
    radial_factor,
    term_plan,
)
from residuelab.merovalue import PoleAtOriginError
from residuelab.poly import Poly

from affine_division import as_poly
from corpus import absorbing_testform, random_chart_scenario
from engine_reference import mellin_sum_by_additions, quad_variable_per_piece, quadrature_by_two_passes
from test_acceptance import _chart_corpus


def simple_scenario(p, q, k=1, N=1, a=None, b=None, rho=None, slots=None):
    n = 1
    sig = ProblemSignature(n=n, p=p, q=q, N=N)
    alpha = ((k,),) if p else ()
    beta = ((k,),) if q else ()
    chart = ChartSpec("c", alpha, beta, (0,), 1)
    rho = rho if rho is not None else RadialProfile.on_unit([1])
    slots = frozenset(slots if slots is not None else ({1} if n - p else set()))
    term = SeparableTerm(QI.one(), (Factor(a or 0, b or 0, rho),), slots)
    return Scenario(sig, (chart,), {"c": SeparableTestForm((term,))})


def token(coeff, power):
    from residuelab.merovalue import TokenScalar

    return TokenScalar(QI.of(coeff), power)


# --- radial_factor -----------------------------------------------------------
# 2*pi * integral of r^(2*mu+c) rho(r^2) r dr is i/2 times radial_factor at shift c/2


HALF_I = QI.of(0, Fraction(1, 2))


def test_radial_integral_box_profile():
    v = radial_factor(1, (1,), 0, RadialProfile.on_unit([1])) * HALF_I
    expected = MeroValue.from_poly(
        Poly.const(1, QI.of(0, Fraction(-1, 2))), [(AffineForm((1,), 1), 1)], 1
    )
    assert v == expected  # pi / (mu + 1)


def test_radial_integral_shifted_pole_at_zero():
    v = radial_factor(1, (1,), -1, RadialProfile.on_unit([1])) * HALF_I
    expected = MeroValue.from_poly(
        Poly.const(1, QI.of(0, Fraction(-1, 2))), [(AffineForm((1,), 0), 1)], 1
    )
    assert v == expected  # pi / mu


def test_radial_integral_two_taylor_terms():
    v = radial_factor(1, (1,), 0, RadialProfile.on_unit([1, -1])) * HALF_I
    scale = QI.of(0, Fraction(-1, 2))
    expected = (
        MeroValue.from_poly(Poly.const(1, scale), [(AffineForm((1,), 1), 1)], 1)
        + MeroValue.from_poly(Poly.const(1, -scale), [(AffineForm((1,), 2), 1)], 1)
    )
    assert v == expected  # pi (1/(mu+1) - 1/(mu+2))


def test_exactness_error_for_nonunit_knots():
    rho = RadialProfile((Fraction(0), Fraction(4)), ((Fraction(1),),))
    sc = simple_scenario(0, 1, a=1, b=0, rho=rho, slots={1})
    with pytest.raises(ExactnessError):
        mellin_exact(sc, "c")


@st.composite
def radial_case(draw):
    """A column (zero, negative or non-primitive entries), a shift that puts
    d_k = shift + k + 1 on both sides of 0, and a profile on [0, 1] with at
    most 9 Taylor coefficients, some of them zero."""
    nvars = draw(st.integers(1, 3))
    column = [draw(st.integers(-3, 3)) * draw(st.sampled_from([1, 1, 2, 3])) for _ in range(nvars)]
    coeffs = draw(st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7)), min_size=1, max_size=9))
    return nvars, column, draw(st.integers(-10, 3)), RadialProfile.on_unit(coeffs)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(radial_case())
def test_radial_factor_matches_the_sum_by_additions(case):
    # the closed form is written down reduced; the reference reduces K - 1 sums
    nvars, column, shift, rho = case
    try:
        want = (mellin_sum_by_additions(nvars, column, shift, rho) * QI.of(-1)).mul_token(1)
    except DivergenceError as exc:
        with pytest.raises(DivergenceError, match=re.escape(str(exc))):
            radial_factor(nvars, column, shift, rho)
        return
    got = radial_factor(nvars, column, shift, rho)
    assert got.to_obj() == want.to_obj()
    assert got == want and got.reduced() is got


# --- closed forms ------------------------------------------------------------


def test_pv_closed_form():
    sc = simple_scenario(0, 1, a=1, b=0)
    v = mellin_exact(sc, "c")
    expected = MeroValue.from_poly(
        Poly.const(1, QI.of(-1)), [(AffineForm((1,), 1), 1)], 1
    )
    assert v == expected  # -2*pi*i / (L1 + 1)


def test_cauchy_normalization():
    sc = simple_scenario(1, 0, rho=RadialProfile.bump(2), slots=set())
    v = mellin_exact(sc, "c")
    assert value_at_origin(v) == token(1, 1)  # exactly +2*pi*i


def test_derivative_slot_value():
    # single derivative factor against a box profile: value 2*pi*i * rho(0)
    sc = simple_scenario(1, 0, rho=RadialProfile.on_unit([1]), slots=set())
    assert value_at_origin(mellin_exact(sc, "c")) == token(1, 1)


def test_angular_twist_gives_zero():
    sc = simple_scenario(0, 1, a=2, b=0)
    assert mellin_exact(sc, "c").is_zero()


@pytest.mark.parametrize("slots", [set(), {1, 2}])
def test_terms_below_top_degree_vanish_in_every_evaluator(slots):
    # n = 2, p = 1 needs exactly one conjugate slot; other terms are not top forms
    chart = ChartSpec("c", ((1, 0),), (), (0, 0), 1)
    factors = (Factor(0, 0, RadialProfile.bump(2)), Factor(0, 1, RadialProfile.on_unit([1])))
    tf = SeparableTestForm((SeparableTerm(QI.one(), factors, frozenset(slots)),))
    sc = Scenario(ProblemSignature(n=2, p=1, q=0), (chart,), {"c": tf})
    assert mellin_exact(sc, chart).is_zero()
    assert mellin_quadrature(sc, chart, [3.0]).value == 0
    assert tube_integral(tube_spec_from_chart(chart, [Fraction(1, 4)]), tf) == 0


# --- blow-up example ----------------------------------------------------------


def test_blowup_chart_value_has_pair_pole_with_nonzero_residue():
    sc = blowup_example()
    v = mellin_exact(sc, "z")
    pair = LinForm.normalize((1, 1, 0))
    assert pair in v.hyperplane_forms()
    pt = (Fraction(2, 7), Fraction(-2, 7), Fraction(3, 11))
    assert residue_on(pair, v, pt).coeff


def test_blowup_residues_cancel_across_charts():
    sc = blowup_example()
    pair = LinForm.normalize((1, 1, 0))
    pt = (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 5))
    rz = residue_on(pair, mellin_exact(sc, "z"), pt)
    rzeta = residue_on(pair, mellin_exact(sc, "zeta"), pt)
    assert rz.coeff and rzeta.coeff
    assert rz.coeff + rzeta.coeff == QI.zero()


def test_blowup_global_equals_base_and_parts():
    sc = blowup_example()
    total = (mellin_exact(sc, "z") + mellin_exact(sc, "zeta")).reduced()
    assert total.hyperplane_forms() == frozenset()
    base = mellin_exact(blowup_base(), "base")
    parts = mellin_exact(blowup_parts(), "parts")
    assert total == base
    assert total == parts
    assert value_at_origin(total) == token(-1, 3)


def test_blowup_identities_hold_for_random_profiles():
    from residuelab.charts import example_profiles

    for seed in (1, 2, 3, 4, 5):
        profiles = example_profiles(2, seed)
        sc = blowup_example(profiles=profiles)
        total = (mellin_exact(sc, "z") + mellin_exact(sc, "zeta")).reduced()
        parts = mellin_exact(blowup_parts(profiles=profiles), "parts")
        assert total == parts
        phi0 = profiles[0].value(0) * profiles[1].value(0) * profiles[2].value(0)
        assert value_at_origin(total) == token(-phi0, 3)


def test_blowup_chart_inner_value_at_origin():
    # strip the residual pair coefficient L1/(L1+L2): the remaining function is
    # analytic at 0 with the golden product value
    sc = blowup_example()
    v = mellin_exact(sc, "z")
    pair = LinForm.normalize((1, 1, 0))
    inner = v * MeroValue.from_poly(as_poly(pair)) * MeroValue.from_poly(
        Poly.const(3, QI.one()), [(AffineForm((1, 0, 0)), 1)]
    )
    assert value_at_origin(inner) == token(-1, 3)


# --- value_at_origin / residue edge cases -------------------------------------


def test_value_at_origin_examples():
    sc = simple_scenario(0, 1, a=1, b=0)
    assert value_at_origin(mellin_exact(sc, "c")) == token(-1, 1)
    v = MeroValue.from_poly(Poly.const(2, QI.one()), [(AffineForm((1, 1)), 1)])
    with pytest.raises(PoleAtOriginError):
        value_at_origin(v)


def test_residue_on_unit_example():
    v = MeroValue.from_poly(Poly.const(3, QI.one()), [(AffineForm((0, 1, 1)), 1)])
    r = residue_on(LinForm.normalize((0, 1, 1)), v, (Fraction(0), Fraction(1), Fraction(-1)))
    assert r == token(1, 0)


# --- quadrature ---------------------------------------------------------------


def test_quadrature_matches_pv_closed_form():
    sc = simple_scenario(0, 1, a=1, b=0)
    q = mellin_quadrature(sc, "c", [3.0])
    ref = mellin_exact(sc, "c").eval_complex([3.0])
    assert abs(q.value - ref) / abs(ref) < 1e-8


def test_quadrature_matches_blowup_chart():
    sc = blowup_example()
    v = mellin_exact(sc, "z")
    q = mellin_quadrature(sc, "z", [3.0, 4.0, 5.0])
    ref = v.eval_complex([3.0, 4.0, 5.0])
    assert abs(q.value - ref) / abs(ref) < 1e-6


def test_quadrature_zero_form():
    sc = simple_scenario(0, 1, a=2, b=0)  # twisted: exact value 0
    q = mellin_quadrature(sc, "c", [3.0])
    assert abs(q.value) < 1e-12


def test_quadrature_drops_a_twist_the_old_angle_grid_aliased():
    # f = x^64 against x^0 conj(x)^1 twists by u - v = -64, a multiple of the
    # 32 and 64 midpoint angles the quadrature once sized from |a - b| = 1
    sc = diagonal_scenario([64], p=1, factors=[Factor(0, 1, RadialProfile.bump(2))])
    chart = sc.charts[0]
    assert term_plan(chart, sc.testform(chart.name), 1) == ()
    assert mellin_exact(sc, chart).is_zero()
    q = mellin_quadrature(sc, chart, [2.0])
    assert (q.value, q.error) == (0j, 0.0)


def test_selection_drops_a_twisted_term_before_reading_its_profiles():
    # the first variable's profile is outside the exact class, but the second
    # variable twists, so no value reads it
    off_unit = RadialProfile((Fraction(0), Fraction(4)), ((Fraction(1),),))
    sc = diagonal_scenario([1, 1], p=1, factors=[Factor(0, 0, off_unit), Factor(2, 0, RadialProfile.bump(2))])
    assert mellin_exact(sc, sc.charts[0]).is_zero()


def test_quadrature_runs_on_four_variables():
    # the integrand is a product of one-variable radial integrals, so no
    # variable count is too large for the quadrature
    rng = random.Random(31)
    checked = 0
    while checked < 8:
        sc = random_chart_scenario(rng, nmax=4, pmax=2, qmax=2)
        chart = sc.charts[0]
        lam = [3] * sc.signature.nfactors
        ref = mellin_exact(sc, chart).eval_complex(lam)
        if sc.signature.n != 4 or not ref:
            continue
        q = mellin_quadrature(sc, chart, lam)
        assert abs(q.value - ref) / abs(ref) <= 1e-9
        checked += 1


def test_quadrature_parameter_beyond_the_float_range_is_an_input_error():
    sc = diagonal_scenario([1, 1], p=1)
    with pytest.raises(InputError, match="lam: value beyond the float range"):
        mellin_quadrature(sc, sc.charts[0], [Fraction(10**400), 3])


def test_quadrature_overflow_at_a_finite_point_is_an_input_error():
    # each lambda is a finite float, but the integrand overflows: bad input, as
    # the CLI reports it, not an engine fault
    sc = blowup_example()
    with pytest.raises(InputError, match="the quadrature leaves the float range"):
        mellin_quadrature(sc, "z", [1e300] * 3)


def test_quadrature_requires_convergence_zone():
    sc = simple_scenario(0, 1, a=1, b=0)
    with pytest.raises(ValueError):
        mellin_quadrature(sc, "c", [1.0])


def test_gauss_legendre_rule_is_read_only():
    # the rule, and the quadrature's radial grid built from it
    for cached in (lambda: _gauss_legendre(24), lambda: _radial_grid(0.0, 1.0)):
        arrays = cached()
        assert all(a is b for a, b in zip(cached(), arrays))
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0.0


def _criterion_8_strata():
    """The first criterion-8 scenario (nonzero exact value) of each
    (n, test-form terms) stratum the bench's quadrature set draws from."""
    rng = random.Random(808)
    picked = {}
    while len(picked) < 4:
        sc = random_chart_scenario(rng, nmax=2, pmax=2, qmax=2, emax=3)
        stratum = (sc.signature.n, len(sc.testform("c").terms))
        if stratum not in picked and not mellin_exact(sc, sc.charts[0]).is_zero():
            picked[stratum] = sc
    return picked


# repr of (value, error) at lambda_j = (9 + 2j)/4: `eval` reports carry the
# quadrature value and the recorded bench digests hash it, so it is pinned bit
# for bit
QUADRATURE_STRATA = {
    (1, 1): ("(2.9075781711537383+11.630312684614953j)", "3.0395043542187656e-13"),
    (1, 2): ("(-1.6829960644231532-11.444373238077397j)", "2.2694490288345586e-13"),
    (2, 1): ("(-0.02076634344294877-0.02076634344294877j)", "1.5504663029502278e-15"),
    (2, 2): ("(-20.778585462652565+7.007364000262076j)", "6.755763208732738e-13"),
}


def test_quadrature_criterion_8_strata_bit_identical():
    for stratum, sc in sorted(_criterion_8_strata().items()):
        lam = [complex(Fraction(9 + 2 * j, 4)) for j in range(sc.signature.nfactors)]
        q = mellin_quadrature(sc, sc.charts[0], lam)
        assert (repr(complex(q.value)), repr(float(q.error))) == QUADRATURE_STRATA[stratum], stratum


# --- extreme poles -------------------------------------------------------------


def test_extreme_pole_position_and_n_independence():
    for k in (1, 2, 3, 4):
        locations = set()
        for N in (1, 2, 3, 4, 5):
            sc = simple_scenario(0, 1, k=k, N=N, a=N * k, b=0, rho=RadialProfile.bump(2))
            locations.add(extreme_pole(mellin_exact(sc, "c")))
        assert locations == {Fraction(-1, k)}


def test_exact_quadrature_random_scenarios():
    rng = random.Random(33)
    done = 0
    while done < 6:
        sc = random_chart_scenario(rng, nmax=2, pmax=2, qmax=2)
        v = mellin_exact(sc, sc.charts[0])
        if v.is_zero():
            continue
        lam = [Fraction(rng.randint(2, 6)) for _ in range(sc.signature.nfactors)]
        ref = v.eval_complex([complex(x) for x in lam])
        if abs(ref) < 1e-12:
            continue
        q = mellin_quadrature(sc, sc.charts[0], [complex(x) for x in lam])
        assert abs(q.value - ref) / abs(ref) < 1e-6
        done += 1


# --- the radial quadrature against the per-piece reference ---------------------

_QUAD_KNOTS = (Fraction(0), Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(7, 3))


@st.composite
def _quad_profiles(draw):
    """1-3 pieces on knots among 0, 1/5, 1/3, 1/2, 1 and 7/3 (so a support
    need not start at 0), some pieces all zero; or the zero profile."""
    # the maximal draw, as in `_quad_charts`: derandomized draws favour the minimal one
    if draw(st.integers(0, 9)) == 9:
        return RadialProfile.zero()
    knots = sorted(draw(st.lists(st.sampled_from(_QUAD_KNOTS), min_size=2, max_size=4, unique=True)))
    coeffs = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 9))
    pieces = tuple(tuple(draw(st.lists(coeffs, min_size=1, max_size=4))) for _ in knots[1:])
    if draw(st.booleans()):
        zero = draw(st.integers(0, len(pieces) - 1))
        pieces = pieces[:zero] + ((Fraction(0),) * len(pieces[zero]),) + pieces[zero + 1 :]
    return RadialProfile(tuple(knots), pieces)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    mu=st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False),
    u=st.integers(0, 3),
    rho=_quad_profiles(),
)
def test_quad_variable_equals_the_per_piece_reference_bit_for_bit(mu, u, rho):
    # one grid per piece carries both rules: each must equal its own rule run alone
    import numpy as np

    with np.errstate(all="ignore"):
        got = _quad_variable(mu, u, rho)
        want = (quad_variable_per_piece(mu, u, rho, 24), quad_variable_per_piece(mu, u, rho, 48))
    assert [repr(complex(z)) for z in got] == [repr(complex(z)) for z in want], (mu, u, str(rho))


@st.composite
def _quad_charts(draw):
    """A one-chart scenario with n = 1..3 variables and p = 0..2, a test form
    whose terms have the divisibility angular selection keeps (those with a
    zero subset determinant are dropped), every profile from `_quad_profiles`,
    on some terms a zero profile after a nonzero variable; and a point with
    Re(lambda_j) >= 2, some entries so large that a profile reaching past
    t = 1 overflows while one on [0, 1] underflows to zero."""
    n = draw(st.integers(1, 3))
    p = draw(st.integers(0, min(2, n)))
    q = draw(st.integers(0 if p else 1, 2))
    row = st.tuples(*[st.integers(0, 2)] * n)
    alpha = tuple(draw(st.lists(row.filter(any), min_size=p, max_size=p)))
    beta = tuple(draw(st.lists(row, min_size=q, max_size=q)))
    jac = draw(st.tuples(*[st.integers(0, 1)] * n))
    chart = ChartSpec("c", alpha, beta, jac, draw(st.sampled_from([1, -1])))
    terms = []
    for term in absorbing_testform(draw(st.randoms(use_true_random=False)), chart, n_terms=3).terms:
        factors = [Factor(f.a, f.b, draw(_quad_profiles())) for f in term.factors]
        if n > 1 and draw(st.integers(0, 3)) == 3:
            zero = draw(st.integers(1, n - 1))
            factors[zero] = Factor(factors[zero].a, factors[zero].b, RadialProfile.zero())
        terms.append(SeparableTerm(term.coeff, tuple(factors), term.dbar_slots))
    sc = Scenario(ProblemSignature(n, p, q, 1), (chart,), {"c": SeparableTestForm(tuple(terms))})
    moderate = st.builds(complex, st.floats(2, 8), st.floats(-4, 4))
    lam = [1000 + 0j if draw(st.integers(0, 4)) == 4 else draw(moderate) for _ in range(p + q)]
    return sc, lam


def _quadrature_outcome(run):
    try:
        q = run()
    except FloatRangeError:
        return "FloatRangeError"
    return repr(complex(q.value)), repr(float(q.error))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=_quad_charts())
def test_quadrature_equals_the_two_pass_reference_bit_for_bit(case):
    # both rules formed side by side, each term's coefficient converted once,
    # give the value and error of running each rule as its own pass
    sc, lam = case
    got = _quadrature_outcome(lambda: mellin_quadrature(sc, sc.charts[0], lam))
    assert got == _quadrature_outcome(lambda: quadrature_by_two_passes(sc, lam)), (sc.to_json(), lam)


def test_exact_values_bytes_pinned():
    # recorded before sums were expanded on packed integers: every value of the
    # criterion-3 corpus, and the blow-up's chart sums at degrees 2-8
    def digest(objs):
        h = hashlib.sha256()
        for obj in objs:
            h.update(json.dumps(obj, sort_keys=True).encode() + b"\n")
        return h.hexdigest()

    corpus = (mellin_exact(sc, c).to_obj() for sc in _chart_corpus() for c in sc.charts)
    assert digest(corpus) == "79b755bc2fbb4d18893a8f07eca128d6fde8755cf887fe6206ef0939751f9b65"
    sums = (chart_sum(blowup_example(d, s)) for d in range(2, 9) for s in (None, 1, 2, 3))
    blowups = ([total.to_obj(), {k: v.to_obj() for k, v in values.items()}] for total, values in sums)
    assert digest(blowups) == "045c0db31ac2231902b404a0db86498afcf3b106e11468b1d0bfe1b737dc37b5"
