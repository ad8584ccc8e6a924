import random
from fractions import Fraction

import pytest

from residuelab import (
    ChartSpec,
    ExactnessError,
    Factor,
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
    extreme_pole,
    mellin_exact,
    mellin_quadrature,
    residue_on,
    tube_integral,
    tube_spec_from_chart,
    value_at_origin,
)
from residuelab.linform import AffineForm
from residuelab.mellin import DimensionTooLargeError, _gauss_legendre, radial_factor
from residuelab.merovalue import PoleAtOriginError
from residuelab.poly import Poly

from affine_division import as_poly
from corpus import random_chart_scenario


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
        phi0 = profiles[0].value_at_zero() * profiles[1].value_at_zero() * profiles[2].value_at_zero()
        assert value_at_origin(total) == token(-phi0, 3)


def test_blowup_chart_inner_value_at_origin():
    # strip the residual pair coefficient L1/(L1+L2): the remaining function is
    # analytic at 0 with the golden product value
    sc = blowup_example()
    v = mellin_exact(sc, "z")
    pair = LinForm.normalize((1, 1, 0))
    inner = v.mul_poly(as_poly(pair.as_affine())) * MeroValue.from_poly(
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


def test_quadrature_dimension_guard():
    rng = random.Random(31)
    while True:
        sc = random_chart_scenario(rng, nmax=4, pmax=2, qmax=2)
        if sc.signature.n == 4:
            break
    with pytest.raises(DimensionTooLargeError):
        mellin_quadrature(sc, sc.charts[0], [3.0] * sc.signature.nfactors)


def test_quadrature_requires_convergence_zone():
    sc = simple_scenario(0, 1, a=1, b=0)
    with pytest.raises(ValueError):
        mellin_quadrature(sc, "c", [1.0])


def test_gauss_legendre_rule_is_read_only():
    nodes, weights = _gauss_legendre(24)
    assert _gauss_legendre(24)[0] is nodes
    for arr in (nodes, weights):
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
