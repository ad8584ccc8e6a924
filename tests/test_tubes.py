import json
import math
import random
from fractions import Fraction

import pytest

from residuelab import mellin, tubes
from residuelab import (
    AdmissiblePath,
    ChartSpec,
    Factor,
    ProblemSignature,
    QI,
    RadialProfile,
    Scenario,
    SeparableTerm,
    SeparableTestForm,
    TubeSpec,
    UnsupportedTubeError,
    admissible_limit,
    blowup_example,
    diagonal_scenario,
    mellin_check,
    mellin_quadrature,
    mellin_exact,
    tube_integral,
    tube_spec_from_chart,
    value_at_origin,
)
from residuelab.cli import main

TWO_PI_I = 2j * math.pi


def box():
    return RadialProfile.on_unit([1])


def term(factors, slots):
    return SeparableTestForm((SeparableTerm(QI.one(), tuple(factors), frozenset(slots)),))


def diagonal_tube(ks, p, eps):
    # f_i = x_i^k_i, the first p factors residue-type
    return TubeSpec(diagonal_scenario(ks, p=p).charts[0], eps)


def test_pv_tube_closed_form():
    spec = diagonal_tube([1], 0, (Fraction(1, 4),))
    tf = term([Factor(1, 0, box())], {1})
    val = tube_integral(spec, tf)
    assert abs(val - (-TWO_PI_I * (1 - 0.25))) < 1e-12


def test_circle_tube_cauchy_limit():
    tf = term([Factor(0, 0, RadialProfile.bump(2))], set())
    for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        spec = diagonal_tube([1], 1, (eps,))
        val = tube_integral(spec, tf)
        rho = RadialProfile.bump(2).value(float(eps))
        assert abs(val - TWO_PI_I * rho) < 1e-12
    # limit as eps -> 0 is 2*pi*i
    spec = diagonal_tube([1], 1, (Fraction(1),))
    res = admissible_limit(spec, tf)
    assert abs(res.value - TWO_PI_I) < 1e-8


def test_two_circle_tube_factorizes_with_block_sign():
    # torus integral = product of circle factors, times the sign of moving
    # both circle directions in front of the ambient orientation
    tf_pair = term([Factor(0, 0, RadialProfile.bump(2)), Factor(0, 0, RadialProfile.bump(2))], set())
    spec = diagonal_tube([1, 1], 2, (Fraction(1, 9), Fraction(1, 16)))
    val = tube_integral(spec, tf_pair)
    tf_one = term([Factor(0, 0, RadialProfile.bump(2))], set())
    f1 = tube_integral(diagonal_tube([1], 1, (Fraction(1, 9),)), tf_one)
    f2 = tube_integral(diagonal_tube([1], 1, (Fraction(1, 16),)), tf_one)
    assert abs(val - (-1) * f1 * f2) < 1e-12


def test_mixed_tube_is_plain_product():
    tf_pair = term([Factor(0, 0, RadialProfile.bump(2)), Factor(1, 0, box())], {2})
    spec = diagonal_tube([1, 1], 1, (Fraction(1, 9), Fraction(1, 16)))
    val = tube_integral(spec, tf_pair)
    f1 = tube_integral(
        diagonal_tube([1], 1, (Fraction(1, 9),)),
        term([Factor(0, 0, RadialProfile.bump(2))], set()),
    )
    f2 = tube_integral(
        diagonal_tube([1], 0, (Fraction(1, 16),)),
        term([Factor(1, 0, box())], {1}),
    )
    assert abs(val - f1 * f2) < 1e-12


def test_pv_limit_matches_closed_form():
    spec = diagonal_tube([1], 0, (Fraction(1),))
    tf = term([Factor(1, 0, box())], {1})
    res = admissible_limit(spec, tf)
    assert abs(res.value - (-TWO_PI_I)) < 1e-8
    assert res.converged


def test_admissible_limit_samples_equal_tube_integrals():
    sc = diagonal_scenario([1, 2], p=1)
    chart = sc.charts[0]
    tf = sc.testform(chart.name)
    spec = tube_spec_from_chart(chart, [Fraction(1, 4)] * 2)
    path = AdmissiblePath.default(2)
    res = admissible_limit(spec, tf, path, samples=6)
    ts = [Fraction(1, 2) ** (j + 1) for j in range(6)]
    direct = tuple(tube_integral(tube_spec_from_chart(chart, path.eps_at(t)), tf) for t in ts)
    assert any(direct)
    assert [repr(z) for z in res.samples] == [repr(z) for z in direct]


def test_admissible_limit_converged_is_absolute():
    # the limit is about 13.2, so a tolerance scaled by |limit| would pass
    sc = diagonal_scenario([1, 1], p=1)
    chart = sc.charts[0]
    spec = tube_spec_from_chart(chart, [Fraction(1, 100)] * 2)
    tol = 1e-12
    res = admissible_limit(spec, sc.testform(chart.name), tol=tol)
    assert abs(res.value) > 1
    assert res.converged is False
    assert res.converged == (res.error <= tol)


def test_admissible_path_ratio_condition():
    path = AdmissiblePath.default(3, M=10)
    assert path.ratio_condition_ok()
    bad = AdmissiblePath((10, 1, 1), bound=10)
    assert not bad.ratio_condition_ok()
    # a bound below 1 or a non-positive exponent is no admissible path
    for degenerate in (AdmissiblePath.default(2, M=0), AdmissiblePath.default(2, M=-1)):
        assert not degenerate.ratio_condition_ok()
    eps = path.eps_at(Fraction(1, 2))
    assert eps[0] < eps[1] ** 10


def test_limits_match_origin_values_diagonal():
    rng = random.Random(41)
    for _ in range(5):
        n = rng.randint(1, 2)
        p = rng.randint(0 if n > 1 else 0, n)
        ks = [rng.randint(1, 2) for _ in range(n)]
        sc = diagonal_scenario(ks, p=p)
        chart = sc.charts[0]
        v = mellin_exact(sc, chart).reduced()
        if v.hyperplane_forms() or v.is_zero():
            continue
        ref = value_at_origin(v).as_complex()
        spec = tube_spec_from_chart(chart, [Fraction(1, 4)] * n)
        res = admissible_limit(spec, sc.testform(chart.name))
        assert abs(res.value - ref) <= 1e-6 * max(abs(ref), 1.0)


def test_mellin_check_pv_closed_form():
    spec = diagonal_tube([1], 0, (Fraction(1, 4),))
    tf = term([Factor(1, 0, box())], {1})
    rows = mellin_check(spec, tf, [[3.0], [5.0]])
    for row in rows:
        # both sides are -2*pi*i/(lambda+1) on the nose
        expected = -TWO_PI_I / (row.lam[0] + 1)
        assert abs(row.transform - expected) < 1e-9
        assert row.rel_error < 1e-6
        assert row.sign == 1


def test_mellin_check_zero_form():
    spec = diagonal_tube([1], 0, (Fraction(1, 4),))
    tf = term([Factor(2, 0, box())], {1})  # twisted: identically zero
    rows = mellin_check(spec, tf, [[3.0]])
    assert abs(rows[0].transform) < 1e-12
    assert abs(rows[0].reference) < 1e-12


def test_mellin_check_mixed_pair():
    sc = diagonal_scenario([1, 1], p=1)
    chart = sc.charts[0]
    spec = tube_spec_from_chart(chart, [Fraction(1, 100)] * 2)
    rows = mellin_check(spec, sc.testform(chart.name), [[3.0, 3.0]])
    assert rows[0].rel_error < 1e-6
    assert rows[0].sign == 1


@pytest.mark.parametrize(
    "ks, p, lam",
    [
        ([1, 1, 1], 1, (3, 3, 3)),
        ([1, 2, 1], 2, (2.5 + 1j, 3, 3)),
        ([2, 1, 1], 0, (3, 2.25, 4)),
        ([1, 1, 1], 3, (2, 3.5 - 2j, 5)),
    ],
    ids=["111-p1", "121-p2-complex", "211-p0", "111-p3-complex"],
)
def test_mellin_check_three_factors_match_exact(ks, p, lam):
    sc = diagonal_scenario(ks, p=p)
    chart = sc.charts[0]
    spec = tube_spec_from_chart(chart, [Fraction(1, 100)] * 3)
    (row,) = mellin_check(spec, sc.testform(chart.name), [lam])
    ref = mellin_exact(sc, chart).eval_complex([complex(z) for z in lam])
    assert abs(ref) > 1e-6
    assert abs(row.transform - ref) <= 1e-10 * abs(ref)
    assert row.rel_error <= 1e-10
    assert row.sign == 1


def test_mellin_check_spectator_variable():
    # n = 2 with one tube factor on x1; x2 is a spectator under a dbar slot
    chart = ChartSpec("s", ((1, 0),), (), (0, 0), 1)
    tf = term([Factor(0, 0, RadialProfile.bump(2)), Factor(1, 1, RadialProfile.bump(2))], {2})
    sc = Scenario(ProblemSignature(2, 1, 0, 1), (chart,), {"s": tf})
    spec = tube_spec_from_chart(chart, [Fraction(1, 100)])
    lam = 3.5 + 0.5j
    (row,) = mellin_check(spec, tf, [[lam]])
    ref = mellin_exact(sc, chart).eval_complex([lam])
    assert abs(ref) > 1e-6
    assert abs(row.transform - ref) <= 1e-10 * abs(ref)
    assert row.rel_error <= 1e-10
    assert row.sign == 1


def test_mellin_check_sign_is_pinned(monkeypatch):
    # an orientation bug that negates every one-factor row must fail the row
    sc = diagonal_scenario([1], p=1)
    chart = sc.charts[0]
    spec = tube_spec_from_chart(chart, [Fraction(1, 100)])
    factor = tubes._tube_factor
    monkeypatch.setattr(tubes, "_tube_factor", lambda *args: -factor(*args))
    (row,) = mellin_check(spec, sc.testform(chart.name), [[3.0]])
    assert abs(row.rel_error - 2) < 1e-9
    assert row.sign == -1


# repr of (transform, rel_error) of one-factor rows: `mellin-check` reports
# carry these floats and the recorded bench digests hash them, so they are
# pinned bit for bit
ONE_FACTOR_ROWS = {
    (1, 0, "3"): ("-0.10471975511965977j", "0.0"),
    (1, 0, "9/4"): ("-0.1732919024604558j", "1.441499441081268e-14"),
    (1, 1, "3"): ("0.6283185307179584j", "3.5339496460705744e-16"),
    (1, 1, "9/4"): ("0.9097824879173982j", "8.786282307542965e-15"),
    (2, 0, "3"): ("-0.024933275028490357j", "2.5046868116525195e-15"),
    (2, 0, "9/4"): ("-0.04686758271089406j", "5.596409594786098e-14"),
    (2, 1, "3"): ("0.22439947525641368j", "4.947529504498804e-16"),
    (2, 1, "9/4"): ("0.3515068703317174j", "2.195134909842025e-14"),
    (3, 0, "3"): ("-0.009519977738150892j", "3.64438557251028e-16"),
    (3, 0, "9/4"): ("-0.019006208656951015j", "1.303355744644313e-13"),
    (3, 1, "3"): ("0.11423973285781054j", "9.71836152669408e-16"),
    (3, 1, "9/4"): ("0.1853105344052889j", "4.118914943930889e-14"),
}


@pytest.mark.parametrize("k, p, lam", sorted(ONE_FACTOR_ROWS))
def test_mellin_check_one_factor_rows_bit_identical(k, p, lam):
    sc = diagonal_scenario([k], p=p)
    chart = sc.charts[0]
    spec = tube_spec_from_chart(chart, [Fraction(1, 100)])
    (row,) = mellin_check(spec, sc.testform(chart.name), [[complex(Fraction(lam))]])
    assert (repr(row.transform), repr(row.rel_error)) == ONE_FACTOR_ROWS[(k, p, lam)]


def test_gauss_legendre_rules_computed_once_per_node_count(monkeypatch):
    import numpy as np

    leggauss = np.polynomial.legendre.leggauss
    calls = []

    def counting(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    mellin._gauss_legendre.cache_clear()
    try:
        # a two-term, n = 3 quadrature runs six variables in each of its passes
        sc = blowup_example()
        two_terms = SeparableTestForm(sc.testform("z").terms[:2])
        scenario = Scenario(sc.signature, (sc.chart("z"),), {"z": two_terms})
        q = mellin_quadrature(scenario, "z", [3.0, 4.0, 5.0])
        assert q.value
        check = diagonal_scenario([1, 1], p=1)
        spec = tube_spec_from_chart(check.charts[0], [Fraction(1, 100)] * 2)
        mellin_check(spec, check.testform(check.charts[0].name), [[3.0, 4.0], [2.5, 3.5]])
    finally:
        mellin._gauss_legendre.cache_clear()
    assert sorted(calls) == [24, 40, 48]


def test_unsupported_tube_shapes():
    with pytest.raises(UnsupportedTubeError):
        TubeSpec(ChartSpec("c", ((1, 0),), ((1, 0),), (0, 0), 1), (Fraction(1, 2), Fraction(1, 2)))
    chart = ChartSpec("c", ((1, 1),), (), (0, 0), 1)
    with pytest.raises(UnsupportedTubeError):
        tube_spec_from_chart(chart, [Fraction(1, 2)])
    jac_chart = ChartSpec("c", ((1, 0),), ((0, 1),), (1, 0), 1)
    with pytest.raises(UnsupportedTubeError):
        tube_spec_from_chart(jac_chart, [Fraction(1, 2), Fraction(1, 2)])


def test_circle_slot_conflict_gives_zero():
    # a conjugate slot on a circle variable contributes nothing
    spec = diagonal_tube([1, 1], 1, (Fraction(1, 4), Fraction(1, 4)))
    tf = term([Factor(0, 0, box()), Factor(1, 0, box())], {1})
    assert tube_integral(spec, tf) == 0


# a knot at 1/3: float radii near it fall on either side of the piece boundary
THIRD_KNOT = RadialProfile(
    (Fraction(0), Fraction(1, 3), Fraction(1)),
    ((Fraction(1), Fraction(-3, 7), Fraction(1, 3)), (Fraction(5, 6), Fraction(0), Fraction(-1, 2))),
)
# mellin_check compares with mellin_exact, which takes only profiles on [0, 1];
# a 1/3 coefficient keeps the exact k = 1 tail's denominators non-dyadic
THIRD_COEFF = RadialProfile.on_unit([1, Fraction(-1, 3), Fraction(-2, 3)])

# repr of tube integrals on the [1, 2, 1] p=1 tube with THIRD_KNOT factors,
# by radii: the tube paths evaluate profiles in floats and must keep these bits
THIRD_KNOT_TUBES = {
    "1/3,1/3,1/3": "19.068705032812673j",
    "1/2,1/9,1/5": "35.84383224563171j",
    "1/5,1/3,1/2": "13.561355903173581j",
}
THIRD_KNOT_LIMIT_SAMPLES = (
    "46.13316642370937j", "82.62877165762765j", "103.15960154703674j", "113.74015532787223j",
    "119.12754695952589j", "121.84725056050894j", "123.2138039412332j", "123.8987805695135j",
    "124.24169692637393j", "124.41326249754593j", "124.49907217907021j", "124.54198374978593j",
    "124.56344121837827j", "124.57417037357634j",
)
# (transform, rel_error) of the rows at lam = (3, ..., 3) and (2.5+1j, 3.25, ...),
# by (ks, the factors' a); every factor has b = 1 and the THIRD_COEFF profile
THIRD_COEFF_CHECKS = {
    ((1, 1), (1, 2)): [
        ("(0.42089424059671976+0j)", "2.3739947611210574e-15"),
        ("(0.40857779956167-0.03550279295253013j)", "2.0739071632514144e-15"),
    ],
    ((1, 2, 1), (1, 3, 2)): [
        ("0.05631925897505358j", "2.0945090278739843e-15"),
        ("(0.00425334922073578+0.04894893952988907j)", "2.4320453348717006e-15"),
    ],
}


def test_third_knot_tube_integrals_and_limit_pinned():
    factors = [Factor(0, 0, THIRD_KNOT), Factor(2, 0, THIRD_KNOT), Factor(1, 0, THIRD_KNOT)]
    sc = diagonal_scenario([1, 2, 1], p=1, factors=factors)
    chart = sc.charts[0]
    tf = sc.testform(chart.name)
    for radii, want in THIRD_KNOT_TUBES.items():
        eps = [Fraction(x) for x in radii.split(",")]
        assert repr(tube_integral(tube_spec_from_chart(chart, eps), tf)) == want
    res = admissible_limit(tube_spec_from_chart(chart, [Fraction(1, 4)] * 3), tf)
    assert tuple(repr(z) for z in res.samples) == THIRD_KNOT_LIMIT_SAMPLES
    assert (repr(res.value), repr(res.error), res.converged) == (
        "124.58489980941064j", "1.050182163453428e-11", True,
    )


def test_tube_command_skips_only_the_origin_value_outside_the_exact_class(capsys, tmp_path):
    # mellin_exact rejects the 1/3 knot; the tube integral and the limit do not need it
    factors = [Factor(0, 0, THIRD_KNOT), Factor(2, 0, THIRD_KNOT), Factor(1, 0, THIRD_KNOT)]
    sc = diagonal_scenario([1, 2, 1], p=1, factors=factors)
    path = tmp_path / "third-knot.json"
    path.write_text(sc.to_json())
    assert main(["tube", str(path), "--eps", "1/4,1/4,1/4", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    results = report["results"]
    spec = tube_spec_from_chart(sc.charts[0], [Fraction(1, 4)] * 3)
    tf = sc.testform(sc.charts[0].name)
    limit = admissible_limit(spec, tf)
    assert complex(results["tube_integral"]["re"], results["tube_integral"]["im"]) == tube_integral(spec, tf)
    assert complex(results["admissible_limit"]["re"], results["admissible_limit"]["im"]) == limit.value
    assert results["limit_error"] == limit.error
    assert results["origin_value"].startswith("skipped (profile knots ('0', '1/3', '1') not in {0,1}")
    assert [(v["name"], v["pass"]) for v in report["verdicts"]] == [
        ("admissible-ratio-condition", True), ("limit-converged", True),
    ]


@pytest.mark.parametrize("ks, a", sorted(THIRD_COEFF_CHECKS))
def test_third_coeff_mellin_check_rows_pinned(ks, a):
    sc = diagonal_scenario(ks, p=1, factors=[Factor(x, 1, THIRD_COEFF) for x in a])
    chart = sc.charts[0]
    spec = tube_spec_from_chart(chart, [Fraction(1, 100)] * len(ks))
    lams = [[3] * len(ks), [2.5 + 1j] + [3.25] * (len(ks) - 1)]
    rows = mellin_check(spec, sc.testform(chart.name), lams)
    assert [(repr(r.transform), repr(r.rel_error)) for r in rows] == THIRD_COEFF_CHECKS[(ks, a)]


@pytest.mark.parametrize("samples", [0, 1])
def test_admissible_limit_needs_two_samples(samples):
    sc = diagonal_scenario([1], p=1)
    chart = sc.charts[0]
    spec = tube_spec_from_chart(chart, [Fraction(1, 4)])
    with pytest.raises(ValueError, match="samples >= 2"):
        admissible_limit(spec, sc.testform(chart.name), samples=samples)
    assert len(admissible_limit(spec, sc.testform(chart.name), samples=2).samples) == 2


def test_chart_sign_applies_to_every_tube_path():
    sc = diagonal_scenario([1, 1], p=1)
    chart = sc.charts[0]
    negative = ChartSpec(chart.name, chart.alpha, chart.beta, chart.jac, -1)
    tf = sc.testform(chart.name)
    eps = [Fraction(1, 100)] * 2
    pos, neg = (tube_spec_from_chart(c, eps) for c in (chart, negative))
    assert tube_integral(neg, tf) == -tube_integral(pos, tf) != 0
    assert admissible_limit(neg, tf).value == -admissible_limit(pos, tf).value
    (row_pos,), (row_neg,) = (mellin_check(s, tf, [[3.0, 3.0]]) for s in (pos, neg))
    assert (row_neg.transform, row_neg.reference) == (-row_pos.transform, -row_pos.reference)
    assert row_neg.rel_error == row_pos.rel_error <= 1e-10
    assert row_neg.sign == 1


@pytest.mark.parametrize("lam", [[3.0, 3.0, 3.0], [3.0]], ids=["long", "short"])
def test_mellin_check_lam_length_is_the_factor_count(lam):
    # a long row used to pass on its first two entries, a short one to fail
    # with an IndexError
    sc = diagonal_scenario([1, 1], p=1)
    spec = tube_spec_from_chart(sc.charts[0], [Fraction(1, 100)] * 2)
    with pytest.raises(ValueError, match="expected 2 parameter values"):
        mellin_check(spec, sc.testform(sc.charts[0].name), [[3.0, 3.0], lam])


def test_tube_spec_needs_one_positive_radius_per_factor():
    chart = diagonal_scenario([1, 2], p=1).charts[0]
    with pytest.raises(ValueError, match="expected 2 tube radii"):
        TubeSpec(chart, (Fraction(1, 4),))
    with pytest.raises(ValueError, match="tube radii must be positive"):
        TubeSpec(chart, (Fraction(1, 4), Fraction(0)))
    spec = tube_spec_from_chart(chart, [Fraction(1, 4), 1])
    assert (spec.chart, spec.eps) == (chart, (Fraction(1, 4), Fraction(1)))
