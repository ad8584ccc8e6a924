import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import tube_reference
from residuelab import mellin, tubes
from residuelab import (
    ChartSpec,
    Factor,
    InputError,
    ProblemSignature,
    QI,
    RadialProfile,
    Scenario,
    ScenarioError,
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


def _unchecked_tube(chart, eps):
    """The tube at `eps` without TubeSpec's checks: from t = 2^-9 on, the first
    of three path radii, t^121, is below 2^-1075, which TubeSpec rejects and
    the limit's samples read as 0.0."""
    spec = object.__new__(TubeSpec)
    object.__setattr__(spec, "chart", chart)
    object.__setattr__(spec, "eps", tuple(eps))
    return spec


def test_admissible_limit_samples_equal_tube_integrals():
    # the one path: eps_j = t^(11^(count-1-j)) at t = 2^-1 ... 2^-14
    assert tubes.path_exponents(3) == (121, 11, 1)
    ts = [Fraction(1, 2) ** (j + 1) for j in range(14)]
    for ks, p in [([2], 1), ([1, 2], 1), ([1, 2, 1], 2)]:
        sc = diagonal_scenario(ks, p=p)
        chart = sc.charts[0]
        tf = sc.testform(chart.name)
        res = admissible_limit(tube_spec_from_chart(chart, [Fraction(1, 4)] * len(ks)), tf)
        exponents = tubes.path_exponents(len(ks))
        direct = [tube_integral(_unchecked_tube(chart, [t**e for e in exponents]), tf) for t in ts]
        assert any(direct)
        assert [repr(z) for z in res.samples] == [repr(z) for z in direct], ks


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
    factors = tubes._tube_factors
    monkeypatch.setattr(tubes, "_tube_factors", lambda *args: [-x for x in factors(*args)])
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
    # the quadrature's radial grids are built from the rules, so they go too
    mellin._gauss_legendre.cache_clear()
    mellin._radial_grid.cache_clear()
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
        mellin._radial_grid.cache_clear()
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
    assert results["origin_value"].startswith(
        "skipped (testforms['diag'].terms[0].factors[0].rho: profile knots ('0', '1/3', '1') not in {0,1}"
    )
    assert [(v["name"], v["pass"]) for v in report["verdicts"]] == [
        ("admissible-ratio-condition", True), ("limit-converged", True),
    ]


# SHA-256 of `tube --format json` reports at the default radii, without
# `inputs.options` and `inputs.scenario` (flags and the file's path), by tube:
# every float, exact value and verdict of the report is held to these bytes
TUBE_REPORTS = {
    ((1, 1), 1, None): "b9c790a0b16cf59e5c61d1259ec6b5f5b06816f8ac5547b94826b7fef72d1e31",
    ((2, 1), 0, None): "b791d23b1d7cb87199c5be8338a821c483e5b47b022337832c7ea5eae3993968",
    ((1, 1, 1), 1, None): "08f6aff058332018d1601840e749a6f1ab23f1a103e5ad1f700853bdac3e02f0",
    ((3, 1), 2, None): "a7322d82a6dcb92c10234658376ad83062f78c2d1610c6289fb89817291bd4d6",
    ((1, 1, 1, 1), 2, None): "c36cbdcde34ea179ecbb6b358b371fdf33d85432e70b749d1c6765100e091b3a",
    ((1, 2, 1), 1, "third-knot"): "5756ba5dccb72007197d9750a0f1e030aab0c5a069db9482a227d7be9dabd212",
}


@pytest.mark.parametrize("ks, p, profile", sorted(TUBE_REPORTS, key=repr))
def test_tube_report_bytes_pinned(capsys, tmp_path, ks, p, profile):
    factors = [Factor(a, 0, THIRD_KNOT) for a in (0, 2, 1)] if profile else None
    path = tmp_path / "tube.json"
    path.write_text(diagonal_scenario(list(ks), p=p, factors=factors).to_json())
    assert main(["tube", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["inputs"]["options"], report["inputs"]["scenario"]
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == TUBE_REPORTS[ks, p, profile]


@pytest.mark.parametrize("ks, a", sorted(THIRD_COEFF_CHECKS))
def test_third_coeff_mellin_check_rows_pinned(ks, a):
    sc = diagonal_scenario(ks, p=1, factors=[Factor(x, 1, THIRD_COEFF) for x in a])
    chart = sc.charts[0]
    spec = tube_spec_from_chart(chart, [Fraction(1, 100)] * len(ks))
    lams = [[3] * len(ks), [2.5 + 1j] + [3.25] * (len(ks) - 1)]
    rows = mellin_check(spec, sc.testform(chart.name), lams)
    assert [(repr(r.transform), repr(r.rel_error)) for r in rows] == THIRD_COEFF_CHECKS[(ks, a)]


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


# diagonal shapes, p, and the variable each residue row sits on: an odd order
ODD_ROW_ORDERS = [
    ([1, 1], 2, (1, 0)),
    ([1, 2], 2, (1, 0)),
    ([1, 1, 1], 2, (1, 0)),
    ([2, 1, 1], 3, (1, 0, 2)),
    ([1, 1, 1], 3, (2, 1, 0)),
]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("ks, p, order", ODD_ROW_ORDERS)
def test_tube_paths_carry_the_sign_of_an_odd_residue_row_order(ks, p, order, sign):
    # residue row j is x_order[j]^k: the residue block's determinant is
    # negative, and every tube path must follow the exact value's sign
    sc = diagonal_scenario(ks, p=p)
    chart = sc.charts[0]
    tf = sc.testform(chart.name)
    straight = ChartSpec(chart.name, chart.alpha, chart.beta, chart.jac, sign)
    permuted = ChartSpec(chart.name, tuple(chart.alpha[i] for i in order), chart.beta, chart.jac, sign)
    eps = [Fraction(1, 3 + i) for i in range(len(ks))]
    moved = [eps[i] for i in order] + eps[p:]
    # the same tube with its residue rows listed in another order
    assert tube_integral(TubeSpec(permuted, moved), tf) == -tube_integral(TubeSpec(straight, eps), tf) != 0
    exact = mellin_exact(Scenario(sc.signature, (permuted,), {chart.name: tf}), permuted)
    ref = value_at_origin(exact).as_complex()
    res = admissible_limit(TubeSpec(permuted, [Fraction(1, 4)] * len(ks)), tf)
    assert abs(res.value - ref) <= 1e-6 * abs(ref)
    rows = mellin_check(TubeSpec(permuted, eps), tf, [[3.0] * len(ks), [2.5 + 1j] + [3.25] * (len(ks) - 1)])
    assert [row.sign for row in rows] == [1, 1]
    assert max(row.rel_error for row in rows) <= 1e-9


@pytest.mark.parametrize("lam", [[3.0, 3.0, 3.0], [3.0]], ids=["long", "short"])
def test_mellin_check_lam_length_is_the_factor_count(lam):
    # a long row used to pass on its first two entries, a short one to fail
    # with an IndexError
    sc = diagonal_scenario([1, 1], p=1)
    spec = tube_spec_from_chart(sc.charts[0], [Fraction(1, 100)] * 2)
    with pytest.raises(ValueError, match="expected 2 parameter values"):
        mellin_check(spec, sc.testform(sc.charts[0].name), [[3.0, 3.0], lam])


@pytest.mark.parametrize(
    "call, path",
    [
        (lambda sc, spec: mellin_quadrature(sc, sc.charts[0], [3.0]), "lam"),
        (lambda sc, spec: mellin_quadrature(sc, sc.charts[0], [1.5, 3.0]), "lam"),
        (lambda sc, spec: mellin_check(spec, sc.testform(sc.charts[0].name), [[3.0]]), "lambdas"),
        (lambda sc, spec: mellin_check(spec, sc.testform(sc.charts[0].name), [[3.0, 1.5]]), "lambdas"),
        (lambda sc, spec: TubeSpec(sc.charts[0], (Fraction(1, 4),)), "eps"),
    ],
    ids=["quadrature-length", "quadrature-zone", "check-length", "check-zone", "radius-count"],
)
def test_parameter_errors_name_the_parameter(call, path):
    sc = diagonal_scenario([1, 1], p=1)
    spec = tube_spec_from_chart(sc.charts[0], [Fraction(1, 100)] * 2)
    with pytest.raises(ScenarioError) as info:
        call(sc, spec)
    assert info.value.path == path


def test_tube_spec_needs_one_positive_radius_per_factor():
    chart = diagonal_scenario([1, 2], p=1).charts[0]
    with pytest.raises(ValueError, match="expected 2 tube radii"):
        TubeSpec(chart, (Fraction(1, 4),))
    with pytest.raises(ValueError, match="tube radii must be positive"):
        TubeSpec(chart, (Fraction(1, 4), Fraction(0)))
    spec = tube_spec_from_chart(chart, [Fraction(1, 4), 1])
    assert (spec.chart, spec.eps) == (chart, (Fraction(1, 4), Fraction(1)))


@pytest.mark.parametrize(
    "eps",
    [
        (Fraction(1, 4),),
        (Fraction(1, 4), Fraction(0)),
        (Fraction(1, 4), 0.0),
        (Fraction(-1, 4), 1),
        (Fraction(1, 10**400), 1),
        (Fraction(10**400), 1),
    ],
    ids=["count", "zero", "float-zero", "negative", "rounds-to-zero", "overflows"],
)
def test_bad_tube_radii_are_input_errors(eps):
    chart = diagonal_scenario([1, 1], p=1).charts[0]
    with pytest.raises(InputError):
        TubeSpec(chart, eps)


@pytest.mark.parametrize("lam", [[3.0], [3.0, 1.5], [3.0, 1.0 + 5j]], ids=["count", "re-below-2", "complex"])
def test_bad_parameter_points_are_input_errors(lam):
    sc = diagonal_scenario([1, 1], p=1)
    chart = sc.charts[0]
    with pytest.raises(InputError):
        mellin_check(tube_spec_from_chart(chart, [Fraction(1, 4)] * 2), sc.testform(chart.name), [lam])
    with pytest.raises(InputError):
        mellin_quadrature(sc, chart, lam)


def test_tube_spec_rejects_a_radius_that_rounds_to_zero_as_a_float():
    chart = diagonal_scenario([1, 1], p=1).charts[0]
    with pytest.raises(ValueError, match="rounds to 0.0"):
        TubeSpec(chart, (Fraction(1, 10**400), Fraction(1)))
    # 2^-1075 ties to 0.0; the next rational above it rounds to the least subnormal
    with pytest.raises(ValueError, match="rounds to 0.0"):
        TubeSpec(chart, (Fraction(1, 2**1075), Fraction(1)))
    assert float(TubeSpec(chart, (Fraction(1, 2**1075) * Fraction(1001, 1000), 1)).eps[0]) == 5e-324


# --- the batched tube factors against the one-radius reference ---------------

F = Fraction
OFF_UNIT_KNOTS = (F(1, 5), F(1, 2), F(7, 3))
_rationals = st.builds(F, st.integers(-7, 7), st.integers(1, 9))


@st.composite
def _factor_profiles(draw):
    kind = draw(st.sampled_from(["bump", "on_unit", "third", "off_unit", "zero"]))
    if kind == "bump":
        return RadialProfile.bump(draw(st.integers(1, 4)))
    if kind == "on_unit":
        return RadialProfile.on_unit(draw(st.lists(_rationals, min_size=1, max_size=4)))
    if kind == "third":
        return THIRD_KNOT
    if kind == "off_unit":
        pieces = tuple(tuple(draw(st.lists(_rationals, max_size=4))) for _ in OFF_UNIT_KNOTS[1:])
        return RadialProfile(OFF_UNIT_KNOTS, pieces)
    return RadialProfile.zero()


def _edge_radii(rho, k):
    """0, the least subnormal, and radii whose t0 = eps^(1/k) lands on each
    knot and one ulp to either side, as floats and as Fractions; and radii
    beyond the support."""
    out = [0.0, 5e-324, F(0), 5.0, F(9), 1e3]
    for knot in rho.knots:
        for x in (float(knot), float(knot) ** k):
            out += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
        out += [knot, knot**k]
    return [r for r in out if r >= 0]  # a radius is never negative


@st.composite
def _factor_cases(draw):
    rho = draw(_factor_profiles())
    f = Factor(draw(st.integers(0, 3)), draw(st.integers(0, 3)), rho)
    k = draw(st.integers(1, 3))
    # (j, p): a circle, an exterior or a spectator
    j, p = draw(st.sampled_from([(0, 1), (1, 2), (0, 0), (1, 1), (None, 1)]))
    extra = draw(
        st.lists(
            st.one_of(
                st.floats(1e-12, 3.0),
                st.builds(F, st.integers(1, 40), st.integers(1, 12)),
            ),
            max_size=6,
        )
    )
    radii = _edge_radii(rho, k) + extra
    draw(st.randoms()).shuffle(radii)
    return k, j, f, p, radii


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=_factor_cases())
def test_tube_factors_equal_the_one_radius_reference_bit_for_bit(case):
    k, j, f, p, radii = case
    got = tubes._tube_factors(k, j, f, p, radii)
    want = [tube_reference.tube_factor(k, j, f, p, r) for r in radii]
    assert [repr(z) for z in got] == [repr(z) for z in want], (k, j, p, str(f.rho), f.a, f.b)


def test_one_mellin_check_with_five_lambdas_equals_five_calls():
    sc = diagonal_scenario([1, 2, 1], p=1, factors=[Factor(x, 1, THIRD_COEFF) for x in (1, 3, 2)])
    chart = sc.charts[0]
    spec = tube_spec_from_chart(chart, [Fraction(1, 100)] * 3)
    tf = sc.testform(chart.name)
    lams = [[3, 3, 3], [2.5 + 1j, 3.25, 3.25], [4, 2, 5], [2, 5 - 1j, 3], [3.5, 3.5, 2.25]]
    rows = mellin_check(spec, tf, lams)
    singles = [row for lam in lams for row in mellin_check(spec, tf, [lam])]
    assert [repr(r) for r in rows] == [repr(r) for r in singles]


def test_mellin_check_parameter_beyond_the_float_range_is_an_input_error():
    sc = diagonal_scenario([1, 1], p=1)
    chart = sc.charts[0]
    spec = tube_spec_from_chart(chart, [Fraction(1, 100)] * 2)
    with pytest.raises(InputError, match="lambdas: value beyond the float range"):
        mellin_check(spec, sc.testform(chart.name), [[Fraction(10**400), 3]])


def test_mellin_check_ignores_terms_selection_drops():
    # angular selection drops the twisted term, so its 1/3 knots, which no
    # transform reads, must not move the grid
    sc = diagonal_scenario([1, 1], p=1)
    chart = sc.charts[0]
    tf = sc.testform(chart.name)
    twisted = SeparableTerm(QI.one(), (Factor(0, 0, THIRD_KNOT), Factor(2, 0, THIRD_KNOT)), frozenset({2}))
    spec = tube_spec_from_chart(chart, [Fraction(1, 100)] * 2)
    lambdas = [[3, 3], [2.25, 4.5]]
    got = mellin_check(spec, SeparableTestForm(tf.terms + (twisted,)), lambdas)
    assert [repr(row) for row in got] == [repr(row) for row in mellin_check(spec, tf, lambdas)]


# --- the Mellin check against the per-panel reference ------------------------


@st.composite
def _check_cases(draw):
    """A diagonal tube of 1-3 factors at any p, each variable's factor drawn
    from bumps and polynomials on [0, 1], and 1-3 real or complex lambdas."""
    ks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    p = draw(st.integers(0, len(ks)))
    profiles = st.one_of(
        st.builds(RadialProfile.bump, st.integers(1, 3)),
        st.builds(RadialProfile.on_unit, st.lists(_rationals, min_size=1, max_size=3)),
    )
    factors = None
    if draw(st.booleans()):
        factors = [Factor(draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(profiles)) for _ in ks]
    sc = diagonal_scenario(ks, p=p, factors=factors)
    re = st.floats(2, 6, allow_nan=False)
    im = st.one_of(st.just(0.0), st.floats(-4, 4, allow_nan=False))
    lam = st.lists(st.builds(complex, re, im), min_size=len(ks), max_size=len(ks))
    return sc, draw(st.lists(lam, min_size=1, max_size=3))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(case=_check_cases())
def test_mellin_check_equals_the_per_panel_reference_bit_for_bit(case):
    sc, lambdas = case
    chart = sc.charts[0]
    spec = tube_spec_from_chart(chart, [Fraction(1, 100)] * chart.n)
    tf = sc.testform(chart.name)
    got = mellin_check(spec, tf, lambdas)
    want = tube_reference.mellin_check_per_panel(spec, tf, lambdas)
    assert [repr(row) for row in got] == [repr(row) for row in want]
