import random
from fractions import Fraction

import pytest

from residuelab import ScenarioError

from residuelab.extforms import (
    PolyForm,
    annihilated_by_row_differentials,
    build_interpolant,
    d_monomial,
    form_from_obj,
    form_to_obj,
    log_wedge_nonsingular,
    restrict_extend,
    wedge,
)
from residuelab.poly import Poly

from corpus import ci_pullback_instance, random_polyform

ONE = Fraction(1)


def var(n, j):
    return Poly.variable(n, j - 1, ONE)


def test_wedge_basis_order():
    dx1 = PolyForm.basis(3, (1,))
    dx2 = PolyForm.basis(3, (2,))
    assert wedge(dx1, dx2) == PolyForm.basis(3, (1, 2))
    assert wedge(dx2, dx1) == PolyForm.basis(3, (1, 2)).scale(Fraction(-1))


def test_wedge_nilpotent():
    f = PolyForm.basis(3, (1,), var(3, 1))
    assert wedge(f, f).is_zero()


def test_wedge_graded_anticommutative():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 4)
        da, db = rng.randint(0, n), rng.randint(0, n)
        a = random_polyform(rng, n, da)
        b = random_polyform(rng, n, db)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        if (da * db) % 2:
            rhs = -rhs
        assert lhs == rhs


def test_wedge_degree_overflow_is_zero():
    a = PolyForm.basis(2, (1, 2))
    b = PolyForm.basis(2, (1,))
    assert wedge(a, b).is_zero()


def test_d_monomial():
    assert d_monomial(2, (1, 0)) == PolyForm.basis(2, (1,))
    expected = PolyForm.basis(2, (1,), Poly(2, {(1, 1): Fraction(2)})) + PolyForm.basis(
        2, (2,), Poly(2, {(2, 0): ONE})
    )
    assert d_monomial(2, (2, 1)) == expected
    assert d_monomial(2, (0, 3)) == PolyForm.basis(2, (2,), Poly(2, {(0, 2): Fraction(3)}))
    with pytest.raises(ValueError):
        d_monomial(2, (0, 0))


def test_restrict_extend_examples():
    f = PolyForm.basis(3, (2,), var(3, 1)) + PolyForm.basis(3, (1,), var(3, 2))
    assert restrict_extend(f, {1}).is_zero()
    g = PolyForm.basis(3, (2,)) + PolyForm.basis(3, (3,), var(3, 1))
    assert restrict_extend(g, {1}) == PolyForm.basis(3, (2,))
    h = PolyForm.basis(3, (3,), var(3, 2))
    assert restrict_extend(h, {1}) == h


def test_restrict_extend_idempotent_and_commuting():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 5)
        f = random_polyform(rng, n, rng.randint(0, n))
        S = set(rng.sample(range(1, n + 1), rng.randint(1, n)))
        once = restrict_extend(f, S)
        assert restrict_extend(once, S) == once
        T = set(rng.sample(range(1, n + 1), rng.randint(1, n))) - S
        assert restrict_extend(restrict_extend(f, S), T) == restrict_extend(
            restrict_extend(f, T), S
        )


def test_interpolant_empty_set():
    g = PolyForm.basis(3, (2,))
    assert build_interpolant(g, set()).is_zero()


def test_interpolant_single_restriction():
    g = PolyForm.basis(3, (2,)) + PolyForm.basis(3, (3,), var(3, 1))
    assert build_interpolant(g, {1}) == PolyForm.basis(3, (2,))


def test_interpolant_fixed_form():
    # form independent of the restricted variables: alternating sum collapses to it
    g = PolyForm.basis(3, (3,), Poly(3, {(0, 0, 2): ONE}))
    assert build_interpolant(g, {1, 2}) == g


def test_nonsingular_report_examples():
    psi = PolyForm.basis(3, (2,)) + PolyForm.basis(3, (3,), var(3, 1))
    omega = PolyForm.basis(3, (2,))
    assert log_wedge_nonsingular(psi, omega, {1}) == {1: True}
    assert log_wedge_nonsingular(PolyForm.basis(3, (2,)), PolyForm.zero(3, 1), {1}) == {1: False}


def test_interpolant_satisfies_divisibility_for_all_forms():
    rng = random.Random(8)
    for _ in range(80):
        n = rng.randint(2, 5)
        d = rng.randint(0, n)
        K = set(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
        psi = random_polyform(rng, n, d)
        omega = build_interpolant(psi, K)
        assert all(log_wedge_nonsingular(psi, omega, K).values())


def test_interpolant_of_divisible_form_vanishes_against_it():
    # when psi already vanishes on every {x_j = 0}, psi - interpolant is
    # divisible by the product of the x_j
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 4)
        K = set(rng.sample(range(1, n + 1), rng.randint(1, 2)))
        blocker = Poly.const(n, ONE)
        for j in K:
            blocker = blocker * var(n, j)
        psi = random_polyform(rng, n, rng.randint(0, n)).mul_poly(blocker)
        omega = build_interpolant(psi, K)
        diff = psi - omega
        for idx, coeff in diff.terms.items():
            for j in K:
                if j not in idx:
                    assert coeff.divisible_monomial(j - 1)


def test_row_differentials_annihilate_examples():
    assert annihilated_by_row_differentials(PolyForm.basis(3, (2,)), [(0, 3, 0)])
    assert not annihilated_by_row_differentials(
        PolyForm.basis(3, (3,)), [(1, 0, 0), (0, 1, 0)]
    )


def test_ci_pullback_instances_pass_both_checks():
    rng = random.Random(10)
    for _ in range(40):
        psih, K, alpha_rows = ci_pullback_instance(rng)
        omega = build_interpolant(psih, K)
        assert all(log_wedge_nonsingular(psih, omega, K).values())
        assert annihilated_by_row_differentials(omega, alpha_rows)


def test_case_both_vars_divide_pv_factor():
    # derivative rows on x1 and x2, the principal-value factor divisible by
    # both: the four-term replacement interpolant passes both checks
    from residuelab.extforms import pullback_monomial
    from corpus import random_poly

    rng = random.Random(11)
    S = [[1, 0, 0], [0, 1, 0], [1, 1, 1]]  # y3 pulls back to x1*x2*x3
    alpha_rows = [(1, 0, 0), (0, 2, 0)]
    K = {1, 2, 3}
    for _ in range(20):
        psi = PolyForm.zero(3, 1)
        for j in (1, 2, 3):
            psi = psi + PolyForm.basis(3, (j,), random_poly(rng, 3, 1, 2))
        psih = pullback_monomial(psi, S, 3)
        omega = build_interpolant(psih, K)
        assert all(log_wedge_nonsingular(psih, omega, K).values())
        assert annihilated_by_row_differentials(omega, alpha_rows)


@pytest.mark.parametrize(
    "obj, path",
    [
        ({"degree": 0, "terms": 5}, "psi"),
        ({"degree": 0, "terms": ["x"]}, "psi.terms[0]"),
        ({"degree": 0, "terms": [[1]]}, "psi.terms[0]"),
        ({"degree": 0, "terms": [{"idx": [], "poly": [7]}]}, "psi.terms[0].poly[0]"),
        ({"degree": 1, "terms": [{"idx": [1], "poly": [{"exps": [0, 0], "coeff": 1}, "m"]}]},
         "psi.terms[0].poly[1]"),
        ({"degree": 0, "terms": [{"idx": [], "poly": 5}]}, "psi.terms[0].poly"),
        ({"degree": 1, "terms": [{"idx": ["a"], "poly": []}]}, "psi.terms[0].idx[0]"),
        ({"degree": 1, "terms": [{"idx": [[1]], "poly": []}]}, "psi.terms[0].idx[0]"),
        ({"degree": 0, "terms": [{"idx": [], "poly": [{"exps": ["a", 0], "coeff": 1}]}]},
         "psi.terms[0].poly[0].exps[0]"),
        ({"degree": 0, "terms": [{"idx": [], "poly": [{"exps": [0, -1], "coeff": 1}]}]},
         "psi.terms[0].poly[0].exps[1]"),
        ({"degree": "1", "terms": []}, "psi.degree"),
    ],
    ids=["terms-not-list", "term-string", "term-list", "monomial-int", "second-monomial",
         "poly-not-list", "idx-string", "idx-list", "exps-string", "exps-negative", "degree-string"],
)
def test_form_literal_malformed_fields_name_the_path(obj, path):
    with pytest.raises(ScenarioError) as err:
        form_from_obj(obj, 2, "psi")
    assert err.value.path == path


def test_form_literals_roundtrip():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(2, 4)
        f = random_polyform(rng, n, rng.randint(0, n))
        assert form_from_obj(form_to_obj(f), n) == f
