import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from residuelab import (
    ChartSpec,
    LinForm,
    MeroValue,
    ProblemSignature,
    ResonantUnitsError,
    Scenario,
    blowup_example,
    chart_certificate,
    expand,
    global_certificate,
    mellin_exact,
    rank_basis,
)
from residuelab.leibniz import halfspace_width, shape_violations, subset_determinant
from residuelab.mellin import chart_sum

from corpus import absorbing_testform, random_chart, random_chart_scenario
from engine_reference import det_by_fractions


def test_rank_basis_examples():
    assert rank_basis([(0, 1, 0), (0, 1, 1)]) == (2, [1, 2])
    assert rank_basis([(1, 1), (2, 2)]) == (1, [1])
    assert rank_basis([]) == (0, [])


def test_rank_basis_lex_first():
    assert rank_basis([(1, 0), (2, 0), (0, 1)]) == (2, [1, 3])


def test_expand_blowup_chart_z():
    chart = blowup_example().chart("z")
    terms = expand(chart)
    assert len(terms) == 1
    t = terms[0]
    assert t.subset == (2, 3)
    assert t.det == 1
    assert t.denominators == (LinForm.normalize((1, 1, 0)),)
    assert t.cancelled == ((2, LinForm.normalize((0, 1, 0))),)
    assert t.numerator_axes == (1,)
    assert t.dbar_profile == ()


def test_expand_absorption_makes_analytic():
    # second derivative row's column lies on the principal-value divisor
    chart = ChartSpec("c", ((1, 0, 0), (0, 1, 0)), ((0, 1, 1),), (0, 0, 0), 1)
    terms = expand(chart)
    assert len(terms) == 1
    t = terms[0]
    assert t.subset == (1, 2)
    assert t.denominators == ()
    assert t.cancelled == ((1, LinForm.normalize((1, 0, 0))),)
    assert t.dbar_profile == (2,)
    assert chart_certificate(chart).forms == frozenset()
    # cross-check against the exact oracle on absorbing random test forms
    rng = random.Random(20)
    sig = ProblemSignature(n=3, p=2, q=1, N=1)
    for _ in range(10):
        sc = Scenario(sig, (chart,), {"c": absorbing_testform(rng, chart)})
        assert mellin_exact(sc, chart).reduced().hyperplane_forms() == frozenset()


def test_expand_single_power_analytic():
    chart = ChartSpec("c", ((3,),), (), (0,), 1)
    terms = expand(chart)
    assert len(terms) == 1
    assert terms[0].denominators == ()
    assert chart_certificate(chart).forms == frozenset()


def test_chart_certificates_blowup():
    sc = blowup_example()
    pair = frozenset({LinForm.normalize((1, 1, 0))})
    assert chart_certificate(sc.chart("z")).forms == pair
    assert chart_certificate(sc.chart("zeta")).forms == pair


def test_chart_certificate_diagonal_empty():
    chart = ChartSpec("c", ((1, 0), (0, 1)), (), (0, 0), 1)
    assert chart_certificate(chart).forms == frozenset()


def test_global_certificate_blowup():
    sc = blowup_example()
    assert global_certificate(sc).forms == frozenset()
    dropped = sc.without_chart("zeta")
    assert global_certificate(dropped).forms == frozenset({LinForm.normalize((1, 1, 0))})


@pytest.mark.parametrize("drop", [None, "zeta"])
def test_global_certificate_forms_are_the_chart_sum_poles(drop):
    sc = blowup_example()
    if drop:
        sc = sc.without_chart(drop)
    total = MeroValue.zero(sc.signature.nfactors)
    for chart in sc.charts:
        total = total + mellin_exact(sc, chart)
    total = total.reduced()
    assert chart_sum(sc)[0] == total
    assert global_certificate(sc).forms == total.hyperplane_forms()


def test_global_certificate_single_chart_within_chart_cert():
    rng = random.Random(21)
    for _ in range(20):
        sc = random_chart_scenario(rng, nmax=3, pmax=3, qmax=2)
        chart = sc.charts[0]
        assert global_certificate(sc).forms <= chart_certificate(chart).forms


def test_certificate_shape_random_charts():
    rng = random.Random(22)
    for _ in range(60):
        chart = random_chart(rng)
        cert = chart_certificate(chart)
        assert not shape_violations(cert, chart.p)


def test_oracle_soundness_sample():
    rng = random.Random(23)
    for _ in range(40):
        sc = random_chart_scenario(rng, nmax=3, pmax=3, qmax=3)
        chart = sc.charts[0]
        cert = chart_certificate(chart)
        v = mellin_exact(sc, chart).reduced()
        assert v.hyperplane_forms() <= cert.forms


def test_permutation_equivariance_of_certificates():
    rng = random.Random(24)
    for _ in range(25):
        chart = random_chart(rng, nmax=4)
        perm = list(range(chart.n))
        rng.shuffle(perm)
        relabeled = ChartSpec(
            chart.name,
            tuple(tuple(row[j] for j in perm) for row in chart.alpha),
            tuple(tuple(row[j] for j in perm) for row in chart.beta),
            tuple(chart.jac[j] for j in perm),
            chart.sign,
        )
        # parameter forms do not mention variables, so the certificate is unchanged
        assert chart_certificate(relabeled).forms == chart_certificate(chart).forms


def test_certificate_independent_of_N():
    rng = random.Random(25)
    chart = random_chart(rng)
    base = chart_certificate(chart)
    assert halfspace_width(chart) > 0
    for N in (1, 2, 3, 4, 5):
        # expansion never consults N; recompute to make that an explicit contract
        again = chart_certificate(chart)
        assert again.forms == base.forms
        assert again.halfspace.eps == base.halfspace.eps


def test_resonant_units_rejected():
    chart = ChartSpec("c", ((1, 1), (2, 2)), (), (0, 0), 1, (False, True))
    with pytest.raises(ResonantUnitsError):
        expand(chart)
    flagged_beta = ChartSpec("c", ((1, 0),), ((0, 1),), (0, 0), 1, (False, True))
    with pytest.raises(ResonantUnitsError):
        expand(flagged_beta)


def test_basis_row_unit_flag_allowed():
    chart = ChartSpec("c", ((1, 0),), ((0, 1),), (0, 0), 1, (True, False))
    expand(chart)


def test_zero_alpha_row_flagged_is_resonant():
    chart = ChartSpec("c", ((0, 0),), ((0, 1),), (0, 0), 1, (True, False))
    with pytest.raises(ResonantUnitsError):
        expand(chart)


def test_halfspace_width_value():
    chart = blowup_example().chart("z")
    # largest stacked column total is 2, so width 1/3 clears every shifted pole
    assert halfspace_width(chart) == Fraction(1, 3)


@st.composite
def _determinant_cases(draw):
    """Rows of up to 4 integers, a few columns to spare, and the columns to
    keep in any order: zeros are common, so pivots often need a row swap, and
    a repeated row or column makes some matrices singular."""
    size = draw(st.integers(0, 4))
    width = size + draw(st.integers(0, 2))
    entries = st.one_of(st.just(0), st.integers(-4, 4))
    rows = [draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(size)]
    if size >= 2 and draw(st.booleans()):
        rows[draw(st.integers(1, size - 1))] = list(rows[0])
    cols = draw(st.permutations(range(1, width + 1)))[:size]
    if size >= 2 and draw(st.booleans()):
        cols[-1] = cols[0]
    return rows, cols


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(case=_determinant_cases())
@example(case=([[0, 1], [1, 0]], [1, 2]))
@example(case=([[0, 0, 2], [0, 3, 1], [5, 1, 1]], [1, 2, 3]))
@example(case=([[1, 2], [2, 4]], [1, 2]))
def test_subset_determinant_equals_elimination_over_fractions(case):
    # Bareiss in integers against Gaussian elimination over Fraction
    rows, cols = case
    want = det_by_fractions([[row[i - 1] for i in cols] for row in rows])
    assert want.denominator == 1
    assert repr(subset_determinant(rows, cols)) == repr(int(want))
