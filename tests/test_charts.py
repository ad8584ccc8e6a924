import functools
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residuelab import (
    QI,
    ChartSpec,
    ExactnessError,
    Factor,
    ProblemSignature,
    RadialProfile,
    Scenario,
    ScenarioError,
    SeparableTerm,
    SeparableTestForm,
    blowup_base,
    blowup_example,
    blowup_parts,
    integrate_by_parts,
    mellin_exact,
    parse_scenario,
    pullback,
)
from residuelab.charts import example_profiles
from residuelab.extforms import d_monomial, wedge
from residuelab.mellin import chart_sum
from toric_towers import cone_substitution, farey_cones, tower


MINIMAL = {
    "signature": {"n": 1, "p": 0, "q": 1, "N": 1},
    "charts": [{"name": "c", "alpha": [], "beta": [[1]], "jac": [0], "sign": 1}],
    "testforms": {},
}


def test_parse_minimal():
    sc = parse_scenario(json.dumps(MINIMAL))
    assert sc.signature.q == 1
    assert sc.charts[0].pv_divisor_vars() == frozenset({1})


def test_parse_blowup_example_roundtrip():
    sc = blowup_example()
    doc = sc.to_json()
    sc2 = parse_scenario(doc)
    assert [c.name for c in sc2.charts] == ["z", "zeta"]
    assert sc2.to_obj() == sc.to_obj()
    assert sc2.to_json() == doc


def test_parse_negative_exponent_path():
    bad = json.loads(json.dumps(MINIMAL))
    bad["charts"][0]["beta"] = [[-1]]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    assert err.value.path == "charts[0].beta[0][0]"


@pytest.mark.parametrize(
    "document", [io.StringIO("{not json"), b"\xff{}", "{not json"], ids=["file", "bytes", "str"]
)
def test_parse_invalid_json_is_a_scenario_error(document):
    # library callers catch InputError, so a file object or bytes must not leak json's errors
    with pytest.raises(ScenarioError) as err:
        parse_scenario(document)
    assert err.value.path == "$"


def test_parse_duplicate_chart_name():
    bad = json.loads(json.dumps(MINIMAL))
    bad["charts"].append(dict(bad["charts"][0]))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    assert "duplicate" in str(err.value)


def test_parse_dimension_mismatch():
    bad = json.loads(json.dumps(MINIMAL))
    bad["charts"][0]["beta"] = [[1, 2]]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    assert err.value.path.startswith("charts[0].beta")


def test_parse_dbar_slot_count():
    doc = blowup_example().to_obj()
    doc["testforms"]["z"]["terms"][0]["dbar_slots"] = [1, 2]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "dbar_slots" in err.value.path


@pytest.mark.parametrize("coeff", ["1", [1, 2], 3])
def test_parse_non_object_coeff_path(coeff):
    doc = blowup_example().to_obj()
    doc["testforms"]["z"]["terms"][0]["coeff"] = coeff
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.path == "testforms['z'].terms[0].coeff"


@pytest.mark.parametrize(
    "field, value, path",
    [
        ("pieces", [5], "rho.pieces[0]"),
        ("pieces", 5, "rho.pieces"),
        ("knots", 5, "rho.knots"),
    ],
)
def test_parse_profile_lists_name_the_field(field, value, path):
    doc = blowup_example().to_obj()
    doc["testforms"]["z"]["terms"][0]["factors"][0]["rho"][field] = value
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.path == "testforms['z'].terms[0].factors[0]." + path
    assert "expected a list" in err.value.message


@pytest.mark.parametrize("flags", [["a", False, False], [1, 0, 0], [True, None, False]])
def test_parse_unit_flags_must_be_booleans(flags):
    doc = blowup_example().to_obj()
    doc["charts"][0]["unit_flags"] = flags
    bad = next(j for j, v in enumerate(flags) if not isinstance(v, bool))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.path == f"charts[0].unit_flags[{bad}]"
    doc["charts"][0]["unit_flags"] = [True, False, False]
    assert parse_scenario(doc).charts[0].unit_flags == (True, False, False)


def test_zero_alpha_row_needs_unit_flag():
    bad = {
        "signature": {"n": 2, "p": 1, "q": 0, "N": 1},
        "charts": [{"name": "c", "alpha": [[0, 0]], "beta": [], "jac": [0, 0], "sign": 1}],
    }
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    assert "unit flag" in str(err.value)
    bad["charts"][0]["unit_flags"] = [True]
    parse_scenario(bad)  # accepted at the data level


def test_signature_invariants():
    with pytest.raises(ScenarioError):
        ProblemSignature(n=0, p=0, q=1)
    with pytest.raises(ScenarioError):
        ProblemSignature(n=2, p=0, q=0)
    with pytest.raises(ScenarioError):
        ProblemSignature(n=1, p=2, q=0)
    with pytest.raises(ScenarioError):
        ProblemSignature(n=1, p=1, q=0, N=0)


def test_pv_divisor_vars():
    c = ChartSpec("c", ((1, 0, 0),), ((1, 0, 0),), (0, 0, 0), 1)
    assert c.pv_divisor_vars() == frozenset({1})
    c2 = ChartSpec("c", ((1, 0, 0),), (), (0, 0, 0), 1)
    assert c2.pv_divisor_vars() == frozenset()
    c3 = ChartSpec("c", ((1, 0, 0),), ((0, 1, 1), (0, 0, 2)), (0, 0, 0), 1)
    assert c3.pv_divisor_vars() == frozenset({2, 3})


def test_blowup_example_bytes_pinned():
    # recorded before the charts were derived by `pullback`: every degree and seed, both paths
    h = hashlib.sha256()
    for d in range(1, 9):
        for s in (None, 1, 2, 3, 4, 5):
            h.update(blowup_example(d, s).to_json().encode() + b"\n")
            h.update(blowup_example(profiles=example_profiles(d, s)).to_json().encode() + b"\n")
    assert h.hexdigest() == "b7574b577d2cbb1f780a1183940de7df57f46240aa0f0c7c6603d9264bca26a1"


def test_blowup_parts_bytes_pinned():
    # recorded before `blowup_parts` was derived by `integrate_by_parts`
    h = hashlib.sha256()
    for d in range(1, 9):
        for s in (None, 1, 2, 3):
            h.update(blowup_parts(d, s).to_json().encode() + b"\n")
            h.update(blowup_parts(profiles=example_profiles(d, s)).to_json().encode() + b"\n")
    assert h.hexdigest() == "e69e4e03f7dba70073362a9041d15d551e438828739a52f75d7c1ca6e64801d3"


def test_blowup_example_rows():
    sc = blowup_example()
    z = sc.chart("z")
    zeta = sc.chart("zeta")
    assert z.alpha == ((0, 1, 0), (0, 1, 1))
    assert zeta.alpha == ((0, 1, 1), (0, 1, 0))
    assert z.beta == zeta.beta == ((1, 0, 0),)
    assert z.pv_divisor_vars() == zeta.pv_divisor_vars() == frozenset({1})


def _tower_charts():
    # one fixed Farey tower, every cone under every column order (det +1 and -1)
    base = blowup_base()
    for cone in farey_cones([0, 1, 0, 2, 5, 3]):
        for order in itertools.permutations(range(3)):
            rows = cone_substitution(cone, order)
            yield pullback(base, "c", rows)[0], rows


def test_blowup_substitutions_reproduce_chart_data():
    sc = blowup_example()
    subst = sc.metadata["substitutions"]
    base_alpha = sc.metadata["base_alpha"]
    base_beta = sc.metadata["base_beta"]
    inputs = [(sc.chart(name), subst[name]) for name in ("z", "zeta")] + list(_tower_charts())
    for chart, rows in inputs:

        def compose(v):
            out = [0, 0, 0]
            for i, k in enumerate(v):
                for j, s in enumerate(rows[i]):
                    out[j] += k * s
            return tuple(out)

        assert tuple(compose(r) for r in base_alpha) == chart.alpha
        assert tuple(compose(r) for r in base_beta) == chart.beta
        # pullback of the coordinate volume form fixes the Jacobian monomial and sign
        vol = functools.reduce(wedge, [d_monomial(3, tuple(r)) for r in rows])
        ((idx, coeff),) = list(vol.terms.items())
        assert idx == (1, 2, 3)
        ((exps, c),) = list(coeff.terms.items())
        assert exps == chart.jac
        assert c == chart.sign


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    insertions=st.lists(st.integers(0, 9), min_size=1, max_size=6),
    orders=st.lists(st.permutations(range(3)), min_size=7, max_size=7),
    seed=st.integers(1, 10**6),
)
def test_toric_towers_sum_to_the_base_value(insertions, orders, seed):
    # the continued integral does not depend on the resolution: 2-7 charts of a
    # regular fan over the (x2, x3) block, columns in random order, jittered profiles
    base = blowup_base(profiles=example_profiles(1, seed))
    cones = farey_cones(insertions)
    sc = tower(base, [cone_substitution(c, o) for c, o in zip(cones, orders)])
    total = chart_sum(sc)[0]
    assert total == mellin_exact(base, "base")
    # non-diagonal charts against a value with no residue factor at all
    assert total == mellin_exact(integrate_by_parts(base), "parts")


def _parts_base(rng):
    """A random one-chart base that `integrate_by_parts` takes: rows x_v^k on
    distinct variables in random order, principal-value rows on the others,
    Jacobian exponents, N in {1, 2}, either sign, and 1-3 terms on profiles
    (1 - t) * poly whose exponents pass angular selection but for one in ten
    variables, and whose slots skip the derivative variables but for one in
    five terms."""
    n = rng.randint(1, 3)
    p = rng.randint(1, n)
    vs = rng.sample(range(n), p)
    others = [i for i in range(n) if i not in vs]
    alpha = [[rng.randint(1, 2) if i == v else 0 for i in range(n)] for v in vs]
    beta = [[rng.randint(0, 2) if i in others else 0 for i in range(n)] for _ in range(rng.randint(0, 2))]
    beta = [row for row in beta if any(row)]
    chart = ChartSpec("base", alpha, beta, [rng.randint(0, 1) for _ in range(n)], rng.choice((1, -1)))
    N = rng.randint(1, 2)
    terms = []
    for _ in range(rng.randint(1, 3)):
        slots = set(others) if rng.random() < 0.8 else set(rng.sample(range(n), n - p))
        factors = []
        for i in range(n):
            b = rng.randint(0, 2)
            # u = a + jac - N * column must be b on a slot and b - 1 elsewhere
            a = b - (i not in slots) - chart.jac[i] + N * chart.column_total(i + 1) + (rng.random() < 0.1)
            poly = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            rho = RadialProfile.on_unit([1, -1]).mul_poly(poly)
            factors.append(Factor(max(a, 0), b - min(a, 0), rho))  # b stays <= 2
        coeff = QI.of(rng.randint(-2, 2), rng.randint(-2, 2))
        terms.append(SeparableTerm(coeff, factors, {i + 1 for i in slots}))
    return Scenario(ProblemSignature(n, p, len(beta), N), (chart,), {"base": SeparableTestForm(terms)})


def test_integrate_by_parts_keeps_the_value():
    # Stokes' theorem, one derivative variable at a time: the base and its
    # integrated-by-parts form are the same MeroValue, at every parameter
    rng = random.Random(2718)
    nonzero = 0
    for _ in range(400):
        base = _parts_base(rng)
        value = mellin_exact(base, "base")
        assert mellin_exact(integrate_by_parts(base), "parts") == value
        nonzero += not value.is_zero()
    assert nonzero >= 150


@pytest.mark.parametrize(
    "alpha, beta",
    [
        (((0, 1, 1),), ((1, 0, 0),)),  # a derivative row on two variables
        (((0, 1, 0), (0, 0, 1)), ((1, 1, 0),)),  # a principal-value row on a derivative variable
    ],
)
def test_integrate_by_parts_rejects_rows_it_cannot_separate(alpha, beta):
    base = blowup_base()
    sig = ProblemSignature(3, len(alpha), len(beta))
    chart = ChartSpec("base", alpha, beta, (0, 0, 0))
    with pytest.raises(ValueError, match="power of one variable that no other row uses"):
        integrate_by_parts(Scenario(sig, (chart,), base.testforms))


def test_integrate_by_parts_needs_profiles_vanishing_at_the_support_end():
    bump = RadialProfile.bump(2)
    with pytest.raises(ValueError, match="integration by parts needs profiles vanishing at the support edge"):
        blowup_parts(profiles=(bump, RadialProfile.on_unit([1]), bump))


@pytest.mark.parametrize(
    "rows, match",
    [
        ([[1, 0, 0], [0, 1, 0]], "nonnegative 3 x 3"),
        ([[1, 0, 0], [0, 1, -1], [0, 0, 1]], "nonnegative 3 x 3"),
        ([[1, 0, 0], [0, 2, 0], [0, 0, 1]], "determinant must be"),
        ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], "conjugate slot"),
    ],
)
def test_pullback_rejects_what_it_cannot_pull_back(rows, match):
    with pytest.raises(ValueError, match=match):
        pullback(blowup_base(), "c", rows)


def test_pullback_expands_only_exact_profiles():
    bump = RadialProfile.bump(2)
    split = RadialProfile((0, Fraction(1, 2), 1), ((1,), (1, -1)))
    base = blowup_base(profiles=(bump, split, bump))
    pullback(base, "z", [[1, 0, 0], [0, 1, 0], [0, 1, 1]])  # x2 keeps its factor
    with pytest.raises(ExactnessError):
        pullback(base, "zeta", [[1, 0, 0], [0, 1, 1], [0, 1, 0]])


def test_without_chart():
    sc = blowup_example()
    only_z = sc.without_chart("zeta")
    assert [c.name for c in only_z.charts] == ["z"]
    assert set(only_z.testforms) == {"z"}
    with pytest.raises(KeyError):
        sc.without_chart("nope")
