import functools
import hashlib
import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residuelab import (
    ChartSpec,
    ExactnessError,
    ProblemSignature,
    RadialProfile,
    ScenarioError,
    blowup_base,
    blowup_example,
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
    assert chart_sum(sc)[0] == mellin_exact(base, "base")


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
