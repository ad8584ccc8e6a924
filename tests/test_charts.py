import functools
import io
import json

import pytest

from residuelab import (
    ChartSpec,
    ProblemSignature,
    ScenarioError,
    blowup_example,
    parse_scenario,
)
from residuelab.extforms import d_monomial, wedge


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


def test_blowup_example_rows():
    sc = blowup_example()
    z = sc.chart("z")
    zeta = sc.chart("zeta")
    assert z.alpha == ((0, 1, 0), (0, 1, 1))
    assert zeta.alpha == ((0, 1, 1), (0, 1, 0))
    assert z.beta == zeta.beta == ((1, 0, 0),)
    assert z.pv_divisor_vars() == zeta.pv_divisor_vars() == frozenset({1})


def test_blowup_substitutions_reproduce_chart_data():
    sc = blowup_example()
    subst = sc.metadata["substitutions"]
    base_alpha = sc.metadata["base_alpha"]
    base_beta = sc.metadata["base_beta"]
    for name in ("z", "zeta"):
        chart = sc.chart(name)
        rows = subst[name]

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


def test_without_chart():
    sc = blowup_example()
    only_z = sc.without_chart("zeta")
    assert [c.name for c in only_z.charts] == ["z"]
    assert set(only_z.testforms) == {"z"}
    with pytest.raises(KeyError):
        sc.without_chart("nope")
