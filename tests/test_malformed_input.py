"""Malformed input is an InputError, never an engine fault.

Each example takes a valid document and a replacement: a random JSON value,
or each field's own number as a JSON float.  It replaces one field at a time,
at every depth, and checks that the parsers either return or raise
ScenarioError, and that the CLI exits 0, 1 or 2 on the result, never 3.
A second property mutates the flag strings `--eps`, `--lam` and `--point`
of valid runs in the same way, and a third gives `--tol` random strings.
"""

import contextlib
import io
import json
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from residuelab import RadialProfile, blowup_example, diagonal_scenario, parse_scenario
from residuelab.charts import ScenarioError
from residuelab.cli import main
from residuelab.extforms import PolyForm, form_from_obj, form_to_obj
from residuelab.poly import Poly

FORM_FILE = {
    "n": 3,
    "K": [1],
    "psi": form_to_obj(PolyForm.basis(3, (2,)) + PolyForm.basis(3, (3,), Poly.variable(3, 0, Fraction(1)))),
    "alphas": [[0, 3, 0]],
}

# each valid document with the commands that read it
DOCUMENTS = {
    "blowup": (blowup_example().to_obj(), [["poles"], ["global"], ["eval", "--lam", "3,3,3"]]),
    "diagonal": (diagonal_scenario([1, 1], p=1).to_obj(), [["tube"]]),
    "forms": (FORM_FILE, [["divlemma"]]),
}


def _sites(obj, path=(), seen=None):
    """One path per kind of field, the root included.  Entries past a list's
    first, and the fields inside `metadata`, which no parser reads, add no kind."""
    seen = {} if seen is None else seen
    seen.setdefault(tuple("*" if isinstance(k, int) else k for k in path), path)
    if isinstance(obj, dict) and path != ("metadata",):
        for key, value in obj.items():
            _sites(value, path + (key,), seen)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _sites(value, path + (i,), seen)
    return list(seen.values())


SITES = {name: _sites(doc) for name, (doc, _) in DOCUMENTS.items()}

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
json_values = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)


def as_float(old):
    """The field's own number as a JSON float (1 becomes 1.0), anything else as null."""
    return float(old) if isinstance(old, (int, float)) else None


def _replaced(doc, path, value):
    owner = root = [json.loads(json.dumps(doc))]
    path = (0, *path)
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value(owner[path[-1]]) if value is as_float else value
    return root[0]


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(name=st.sampled_from(sorted(DOCUMENTS)), value=st.one_of(json_values, st.just(as_float)))
def test_one_bad_field_is_input_error_never_engine_fault(tmp_path, name, value):
    valid, commands = DOCUMENTS[name]
    file = tmp_path / f"{name}.json"
    for path in SITES[name]:
        doc = _replaced(valid, path, value)
        try:
            if name == "forms":
                form_from_obj(doc.get("psi") if isinstance(doc, dict) else doc, 3, "psi")
            else:
                parse_scenario(doc)
        except ScenarioError:
            # the scenario commands read the file through parse_scenario, so they
            # exit 2 on it; divlemma checks more fields than psi and always runs
            if name != "forms":
                continue
        file.write_text(json.dumps(doc))
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([argv[0], str(file), *argv[1:], "--format", "json"])
            assert code in (0, 1, 2), (path, value, argv, err.getvalue())


# each flag string a float or exact path reads, with a valid value and its run
FLAG_RUNS = [
    (["eval", "blowup", "--lam"], "3,3,3"),
    (["residue", "blowup", "--form", "1,1,0", "--point"], "1/3,-1/3,1/5"),
    (["tube", "diagonal", "--eps"], "1/4,1/100"),
    (["mellin-check", "diagonal", "--lam"], "3,3"),
]
# values at the edges of the float range and of the rationals
EDGE_TOKENS = ["1e400", "-1e400", "1e-400", "1e300", "1e-320", "5e-324", "-0", "0.0", "1/0", ""]
flag_tokens = st.one_of(
    st.sampled_from(EDGE_TOKENS),
    st.integers(-(10**6), 10**6).map(str),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-50, 50), st.integers(-3, 50)),
    st.floats().map(repr),
    st.text(alphabet="0123456789/.-+eE ij,xn", max_size=6),
)


@pytest.fixture()
def flag_documents(tmp_path):
    for name in ("blowup", "diagonal"):
        (tmp_path / f"{name}.json").write_text(json.dumps(DOCUMENTS[name][0]))
    return tmp_path


def _assert_no_engine_fault(files, argv, flag):
    run = [argv[0], str(files / f"{argv[1]}.json"), *argv[2:], flag, "--format", "json"]
    err = io.StringIO()
    # a numpy warning becomes an exception, and so exit 3
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(run)
    assert code in (0, 1, 2), (run, err.getvalue())
    return code


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_one_bad_flag_entry_is_input_error_never_engine_fault(flag_documents, data):
    for argv, valid in FLAG_RUNS:
        tokens = valid.split(",")
        # replace, drop or add one comma-separated entry
        at = data.draw(st.integers(0, len(tokens)))
        edit = data.draw(st.sampled_from(["replace", "drop", "add"]))
        if edit == "drop" and at < len(tokens):
            del tokens[at]
        elif edit == "add" or at == len(tokens):
            tokens.insert(at, data.draw(flag_tokens))
        else:
            tokens[at] = data.draw(flag_tokens)
        _assert_no_engine_fault(flag_documents, argv, ",".join(tokens))


@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_flag_of_one_edge_value_throughout_is_never_engine_fault(flag_documents, token):
    for argv, valid in FLAG_RUNS:
        _assert_no_engine_fault(flag_documents, argv, ",".join([token] * len(valid.split(","))))


# the runs that read --tol, each valid with the default tolerance
TOL_RUNS = [["eval", "blowup", "--lam", "3,3,3"], ["tube", "diagonal"], ["mellin-check", "diagonal", "--lam", "3,3"]]


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(token=st.one_of(flag_tokens, st.sampled_from(["nan", "-nan", "inf", "-inf", "1e-400", "-0.0", "0"])))
def test_tol_string_is_a_tolerance_or_input_error(flag_documents, token):
    # a NaN, infinite or negative --tol must not read as a failed or passed verdict
    try:
        tolerance = 0 <= float(token) < math.inf
    except ValueError:
        tolerance = False
    for argv in TOL_RUNS:
        code = _assert_no_engine_fault(flag_documents, argv, f"--tol={token}")
        assert (code != 2) == tolerance, (argv, token, code)


def test_one_knot_profile_is_input_error(tmp_path):
    # one knot bounds no interval, so it has no piece to evaluate on
    with pytest.raises(ValueError, match="at least two"):
        RadialProfile((0,), ())
    doc = diagonal_scenario([1, 1, 1], p=1).to_obj()
    doc["testforms"]["diag"]["terms"][0]["factors"][0]["rho"] = {"knots": [[0, 1]], "pieces": []}
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.path == "testforms['diag'].terms[0].factors[0].rho"
    file = tmp_path / "one-knot.json"
    file.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["tube", str(file)]) == 2
    assert "testforms['diag'].terms[0].factors[0].rho" in err.getvalue()


def test_a_type_error_shows_the_value_it_got():
    # the field readers build the value's repr only when the check fails
    doc = blowup_example().to_obj()
    doc["charts"][0]["unit_flags"] = [False, (1,), "%s"]
    cases = [
        (lambda: RadialProfile.from_obj({"knots": "x", "pieces": []}), "rho.knots: expected a list, got 'x'"),
        (lambda: RadialProfile.from_obj({"knots": [], "pieces": (1, 2)}), "rho.pieces: expected a list, got (1, 2)"),
        (lambda: RadialProfile.from_obj({"knots": [0, 1], "pieces": [(1,)]}), "rho.pieces[0]: expected a list, got (1,)"),
        (lambda: RadialProfile.from_obj({"knots": [0, 1], "pieces": ["%r"]}), "rho.pieces[0]: expected a list, got '%r'"),
        (lambda: parse_scenario(doc), "charts[0].unit_flags[1]: expected a boolean, got (1,)"),
    ]
    for parse, message in cases:
        with pytest.raises(ScenarioError) as exc:
            parse()
        assert str(exc.value) == message
