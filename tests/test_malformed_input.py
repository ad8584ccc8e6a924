"""Malformed input is an InputError, never an engine fault.

Each example takes a valid document and a replacement: a random JSON value,
or each field's own number as a JSON float.  It replaces one field at a time,
at every depth, and checks that the parsers either return or raise
ScenarioError, and that the CLI exits 0, 1 or 2 on the result, never 3.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from residuelab import blowup_example, diagonal_scenario, parse_scenario
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
