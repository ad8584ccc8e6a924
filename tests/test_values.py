"""The contract of residuelab's immutable value classes: construction by
position and by keyword with the same defaults, equality and hashing by
fields, immutable fields and a repr that names every field."""

from fractions import Fraction

import pytest

from residuelab.charts import ChartSpec, Factor, ProblemSignature, Scenario, SeparableTerm, SeparableTestForm
from residuelab.cli import Report
from residuelab.deduction import CurrentSymbol, PoleConstraint, ProofTrace, TraceStep
from residuelab.extforms import PolyForm
from residuelab.gaussian import QI
from residuelab.leibniz import HalfSpaceCert, MeroTerm, PoleCertificate
from residuelab.linform import AffineForm
from residuelab.mellin import PlannedTerm, QuadResult
from residuelab.merovalue import TokenScalar
from residuelab.poly import Poly
from residuelab.profiles import RadialProfile
from residuelab.tubes import LimitResult, MellinCheckRow, TubeSpec

RHO = RadialProfile((Fraction(0), Fraction(1)), ((Fraction(1), Fraction(-1)),))
FACTOR = Factor(0, 0, RHO)
SIG = ProblemSignature(1, 1, 0)
CHART = ChartSpec("z", ((1,),), (), (0,))
TERM = SeparableTerm(QI.one(), (FACTOR,), frozenset())
STEP = TraceStep(3, 3, 2, frozenset({5}), frozenset({1}))
PAIR = AffineForm((1, 1))


def _form(c):
    return PolyForm(2, 1, {(1,): Poly.const(2, Fraction(c))})


# (class, fields in constructor order, another value of the first field,
#  {field: default} for the fields left out, hashed by its field tuple or not
#  (None: not hashable), frozen; Report is the one mutable record)
CASES = [
    (QI, {"re": Fraction(1, 2), "im": Fraction(-3)}, Fraction(1), {"im": Fraction(0)}, "custom", True),
    (AffineForm, {"coeffs": (1, 2), "const": 3}, (1, 3), {"const": 0}, "fields", True),
    (TokenScalar, {"coeff": QI.of(2, 1), "power": 1}, QI.one(), {"power": 0}, "fields", True),
    (RadialProfile, {"knots": RHO.knots, "pieces": RHO.pieces}, (Fraction(0), Fraction(2)), {}, "fields", True),
    (ProblemSignature, {"n": 3, "p": 2, "q": 1, "N": 2}, 4, {"N": 1}, "fields", True),
    (
        ChartSpec,
        {"name": "z", "alpha": ((1, 0),), "beta": ((0, 1),), "jac": (0, 0), "sign": -1, "unit_flags": (True, False)},
        "w",
        {"sign": 1, "unit_flags": (False, False)},
        "fields",
        True,
    ),
    (Factor, {"a": 1, "b": 2, "rho": RHO}, 0, {}, "fields", True),
    (SeparableTerm, {"coeff": QI.one(), "factors": (FACTOR,), "dbar_slots": frozenset({1})}, QI.of(2), {}, "fields", True),
    (SeparableTestForm, {"terms": (TERM,)}, (TERM, TERM), {}, "fields", True),
    (
        Scenario,
        {"signature": SIG, "charts": (CHART,), "testforms": {"z": SeparableTestForm((TERM,))}, "metadata": {"k": 1}},
        ProblemSignature(1, 1, 1),
        {"testforms": {}, "metadata": {}},
        None,
        True,
    ),
    (CurrentSymbol, {"dbar_set": frozenset({1, 2}), "pv_set": frozenset({3})}, frozenset({1}), {}, "fields", True),
    (PoleConstraint, {"allowed_supports": frozenset({frozenset({1, 2})})}, frozenset(), {}, "fields", True),
    (
        TraceStep,
        {"n": 3, "target_mask": 3, "moved": 2, "context_masks": frozenset({5}), "result_masks": frozenset({1})},
        4,
        {},
        "fields",
        True,
    ),
    (
        ProofTrace,
        {"p": 2, "q": 1, "steps": (STEP,), "final": PoleConstraint.analytic(), "analytic": True},
        3,
        {},
        "fields",
        True,
    ),
    (PolyForm, {"nvars": 2, "degree": 1, "terms": _form(1).terms}, 3, {}, "custom", True),
    (HalfSpaceCert, {"eps": Fraction(1, 3)}, Fraction(1, 2), {}, "fields", True),
    (
        PoleCertificate,
        {"forms": frozenset({PAIR}), "scope": "z", "halfspace": HalfSpaceCert(Fraction(1, 3))},
        frozenset(),
        {},
        "fields",
        True,
    ),
    (
        MeroTerm,
        {
            "subset": (1, 2),
            "det": -1,
            "numerator_axes": (2,),
            "denominators": (PAIR,),
            "dbar_profile": (),
            "cancelled": ((1, AffineForm((1, 0))),),
        },
        (1, 3),
        {"cancelled": ()},
        "fields",
        True,
    ),
    (
        PlannedTerm,
        {"coeff": QI.one(), "orientation": -1, "variables": (((1,), 0, FACTOR),), "index": 0},
        QI.of(3),
        {},
        "fields",
        True,
    ),
    (QuadResult, {"value": 1.5 - 2j, "error": 1e-12}, 0.5j, {}, "fields", True),
    (TubeSpec, {"chart": CHART, "eps": (Fraction(1, 100),)}, ChartSpec("w", ((1,),), (), (0,)), {}, "fields", True),
    (
        LimitResult,
        {"value": 0.25 + 0j, "error": 1e-10, "samples": (0.5 + 0j, 0.3 + 0j), "converged": True},
        0.5 + 0j,
        {},
        "fields",
        True,
    ),
    (
        MellinCheckRow,
        {"lam": (2.5 + 0j,), "transform": 1j, "reference": 1j, "rel_error": 0.0, "sign": 1},
        (3 + 0j,),
        {},
        "fields",
        True,
    ),
    (
        Report,
        {"command": "poles", "inputs": {"scenario": "a.json"}, "results": {"x": 1}, "verdicts": [{"pass": True}]},
        "global",
        {"inputs": {}, "results": {}, "verdicts": []},
        None,
        False,
    ),
]

IDS = [case[0].__name__ for case in CASES]
FROZEN = [case for case in CASES if case[5]]


def _build(cls, fields, leave_out=()):
    return cls(**{k: v for k, v in fields.items() if k not in leave_out})


@pytest.mark.parametrize("cls, fields, other, defaults, hashed, frozen", CASES, ids=IDS)
def test_construction_by_position_and_keyword(cls, fields, other, defaults, hashed, frozen):
    by_keyword = _build(cls, fields)
    by_position = cls(*fields.values())
    assert by_position == by_keyword
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value, name
    # the defaulted fields may be left out, in both call styles
    required = [v for k, v in fields.items() if k not in defaults]
    for built in (cls(*required), _build(cls, fields, defaults)):
        for name, value in defaults.items():
            assert getattr(built, name) == value, name


@pytest.mark.parametrize("cls, fields, other, defaults, hashed, frozen", CASES, ids=IDS)
def test_default_containers_are_fresh(cls, fields, other, defaults, hashed, frozen):
    containers = [k for k, v in defaults.items() if isinstance(v, (dict, list))]
    first, second = _build(cls, fields, defaults), _build(cls, fields, defaults)
    for name in containers:
        assert getattr(first, name) is not getattr(second, name), name


@pytest.mark.parametrize("cls, fields, other, defaults, hashed, frozen", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, fields, other, defaults, hashed, frozen):
    a, b = _build(cls, fields), _build(cls, fields)
    first = next(iter(fields))
    changed = cls(**{**fields, first: other})
    assert a == b and not a != b
    assert a != changed and not a == changed
    assert a != object()
    if hashed is None:
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b)
    assert len({a, b, changed}) == 2
    if hashed == "fields":
        assert hash(a) == hash(tuple(getattr(a, name) for name in fields))


@pytest.mark.parametrize("cls, fields, other, defaults, hashed, frozen", FROZEN, ids=[c[0].__name__ for c in FROZEN])
def test_fields_are_immutable(cls, fields, other, defaults, hashed, frozen):
    x = _build(cls, fields)
    for name in fields:
        before = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, other)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is before, name


@pytest.mark.parametrize("cls, fields, other, defaults, hashed, frozen", CASES, ids=IDS)
def test_repr_names_every_field(cls, fields, other, defaults, hashed, frozen):
    x = _build(cls, fields)
    shown = ", ".join(f"{name}={getattr(x, name)!r}" for name in fields)
    assert repr(x) == f"{cls.__qualname__}({shown})"
