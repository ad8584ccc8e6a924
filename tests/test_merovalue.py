import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from residuelab import AffineForm, LinForm, MeroValue, QI
from residuelab import merovalue
from residuelab.merovalue import (
    _PRIME,
    HigherOrderPoleError,
    MeroError,
    PoleAtOriginError,
    TokenPowerError,
    TokenScalar,
    _cancel,
    _decoded,
    _divide,
    _key,
    _sum_times_forms,
    _vanishes,
)
from residuelab.poly import Poly

from affine_division import as_poly, deg_in, divides_affine, divmod_affine
from engine_reference import sum_times_forms_by_tuples, vanishes_at_point


def lam(n, j):
    return Poly.variable(n, j - 1, QI.one())


def test_reduce_cancels_exact_division():
    num = lam(3, 2) + lam(3, 3)
    v = MeroValue.from_poly(num, [(AffineForm((0, 1, 1)), 1)])
    r = v.reduced()
    assert r.den == ()
    assert r.num == Poly.const(3, QI.one())


def test_reduce_keeps_nondivisible():
    v = MeroValue.from_poly(lam(3, 2), [(AffineForm((0, 1, 1)), 1)])
    r = v.reduced()
    assert r.den == ((AffineForm((0, 1, 1)), 1),)
    assert r.num == lam(3, 2)


def test_reduce_square():
    pair = AffineForm((1, 1, 0))
    num = lam(3, 1) * as_poly(pair) * as_poly(pair)
    v = MeroValue.from_poly(num, [(pair, 2)])
    r = v.reduced()
    assert r.den == ()
    assert r.num == lam(3, 1)


def _random_value(rng, n=3, token=0):
    num = Poly.zero(n)
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, 2) for _ in range(n))
        c = QI.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-2, 2)))
        if c:
            num = num + Poly.monomial(n, e, c)
    if num.is_zero():
        num = Poly.const(n, QI.one())
    den = []
    for _ in range(rng.randint(0, 2)):
        vec = [rng.randint(0, 2) for _ in range(n)]
        if not any(vec):
            vec[rng.randrange(n)] = 1
        den.append((AffineForm.normalize(vec, rng.randint(0, 2)), rng.randint(1, 2)))
    return MeroValue.from_poly(num, den, token)


def _random_point(rng, n, forms):
    while True:
        pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))
        if all(f.eval(pt) != 0 for f, _ in forms):
            return pt


def test_reduce_preserves_evaluation():
    rng = random.Random(5)
    for _ in range(100):
        v = _random_value(rng)
        r = v.reduced()
        pt = _random_point(rng, 3, v.den)
        assert v.eval_rational(pt) == r.eval_rational(pt)


def test_ring_laws():
    rng = random.Random(6)
    for _ in range(40):
        a = _random_value(rng, token=1)
        b = _random_value(rng, token=1)
        c = _random_value(rng, token=1)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_add_requires_matching_token_power():
    a = MeroValue.const(2, QI.one(), 1)
    b = MeroValue.const(2, QI.one(), 2)
    with pytest.raises(TokenPowerError):
        a + b
    assert (MeroValue.zero(2) + a) == a


def test_divmod_affine_remainder_is_substitution():
    rng = random.Random(7)
    for _ in range(30):
        v = _random_value(rng, n=2)
        form = AffineForm.normalize((1, rng.randint(-2, 2)), rng.randint(-2, 2))
        q, r = divmod_affine(v.num, form)
        assert (q * as_poly(form) + r) == v.num
        assert deg_in(r, 0) <= 0
        assert divides_affine(v.num * as_poly(form), form)


def test_value_at_origin_and_pole_error():
    pair = AffineForm((1, 1))
    v = MeroValue.from_poly(Poly.const(2, QI.one()), [(pair, 1)])
    with pytest.raises(PoleAtOriginError) as err:
        v.value_at_origin()
    assert "L1+L2" in str(err.value)
    w = MeroValue.from_poly(Poly.const(2, QI.of(3)), [(AffineForm((1, 0), 2), 1)])
    assert w.value_at_origin().coeff == QI.of(Fraction(3, 2))


def test_num_is_a_fresh_poly_on_each_read():
    v = MeroValue.from_poly(lam(2, 1) + Poly.const(2, QI.of(3)), [(AffineForm((1, 1)), 1)])
    printed, obj = str(v), v.to_obj()
    v.num.terms.clear()
    assert str(v) == printed and v.to_obj() == obj
    assert v.num == lam(2, 1) + Poly.const(2, QI.of(3))


def test_printed_gaussian_coefficients():
    # `eval` prints these strings, and its reports are hashed byte for byte
    F = Fraction
    coeffs = [QI.of(0, 1), QI.of(0, -1), QI.of(0, F(1, 2)), QI.of(3, -1), QI.of(F(1, 2), F(3, 2))]
    assert [str(c) for c in coeffs] == ["i", "-i", "1/2*i", "3-i", "1/2+3/2*i"]
    scalars = [TokenScalar(QI.of(2), k) for k in (0, 1, 3)]
    assert [str(t) for t in scalars] == ["2", "(2)*(2*pi*i)", "(2)*(2*pi*i)^3"]


def test_residue_simple_pole():
    pair = LinForm.normalize((0, 1, 1))
    v = MeroValue.from_poly(Poly.const(3, QI.one()), [(pair, 1)])
    r = v.residue_on(pair, (Fraction(0), Fraction(1), Fraction(-1)))
    assert r.coeff == QI.one()


def test_residue_higher_order_rejected():
    pair = LinForm.normalize((0, 1, 1))
    v = MeroValue.from_poly(Poly.const(3, QI.one()), [(pair, 2)])
    with pytest.raises(HigherOrderPoleError):
        v.residue_on(pair, (Fraction(0), Fraction(1), Fraction(-1)))


def test_residue_point_must_be_on_hyperplane():
    pair = LinForm.normalize((0, 1, 1))
    v = MeroValue.from_poly(Poly.const(3, QI.one()), [(pair, 1)])
    with pytest.raises(Exception):
        v.residue_on(pair, (Fraction(0), Fraction(1), Fraction(1)))


# --- properties of the integer representation, against the Fraction-based reference


NV = 2
FORM_POOL = [
    AffineForm.normalize(vec, const)
    for vec in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 3))
    for const in (0, 1, -2)
]
forms_st = st.sampled_from(FORM_POOL)
small_fraction = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
coeff_st = st.builds(QI.of, small_fraction, st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-3)]))


@st.composite
def poly_st(draw, max_terms=3):
    num = Poly.zero(NV)
    for _ in range(draw(st.integers(1, max_terms))):
        e = tuple(draw(st.integers(0, 2)) for _ in range(NV))
        num = num + Poly.monomial(NV, e, draw(coeff_st))
    return num if not num.is_zero() else Poly.const(NV, QI.one())


@st.composite
def value_st(draw, token=1):
    """num * (some pool forms) / (some pool forms), so that forms often cancel."""
    num = draw(poly_st())
    for f in draw(st.lists(forms_st, max_size=2)):
        num = num * as_poly(f)
    den = [(f, draw(st.integers(1, 2))) for f in draw(st.lists(forms_st, max_size=3))]
    return MeroValue.from_poly(num, den, token)


point_st = st.tuples(*[st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))] * NV)
SETTINGS = settings(max_examples=60, deadline=None)


def _obj(v):
    return v.reduced().to_obj()


@SETTINGS
@given(value_st(), value_st(), value_st())
def test_property_ring_laws(a, b, c):
    assert _obj(a + b) == _obj(b + a)
    assert _obj((a + b) + c) == _obj(a + (b + c))
    assert _obj(a * b) == _obj(b * a)
    assert _obj((a * b) * c) == _obj(a * (b * c))
    assert _obj(a * (b + c)) == _obj(a * b + a * c)
    assert (a - a).is_zero() and (a + MeroValue.zero(NV)) == a
    # a's forms must cancel out of the sum again
    assert _obj(a + (c - a)) == _obj(c)
    assert _obj((a + b) - b) == _obj(a)


@SETTINGS
@given(value_st())
def test_property_reduced_is_idempotent(v):
    r = v.reduced()
    assert r.reduced() is r
    again = MeroValue.from_poly(r.num, r.den, r.token_pow).reduced()
    assert again.to_obj() == r.to_obj()


@SETTINGS
@given(value_st())
def test_property_removed_forms_divide_and_kept_forms_do_not(v):
    r = v.reduced()
    kept = dict(r.den)
    num = v.num
    for f, m in v.den:
        assert kept.get(f, 0) <= m
        for _ in range(m - kept.get(f, 0)):
            num, rem = divmod_affine(num, f)
            assert rem.is_zero()
    assert num == r.num
    assert not any(divides_affine(r.num, f) for f in kept)


@SETTINGS
@given(value_st(), forms_st)
def test_property_exact_division_matches_reference(v, f):
    """The integer division alone, without the modular filter in front of it."""
    for num in (v.num, v.num * as_poly(f)):
        w = MeroValue.from_poly(num)
        q = _divide(w._terms, f)
        assert (q is not None) == divides_affine(num, f)
        if q is not None:
            assert MeroValue(NV, q, w._content).num == divmod_affine(num, f)[0]


@SETTINGS
@given(value_st(), value_st(), point_st)
def test_property_eval_rational_is_a_homomorphism(a, b, pt):
    assume(all(f.eval(pt) != 0 for f, _ in a.den + b.den))
    x, y = a.eval_rational(pt), b.eval_rational(pt)
    assert (a + b).eval_rational(pt).coeff == x.coeff + y.coeff
    prod = (a * b).eval_rational(pt)
    assert prod.coeff == x.coeff * y.coeff
    assert prod.power == (x.power + y.power if prod.coeff else 0)


def _times(num, den):
    """num * prod f^m over den."""
    for f, m in den:
        for _ in range(m):
            num = num * as_poly(f)
    return num


@SETTINGS
@given(value_st(), value_st())
def test_property_eager_and_deferred_reduction_agree(a, b):
    deferred_sum = MeroValue.from_poly(
        _times(a.num, b.den) + _times(b.num, a.den), a.den + b.den, a.token_pow
    ).reduced()
    deferred_product = MeroValue.from_poly(a.num * b.num, a.den + b.den, 2).reduced()
    for eager, deferred in ((a + b, deferred_sum), (a * b, deferred_product)):
        assert eager.to_obj() == deferred.to_obj()
        assert eager == deferred and hash(eager) == hash(deferred)


@SETTINGS
@given(value_st(), value_st(), st.booleans())
def test_property_sum_matches_the_expanded_sum_over_the_union(a, c, cancel):
    """With `cancel`, b is c - a written over a.den + c.den, so that forms of a
    with the same multiplicity in b must cancel out of the sum again."""
    a = a.reduced()
    if cancel:
        b = MeroValue.from_poly(_times(c.num, a.den) - _times(a.num, c.den), a.den + c.den, 1).reduced()
    else:
        b = c.reduced()
    da, db = dict(a.den), dict(b.den)
    union = {f: max(da.get(f, 0), db.get(f, 0)) for f in {**da, **db}}
    expanded = _times(a.num, [(f, m - da.get(f, 0)) for f, m in union.items()]) + _times(
        b.num, [(f, m - db.get(f, 0)) for f, m in union.items()]
    )
    assert (a + b).to_obj() == MeroValue.from_poly(expanded, list(union.items()), 1).reduced().to_obj()
    if cancel:
        assert a + b == c


@pytest.mark.parametrize("extra", [None, AffineForm.normalize((0, 1), 3)])
def test_sum_cancels_a_shared_form_of_equal_multiplicity(extra):
    """p/f + (f*q - p*g)/(f*g) == q/g, with g = 1 and with g = L2 + 3."""
    f = AffineForm.normalize((1, 2), 1)
    p = lam(2, 1) * lam(2, 1) + Poly.const(2, QI.of(5))
    q = lam(2, 2) + Poly.const(2, QI.one())
    g = [(extra, 1)] if extra else []
    a = MeroValue.from_poly(p, [(f, 1)]).reduced()
    b = MeroValue.from_poly(as_poly(f) * q - _times(p, g), [(f, 1)] + g).reduced()
    assert a.den == ((f, 1),) and len(b.den) == 1 + len(g)
    want = MeroValue.from_poly(q, g).reduced()
    assert want.den == tuple(g)
    assert (a + b).to_obj() == (b + a).to_obj() == want.to_obj()


exps_st = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1))] * n), min_size=1, max_size=8
    )
)


@SETTINGS
@given(exps_st)
def test_property_packed_keys_round_trip_in_lexicographic_order(exps):
    n = len(exps[0])
    keys = [_key(e) for e in exps]
    assert [e for e, _ in _decoded([(k, 0) for k in keys], n)] == exps
    assert [e for e, _ in _decoded([(k, 0) for k in sorted(keys)], n)] == sorted(exps)


@pytest.mark.parametrize("e", [(2**32,), (0, -1), (1, 2**40, 0)])
def test_key_rejects_exponents_that_do_not_fit(e):
    with pytest.raises(MeroError):
        _key(e)
    with pytest.raises(MeroError):
        MeroValue.from_poly(Poly.monomial(len(e), e, QI.one()))


@st.composite
def filter_case(draw):
    """Forms and summands (terms, scale, [(g, k), ...]) over 1-3 variables.  A
    summand may carry a tested form as a factor of its terms or among its
    multipliers, so that verdicts of both kinds occur, and a form may have a
    pivot coefficient that is 0 modulo the prime."""
    n = draw(st.integers(1, 3))
    ints = st.integers(-40, 40)

    def form():
        coeffs = [draw(st.integers(-3, 3)) for _ in range(n)]
        pivot = draw(st.integers(0, n - 1))
        coeffs[pivot] = coeffs[pivot] or 1
        if draw(st.integers(0, 5)) == 0:
            coeffs[:pivot] = [0] * pivot
            coeffs[pivot] = _PRIME * draw(st.sampled_from([1, -2]))
        return AffineForm(tuple(coeffs), draw(st.integers(-4, 4)))

    forms = [form() for _ in range(draw(st.integers(1, 4)))]
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(1, 6))):
            e = tuple(draw(st.integers(0, 3)) for _ in range(n))
            terms[_key(e)] = (draw(ints), draw(ints))
        terms = {e: c for e, c in terms.items() if c != (0, 0)} or {0: (1, 0)}
        if draw(st.booleans()):
            terms = sum_times_forms_by_tuples([(terms, 1, [(draw(st.sampled_from(forms)), 1)])])
        multipliers = [(draw(st.sampled_from(forms + [form()])), draw(st.integers(0, 2)))
                       for _ in range(draw(st.integers(0, 2)))]
        parts.append((terms, draw(st.sampled_from([1, 3, -7, _PRIME + 2])), multipliers))
    return forms, parts


@settings(derandomize=True, max_examples=300, deadline=None)
@given(filter_case())
def test_property_layered_filter_matches_the_full_point_evaluation(case):
    # one memo per summand, shared by every form in turn, as in a sum
    forms, parts = case
    memos = [{} for _ in parts]
    layered = [(terms, memo, scale, gs) for (terms, scale, gs), memo in zip(parts, memos)]
    for f in forms:
        assert _vanishes(f, *layered) == vanishes_at_point(f, *parts)


BIG = st.integers(-(2**300), 2**300)


@st.composite
def packed_form(draw, n):
    """A form on n variables: any, on the last variable alone, or with no constant."""
    kind = draw(st.sampled_from(["any", "last", "homogeneous"]))
    coeffs = [0] * n if kind == "last" else [draw(st.integers(-3, 3)) for _ in range(n)]
    if kind == "last" or not any(coeffs):
        coeffs[-1] = draw(st.sampled_from([1, -1, 2, -5, 2**70]))
    return AffineForm(tuple(coeffs), 0 if kind != "any" else draw(st.integers(-4, 4)))


@st.composite
def sum_case(draw):
    """Parts (terms, scale, [(form, k), ...]) of a sum: coefficients up to
    2**300 in size, scales of either sign beyond 2**61, forms on the last
    variable alone or with no constant, empty terms, and parts repeated with
    the opposite scale so that the sum cancels to 0."""
    n = draw(st.integers(1, 8))
    coef = st.one_of(st.integers(-40, 40), BIG)
    scale = st.one_of(st.integers(-9, 9), st.integers(2**61, 2**64), st.integers(-(2**64), -(2**61)), BIG)
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            e = tuple(draw(st.integers(0, 3)) for _ in range(n))
            terms[_key(e)] = (draw(coef), draw(coef))
        terms = {e: c for e, c in terms.items() if c != (0, 0)}
        forms = [(draw(packed_form(n)), draw(st.integers(0, 3))) for _ in range(draw(st.integers(0, 3)))]
        parts.append((terms, draw(scale), forms))
    if draw(st.booleans()):
        parts += [(terms, -s, forms[::-1]) for terms, s, forms in parts]
    return parts


@settings(derandomize=True, max_examples=400, deadline=None)
@given(sum_case())
@example([({_key((3,)): (2**300, 2**300 - 1)}, 2**62, [(AffineForm((7,)), 3)])])  # a coefficient at the bound
def test_property_packed_sum_matches_the_tuple_expansion(parts):
    assert _sum_times_forms(parts) == sum_times_forms_by_tuples(parts)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(packed_form), st.lists(st.one_of(st.integers(-9, 9), BIG), min_size=1, max_size=6),
       st.sampled_from([1, 3, -1, -6]))
@example(AffineForm((0, 2**70)), [0, 0, 2**300], 1)  # a coefficient at the bound
def test_property_in_one_form_matches_the_tuple_expansion(form, coeffs, content):
    # Horner on packed ints equals sum_i coeffs[i] * form^i multiplied out, over |content|
    sign = -1 if content < 0 else 1
    powers = sum_times_forms_by_tuples([({0: (1, 0)}, sign * c, [(form, i)]) for i, c in enumerate(coeffs)])
    v = MeroValue.in_one_form(form, coeffs, content, ())
    assert (v._terms, v._content) == merovalue._canon(powers, abs(content))


def test_cancel_retests_each_quotient_with_a_fresh_memo(monkeypatch):
    """After a division the filter reads the quotient, whose residues rule a
    second division by the same form out before it is tried."""
    f = AffineForm.normalize((1, 2), 1)
    q = MeroValue.from_poly(lam(2, 1) * lam(2, 1) + Poly.const(2, QI.of(5)))._terms
    tried = []
    monkeypatch.setattr(merovalue, "_divide", lambda terms, g: tried.append(g) or _divide(terms, g))
    den = {f: 2}
    assert _cancel(sum_times_forms_by_tuples([(q, 1, [(f, 1)])]), den, [f]) == q
    assert den == {f: 1} and tried == [f]
