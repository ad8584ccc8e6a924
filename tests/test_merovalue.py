import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from residuelab import AffineForm, LinForm, MeroValue, QI
from residuelab.merovalue import (
    HigherOrderPoleError,
    PoleAtOriginError,
    TokenPowerError,
    _divide,
)
from residuelab.poly import Poly

from affine_division import as_poly, deg_in, divides_affine, divmod_affine


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


def test_residue_simple_pole():
    pair = LinForm.normalize((0, 1, 1))
    v = MeroValue.from_poly(Poly.const(3, QI.one()), [(pair.as_affine(), 1)])
    r = v.residue_on(pair, (Fraction(0), Fraction(1), Fraction(-1)))
    assert r.coeff == QI.one()


def test_residue_higher_order_rejected():
    pair = LinForm.normalize((0, 1, 1))
    v = MeroValue.from_poly(Poly.const(3, QI.one()), [(pair.as_affine(), 2)])
    with pytest.raises(HigherOrderPoleError):
        v.residue_on(pair, (Fraction(0), Fraction(1), Fraction(-1)))


def test_residue_point_must_be_on_hyperplane():
    pair = LinForm.normalize((0, 1, 1))
    v = MeroValue.from_poly(Poly.const(3, QI.one()), [(pair.as_affine(), 1)])
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


def _den_poly(v):
    out = Poly.const(NV, QI.one())
    for f, m in v.den:
        for _ in range(m):
            out = out * as_poly(f)
    return out


@SETTINGS
@given(value_st(), value_st())
def test_property_eager_and_deferred_reduction_agree(a, b):
    deferred_sum = MeroValue.from_poly(
        a.num * _den_poly(b) + b.num * _den_poly(a), a.den + b.den, a.token_pow
    ).reduced()
    deferred_product = MeroValue.from_poly(a.num * b.num, a.den + b.den, 2).reduced()
    for eager, deferred in ((a + b, deferred_sum), (a * b, deferred_product)):
        assert eager.to_obj() == deferred.to_obj()
        assert eager == deferred and hash(eager) == hash(deferred)
