import pytest
from hypothesis import given, strategies as st

from residuelab import AffineForm, LinForm, ZeroFormError


def test_normalize_gcd():
    assert LinForm.normalize((2, 4, 0)).coeffs == (1, 2, 0)


def test_normalize_sign_convention():
    assert LinForm.normalize((-1, 0, 1)).coeffs == (1, 0, -1)


def test_normalize_gcd_offset():
    assert LinForm.normalize((0, 3, 3)).coeffs == (0, 1, 1)


def test_normalize_zero_vector_rejected():
    with pytest.raises(ZeroFormError):
        LinForm.normalize((0, 0, 0))


vectors = st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(lambda v: any(v))


@given(vectors)
def test_normalize_idempotent(v):
    f = LinForm.normalize(v)
    assert LinForm.normalize(f.coeffs) == f


@given(vectors, st.integers(-9, 9).filter(bool))
def test_normalize_scale_invariant(v, c):
    assert LinForm.normalize([c * x for x in v]) == LinForm.normalize(v)


def test_axis_proportional():
    assert LinForm.normalize((0, 1, 0)).axis_index() == 2
    assert LinForm.normalize((1, 1, 0)).axis_index() is None
    assert LinForm.normalize((0, 0, 1)).axis_index() == 3


def test_axis_proportional_scaled():
    # 3*L2 normalizes to the axis form
    assert LinForm.normalize((0, 3, 0)).axis_index() == 2


def test_affine_form_with_constant_is_no_axis_form():
    assert AffineForm.normalize((0, 1, 0), 2).axis_index() is None


def test_support():
    assert LinForm.normalize((2, 0, -4)).support() == frozenset({1, 3})


def test_affine_normalization():
    f = AffineForm.normalize((2, 2), 4)
    assert f.coeffs == (1, 1) and f.const == 2
    g = AffineForm.normalize((-1, 0), -1)
    assert g.coeffs == (1, 0) and g.const == 1
    assert AffineForm.normalize(g.coeffs) == LinForm.normalize((1, 0))
    assert not g.is_homogeneous()


def test_affine_str():
    assert str(AffineForm.normalize((1, 1, 0), 0)) == "L1+L2"
    assert str(AffineForm.normalize((1, 0, -2), 3)) == "L1-2*L3+3"


@given(st.lists(vectors, min_size=1, max_size=8))
def test_linform_is_the_homogeneous_affine_form(vs):
    for v in vs:
        f = LinForm.normalize(v)
        assert f == AffineForm.normalize(v, 0)
        assert str(f) == str(AffineForm.normalize(v, 0))
    # homogeneous forms sort by their coefficient tuples: certificate reports
    # and the benchmark digests list forms in that order
    forms = [LinForm.normalize(v) for v in vs]
    assert sorted(forms, key=lambda f: f.sort_key()) == sorted(forms, key=lambda f: f.coeffs)
