"""Reference polynomial division by a degree-one form, for the tests.

The exact engine divides on Gaussian-integer coefficients (`merovalue._divide`);
this is the plain long division over Q(i) it is checked against.
"""

from typing import Sequence, Tuple

from residuelab import QI, AffineForm
from residuelab.poly import Poly


def as_poly(form: AffineForm) -> Poly:
    """The form as a degree-one polynomial with QI coefficients."""
    terms = {}
    n = len(form.coeffs)
    if form.const:
        terms[(0,) * n] = QI.of(form.const)
    for j, c in enumerate(form.coeffs):
        if c:
            e = [0] * n
            e[j] = 1
            terms[tuple(e)] = QI.of(c)
    return Poly(n, terms)


def deg_in(p: Poly, j: int) -> int:
    if not p.terms:
        return -1
    return max(e[j] for e in p.terms)


def coeff_of_power(p: Poly, j: int, d: int) -> Poly:
    """Coefficient of x_j^d, as a polynomial with x_j-exponent zeroed."""
    out = {}
    for e, c in p.terms.items():
        if e[j] == d:
            e2 = list(e)
            e2[j] = 0
            out[tuple(e2)] = c
    return Poly(p.nvars, out)


def mul_monomial(p: Poly, exps: Sequence[int], c) -> Poly:
    return Poly(p.nvars, {tuple(a + b for a, b in zip(e, exps)): v * c for e, v in p.terms.items()})


def divmod_affine(p: Poly, form: AffineForm) -> Tuple[Poly, Poly]:
    """Polynomial division by a degree-one form: p = q*form + r with r free of the pivot variable."""
    pivot = next(j for j, c in enumerate(form.coeffs) if c)
    a = QI.of(form.coeffs[pivot])
    fpoly = as_poly(form)
    q = Poly.zero(p.nvars)
    r = p
    while True:
        d = deg_in(r, pivot)
        if d < 1:
            break
        lead = coeff_of_power(r, pivot, d)
        shift = [0] * p.nvars
        shift[pivot] = d - 1
        t = mul_monomial(lead, shift, QI.one() / a)
        q = q + t
        r = r - t * fpoly
    return q, r


def divides_affine(p: Poly, form: AffineForm) -> bool:
    q, r = divmod_affine(p, form)
    return r.is_zero()
