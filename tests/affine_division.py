"""Reference polynomial division by a degree-one form, for the tests.

The exact engine divides on Gaussian-integer coefficients (`merovalue._divide`);
this is the plain long division over Q(i) it is checked against.
"""

from typing import Tuple

from residuelab import QI, AffineForm
from residuelab.poly import Poly


def divmod_affine(p: Poly, form: AffineForm) -> Tuple[Poly, Poly]:
    """Polynomial division by a degree-one form: p = q*form + r with r free of the pivot variable."""
    pivot = next(j for j, c in enumerate(form.coeffs) if c)
    a = QI.of(form.coeffs[pivot])
    fpoly = form.as_poly()
    q = Poly.zero(p.nvars)
    r = p
    while True:
        d = r.deg_in(pivot)
        if d < 1:
            break
        lead = r.coeff_of_power(pivot, d)
        shift = [0] * p.nvars
        shift[pivot] = d - 1
        t = lead.mul_monomial(shift, QI.one() / a)
        q = q + t
        r = r - t * fpoly
    return q, r


def divides_affine(p: Poly, form: AffineForm) -> bool:
    q, r = divmod_affine(p, form)
    return r.is_zero()
