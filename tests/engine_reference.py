"""Slow reference implementations the engine's faster code is checked against.

- `mellin_sum_by_additions`: the radial Mellin sum built with K - 1 full
  MeroValue additions, each normalizing one form and reducing the sum;
  `mellin._mellin_sum` writes the reduced value down in closed form.
- `vanishes_at_point`: the modular divisibility filter evaluated at the full
  point of the form's hyperplane, summand by summand; `merovalue._vanishes`
  reduces each summand once per pivot and runs one Horner pass per form.
- `antichain_comprehension`: the one-line antichain that `deduction._antichain`
  writes as plain loops.
"""

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Tuple

from residuelab import QI, AffineForm, MeroValue, RadialProfile
from residuelab.linform import _normalized
from residuelab.mellin import DivergenceError
from residuelab.merovalue import _PRIME, _decoded, _pivot
from residuelab.poly import Poly


def mellin_sum_by_additions(nvars: int, mu_vec: Sequence[int], shift: int, rho: RadialProfile) -> MeroValue:
    """Sum_k c_k / (mu + shift + k + 1), one MeroValue addition per k."""
    total = MeroValue.zero(nvars)
    homogeneous = not any(mu_vec)
    for k, c in rho.mellin_terms():
        d = shift + k + 1
        if homogeneous:
            if d <= 0:
                raise DivergenceError(f"radial integrand t^{shift + k} has no parameter to continue in")
            total = total + MeroValue.const(nvars, QI.of(Fraction(c, d)))
        else:
            vec, const, g = _normalized(mu_vec, d)
            total = total + MeroValue.from_poly(Poly.const(nvars, QI.of(c) / g), [(AffineForm(vec, const), 1)])
    return total


def _value_mod(terms, point: Sequence[int]) -> Tuple[int, int]:
    """The (re, im) value of packed terms at point, modulo the engine's prime."""
    P = _PRIME
    sre = sim = 0
    for e, (re, im) in _decoded(terms.items(), len(point)):
        m = 1
        for x, k in zip(point, e):
            m = m * pow(x, k, P) % P
        sre += re * m
        sim += im * m
    return sre % P, sim % P


def vanishes_at_point(form: AffineForm, *parts) -> bool:
    """The filter's verdict on the sum of scale * terms * prod g^k over the
    parts (terms, scale, [(g, k), ...]), computed at the full point: off the
    pivot x_j = 2j + 3, and the pivot coordinate solving the form mod P."""
    P = _PRIME
    pivot = _pivot(form)
    a = form.coeffs[pivot] % P
    if not a:
        return True
    pt = [2 * j + 3 for j in range(form.nvars)]
    rest = form.const + sum(c * pt[j] for j, c in enumerate(form.coeffs) if c and j != pivot)
    pt[pivot] = -rest * pow(a, -1, P) % P
    sre = sim = 0
    for terms, scale, forms in parts:
        m = scale % P
        for g, k in forms:
            m = m * pow(g.const + sum(map(mul, g.coeffs, pt)), k, P) % P
        re, im = _value_mod(terms, pt)
        sre += re * m
        sim += im * m
    return sre % P == 0 and sim % P == 0


def antichain_comprehension(members: Iterable) -> frozenset:
    """Drop empty members and members strictly inside another."""
    mems = set(members)
    return frozenset(m for m in mems if m and not any(m & o == m and m != o for o in mems))
