"""Slow reference implementations the engine's faster code is checked against.

- `mellin_sum_by_additions`: the radial Mellin sum built with K - 1 full
  MeroValue additions, each normalizing one form and reducing the sum;
  `mellin.radial_factor` writes the reduced value, times -2*pi*i, in closed form.
- `term_product_by_fold`: a planned term's value as the monomial times each
  radial value by `MeroValue.__mul__`, every new form tried for cancellation;
  `MeroValue.term_product` multiplies all numerators at once and tries only
  the forms the term-product rule allows.
- `sum_times_forms_by_tuples`: the common-denominator expansion of a sum, one
  (re, im) tuple per monomial and one real form at a time;
  `merovalue._sum_times_forms` packs each coefficient and each power of the
  last variable into one int per monomial of the other variables.
- `vanishes_at_point`: the modular divisibility filter evaluated at the full
  point of the form's hyperplane, summand by summand; `merovalue._vanishes`
  reduces each summand once per pivot and runs one Horner pass per form.
- `antichain_comprehension`: the one-line antichain that `deduction._antichain`
  writes as plain loops.
- `det_by_fractions`: Gaussian elimination over `Fraction`; `leibniz.subset_determinant`
  eliminates fraction-free (Bareiss) in integers.
- `rank_basis_by_fractions`: row elimination over `Fraction`; `leibniz.rank_basis`
  eliminates in integers, dividing each new row by the gcd of its entries.
- `quad_variable_per_piece`: the radial quadrature with `float()` of each knot
  and coefficient, one rule per call, Horner from `np.zeros_like` and `np.sum`;
  `mellin._quad_variable` reads the profile's float view, evaluates both rules
  on one cached grid per piece, starts from `0.0 * t` and sums each rule's half
  with `np.add.reduce`, to the same bits.
- `quadrature_by_two_passes`: `mellin_quadrature` with the coarse and the fine
  rule each run as its own pass over the plan, every variable integrated once
  per rule by `quad_variable_per_piece`; `mellin._quad_total` forms both rules'
  products side by side, each coefficient converted once, to the same bits.
"""

from fractions import Fraction
from operator import mul
from typing import Iterable, List, Sequence, Tuple

from residuelab import QI, AffineForm, MeroValue, RadialProfile, Scenario
from residuelab.linform import _normalized
from residuelab.mellin import (
    QUAD_NODES,
    DivergenceError,
    FloatRangeError,
    PlannedTerm,
    QuadResult,
    _gauss_legendre,
    term_plan,
)
from residuelab.merovalue import _PRIME, _decoded, _key, _pivot
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


def term_product_by_fold(axis: Sequence[int], coeff, orientation: int, factors) -> MeroValue:
    """coeff * orientation * L^axis times the (column, value) factors' values, one product at a time."""
    val = MeroValue.monomial(len(axis), axis, coeff * orientation)
    for _, v in factors:
        val = val * v
    return val


def sum_times_forms_by_tuples(parts) -> dict:
    """The sum of scale * terms * prod form^k over the parts (terms, scale,
    [(form, k), ...]) with no zero coefficient, multiplied out monomial by monomial."""
    total = {}
    for terms, scale, forms in parts:
        for f, k in forms:
            units = [[int(i == j) for i in range(f.nvars)] for j in range(f.nvars)]
            fterms = [(_key(u), c) for u, c in zip(units, f.coeffs)] + [(0, f.const)]
            for _ in range(k):
                out = {}
                for e, (re, im) in terms.items():
                    for u, c in fterms:
                        s = out.get(e + u, (0, 0))
                        out[e + u] = (s[0] + re * c, s[1] + im * c)
                terms = out
        for e, (re, im) in terms.items():
            s = total.get(e, (0, 0))
            total[e] = (s[0] + re * scale, s[1] + im * scale)
    return {e: c for e, c in total.items() if c != (0, 0)}


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


def det_by_fractions(matrix: Sequence[Sequence[int]]) -> Fraction:
    """Determinant by elimination over Fraction, one sign flip per row swap."""
    m = [list(map(Fraction, row)) for row in matrix]
    size = len(m)
    det = Fraction(1)
    for c in range(size):
        piv = next((r for r in range(c, size) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, size):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def rank_basis_by_fractions(alpha: Sequence[Sequence[int]]) -> Tuple[int, List[int]]:
    """Rank over Q and the lexicographically first maximal independent row subset (1-based)."""
    rows = [list(map(Fraction, r)) for r in alpha]
    basis: List[int] = []
    reduced: List[List[Fraction]] = []
    pivots: List[int] = []
    for idx, row in enumerate(rows):
        r = row[:]
        for rr, pc in zip(reduced, pivots):
            if r[pc]:
                f = r[pc] / rr[pc]
                r = [a - f * b for a, b in zip(r, rr)]
        pc = next((j for j, v in enumerate(r) if v), None)
        if pc is not None:
            reduced.append(r)
            pivots.append(pc)
            basis.append(idx + 1)
    return len(basis), basis


def quad_variable_per_piece(mu: complex, u: int, rho: RadialProfile, nr: int) -> complex:
    """Numeric integral over C of |x|^(2 mu) |x|^(2u) rho(|x|^2) dx ^ conj(dx),
    converting the profile to floats on every call."""
    import numpy as np

    if rho.is_zero():
        return 0j
    nodes, weights = _gauss_legendre(nr)
    radial = 0j
    knots = [float(k) for k in rho.knots]
    for a_t, b_t, piece in zip(knots, knots[1:], rho.pieces):
        ra, rb = np.sqrt(a_t), np.sqrt(b_t)
        r = 0.5 * (rb - ra) * nodes + 0.5 * (rb + ra)
        w = 0.5 * (rb - ra) * weights
        t = r * r
        rho_t = np.zeros_like(t)
        for k, c in reversed(list(enumerate(piece))):
            rho_t = rho_t * t + float(c)
        vals = np.exp((2 * mu + u + u + 1) * np.log(r)) * rho_t
        radial += np.sum(w * vals)
    return -2j * (2 * np.pi) * radial


def quad_total_two_pass(plan: Sequence[PlannedTerm], p: int, lam: Sequence[complex], nr: int) -> complex:
    """The chart's value by the nr-node rule: each term's product over its
    variables, 0j once it reaches zero."""

    def term_value(term: PlannedTerm) -> complex:
        total = term.coeff.as_complex() * term.orientation
        for t in range(p):
            total *= lam[t]
        for column, u, f in term.variables:
            mu = sum(c * lam[j] for j, c in enumerate(column))
            total *= quad_variable_per_piece(mu, u, f.rho, nr)
            if not total:
                return 0j
        return total

    return sum([term_value(term) for term in plan], 0j)


def quadrature_by_two_passes(scenario: Scenario, lam: Sequence[complex]) -> QuadResult:
    """The quadrature of the scenario's first chart at the float point lam,
    one pass per rule: the fine value and its distance to the coarse one."""
    import cmath

    import numpy as np

    chart = scenario.charts[0]
    sig = scenario.signature
    plan = term_plan(chart, scenario.testform(chart.name), sig.N)
    with np.errstate(all="ignore"):
        coarse = quad_total_two_pass(plan, sig.p, lam, QUAD_NODES)
        fine = quad_total_two_pass(plan, sig.p, lam, 2 * QUAD_NODES)
    if not (cmath.isfinite(coarse) and cmath.isfinite(fine)):
        raise FloatRangeError("the quadrature leaves the float range at this point")
    return QuadResult(fine, abs(fine - coarse))
