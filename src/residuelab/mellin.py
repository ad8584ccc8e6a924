"""Exact evaluation of the continued integral on the separable class.

Angular selection reduces every chart integral to a product of one-variable
radial Mellin transforms, each a rational function of the composite column
parameter; the assembled value is an exact MeroValue and serves as the
oracle for all pole claims.  A floating-point polar quadrature provides an
independent numeric cross-check in the absolute-convergence zone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Dict, Optional, Sequence, Tuple, Union

from .charts import ChartSpec, Factor, Scenario, SeparableTestForm
from .gaussian import QI
from .leibniz import check_units, subset_determinant
from .linform import AffineForm, _normalized
from .merovalue import MeroValue, TokenScalar
from .orientation import dbar_front_sign
from .profiles import ExactnessError, RadialProfile

QUAD_NODES, QUAD_ANGLES = 24, 32  # coarse quadrature pass; the fine pass doubles both
QUAD_MAX_ANGLES = 2**16  # 4 angles per unit of twist; bounds the angle arrays (2 MB at the fine pass)


class DimensionTooLargeError(ValueError):
    pass


class FloatRangeError(ValueError):
    """The quadrature leaves the float range: its integrand overflows at the parameter point."""


class DivergenceError(ValueError):
    """Integrand not locally integrable and no parameter available to continue in."""


def _mellin_sum(nvars: int, mu_vec: Sequence[int], shift: int, rho: RadialProfile) -> MeroValue:
    """Sum_k c_k / (s + d_k) with s = mu.L and d_k = shift + k + 1, reduced; mu
    may be the zero column.

    Over prod_k (s + d_k) the numerator is P(s) = sum_k c_k prod_{j != k} (s + d_j).
    The forms s + d_k are parallel with distinct constants, so pairwise coprime,
    and none divides P: at s = -d_k, P = c_k prod_{j != k} (d_j - d_k) != 0.  So
    P(s) / prod_k (s + d_k) is written down reduced, with no division tried.
    """
    terms = rho.mellin_terms()
    ds = [shift + k + 1 for k, _ in terms]
    if not any(mu_vec):
        if ds and ds[0] <= 0:
            raise DivergenceError(f"radial integrand t^{ds[0] - 1} has no parameter to continue in")
        return MeroValue.const(nvars, sum(c / d for (_, c), d in zip(terms, ds)))
    if not terms:
        return MeroValue.zero(nvars)
    # P in integers over the common denominator D of the c_k, constant first
    D = lcm(*(c.denominator for _, c in terms))
    P = [0] * len(ds)
    for (_, c), dk in zip(terms, ds):
        row = [c.numerator * (D // c.denominator)]
        for dj in ds:
            if dj != dk:
                row = [x * dj + y for x, y in zip(row + [0], [0] + row)]
        P = [x + y for x, y in zip(P, row)]
    forms = [_normalized(mu_vec, d) for d in ds]  # s + d_k = g_k * F_k, F_k normalized
    den = [(AffineForm(vec, const), 1) for vec, const, _ in forms]
    return MeroValue.in_one_form(AffineForm(tuple(mu_vec)), P, D * prod(g for _, _, g in forms), den)


def radial_factor(nvars: int, mu_vec: Sequence[int], shift: int, rho: RadialProfile) -> MeroValue:
    """Value of one angularly selected variable: -2*pi*i times the Mellin sum."""
    s = _mellin_sum(nvars, mu_vec, shift, rho)
    return (s * QI.of(-1)).mul_token(1)


def _resolve_chart(scenario: Scenario, chart: Union[ChartSpec, str]) -> ChartSpec:
    if isinstance(chart, str):
        return scenario.chart(chart)
    return chart


@dataclass(frozen=True)
class PlannedTerm:
    """A test-form term that survives angular selection on one chart.

    `variables` holds, per variable x_i in order, (column, u, v, factor): the
    variable integrates |x|^(2 mu) x^u conj(x)^v rho(|x|^2) with mu the column
    paired against the parameters, and vanishes by angular selection when
    u != v.  `index` is the term's position in the test form.
    """

    coeff: QI
    det: int
    sign: int
    variables: Tuple[Tuple[Tuple[int, ...], int, int, Factor], ...]
    index: int


def term_plan(chart: ChartSpec, testform: SeparableTestForm, N: int) -> Tuple[PlannedTerm, ...]:
    """The terms of the test form that the chart integral can see.

    A term survives when its coefficient is nonzero, it has top degree
    (exactly n - p conjugate slots), and the subset determinant of the chart's
    derivative rows on its holomorphic variables is nonzero.  `sign` is the
    wedge sign of moving those variables' conjugate differentials in front.
    """
    n, p = chart.n, chart.p
    columns = [chart.column(i) for i in range(1, n + 1)]
    plan = []
    for index, term in enumerate(testform.terms):
        if not term.coeff or len(term.dbar_slots) != n - p:
            continue
        I = [i for i in range(1, n + 1) if i not in term.dbar_slots]
        det = subset_determinant(chart.alpha, I)
        if det == 0:
            continue
        variables = []
        for i in range(1, n + 1):
            f = term.factors[i - 1]
            u = f.a + chart.jac[i - 1] - N * sum(columns[i - 1])
            # variables carrying a derivative differential pick up 1/conj(x)
            v = f.b - (0 if i in term.dbar_slots else 1)
            variables.append((columns[i - 1], u, v, f))
        sign = dbar_front_sign(I, n, term.dbar_slots)
        plan.append(PlannedTerm(term.coeff, det, sign, tuple(variables), index))
    return tuple(plan)


def mellin_exact(scenario: Scenario, chart: Union[ChartSpec, str]) -> MeroValue:
    """Exact chart contribution to the continued integral, reduced."""
    chart = _resolve_chart(scenario, chart)
    sig = scenario.signature
    check_units(chart)
    plan = term_plan(chart, scenario.testform(chart.name), sig.N)
    nv = sig.nfactors
    axis = [1] * sig.p + [0] * (nv - sig.p)
    result = MeroValue.zero(nv)
    for term in plan:
        val = MeroValue.monomial(nv, axis, term.coeff * (term.det * term.sign * chart.sign))
        for j, (column, u, v, f) in enumerate(term.variables):
            if u != v:
                val = MeroValue.zero(nv)
                break
            try:
                fac = radial_factor(nv, column, u, f.rho)
            except ExactnessError as exc:
                path = f"testforms[{chart.name!r}].terms[{term.index}].factors[{j}].rho"
                raise ExactnessError(f"{path}: {exc}") from None
            if fac.is_zero():
                val = MeroValue.zero(nv)
                break
            val = val * fac
        result = result + val
    return result.reduced()


def chart_sum(scenario: Scenario) -> Tuple[MeroValue, Dict[str, MeroValue]]:
    """The continued integral, the reduced sum of the charts' exact values,
    and those values by chart name."""
    values = {chart.name: mellin_exact(scenario, chart) for chart in scenario.charts}
    total = MeroValue.zero(scenario.signature.nfactors)
    for v in values.values():
        total = total + v
    return total.reduced(), values


def value_at_origin(v: MeroValue) -> TokenScalar:
    return v.value_at_origin()


def residue_on(form: AffineForm, v: MeroValue, point: Sequence[Fraction]) -> TokenScalar:
    return v.residue_on(form, point)


def extreme_pole(v: MeroValue) -> Optional[Fraction]:
    """Largest pole location of a one-parameter value; None when entire."""
    v = v.reduced()
    if v.nvars != 1:
        raise ValueError("extreme_pole expects a one-parameter value")
    roots = [Fraction(-f.const, f.coeffs[0]) for f, _ in v.den]
    return max(roots) if roots else None


# ---------------------------------------------------------------------------
# Floating-point quadrature oracle.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1], computed once per n and
    shared read-only by every quadrature and Mellin check."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _quad_variable(mu: complex, u: int, v: int, rho: RadialProfile, nr: int, nt: int) -> complex:
    """Numeric integral over C of |x|^(2 mu) x^u conj(x)^v rho(|x|^2) dx ^ conj(dx)."""
    import numpy as np

    if rho.is_zero():
        return 0j
    twist = u - v
    theta = (np.arange(nt) + 0.5) * (2 * np.pi / nt)
    ang = np.exp(1j * twist * theta).sum() * (2 * np.pi / nt)
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
        vals = np.exp((2 * mu + u + v + 1) * np.log(r)) * rho_t
        radial += np.sum(w * vals)
    return -2j * ang * radial


def _quad_total(
    plan: Sequence[PlannedTerm], chart_sign: int, p: int, lam: Sequence[complex], nr: int, nt: int
) -> complex:
    def term_value(term: PlannedTerm) -> complex:
        total = term.coeff.as_complex() * term.det * term.sign * chart_sign
        for t in range(p):
            total *= lam[t]
        for column, u, v, f in term.variables:
            mu = sum(c * lam[j] for j, c in enumerate(column))
            total *= _quad_variable(mu, u, v, f.rho, nr, nt)
            if not total:
                return 0j
        return total

    return sum([term_value(term) for term in plan], 0j)


def mellin_quadrature(
    scenario: Scenario,
    chart: Union[ChartSpec, str],
    lam: Sequence[complex],
) -> QuadResult:
    """Adaptive polar cubature of the chart integrand at a fixed parameter point.

    Deterministic: one coarse and one refined tensor schedule, the difference
    serving as the error estimate.
    """
    chart = _resolve_chart(scenario, chart)
    sig = scenario.signature
    if sig.n > 3:
        raise DimensionTooLargeError("DimensionTooLarge: quadrature supports n <= 3")
    lam = [complex(z) for z in lam]
    if len(lam) != sig.nfactors:
        raise ValueError(f"expected {sig.nfactors} parameter values")
    if any(z.real < 2 for z in lam):
        raise ValueError("quadrature needs Re(lambda_j) >= 2 (absolute convergence zone)")
    testform = scenario.testform(chart.name)
    max_twist = 0
    for term in testform.terms:
        for f in term.factors:
            max_twist = max(max_twist, abs(f.a - f.b) + 1)
    nt = max(QUAD_ANGLES, 4 * max_twist)
    if nt > QUAD_MAX_ANGLES:
        raise DimensionTooLargeError(f"DimensionTooLarge: twist {max_twist - 1} needs {nt} angles")
    import cmath

    import numpy as np

    plan = term_plan(chart, testform, sig.N)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value, checked below
        coarse = _quad_total(plan, chart.sign, sig.p, lam, QUAD_NODES, nt)
        fine = _quad_total(plan, chart.sign, sig.p, lam, 2 * QUAD_NODES, 2 * nt)
    if not (cmath.isfinite(coarse) and cmath.isfinite(fine)):
        raise FloatRangeError("the quadrature leaves the float range at this point")
    return QuadResult(fine, abs(fine - coarse))
