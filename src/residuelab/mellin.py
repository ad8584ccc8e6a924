"""Exact evaluation of the continued integral on the separable class.

Angular selection reduces every chart integral to a product of one-variable
radial Mellin transforms, each a rational function of the composite column
parameter; the assembled value is an exact MeroValue and serves as the
oracle for all pole claims.  A floating-point polar quadrature provides an
independent numeric cross-check in the absolute-convergence zone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from .charts import ChartSpec, Factor, Scenario, SeparableTestForm
from .errors import InputError, ScenarioError
from .frozen import Frozen, _set
from .gaussian import QI
from .leibniz import check_units, dbar_front_sign, subset_determinant
from .linform import AffineForm, _normalized
from .merovalue import MeroValue, TokenScalar
from .profiles import ExactnessError, RadialProfile

QUAD_NODES = 24  # radial nodes of the coarse quadrature pass; the fine pass doubles them


class FloatRangeError(InputError):
    """The quadrature leaves the float range: its integrand overflows at the parameter point."""


class DivergenceError(ValueError):
    """Integrand not locally integrable and no parameter available to continue in."""


def radial_factor(nvars: int, mu_vec: Sequence[int], shift: int, rho: RadialProfile) -> MeroValue:
    """Value of one angularly selected variable: -2*pi*i times the Mellin sum
    sum_k c_k / (s + d_k), s = mu.L and d_k = shift + k + 1, reduced; mu may be
    the zero column.

    Over prod_k (s + d_k) the numerator is P(s) = sum_k c_k prod_{j != k} (s + d_j).
    The forms s + d_k are parallel with distinct constants, so pairwise coprime,
    and none divides P: at s = -d_k, P = c_k prod_{j != k} (d_j - d_k) != 0.  So
    -P(s) / prod_k (s + d_k) is written down reduced, with no division tried.
    """
    terms = rho.mellin_terms()
    ds = [shift + k + 1 for k, _ in terms]
    if not any(mu_vec):
        if ds and ds[0] <= 0:
            raise DivergenceError(f"radial integrand t^{ds[0] - 1} has no parameter to continue in")
        return MeroValue.const(nvars, -sum(c / d for (_, c), d in zip(terms, ds)), 1)
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
    g0 = _normalized(mu_vec)[2]  # s + d_k = g_k * F_k, F_k normalized: g_k = gcd(g0, d_k), signed as g0
    gs = [gcd(g0, d) if g0 > 0 else -gcd(g0, d) for d in ds]
    forms = [(tuple(c // g for c in mu_vec), d // g, g) for d, g in zip(ds, gs)]
    # distinct d_k give distinct forms, and (vec, const) order is their sort_key order
    den = tuple((AffineForm(vec, const), 1) for vec, const, _ in sorted(forms))
    content = -D * prod(g for _, _, g in forms)  # negative, so in_one_form negates the sum
    return MeroValue.in_one_form(AffineForm(tuple(mu_vec)), P, content, den).mul_token(1)


def _resolve_chart(scenario: Scenario, chart: Union[ChartSpec, str]) -> ChartSpec:
    if isinstance(chart, str):
        return scenario.chart(chart)
    return chart


class PlannedTerm(Frozen):
    """A test-form term that survives angular selection on one chart.

    `orientation` is the term's sign and weight, the subset determinant times
    the wedge sign times the chart's sign.  `variables` holds, per variable
    x_i in order, (column, u, factor): the variable integrates
    |x|^(2 mu) |x|^(2u) rho(|x|^2) with mu the column paired against the
    parameters.  `index` is the term's position in the test form.
    """

    def __init__(
        self, coeff: QI, orientation: int, variables: Tuple[Tuple[Tuple[int, ...], int, Factor], ...], index: int
    ):
        _set(self, "coeff", coeff)
        _set(self, "orientation", orientation)
        _set(self, "variables", variables)
        _set(self, "index", index)


def term_plan(chart: ChartSpec, testform: SeparableTestForm, N: int) -> Tuple[PlannedTerm, ...]:
    """The terms of the test form that survive angular selection on the chart.

    A term survives when its coefficient is nonzero, it has top degree
    (exactly n - p conjugate slots), the subset determinant of the chart's
    derivative rows on its holomorphic variables is nonzero, and every
    variable x^u conj(x)^v has no angular twist, u = v.  Its orientation is
    that determinant times the wedge sign of moving those variables'
    conjugate differentials in front, times the chart's sign.
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
            if u != f.b - (0 if i in term.dbar_slots else 1):
                break
            variables.append((columns[i - 1], u, f))
        else:
            orientation = det * dbar_front_sign(I, n, term.dbar_slots) * chart.sign
            plan.append(PlannedTerm(term.coeff, orientation, tuple(variables), index))
    return tuple(plan)


def mellin_exact(scenario: Scenario, chart: Union[ChartSpec, str]) -> MeroValue:
    """Exact chart contribution to the continued integral, reduced."""
    chart = _resolve_chart(scenario, chart)
    sig = scenario.signature
    check_units(chart)
    plan = term_plan(chart, scenario.testform(chart.name), sig.N)
    nv = sig.nfactors
    axis = [1] * sig.p + [0] * (nv - sig.p)
    values = []
    for term in plan:
        factors = []
        for j, (column, u, f) in enumerate(term.variables):
            try:
                factors.append((column, radial_factor(nv, column, u, f.rho)))
            except ExactnessError as exc:
                path = f"testforms[{chart.name!r}].terms[{term.index}].factors[{j}].rho"
                raise ExactnessError(f"{path}: {exc}") from None
            if factors[-1][1].is_zero():
                break
        values.append(MeroValue.term_product(axis, term.coeff, term.orientation, factors))
    return _balanced_sum(values, nv)


def _balanced_sum(values: Iterable[MeroValue], nvars: int) -> MeroValue:
    """The values added pairwise in list order, neighbours and then neighbouring sums."""
    values = list(values) or [MeroValue.zero(nvars)]
    while len(values) > 1:
        values = [a + b for a, b in zip(values[::2], values[1::2])] + values[len(values) & ~1:]
    return values[0]


def chart_sum(scenario: Scenario) -> Tuple[MeroValue, Dict[str, MeroValue]]:
    """The continued integral, the reduced sum of the charts' exact values,
    and those values by chart name."""
    values = {chart.name: mellin_exact(scenario, chart) for chart in scenario.charts}
    return _balanced_sum(values.values(), scenario.signature.nfactors), values


def value_at_origin(v: MeroValue) -> TokenScalar:
    return v.value_at_origin()


def residue_on(form: AffineForm, v: MeroValue, point: Sequence[Fraction]) -> TokenScalar:
    return v.residue_on(form, point)


def extreme_pole(v: MeroValue) -> Optional[Fraction]:
    """Largest pole location of a one-parameter value; None when entire."""
    if v.nvars != 1:
        raise ValueError("extreme_pole expects a one-parameter value")
    roots = [Fraction(-f.const, f.coeffs[0]) for f, _ in v.den]
    return max(roots) if roots else None


# ---------------------------------------------------------------------------
# Floating-point quadrature oracle.
# ---------------------------------------------------------------------------


def _complexes(values: Sequence, name: str) -> list:
    """Values a float path reads, as complex floats; one beyond the float range is bad input."""
    try:
        return [complex(z) for z in values]
    except OverflowError:
        raise ScenarioError(name, "value beyond the float range") from None


class QuadResult(Frozen):
    def __init__(self, value: complex, error: float):
        _set(self, "value", value)
        _set(self, "error", error)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1], computed once per n and
    shared read-only by every quadrature and Mellin check."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=64)
def _radial_grid(a_t: float, b_t: float):
    """log r, weights and t = r^2 at the coarse nodes, then at the fine ones,
    of the radius interval (sqrt(a_t), sqrt(b_t)); computed once per interval
    and shared read-only, like the rules themselves."""
    import numpy as np

    rules = zip(_gauss_legendre(QUAD_NODES), _gauss_legendre(2 * QUAD_NODES))
    nodes, weights = (np.concatenate(pair) for pair in rules)
    ra, rb = np.sqrt(a_t), np.sqrt(b_t)
    r = 0.5 * (rb - ra) * nodes + 0.5 * (rb + ra)
    grid = (np.log(r), 0.5 * (rb - ra) * weights, r * r)
    for arr in grid:
        arr.flags.writeable = False
    return grid


def _quad_variable(mu: complex, u: int, rho: RadialProfile) -> Tuple[complex, complex]:
    """Numeric integral over C of |x|^(2 mu) |x|^(2u) rho(|x|^2) dx ^ conj(dx)
    by the coarse and by the fine rule: the angle gives exactly 2 pi, so only
    the radius is integrated.  Each piece is evaluated once on both rules'
    nodes, and each rule's half is summed as its own contiguous array."""
    import numpy as np

    if rho.is_zero():
        return 0j, 0j
    _, _, pieces, knots = rho._float_view
    coarse = fine = 0j
    for a_t, b_t, piece in zip(knots, knots[1:], pieces):
        log_r, w, t = _radial_grid(a_t, b_t)
        rho_t = 0.0 * t
        for c in reversed(piece):
            rho_t = rho_t * t + c
        # x^u conj(x)^u: u added twice, not 2u, for the roundings of the pinned quadrature values
        wvals = w * (np.exp((2 * mu + u + u + 1) * log_r) * rho_t)
        coarse += np.add.reduce(wvals[:QUAD_NODES])
        fine += np.add.reduce(wvals[QUAD_NODES:])
    return -2j * (2 * np.pi) * coarse, -2j * (2 * np.pi) * fine


def _quad_total(plan: Sequence[PlannedTerm], p: int, lam: Sequence[complex]) -> Tuple[complex, complex]:
    """The chart's value by the coarse and by the fine rule, each term's two
    products formed side by side; a product that reaches zero stays 0j."""

    def term_values(term: PlannedTerm) -> Tuple[complex, complex]:
        total = term.coeff.as_complex() * term.orientation
        for t in range(p):
            total *= lam[t]
        products = [total, total]  # None once zero
        for column, u, f in term.variables:
            if all(x is None for x in products):
                break
            mu = sum(c * lam[j] for j, c in enumerate(column))
            for k, q in enumerate(_quad_variable(mu, u, f.rho)):
                if products[k] is not None:
                    products[k] = products[k] * q or None
        return tuple(0j if x is None else x for x in products)

    values = [term_values(term) for term in plan]
    return sum([c for c, _ in values], 0j), sum([f for _, f in values], 0j)


def mellin_quadrature(
    scenario: Scenario,
    chart: Union[ChartSpec, str],
    lam: Sequence[complex],
) -> QuadResult:
    """Gauss-Legendre radial quadrature of the chart integrand at a fixed
    parameter point, over the terms `term_plan` keeps.

    Deterministic: a coarse and a refined radial rule, the difference serving
    as the error estimate.  One grid per piece carries both rules, so each
    variable is evaluated once per call.
    """
    chart = _resolve_chart(scenario, chart)
    sig = scenario.signature
    lam = _complexes(lam, "lam")
    if len(lam) != sig.nfactors:
        raise ScenarioError("lam", f"expected {sig.nfactors} parameter values")
    if any(z.real < 2 for z in lam):
        raise ScenarioError("lam", "quadrature needs Re(lambda_j) >= 2 (absolute convergence zone)")
    import cmath

    import numpy as np

    plan = term_plan(chart, scenario.testform(chart.name), sig.N)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value, checked below
        coarse, fine = _quad_total(plan, sig.p, lam)
    if not (cmath.isfinite(coarse) and cmath.isfinite(fine)):
        raise FloatRangeError("the quadrature leaves the float range at this point")
    return QuadResult(fine, abs(fine - coarse))
