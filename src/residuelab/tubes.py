"""Residue integrals over tubular sets, admissible-path limits, and the
iterated Mellin cross-check.

A tube (`TubeSpec`) is a diagonal chart, each factor a power of its own
variable and no Jacobian, with one radius per factor.  Its integral factors
into one-variable circle and exterior integrals (the N = 1 integrals, times
the chart's sign), enough to exercise the Mellin identity and the limit
values the exact engine predicts.  `tube_integral`, `admissible_limit` and
`mellin_check` all read one list of the terms angular selection keeps, and
evaluate each term's one-variable factors with `_tube_factors` over every
radius they need at once: one radius, all samples of a path, or all
quadrature nodes of a factor row.  Each radius gets the floats, bit for bit,
of evaluating it alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .charts import ChartSpec, Factor, ProblemSignature, Scenario, SeparableTestForm
from .errors import InputError, ScenarioError
from .frozen import Frozen, _set
from .mellin import _complexes, _gauss_legendre, mellin_exact, term_plan

PATH_M = 10  # ratio bound of the admissible path tube limits follow
LIMIT_SAMPLES = 14  # tube integrals an admissible limit extrapolates from


class UnsupportedTubeError(InputError):
    pass


class TubeSpec(Frozen):
    """A diagonal chart, f_j = x_v^k on distinct variables with no Jacobian,
    and one radius per factor row: the first p rows are residue-type (level
    sets), the rest principal-value-type (exteriors)."""

    def __init__(self, chart: ChartSpec, eps: Tuple[Fraction, ...]):
        _set(self, "chart", chart)
        _set(self, "eps", tuple(Fraction(e) for e in eps))
        rows = self.chart.rows()
        hits = [[i for i, e in enumerate(row) if e] for row in rows]
        if any(len(h) != 1 for h in hits) or len({h[0] for h in hits}) != len(rows):
            raise UnsupportedTubeError(
                "UnsupportedTube: factors must be powers of distinct single variables"
            )
        if any(self.chart.jac):
            raise UnsupportedTubeError("UnsupportedTube: tube charts carry no Jacobian factor")
        if any(sum(row) < 1 for row in rows):
            raise InputError("exponents must be >= 1")
        if len(self.eps) != len(rows):
            raise ScenarioError("eps", f"expected {len(rows)} tube radii")
        floats = _complexes(self.eps, "eps")  # the tube paths read radii as floats
        if any(e <= 0 for e in self.eps):
            raise ScenarioError("eps", "tube radii must be positive")
        if not all(floats):
            raise ScenarioError("eps", "tube radii must be positive as floats: 2^-1075 or less rounds to 0.0")


def tube_spec_from_chart(chart: ChartSpec, eps: Sequence[Fraction]) -> TubeSpec:
    """The tube of a diagonal chart at radii `eps`; rejects non-diagonal data."""
    return TubeSpec(chart, tuple(eps))


def _tube_terms(chart: ChartSpec, testform: SeparableTestForm) -> List[Tuple[complex, tuple]]:
    """The terms of the tube integrand that survive angular selection: each
    term's scalar, with the sign of its orientation and one flip per residue
    factor, and per variable (k, factor row or None, factor).  A spectator
    variable meets no factor row and has k = 0."""
    terms = []
    for term in term_plan(chart, testform, 1):
        sign = 1 if term.orientation > 0 else -1
        scalar = term.coeff.as_complex() * (sign * (-1) ** chart.p)
        # a diagonal chart's column has at most one nonzero entry, k
        variables = tuple(
            (sum(column), column.index(sum(column)) if any(column) else None, f)
            for column, _, f in term.variables
        )
        terms.append((scalar, variables))
    return terms


def tube_integral(spec: TubeSpec, testform: SeparableTestForm) -> complex:
    """Separable evaluation: circles for residue factors, exteriors for
    principal-value factors, full planes for spectator variables.

    The tube is oriented so that its admissible limit represents the same
    current the analytic continuation evaluates: counterclockwise circles,
    and each selected term scaled by coeff * sign(orientation) * (-1)^p,
    with `term_plan`'s orientation and one flip per residue factor.
    """
    return _tube_values(_tube_terms(spec.chart, testform), spec.chart.p, [spec.eps])[0]


def _tube_values(terms, p: int, epss: Sequence[Sequence]) -> List[complex]:
    """Tube integral of the selected terms at each tuple of radii in `epss`;
    a sample's term stops at its first factor that makes it zero."""
    factors = [
        [_tube_factors(k, j, f, p, epss if j is None else [eps[j] for eps in epss]) for k, j, f in variables]
        for _, variables in terms
    ]
    out = []
    for i in range(len(epss)):
        total = 0j
        for (val, _), xs in zip(terms, factors):
            for x in xs:
                val *= x[i]
                if not val:
                    break
            total += val
        out.append(complex(total))
    return out


def _tube_factors(k: int, j: Optional[int], f: Factor, p: int, radii: Sequence) -> List[complex]:
    """One variable's factor of a selected tube term, x^k on factor row j, at
    each of that row's radii: a circle (j < p), an exterior (j >= p), or the
    full plane of a spectator (j None; `k` unused, and of `radii` only their
    count).  The profile is set up once per call; each radius then costs the
    float operations, and gets the bits, of evaluating it alone."""
    rho, b = f.rho, f.b
    if j is None:
        return [-2j * math.pi * float(rho.moment_tail(f.a, 0))] * len(radii)
    if j < p:
        # integral over |x|^(2k) = eps of x^a conj(x)^b rho / x^k dx
        t0s = [float(r) ** (1.0 / k) for r in radii] if k > 1 else list(map(float, radii))
        circle = 2j * math.pi
        return [circle * t0**b * v for t0, v in zip(t0s, rho.values(t0s))]
    exterior = -2j * math.pi
    if k == 1:
        # exact tail, rounded once
        return [exterior * (num / den) for num, den in rho._tail_ratios(b, radii)]
    # k >= 2: the tail from t0 = eps^(1/k) in floats, each piece's hi^e computed once
    _, _, float_pieces, knots = rho._float_view
    pieces = [
        (lo, hi, [(c, b + i + 1, hi ** (b + i + 1)) for i, c in enumerate(piece) if c])
        for lo, hi, piece in zip(knots, knots[1:], float_pieces)
    ]
    out = []
    for r in radii:
        t0 = float(r) ** (1.0 / k)
        tail = 0.0
        for lo, hi, terms in pieces:
            lo = max(lo, t0)
            if lo >= hi:
                continue
            for c, e, hi_e in terms:
                tail += c * (hi_e - lo**e) / e
        out.append(exterior * tail)
    return out


def path_exponents(count: int) -> Tuple[int, ...]:
    """Exponents of the admissible path eps_j(t) = t^(e_j) that tube limits
    follow: e_j = (PATH_M + 1)^(count - 1 - j), so every ratio
    eps_j / eps_{j+1}^k with k <= PATH_M tends to zero.  On a diagonal tube
    every admissible path has the same limit, so one path serves."""
    return tuple((PATH_M + 1) ** (count - 1 - j) for j in range(count))


class LimitResult(Frozen):
    def __init__(self, value: complex, error: float, samples: Tuple[complex, ...], converged: bool):
        _set(self, "value", value)
        _set(self, "error", error)
        _set(self, "samples", samples)
        _set(self, "converged", converged)


def admissible_limit(spec: TubeSpec, testform: SeparableTestForm, tol: float = 1e-9) -> LimitResult:
    """Extrapolate the tube integral along the path of `path_exponents` to
    t -> 0 from LIMIT_SAMPLES samples at t = 2^-1, 2^-2, ...; `converged`
    means the error estimate (the last change of the accelerated sequence)
    is at most `tol`, absolute."""
    exponents = path_exponents(len(spec.eps))
    radii = [tuple(Fraction(1, 2 ** (i * e)) for e in exponents) for i in range(1, LIMIT_SAMPLES + 1)]
    vals = _tube_values(_tube_terms(spec.chart, testform), spec.chart.p, radii)
    seq = vals
    # iterated Aitken acceleration; geometric t-sampling makes power-law
    # corrections geometric, which Aitken removes
    for _ in range(3):
        nxt = []
        for a, b, c in zip(seq, seq[1:], seq[2:]):
            d = (c - b) - (b - a)
            nxt.append(c - (c - b) ** 2 / d if abs(d) > 1e-300 else c)
        seq = nxt
    err = abs(seq[-1] - seq[-2])
    return LimitResult(seq[-1], err, tuple(vals), err <= tol)


class MellinCheckRow(Frozen):
    def __init__(self, lam: Tuple[complex, ...], transform: complex, reference: complex, rel_error: float, sign: int):
        _set(self, "lam", lam)
        _set(self, "transform", transform)
        _set(self, "reference", reference)
        _set(self, "rel_error", rel_error)
        _set(self, "sign", sign)


def mellin_check(
    spec: TubeSpec,
    testform: SeparableTestForm,
    lambdas: Sequence[Sequence[complex]],
) -> List[MellinCheckRow]:
    """Compare the iterated Mellin transform of the tube integral T(s_1..s_m)
    with the exact value at the same points.

    On diagonal data each selected term of T is a constant times a product of
    one-variable factors, and factor j reads only its own radius s_j.  So the
    m-fold transform, the integral of T(s) prod_j lam_j s_j^(lam_j - 1) over
    (0, oo)^m, is exactly

        sum over terms of  coeff * sign(orientation) * (-1)^p * prod_j M_j(lam_j),

    where M_j is the one-variable transform of factor j and a spectator
    variable contributes its constant factor.  The reference, `mellin_exact`,
    runs first and accepts only profiles on [0, 1], so every M_j integrates
    over s in [0, 1], on one grid shared by all factor rows.  `rel_error` is
    |transform - reference| / |reference|, with the README's sign +1; `sign`
    is the better-fitting sign, for diagnosis only.
    """
    import numpy as np

    chart = spec.chart
    count = len(spec.eps)
    lambdas = [_complexes(lam, "lambdas") for lam in lambdas]
    if any(len(lam) != count for lam in lambdas):
        raise ScenarioError("lambdas", f"expected {count} parameter values")
    if any(z.real < 2 for lam in lambdas for z in lam):
        raise ScenarioError("lambdas", "mellin_check needs Re(lambda) >= 2")
    signature = ProblemSignature(chart.n, chart.p, chart.q, 1)
    exact = mellin_exact(Scenario(signature, (chart,), {chart.name: testform}), chart)
    terms = _tube_terms(chart, testform)

    # the grid on [0, 1]: 40 Gauss-Legendre nodes on each of the panels (1/2, 1),
    # (1/4, 1/2), ..., (2^-10, 2^-9), then (0, 2^-10), refined toward 0 to keep
    # s^(lam - 1) accurate.  Per selected term and variable, what no lambda
    # reads: a spectator's constant, or the weights times the factor values
    gl_nodes, gl_w = _gauss_legendre(40)
    ends = np.array([(2.0**-i, 2.0 ** (1 - i)) for i in range(1, 11)] + [(0.0, 2.0**-10)]).reshape(-1, 2, 1)
    half, mid = 0.5 * (ends[:, 1] - ends[:, 0]), 0.5 * (ends[:, 1] + ends[:, 0])
    s, w = half * gl_nodes + mid, half * gl_w
    nodes = s.ravel().tolist()
    weighted = [
        [
            _tube_factors(k, j, f, chart.p, [None])[0]
            if j is None
            else w * np.array(_tube_factors(k, j, f, chart.p, nodes)).reshape(w.shape)
            for k, j, f in variables
        ]
        for _, variables in terms
    ]

    rows = []
    for lam in lambdas:
        kernels = [z * s ** (z - 1) for z in lam]
        total = 0j
        for (val, variables), xs in zip(terms, weighted):
            for (_, j, _), x in zip(variables, xs):
                if j is None:
                    val *= x
                    continue
                # one sum per panel, added in panel order
                transform = 0j
                for panel in np.add.reduce(x * kernels[j], axis=1).tolist():
                    transform += panel
                val *= transform
            total += val
        ref = exact.eval_complex(list(lam))
        sign = 1 if abs(total - ref) <= abs(total + ref) else -1
        rel = abs(total - ref) / max(abs(ref), 1e-300)
        rows.append(MellinCheckRow(tuple(lam), complex(total), ref, float(rel), sign))
    return rows
