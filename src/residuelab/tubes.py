"""Residue integrals over tubular sets, admissible-path limits, and the
iterated Mellin cross-check.

A tube (`TubeSpec`) is a diagonal chart, each factor a power of its own
variable and no Jacobian, with one radius per factor.  Its integral factors
into one-variable circle and exterior integrals (the N = 1 integrals, times
the chart's sign), enough to exercise the Mellin identity and the limit
values the exact engine predicts.  `tube_integral`, `admissible_limit` and
`mellin_check` all read one list of the terms angular selection keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .charts import ChartSpec, Factor, InputError, ProblemSignature, Scenario, SeparableTestForm
from .mellin import _gauss_legendre, mellin_exact, term_plan

LIMIT_T0 = Fraction(1, 2)  # first sample of an admissible limit


class UnsupportedTubeError(InputError):
    pass


@dataclass(frozen=True)
class TubeSpec:
    """A diagonal chart, f_j = x_v^k on distinct variables with no Jacobian,
    and one radius per factor row: the first p rows are residue-type (level
    sets), the rest principal-value-type (exteriors)."""

    chart: ChartSpec
    eps: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "eps", tuple(Fraction(e) for e in self.eps))
        rows = self.chart.rows()
        hits = [[i for i, e in enumerate(row) if e] for row in rows]
        if any(len(h) != 1 for h in hits) or len({h[0] for h in hits}) != len(rows):
            raise UnsupportedTubeError(
                "UnsupportedTube: factors must be powers of distinct single variables"
            )
        if any(self.chart.jac):
            raise UnsupportedTubeError("UnsupportedTube: tube charts carry no Jacobian factor")
        if any(sum(row) < 1 for row in rows):
            raise ValueError("exponents must be >= 1")
        if len(self.eps) != len(rows):
            raise ValueError(f"expected {len(rows)} tube radii")
        if any(e <= 0 for e in self.eps):
            raise ValueError("tube radii must be positive")


def tube_spec_from_chart(chart: ChartSpec, eps: Sequence[Fraction]) -> TubeSpec:
    """The tube of a diagonal chart at radii `eps`; rejects non-diagonal data."""
    return TubeSpec(chart, tuple(eps))


def _tube_terms(chart: ChartSpec, testform: SeparableTestForm) -> List[Tuple[complex, tuple]]:
    """The terms of the tube integrand that survive angular selection: each
    term's scalar, with the chart's sign and one flip per residue factor, and
    per variable (k, factor row or None, factor).  A spectator variable meets
    no factor row and has k = 0."""
    terms = []
    for term in term_plan(chart, testform, 1):
        if any(u != v for _, u, v, _ in term.variables):
            continue
        scalar = term.coeff.as_complex() * (term.sign * chart.sign * (-1) ** chart.p)
        # a diagonal chart's column has at most one nonzero entry, k
        variables = tuple(
            (sum(column), column.index(sum(column)) if any(column) else None, f)
            for column, _, _, f in term.variables
        )
        terms.append((scalar, variables))
    return terms


def tube_integral(spec: TubeSpec, testform: SeparableTestForm) -> complex:
    """Separable evaluation: circles for residue factors, exteriors for
    principal-value factors, full planes for spectator variables.

    The tube is oriented so that its admissible limit represents the same
    current the analytic continuation evaluates: counterclockwise circles,
    with the block sign of moving the circle directions in front of the
    ambient orientation and one flip per residue factor.
    """
    return _tube_value(_tube_terms(spec.chart, testform), spec.chart.p, spec.eps)


def _tube_value(terms, p: int, eps: Sequence[Fraction]) -> complex:
    """Tube integral of the selected terms at the radii `eps`."""
    total = 0j
    for val, variables in terms:
        for k, j, f in variables:
            val *= _tube_factor(k, j, f, p, None if j is None else eps[j])
            if not val:
                break
        total += val
    return complex(total)


def _tube_factor(k: int, j: Optional[int], f: Factor, p: int, eps) -> complex:
    """One variable's factor of a selected tube term, x^k on factor row j, at
    that row's radius `eps`: a circle (j < p), an exterior (j >= p), or the
    full plane of a spectator (j None; `k` and `eps` unused).  It depends on
    no other radius."""
    if j is None:
        return -2j * math.pi * float(f.rho.moment(f.a))
    if j < p:
        # integral over |x|^(2k) = eps of x^a conj(x)^b rho / x^k dx
        t0 = float(eps) ** (1.0 / k)
        return 2j * math.pi * t0 ** f.b * f.rho.value(t0)
    if k == 1:
        tail = float(f.rho.moment_tail(f.b, Fraction(eps)))
    else:
        tail = _moment_tail_float(f.rho, f.b, float(eps) ** (1.0 / k))
    return -2j * math.pi * tail


def _moment_tail_float(rho, b: int, t0: float) -> float:
    knots, pieces = rho._float_view
    total = 0.0
    for j, piece in enumerate(pieces):
        lo = max(float(knots[j]), t0)
        hi = float(knots[j + 1])
        if lo >= hi:
            continue
        for k, c in enumerate(piece):
            if not c:
                continue
            e = b + k + 1
            total += c * (hi**e - lo**e) / e
    return total


@dataclass(frozen=True)
class AdmissiblePath:
    """eps_j(t) = t^(exponents[j]); exponents decrease fast enough that every
    ratio eps_j / eps_{j+1}^k with k <= bound tends to zero."""

    exponents: Tuple[int, ...]
    bound: int

    @staticmethod
    def default(count: int, M: int = 10) -> "AdmissiblePath":
        # base M+1 keeps the ratio condition strict at k = M
        return AdmissiblePath(tuple((M + 1) ** (count - 1 - j) for j in range(count)), M)

    def ratio_condition_ok(self) -> bool:
        # with positive exponents, a - k*b > 0 for all k <= bound iff it holds at k = bound
        e = self.exponents
        positive = self.bound >= 1 and all(x > 0 for x in e)
        return positive and all(a > self.bound * b for a, b in zip(e, e[1:]))

    def eps_at(self, t: Fraction) -> Tuple[Fraction, ...]:
        t = Fraction(t)
        return tuple(t**e for e in self.exponents)


@dataclass(frozen=True)
class LimitResult:
    value: complex
    error: float
    samples: Tuple[complex, ...]
    converged: bool


def admissible_limit(
    spec: TubeSpec,
    testform: SeparableTestForm,
    path: Optional[AdmissiblePath] = None,
    samples: int = 14,
    tol: float = 1e-9,
) -> LimitResult:
    """Extrapolate the tube integral along an admissible path to t -> 0 from
    samples at t = LIMIT_T0 / 2^j; `converged` means the error estimate (the
    last change of the accelerated sequence) is at most `tol`, absolute."""
    if samples < 2:
        raise ValueError("admissible_limit needs samples >= 2")
    if path is None:
        path = AdmissiblePath.default(len(spec.eps))
    if not path.ratio_condition_ok():
        raise ValueError("path does not satisfy the admissible ratio condition")
    ts = [LIMIT_T0 * Fraction(1, 2) ** j for j in range(samples)]
    terms = _tube_terms(spec.chart, testform)
    vals = [_tube_value(terms, spec.chart.p, path.eps_at(t)) for t in ts]
    seq = list(vals)
    # iterated Aitken acceleration; geometric t-sampling makes power-law
    # corrections geometric, which Aitken removes
    for _ in range(3):
        if len(seq) < 3:
            break
        nxt = []
        for a, b, c in zip(seq, seq[1:], seq[2:]):
            d = (c - b) - (b - a)
            nxt.append(c - (c - b) ** 2 / d if abs(d) > 1e-300 else c)
        seq = nxt
    err = abs(seq[-1] - seq[-2]) if len(seq) >= 2 else abs(vals[-1] - vals[-2])
    return LimitResult(seq[-1], err, tuple(vals), err <= tol)


@dataclass(frozen=True)
class MellinCheckRow:
    lam: Tuple[complex, ...]
    transform: complex
    reference: complex
    rel_error: float
    sign: int


def _panels(bounds: List[float]) -> List[Tuple[float, float]]:
    out = []
    for a, b in zip(bounds, bounds[1:]):
        if b <= a:
            continue
        # geometric refinement toward 0 keeps s^(lam-1) accurate
        if a == 0.0:
            left = b
            for _ in range(10):
                out.append((left / 2, left))
                left /= 2
            out.append((0.0, left))
        else:
            out.append((a, b))
    return out


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

        sum over terms of  coeff * sign * chart.sign * (-1)^p * prod_j M_j(lam_j),

    where M_j is the one-variable transform of factor j (Gauss-Legendre, 40
    nodes per panel) and a spectator variable contributes its constant factor.
    `rel_error` is |transform - reference| / |reference|, with the README's
    sign +1; `sign` is the better-fitting sign, for diagnosis only.
    """
    import numpy as np

    chart = spec.chart
    count = len(spec.eps)
    lambdas = [[complex(z) for z in lam] for lam in lambdas]
    if any(len(lam) != count for lam in lambdas):
        raise ValueError(f"expected {count} parameter values")
    if any(z.real < 2 for lam in lambdas for z in lam):
        raise ValueError("mellin_check needs Re(lambda) >= 2")
    signature = ProblemSignature(chart.n, chart.p, chart.q, 1)
    exact = mellin_exact(Scenario(signature, (chart,), {chart.name: testform}), chart)
    terms = _tube_terms(chart, testform)

    # knots of the tube integrand in each s_j: images of profile knots
    supports = []
    for row in chart.rows():
        k = sum(row)  # a diagonal row's one nonzero exponent
        knots = {x for term in testform.terms for x in term.factors[row.index(k)].rho.knots}
        supports.append(sorted({0.0} | {float(x) ** k for x in knots}))
    gl_nodes, gl_w = _gauss_legendre(40)

    rows = []
    for lam in lambdas:
        total = 0j
        for val, variables in terms:
            for k, j, f in variables:
                if j is None:
                    val *= _tube_factor(k, None, f, chart.p, None)
                    continue
                transform = 0j
                for a, b in _panels(supports[j]):
                    s = 0.5 * (b - a) * gl_nodes + 0.5 * (b + a)
                    w = 0.5 * (b - a) * gl_w
                    vals = np.array([_tube_factor(k, j, f, chart.p, x) for x in s])
                    transform += np.sum(w * vals * (lam[j] * s ** (lam[j] - 1)))
                val *= transform
            total += val
        ref = exact.eval_complex(list(lam))
        sign = 1 if abs(total - ref) <= abs(total + ref) else -1
        rel = abs(total - ref) / max(abs(ref), 1e-300)
        rows.append(MellinCheckRow(tuple(lam), complex(total), ref, float(rel), sign))
    return rows
