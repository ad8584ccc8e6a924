"""Residue integrals over tubular sets, admissible-path limits, and the
iterated Mellin cross-check.

Only diagonal data (distinct-variable powers) is supported: these factor
into one-variable circle and exterior integrals, which is enough to
exercise the Mellin identity and the limit values the exact engine
predicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .charts import ChartSpec, Factor, ProblemSignature, Scenario, SeparableTestForm
from .mellin import PlannedTerm, _gauss_legendre, mellin_exact, term_plan

if TYPE_CHECKING:
    import numpy as np


LIMIT_T0 = Fraction(1, 2)  # first sample of an admissible limit


class UnsupportedTubeError(ValueError):
    pass


@dataclass(frozen=True)
class TubeSpec:
    """Diagonal data f_i = x_i^{k_i}: first p factors residue-type (level sets),
    the rest principal-value-type (exteriors)."""

    n: int
    vars: Tuple[int, ...]
    ks: Tuple[int, ...]
    p: int
    eps: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "ks", tuple(self.ks))
        object.__setattr__(self, "eps", tuple(Fraction(e) for e in self.eps))
        if len(set(self.vars)) != len(self.vars):
            raise UnsupportedTubeError("UnsupportedTube: variables must be distinct")
        if len(self.ks) != len(self.vars) or len(self.eps) != len(self.vars):
            raise ValueError("vars, ks, eps must have equal length")
        if any(k < 1 for k in self.ks):
            raise ValueError("exponents must be >= 1")
        if any(e <= 0 for e in self.eps):
            raise ValueError("tube radii must be positive")
        if not 0 <= self.p <= len(self.vars):
            raise ValueError("invalid residue count")
        if any(v < 1 or v > self.n for v in self.vars):
            raise ValueError("variable index out of range")

    @property
    def q(self) -> int:
        return len(self.vars) - self.p

    def with_eps(self, eps: Sequence[Fraction]) -> "TubeSpec":
        return TubeSpec(self.n, self.vars, self.ks, self.p, tuple(eps))


def tube_spec_from_chart(chart: ChartSpec, eps: Sequence[Fraction]) -> TubeSpec:
    """Interpret a diagonal chart as a tube; reject non-diagonal data."""
    rows = chart.rows()
    vars_: List[int] = []
    ks: List[int] = []
    for row in rows:
        hits = [(i + 1, e) for i, e in enumerate(row) if e]
        if len(hits) != 1:
            raise UnsupportedTubeError(
                "UnsupportedTube: factors must be powers of distinct single variables"
            )
        vars_.append(hits[0][0])
        ks.append(hits[0][1])
    if any(chart.jac):
        raise UnsupportedTubeError("UnsupportedTube: tube charts carry no Jacobian factor")
    return TubeSpec(chart.n, tuple(vars_), tuple(ks), chart.p, tuple(eps))


def _diagonal_chart(spec: TubeSpec) -> ChartSpec:
    """Chart with the tube's diagonal data, parameters ordered tube-first."""
    alpha = []
    beta = []
    for j, v in enumerate(spec.vars):
        row = tuple(spec.ks[j] if i == v else 0 for i in range(1, spec.n + 1))
        (alpha if j < spec.p else beta).append(row)
    return ChartSpec("tube", tuple(alpha), tuple(beta), (0,) * spec.n, 1)


def tube_integral(spec: TubeSpec, testform: SeparableTestForm) -> complex:
    """Separable evaluation: circles for residue factors, exteriors for
    principal-value factors, full planes for spectator variables.

    The tube is oriented so that its admissible limit represents the same
    current the analytic continuation evaluates: counterclockwise circles,
    with the block sign of moving the circle directions in front of the
    ambient orientation and one flip per residue factor.
    """
    return _tube_value(term_plan(_diagonal_chart(spec), testform, 1), spec)


def _tube_value(plan: Sequence[PlannedTerm], spec: TubeSpec) -> complex:
    """Tube integral of the planned terms of the diagonal chart of `spec`."""
    total = 0j
    for term in plan:
        val = complex(term.coeff.as_complex()) * (term.sign * (-1) ** spec.p)
        for column, u, v, f in term.variables:
            if u != v:
                val = 0j
                break
            j = _factor_row(column)
            val *= _tube_factor(column, j, f, spec.p, None if j is None else spec.eps[j])
            if not val:
                break
        total += val
    return complex(total)


def _factor_row(column: Tuple[int, ...]) -> Optional[int]:
    # a diagonal chart's variable meets one factor row; a spectator meets none
    return next((j for j, c in enumerate(column) if c), None)


def _tube_factor(column: Tuple[int, ...], j: Optional[int], f: Factor, p: int, eps) -> complex:
    """One variable's factor of a planned tube term, at the radius `eps` of its
    factor row j = `_factor_row(column)`: a circle (j < p), an exterior
    (j >= p), or the full plane of a spectator (j None; `eps` unused).  It
    depends on no other radius."""
    if j is None:
        return -2j * math.pi * float(f.rho.moment(f.a))
    k = column[j]
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
        path = AdmissiblePath.default(len(spec.vars))
    if not path.ratio_condition_ok():
        raise ValueError("path does not satisfy the admissible ratio condition")
    ts = [LIMIT_T0 * Fraction(1, 2) ** j for j in range(samples)]
    plan = term_plan(_diagonal_chart(spec), testform, 1)
    vals = [_tube_value(plan, spec.with_eps(path.eps_at(t))) for t in ts]
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


def _mellin_weight(lam: complex, s: np.ndarray) -> np.ndarray:
    return lam * s ** (lam - 1)


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

    On diagonal data each planned term of T is a constant times a product of
    one-variable factors, and factor j reads only its own radius s_j.  So the
    m-fold transform, the integral of T(s) prod_j lam_j s_j^(lam_j - 1) over
    (0, oo)^m, is exactly

        sum over terms of  coeff * sign * (-1)^p * prod_j M_j(lam_j),

    where M_j is the one-variable transform of factor j (Gauss-Legendre, 40
    nodes per panel) and a spectator variable contributes its constant factor.
    `rel_error` is |transform - reference| / |reference|, with the README's
    sign +1; `sign` is the better-fitting sign, for diagnosis only.
    """
    import numpy as np

    lambdas = [[complex(z) for z in lam] for lam in lambdas]
    if any(z.real < 2 for lam in lambdas for z in lam):
        raise ValueError("mellin_check needs Re(lambda) >= 2")
    chart = _diagonal_chart(spec)
    scenario = Scenario(ProblemSignature(spec.n, spec.p, spec.q, 1), (chart,), {chart.name: testform})
    exact = mellin_exact(scenario, chart)
    plan = term_plan(chart, testform, 1)

    # knots of the tube integrand in each s_j: images of profile knots
    supports = [
        sorted({0.0} | {float(x) ** k for term in testform.terms for x in term.factors[v - 1].rho.knots})
        for v, k in zip(spec.vars, spec.ks)
    ]
    gl_nodes, gl_w = _gauss_legendre(40)

    rows = []
    for lam in lambdas:
        total = 0j
        for term in plan:
            if any(u != v for _, u, v, _ in term.variables):
                continue
            val = complex(term.coeff.as_complex()) * (term.sign * (-1) ** spec.p)
            for column, _, _, f in term.variables:
                j = _factor_row(column)
                if j is None:
                    val *= _tube_factor(column, None, f, spec.p, None)
                    continue
                transform = 0j
                for a, b in _panels(supports[j]):
                    s = 0.5 * (b - a) * gl_nodes + 0.5 * (b + a)
                    w = 0.5 * (b - a) * gl_w
                    vals = np.array([_tube_factor(column, j, f, spec.p, x) for x in s])
                    transform += np.sum(w * vals * _mellin_weight(lam[j], s))
                val *= transform
            total += val
        ref = exact.eval_complex(list(lam))
        sign = 1 if abs(total - ref) <= abs(total + ref) else -1
        rel = abs(total - ref) / max(abs(ref), 1e-300)
        rows.append(MellinCheckRow(tuple(lam), complex(total), ref, float(rel), sign))
    return rows
