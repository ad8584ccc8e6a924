"""Leibniz expansion of a chart integrand into meromorphic terms.

Expanding the wedge of the antiholomorphic derivative factors over a chart
produces one term per independent column subset; each term carries numerator
parameter axes, denominator column forms for the subset columns where no
principal-value factor vanishes, and an absorption record for the columns
where one does.  Cancelling axis-proportional denominators against numerator
axes yields the chart's pole certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Sequence, Tuple

from .charts import ChartSpec, InputError, Scenario
from .linform import AffineForm


class ResonantUnitsError(InputError):
    """Chart carries unit factors the engine cannot normalize away."""


@dataclass(frozen=True)
class HalfSpaceCert:
    """Width of the pole-free half space; the certificate's forms are the poles it excludes."""

    eps: Fraction

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("half-space width must be positive")


@dataclass(frozen=True)
class PoleCertificate:
    forms: frozenset
    scope: str
    halfspace: HalfSpaceCert

    def sorted_forms(self) -> Tuple[AffineForm, ...]:
        return tuple(sorted(self.forms, key=lambda f: f.sort_key()))


@dataclass(frozen=True)
class MeroTerm:
    subset: Tuple[int, ...]
    det: int
    numerator_axes: Tuple[int, ...]
    denominators: Tuple[AffineForm, ...]
    dbar_profile: Tuple[int, ...]
    cancelled: Tuple[Tuple[int, AffineForm], ...] = ()


def rank_basis(alpha: Sequence[Sequence[int]]) -> Tuple[int, List[int]]:
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


def _det(matrix: Sequence[Sequence[int]]) -> Fraction:
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


def subset_determinant(alpha: Sequence[Sequence[int]], cols: Sequence[int]) -> int:
    """Integer determinant of the given rows restricted to 1-based columns."""
    mat = [[row[i - 1] for i in cols] for row in alpha]
    d = _det(mat)
    if d.denominator != 1:
        raise ArithmeticError("integer matrix produced a non-integer determinant")
    return int(d)


def check_units(chart: ChartSpec) -> None:
    """Reject unit flags the normalization cannot absorb (resonant data)."""
    m, basis = rank_basis(chart.alpha)
    basis_set = set(basis)
    for ri, flag in enumerate(chart.unit_flags):
        if not flag:
            if ri < chart.p and not any(chart.alpha[ri]):
                raise ResonantUnitsError(
                    f"chart {chart.name!r}: factor {ri + 1} is constant without a unit flag"
                )
            continue
        if ri < chart.p and (ri + 1) in basis_set and any(chart.alpha[ri]):
            continue  # basis-row units normalize to 1
        raise ResonantUnitsError(
            f"chart {chart.name!r}: factor {ri + 1} carries a unit the engine "
            "cannot normalize to 1 (resonant chart)"
        )


def expand(chart: ChartSpec) -> List[MeroTerm]:
    check_units(chart)
    p = chart.p
    n = chart.n
    m, basis = rank_basis(chart.alpha)
    basis_rows = [chart.alpha[b - 1] for b in basis]
    K = chart.pv_divisor_vars()
    terms: List[MeroTerm] = []
    for cols in combinations(range(1, n + 1), m):
        det = subset_determinant(basis_rows, cols)
        if det == 0:
            continue
        axes = list(range(1, p + 1))
        denominators: List[AffineForm] = []
        cancelled: List[Tuple[int, AffineForm]] = []
        for i in cols:
            if i in K:
                continue
            form = AffineForm.normalize(chart.column(i))
            t = form.axis_index()
            if t is not None:
                # cannot fail: i is not in K, so t is an alpha row (t <= p), and two
                # columns on axis t, nonzero in row t only, are parallel on the basis
                # rows, which makes the subset determinant 0 and skips the subset
                axes.remove(t)
                cancelled.append((t, form))
            else:
                denominators.append(form)
        terms.append(
            MeroTerm(
                subset=tuple(cols),
                det=det,
                numerator_axes=tuple(axes),
                denominators=tuple(sorted(denominators, key=lambda f: f.sort_key())),
                dbar_profile=tuple(sorted(set(cols) & K)),
                cancelled=tuple(cancelled),
            )
        )
    return terms


def halfspace_width(chart: ChartSpec) -> Fraction:
    """Pole-free box width: shifted radial poles sit at column values <= -1,
    so any width below 1 / (max column total) clears them; independent of N."""
    return Fraction(1, 1 + chart.max_column_total())


def chart_certificate(chart: ChartSpec) -> PoleCertificate:
    forms = frozenset(f for t in expand(chart) for f in t.denominators)
    return PoleCertificate(
        forms=forms,
        scope=chart.name,
        halfspace=HalfSpaceCert(halfspace_width(chart)),
    )


def global_certificate(scenario: Scenario) -> PoleCertificate:
    """Hyperplane forms that actually survive in the exact chart sum."""
    from .mellin import chart_sum

    if not scenario.charts:
        raise ValueError("scenario has no charts")
    total, _ = chart_sum(scenario)
    return PoleCertificate(
        forms=total.hyperplane_forms(),
        scope="global",
        halfspace=HalfSpaceCert(min(halfspace_width(chart) for chart in scenario.charts)),
    )


def shape_violations(cert: PoleCertificate, p: int) -> List[AffineForm]:
    """Certificate forms that fail to pair at least two of the first p parameters."""
    return [
        f
        for f in cert.sorted_forms()
        if len(f.support()) < 2 or any(i > p for i in f.support())
    ]
