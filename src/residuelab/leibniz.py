"""Leibniz expansion of a chart integrand into meromorphic terms.

Expanding the wedge of the antiholomorphic derivative factors over a chart
produces one term per independent column subset; each term carries numerator
parameter axes, denominator column forms for the subset columns where no
principal-value factor vanishes, and an absorption record for the columns
where one does.  Cancelling axis-proportional denominators against numerator
axes yields the chart's pole certificate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, List, Sequence, Tuple

from .charts import ChartSpec, InputError, Scenario
from .frozen import Frozen, _set
from .linform import AffineForm


class ResonantUnitsError(InputError):
    """Chart carries unit factors the engine cannot normalize away."""


class HalfSpaceCert(Frozen):
    """Width of the pole-free half space; the certificate's forms are the poles it excludes."""

    def __init__(self, eps: Fraction):
        if eps <= 0:
            raise ValueError("half-space width must be positive")
        _set(self, "eps", eps)


class PoleCertificate(Frozen):
    def __init__(self, forms: frozenset, scope: str, halfspace: HalfSpaceCert):
        _set(self, "forms", forms)
        _set(self, "scope", scope)
        _set(self, "halfspace", halfspace)

    def sorted_forms(self) -> Tuple[AffineForm, ...]:
        return tuple(sorted(self.forms, key=lambda f: f.sort_key()))


class MeroTerm(Frozen):
    def __init__(
        self,
        subset: Tuple[int, ...],
        det: int,
        numerator_axes: Tuple[int, ...],
        denominators: Tuple[AffineForm, ...],
        dbar_profile: Tuple[int, ...],
        cancelled: Tuple[Tuple[int, AffineForm], ...] = (),
    ):
        _set(self, "subset", subset)
        _set(self, "det", det)
        _set(self, "numerator_axes", numerator_axes)
        _set(self, "denominators", denominators)
        _set(self, "dbar_profile", dbar_profile)
        _set(self, "cancelled", cancelled)


def rank_basis(alpha: Sequence[Sequence[int]]) -> Tuple[int, List[int]]:
    """Rank over Q and the lexicographically first maximal independent row subset (1-based),
    by fraction-free elimination: each step's row is divided by the gcd of its entries."""
    basis: List[int] = []
    kept: List[Tuple[int, List[int]]] = []
    for idx, row in enumerate(alpha, 1):
        r = list(row)
        for pc, rr in kept:
            if r[pc]:
                a, b = rr[pc], r[pc]
                r = [a * x - b * y for x, y in zip(r, rr)]
                g = gcd(*r) or 1
                r = [x // g for x in r]
        pc = next((j for j, v in enumerate(r) if v), None)
        if pc is not None:
            kept.append((pc, r))
            basis.append(idx)
    return len(basis), basis


def subset_determinant(alpha: Sequence[Sequence[int]], cols: Sequence[int]) -> int:
    """Integer determinant of the given rows restricted to 1-based columns, by
    fraction-free (Bareiss) elimination: each step's division is exact."""
    m = [[row[i - 1] for i in cols] for row in alpha]
    size, sign, prev = len(m), 1, 1
    for c in range(size):
        piv = next((r for r in range(c, size) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        top = m[c]
        for row in m[c + 1 :]:
            for j in range(c + 1, size):
                row[j] = (top[c] * row[j] - row[c] * top[j]) // prev
        prev = top[c]
    return sign * prev


def inversion_parity(seq: Sequence[int]) -> int:
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def dbar_front_sign(dbar_front: Iterable[int], n: int, dbar_slots: Iterable[int]) -> int:
    """Sign for (conj dx_{i in front}) ^ (dx_1..dx_n) ^ (conj dx_{j in slots}).

    Differentials are coded as integers (dx_i -> 2(i-1), conjugate dx_i ->
    2(i-1)+1); the sign of sorting a symbol sequence into the per-variable
    block order dx_1, conj dx_1, dx_2, ... is the parity of its inversions.
    The reference orientation pairs each dx ^ conj(dx) with -2i times the
    Euclidean area form.
    """
    seq = (
        [2 * (i - 1) + 1 for i in sorted(dbar_front)]
        + [2 * (i - 1) for i in range(1, n + 1)]
        + [2 * (j - 1) + 1 for j in sorted(dbar_slots)]
    )
    return inversion_parity(seq)


def check_units(chart: ChartSpec) -> Tuple[int, List[int]]:
    """Reject unit flags the normalization cannot absorb (resonant data);
    return the rank and basis rows of alpha, as rank_basis does."""
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
    return m, basis


def expand(chart: ChartSpec) -> List[MeroTerm]:
    m, basis = check_units(chart)
    p = chart.p
    n = chart.n
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
