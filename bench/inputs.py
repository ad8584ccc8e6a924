"""Seeded input generators for the benchmark.

These draw from the same distributions as the property suites in
`tests/corpus.py` and consume the random stream in the same order:
`chart_corpus(2024)` is exactly the criterion-3 corpus of the acceptance
tests, and `division_lemma_set(random.Random(404))` the criterion-4 set.
`quadrature_set` stratifies the criterion-8 draws (see its docstring).  The
benchmark keeps its own copy so that an edit to the test helpers cannot
silently change what the benchmark measures.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from residuelab import (
    QI,
    ChartSpec,
    Factor,
    ProblemSignature,
    RadialProfile,
    Scenario,
    SeparableTerm,
    SeparableTestForm,
    mellin_exact,
)
from residuelab.extforms import PolyForm, pullback_monomial
from residuelab.poly import Poly

# Seed of the acceptance suite's criterion-3 corpus; the exact-corpus
# workload keeps its chart structure for every run seed.
CORPUS_SEED = 2024
CORPUS_SIZE = 200


def random_profile(rng: random.Random, maxdeg: int = 2) -> RadialProfile:
    deg = rng.randint(0, maxdeg)
    coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(deg + 1)]
    if not any(coeffs):
        coeffs[0] = Fraction(1)
    return RadialProfile.on_unit(coeffs)


def random_chart(rng: random.Random, nmax=4, pmax=4, qmax=4, emax=3) -> ChartSpec:
    n = rng.randint(1, nmax)
    p = rng.randint(1, min(pmax, n))
    q = rng.randint(0, qmax)
    alpha = []
    for _ in range(p):
        row = [rng.randint(0, emax) for _ in range(n)]
        if not any(row):
            row[rng.randrange(n)] = rng.randint(1, emax)
        alpha.append(tuple(row))
    beta = [tuple(rng.randint(0, emax) for _ in range(n)) for _ in range(q)]
    jac = tuple(rng.randint(0, 1) for _ in range(n))
    return ChartSpec("c", tuple(alpha), tuple(beta), jac, rng.choice((1, -1)))


def random_coeff(rng: random.Random) -> QI:
    coeff = QI.of(
        Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
        Fraction(rng.randint(-2, 2), 2),
    )
    return coeff if coeff else QI.one()


def absorbing_testform(rng: random.Random, chart: ChartSpec, N: int = 1, n_terms: int = 2) -> SeparableTestForm:
    """Separable data with conjugate divisibility on the principal-value divisor."""
    n, p = chart.n, chart.p
    K = chart.pv_divisor_vars()
    coltot = [chart.column_total(i) for i in range(1, n + 1)]
    terms = []
    for _ in range(rng.randint(1, n_terms)):
        slots = frozenset(rng.sample(range(1, n + 1), n - p))
        factors = []
        for i in range(1, n + 1):
            in_I = i not in slots
            b = rng.randint(0, 2)
            if in_I and (i in K or coltot[i - 1] == 0):
                b = max(b, 1)
            a = b - (1 if in_I else 0) + N * coltot[i - 1] - chart.jac[i - 1]
            if a < 0:
                b += -a
                a = b - (1 if in_I else 0) + N * coltot[i - 1] - chart.jac[i - 1]
            factors.append(Factor(a, b, random_profile(rng)))
        terms.append(SeparableTerm(random_coeff(rng), tuple(factors), slots))
    return SeparableTestForm(tuple(terms))


def random_chart_scenario(rng: random.Random, nmax=4, pmax=4, qmax=4, emax=3) -> Scenario:
    chart = random_chart(rng, nmax, pmax, qmax, emax)
    sig = ProblemSignature(n=chart.n, p=chart.p, q=chart.q, N=1)
    return Scenario(sig, (chart,), {"c": absorbing_testform(rng, chart)})


def chart_corpus(seed: int = CORPUS_SEED, count: int = CORPUS_SIZE) -> list:
    rng = random.Random(seed)
    return [random_chart_scenario(rng) for _ in range(count)]


def recoefficient(scenario: Scenario, rng: random.Random) -> Scenario:
    """Same charts and factors, fresh term coefficients from the corpus distribution."""
    out = {}
    for name, tf in scenario.testforms.items():
        out[name] = SeparableTestForm(
            tuple(SeparableTerm(random_coeff(rng), t.factors, t.dbar_slots) for t in tf.terms)
        )
    return Scenario(scenario.signature, scenario.charts, out, scenario.metadata)


def quadrature_set(rng: random.Random, per_stratum: int = 5) -> list:
    """Criterion-8 data: small charts (n, p, q <= 2) with a nonzero exact value,
    stratified by dimension and test-form term count.

    Quadrature cost grows with n times the number of terms, so fixed quotas
    per (n, terms) stratum keep a pass's cost mix the same for every seed.
    """
    quota = {(n, t): per_stratum for n in (1, 2) for t in (1, 2)}
    out = []
    while any(quota.values()):
        sc = random_chart_scenario(rng, nmax=2, pmax=2, qmax=2, emax=3)
        stratum = (sc.signature.n, len(sc.testform("c").terms))
        if quota[stratum] and not mellin_exact(sc, sc.charts[0]).is_zero():
            quota[stratum] -= 1
            out.append(sc)
    return out


def random_poly(rng: random.Random, n: int, maxdeg=2, terms=3) -> Poly:
    p = Poly.zero(n)
    for _ in range(rng.randint(1, terms)):
        e = tuple(rng.randint(0, maxdeg) for _ in range(n))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if c:
            p = p + Poly.monomial(n, e, c)
    return p


def random_polyform(rng: random.Random, n: int, degree: int) -> PolyForm:
    f = PolyForm.zero(n, degree)
    idxs = list(combinations(range(1, n + 1), degree))
    for _ in range(rng.randint(1, 4)):
        f = f + PolyForm.basis(n, rng.choice(idxs), random_poly(rng, n))
    return f


def unimodular_substitution(rng: random.Random, n: int, steps: int = 3):
    S = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, k = rng.sample(range(n), 2)
        S[i] = [a + b for a, b in zip(S[i], S[k])]
    return S


def ci_pullback_instance(rng: random.Random):
    """Chart data pulled back from diagonal complete-intersection base data,
    with the pulled-back form the division lemma acts on."""
    n = rng.randint(2, 4)
    p = rng.randint(1, n - 1)
    q = rng.randint(1, n - p)
    S = unimodular_substitution(rng, n)
    cs = [rng.randint(1, 3) for _ in range(p)]
    ds = [rng.randint(1, 3) for _ in range(q)]
    alpha_rows = [tuple(cs[i] * S[i][j] for j in range(n)) for i in range(p)]
    beta_rows = [tuple(ds[j] * S[p + j][jj] for jj in range(n)) for j in range(q)]
    K = frozenset(i + 1 for i in range(n) if any(r[i] for r in beta_rows))
    psi = PolyForm.zero(n, n - p)
    for _ in range(rng.randint(1, 3)):
        idx = tuple(sorted(rng.sample(range(1, n + 1), n - p)))
        psi = psi + PolyForm.basis(n, idx, random_poly(rng, n, 1, 2))
    return pullback_monomial(psi, S, n), K, alpha_rows


def division_lemma_set(rng: random.Random, plain: int = 500, pulled: int = 120) -> list:
    """Criterion-4 data: (psi, K, alpha rows or None) triples."""
    out = []
    for _ in range(plain):
        n = rng.randint(2, 5)
        d = rng.randint(0, n)
        K = set(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
        out.append((random_polyform(rng, n, d), frozenset(K), None))
    for _ in range(pulled):
        out.append(ci_pullback_instance(rng))
    return out
