"""Data model for normal-crossings chart data and separable test forms.

Factor ordering convention: the engine numbers the continuation parameters
L1..L(p+q) with the antiholomorphic-derivative factors first (rows of
`alpha`, indices 1..p) and the principal-value factors last (rows of
`beta`, indices p+1..p+q).  Variable indices are 1-based throughout the
public API and the file format, which `parse_scenario` reads; it names a bad
field with an `errors.ScenarioError`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import add, mul
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .errors import ScenarioError, _int, _matrix, _rational, _typed
from .frozen import Frozen, _set
from .gaussian import QI
from .profiles import RadialProfile


class ProblemSignature(Frozen):
    def __init__(self, n: int, p: int, q: int, N: int = 1):
        if n < 1:
            raise ScenarioError("signature.n", "dimension must be >= 1")
        if p < 0 or q < 0:
            raise ScenarioError("signature", "p and q must be nonnegative")
        if p + q < 1:
            raise ScenarioError("signature", "need at least one factor (p+q >= 1)")
        if N < 1:
            raise ScenarioError("signature.N", "power must be >= 1")
        if p > n:
            raise ScenarioError("signature", "p cannot exceed the dimension n")
        _set(self, "n", n)
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "N", N)

    @property
    def nfactors(self) -> int:
        return self.p + self.q


class ChartSpec(Frozen):
    def __init__(
        self,
        name: str,
        alpha: Tuple[Tuple[int, ...], ...],
        beta: Tuple[Tuple[int, ...], ...],
        jac: Tuple[int, ...],
        sign: int = 1,
        unit_flags: Tuple[bool, ...] = (),
    ):
        _set(self, "name", name)
        _set(self, "alpha", tuple(tuple(r) for r in alpha))
        _set(self, "beta", tuple(tuple(r) for r in beta))
        _set(self, "jac", tuple(jac))
        _set(self, "sign", sign)
        _set(self, "unit_flags", unit_flags or (False,) * (len(self.alpha) + len(self.beta)))

    @property
    def n(self) -> int:
        return len(self.jac)

    @property
    def p(self) -> int:
        return len(self.alpha)

    @property
    def q(self) -> int:
        return len(self.beta)

    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        return self.alpha + self.beta

    def column(self, i: int) -> Tuple[int, ...]:
        """Exponents of variable x_i (1-based) across all factor rows."""
        return tuple(row[i - 1] for row in self.rows())

    def column_total(self, i: int) -> int:
        return sum(self.column(i))

    def max_column_total(self) -> int:
        return max((self.column_total(i) for i in range(1, self.n + 1)), default=0)

    def pv_divisor_vars(self) -> frozenset:
        """Variables dividing at least one principal-value factor monomial."""
        return frozenset(
            i for i in range(1, self.n + 1) if any(row[i - 1] > 0 for row in self.beta)
        )


class Factor(Frozen):
    def __init__(self, a: int, b: int, rho: RadialProfile):
        if a < 0 or b < 0:
            raise ValueError("monomial exponents must be nonnegative")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "rho", rho)


class SeparableTerm(Frozen):
    def __init__(self, coeff: QI, factors: Tuple[Factor, ...], dbar_slots: frozenset):
        _set(self, "coeff", coeff)
        _set(self, "factors", tuple(factors))
        _set(self, "dbar_slots", frozenset(dbar_slots))


class SeparableTestForm(Frozen):
    def __init__(self, terms: Tuple[SeparableTerm, ...]):
        _set(self, "terms", tuple(terms))


class Scenario(Frozen):
    def __init__(
        self,
        signature: ProblemSignature,
        charts: Tuple[ChartSpec, ...],
        testforms: Mapping[str, SeparableTestForm] = {},
        metadata: Mapping[str, object] = {},
    ):
        # the dict defaults are only read: each scenario holds its own copies
        _set(self, "signature", signature)
        _set(self, "charts", tuple(charts))
        _set(self, "testforms", dict(testforms))
        _set(self, "metadata", dict(metadata))

    def chart(self, name: str) -> ChartSpec:
        for c in self.charts:
            if c.name == name:
                return c
        raise KeyError(f"no chart named {name!r}")

    def testform(self, name: str) -> SeparableTestForm:
        tf = self.testforms.get(name)
        if tf is None:
            raise ScenarioError(f"testforms[{name!r}]", "no test form for this chart")
        return tf

    def without_chart(self, name: str) -> "Scenario":
        self.chart(name)
        return Scenario(
            self.signature,
            tuple(c for c in self.charts if c.name != name),
            {k: v for k, v in self.testforms.items() if k != name},
            dict(self.metadata),
        )

    def to_obj(self) -> dict:
        sig = self.signature
        out = {
            "signature": {"n": sig.n, "p": sig.p, "q": sig.q, "N": sig.N},
            "charts": [
                {
                    "name": c.name,
                    "alpha": [list(r) for r in c.alpha],
                    "beta": [list(r) for r in c.beta],
                    "jac": list(c.jac),
                    "sign": c.sign,
                    **({"unit_flags": list(c.unit_flags)} if any(c.unit_flags) else {}),
                }
                for c in self.charts
            ],
            "testforms": {
                name: {
                    "terms": [
                        {
                            "coeff": {
                                "re": [t.coeff.re.numerator, t.coeff.re.denominator],
                                "im": [t.coeff.im.numerator, t.coeff.im.denominator],
                            },
                            "factors": [
                                {"a": f.a, "b": f.b, "rho": f.rho.to_obj()} for f in t.factors
                            ],
                            "dbar_slots": sorted(t.dbar_slots),
                        }
                        for t in tf.terms
                    ]
                }
                for name, tf in sorted(self.testforms.items())
            },
        }
        if self.metadata:
            out["metadata"] = self.metadata
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True)


def parse_scenario(document) -> Scenario:
    """Validate a scenario document (dict, JSON string, or file object of JSON)."""
    if isinstance(document, (str, bytes)) or hasattr(document, "read"):
        try:
            obj = json.load(document) if hasattr(document, "read") else json.loads(document)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ScenarioError("$", f"invalid JSON: {exc}") from exc
    else:
        obj = document
    obj = _typed(obj, dict, "$", "top level must be an object")

    sig_obj = _typed(obj.get("signature"), dict, "signature", "missing or not an object")
    sig = ProblemSignature(
        _int(sig_obj.get("n"), "signature.n", 1),
        _int(sig_obj.get("p"), "signature.p", 0),
        _int(sig_obj.get("q"), "signature.q", 0),
        _int(sig_obj.get("N", 1), "signature.N", 1),
    )

    # `or None`: an empty list or name fails the check too
    charts_obj = _typed(obj.get("charts") or None, list, "charts", "need a nonempty chart list")
    charts = []
    names = set()
    for ci, c in enumerate(charts_obj):
        base = f"charts[{ci}]"
        c = _typed(c, dict, base, "expected object")
        name = _typed(c.get("name") or None, str, f"{base}.name", "chart name must be a nonempty string")
        if name in names:
            raise ScenarioError(f"{base}.name", f"duplicate chart name {name!r}")
        names.add(name)
        alpha = _matrix(c.get("alpha", []), sig.p, sig.n, f"{base}.alpha")
        beta = _matrix(c.get("beta", []), sig.q, sig.n, f"{base}.beta")
        jac_obj = _typed(c.get("jac", [0] * sig.n), list, f"{base}.jac", f"expected {sig.n} exponents", sig.n)
        jac = tuple(_int(v, f"{base}.jac[{j}]", 0) for j, v in enumerate(jac_obj))
        sign = _int(c.get("sign", 1), f"{base}.sign")
        if sign not in (1, -1):
            raise ScenarioError(f"{base}.sign", "sign must be +1 or -1")
        flags = c.get("unit_flags", [False] * sig.nfactors)
        flags = _typed(flags, list, f"{base}.unit_flags", f"expected {sig.nfactors} booleans", sig.nfactors)
        for j, v in enumerate(flags):
            _typed(v, bool, f"{base}.unit_flags[{j}]", "expected a boolean, got %r")
        for ri, row in enumerate(alpha):
            if not any(row) and not flags[ri]:
                raise ScenarioError(f"{base}.alpha[{ri}]", "zero exponent row needs an explicit unit flag")
        charts.append(ChartSpec(name, alpha, beta, jac, sign, tuple(flags)))

    testforms: Dict[str, SeparableTestForm] = {}
    tf_obj = _typed(obj.get("testforms", {}), dict, "testforms", "expected object keyed by chart name")
    for name, body in tf_obj.items():
        base = f"testforms[{name!r}]"
        if name not in names:
            raise ScenarioError(base, "no chart with this name")
        shape = f"{base}.terms", "expected a term list"
        terms_obj = _typed(_typed(body, dict, *shape).get("terms"), list, *shape)
        terms = []
        for ti, t in enumerate(terms_obj):
            tb = f"{base}.terms[{ti}]"
            t = _typed(t, dict, tb, "expected object")
            co = _typed(t.get("coeff", {}), dict, f"{tb}.coeff", "expected object with re and im")
            coeff = QI(
                _rational(co.get("re", [0, 1]), f"{tb}.coeff.re"),
                _rational(co.get("im", [0, 1]), f"{tb}.coeff.im"),
            )
            fs = _typed(t.get("factors"), list, f"{tb}.factors", f"expected {sig.n} per-variable factors", sig.n)
            factors = []
            for fi, f in enumerate(fs):
                fb = f"{tb}.factors[{fi}]"
                f = _typed(f, dict, fb, "expected object")
                a = _int(f.get("a", 0), f"{fb}.a", 0)
                b = _int(f.get("b", 0), f"{fb}.b", 0)
                rho = RadialProfile.from_obj(f.get("rho"), f"{fb}.rho")
                factors.append(Factor(a, b, rho))
            slots_obj = _typed(t.get("dbar_slots", []), list, f"{tb}.dbar_slots", "expected index list")
            slots = [_int(v, f"{tb}.dbar_slots[{si}]", 1) for si, v in enumerate(slots_obj)]
            if any(v > sig.n for v in slots):
                raise ScenarioError(f"{tb}.dbar_slots", f"index out of range 1..{sig.n}")
            if len(set(slots)) != len(slots):
                raise ScenarioError(f"{tb}.dbar_slots", "indices must be distinct")
            if len(slots) != sig.n - sig.p:
                raise ScenarioError(f"{tb}.dbar_slots", f"need exactly n-p = {sig.n - sig.p} antiholomorphic slots")
            terms.append(SeparableTerm(coeff, tuple(factors), frozenset(slots)))
        testforms[name] = SeparableTestForm(tuple(terms))

    metadata = _typed(obj.get("metadata", {}), dict, "metadata", "expected object")
    return Scenario(sig, tuple(charts), testforms, metadata)


# ---------------------------------------------------------------------------
# Built-in axis blow-up example and companion scenarios.
#
# Base data in C^3: one principal-value factor x1 and two derivative factors
# x2 and x2*x3-shaped after blowing up along the x1-axis.  The test function
# is phi1(x1)*phi2(x2)*phi3(x3) dx ^ conj(dx1) with phi1 the conjugate
# derivative of a bump phi.  Parameter order: L1, L2 for the two derivative
# factors, L3 for the principal-value factor.
# ---------------------------------------------------------------------------


def example_profiles(profile_degree: int = 2, seed: Optional[int] = None):
    """Bump profiles (phi, phi2, phi3), each nonvanishing at 0 and zero at t=1.

    With a seed, multiplies each bump by a random positive-at-zero linear
    factor; the golden identities hold for every admissible choice.
    """
    if profile_degree < 1:
        raise ValueError("profile degree must be >= 1 so profiles vanish at the support edge")
    base = RadialProfile.bump(profile_degree)
    if seed is None:
        return base, base, base
    import random

    rng = random.Random(seed)

    def jitter():
        c0 = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        c1 = Fraction(rng.randint(-4, 4), rng.randint(2, 5))
        return base.mul_poly([c0, c1])

    return jitter(), jitter(), jitter()


def pullback(base: Scenario, name: str, subst) -> Tuple[ChartSpec, SeparableTestForm]:
    """The chart `name` and test form that the base scenario's one chart pulls
    back to under x_i = prod_j z_j^S_ij, S = `subst`: alpha.S, beta.S,
    jac'_j = sum_i (jac_i + 1) S_ij - 1 and det S times the sign.  A variable
    whose row is a unit vector e_j keeps its factor on z_j, the others expand
    their profiles into monomials, and any other z_j carries the unit indicator.
    Raises ValueError unless S >= 0 with det S = +-1, every expanded profile is
    in the exact class and every conjugate slot is on a variable that is kept.
    """
    from .leibniz import subset_determinant  # leibniz imports this module

    (chart,) = base.charts
    n, S = chart.n, [tuple(r) for r in subst]
    if len(S) != n or any(len(r) != n or min(r) < 0 for r in S):
        raise ValueError(f"substitution must be a nonnegative {n} x {n} matrix")
    det = subset_determinant(S, range(1, n + 1))
    if abs(det) != 1:
        raise ValueError(f"substitution determinant must be +-1, got {det}")
    cols = list(zip(*S))

    def times(v):
        return tuple(sum(map(mul, v, col)) for col in cols)

    jac = tuple(v - 1 for v in times([e + 1 for e in chart.jac]))
    alpha, beta = map(times, chart.alpha), map(times, chart.beta)
    spec = ChartSpec(name, alpha, beta, jac, det * chart.sign, chart.unit_flags)
    kept = {r.index(1): i for i, r in enumerate(S) if sum(r) == 1}  # z_j -> the x_i with row e_j
    one, unit, terms = QI.one(), RadialProfile.on_unit([1]), []
    for t in base.testform(chart.name).terms:
        if not all(s - 1 in kept.values() for s in t.dbar_slots):
            raise ValueError("a conjugate slot's variable must keep its factor")
        rhos = [t.factors[kept[j]].rho if j in kept else unit for j in range(n)]
        slots = frozenset(S[s - 1].index(1) + 1 for s in t.dbar_slots)
        a, b = times([f.a for f in t.factors]), times([f.b for f in t.factors])
        # one (coefficient, m.S) per monomial choice m; a unit coefficient is
        # `one` itself, so its first product is skipped by identity
        partial = [(one if t.coeff == one else t.coeff, [0] * n)]
        for i in (i for i in range(n) if i not in kept.values()):
            partial = [
                (QI(c) if k is one else k * c, [d + m * s for d, s in zip(ds, S[i])])
                for k, ds in partial
                for m, c in t.factors[i].rho.mellin_terms()
            ]
        for k, ds in partial:
            factors = map(Factor, map(add, a, ds), map(add, b, ds), rhos)
            terms.append(SeparableTerm(k, factors, slots))
    return spec, SeparableTestForm(terms)


def blowup_example(profile_degree: int = 2, seed: Optional[int] = None, profiles=None) -> Scenario:
    """Two-chart axis blow-up: `blowup_base` pulled back by `pullback` along
    x3 = z2*z3 (chart "z", |x3/x2| bounded) and x2 = z2*z3 (chart "zeta", the
    reciprocal patch).  The partition of unity on the exceptional line is the
    exact indicator split at radius 1, so every radial integral stays rational.
    """
    profiles = tuple(profiles) if profiles is not None else example_profiles(profile_degree, seed)
    if any(rho.value(0) == 0 for rho in profiles):
        raise ValueError("profiles must not vanish at the origin")
    base = blowup_base(profiles=profiles)
    subst = {"z": [[1, 0, 0], [0, 1, 0], [0, 1, 1]], "zeta": [[1, 0, 0], [0, 1, 1], [0, 1, 0]]}
    charts, testforms = zip(*(pullback(base, name, s) for name, s in subst.items()))
    metadata = {
        "substitutions": subst,
        "base_alpha": [list(r) for r in base.charts[0].alpha],
        "base_beta": [list(r) for r in base.charts[0].beta],
        "profile_values_at_zero": {
            k: str(rho.value(0)) for k, rho in zip(("phi", "phi2", "phi3"), profiles)
        },
    }
    return Scenario(base.signature, charts, dict(zip(subst, testforms)), metadata)


def blowup_base(profiles=None) -> Scenario:
    """The same integral before blowing up: a single identity chart."""
    rho_phi, rho2, rho3 = profiles if profiles is not None else example_profiles()
    sig = ProblemSignature(n=3, p=2, q=1, N=1)
    chart = ChartSpec(
        "base", alpha=((0, 1, 0), (0, 0, 1)), beta=((1, 0, 0),), jac=(0, 0, 0), sign=1
    )
    term = SeparableTerm(
        QI.one(),
        (Factor(1, 0, rho_phi.derivative()), Factor(0, 0, rho2), Factor(0, 0, rho3)),
        frozenset({1}),
    )
    return Scenario(sig, (chart,), {"base": SeparableTestForm((term,))})


def blowup_parts(profile_degree: int = 2, seed: Optional[int] = None, profiles=None) -> Scenario:
    """Independent reference: both derivative factors moved onto the test
    function by integration by parts, leaving a principal-value-only integral."""
    rho_phi, rho2, rho3 = profiles if profiles is not None else example_profiles(
        profile_degree, seed
    )
    if rho2.value(Fraction(1)) != 0 or rho3.value(Fraction(1)) != 0:
        raise ValueError("integration by parts needs profiles vanishing at the support edge")
    sig = ProblemSignature(n=3, p=0, q=3, N=1)
    chart = ChartSpec(
        "parts",
        alpha=(),
        beta=((0, 1, 0), (0, 0, 1), (1, 0, 0)),
        jac=(0, 0, 0),
        sign=1,
    )
    term = SeparableTerm(
        QI.one(),
        (
            Factor(1, 0, rho_phi.derivative()),
            Factor(1, 0, rho2.derivative()),
            Factor(1, 0, rho3.derivative()),
        ),
        frozenset({1, 2, 3}),
    )
    return Scenario(sig, (chart,), {"parts": SeparableTestForm((term,))})


def diagonal_scenario(
    ks: Sequence[int],
    p: int,
    N: int = 1,
    factors: Optional[Sequence[Factor]] = None,
) -> Scenario:
    """Scenario for f_i = x_i^{k_i} on distinct variables, first p under dbar.

    Without explicit factors, picks per-variable data with zero angular twist
    so the value is nonzero: a = N*k (+ b adjustments) against a unit bump.
    """
    n = len(ks)
    q = n - p
    sig = ProblemSignature(n=n, p=p, q=q, N=N)
    alpha = tuple(
        tuple(ks[i] if j == i else 0 for j in range(n)) for i in range(p)
    )
    beta = tuple(
        tuple(ks[i] if j == i else 0 for j in range(n)) for i in range(p, n)
    )
    chart = ChartSpec("diag", alpha, beta, (0,) * n, 1)
    if factors is None:
        bump = RadialProfile.bump(2)
        fs = []
        for i in range(n):
            if i < p:
                # Cauchy-type pairing: angular twist zero on the circle slot
                # and a nonzero limit at the origin.
                fs.append(Factor(N * ks[i] - 1, 0, bump))
            else:
                fs.append(Factor(N * ks[i], 0, bump))
        factors = tuple(fs)
    term = SeparableTerm(QI.one(), tuple(factors), frozenset(range(p + 1, n + 1)))
    return Scenario(sig, (chart,), {"diag": SeparableTestForm((term,))})
