"""Reference tube evaluations, for the tests.

- `tube_factor`: `tubes._tube_factors` evaluates one variable's factor over a
  whole list of radii; this is the plain one-radius evaluation it must match
  bit for bit, built on the per-call formulas of `profile_reference`.
- `mellin_check_per_panel`: the Mellin check with panels placed by each factor
  row's profile knots, and one array and one `np.sum` per panel per lambda.
  `tubes.mellin_check` sums one fixed grid on [0, 1] at once, panel by panel;
  on the profiles `mellin_exact` accepts, the knots give that grid, and the
  two agree bit for bit.
"""

import math
from fractions import Fraction

import profile_reference
from residuelab import ProblemSignature, Scenario, mellin_exact
from residuelab.mellin import _gauss_legendre
from residuelab.tubes import MellinCheckRow, _tube_factors, _tube_terms


def tube_factor(k, j, f, p, eps) -> complex:
    """One variable's factor of a selected tube term, x^k on factor row j, at
    that row's radius `eps`: a circle (j < p), an exterior (j >= p), or the
    full plane of a spectator (j None; `k` and `eps` unused)."""
    if j is None:
        return -2j * math.pi * float(profile_reference.moment_tail(f.rho, f.a, 0))
    if j < p:
        # integral over |x|^(2k) = eps of x^a conj(x)^b rho / x^k dx
        t0 = float(eps) ** (1.0 / k)
        return 2j * math.pi * t0 ** f.b * profile_reference.value_float(f.rho, t0)
    if k == 1:
        tail = float(profile_reference.moment_tail(f.rho, f.b, Fraction(eps)))
    else:
        tail = _moment_tail_float(f.rho, f.b, float(eps) ** (1.0 / k))
    return -2j * math.pi * tail


def _moment_tail_float(rho, b: int, t0: float) -> float:
    total = 0.0
    for j, piece in enumerate(rho.pieces):
        lo = max(float(rho.knots[j]), t0)
        hi = float(rho.knots[j + 1])
        if lo >= hi:
            continue
        for k, c in enumerate(piece):
            if not c:
                continue
            e = b + k + 1
            total += float(c) * (hi**e - lo**e) / e
    return total


def _panels(bounds):
    """Panels between the knots `bounds`; one that starts at 0 is refined
    geometrically toward 0, to keep s^(lam-1) accurate."""
    out = []
    for a, b in zip(bounds, bounds[1:]):
        if b <= a:
            continue
        if a == 0.0:
            left = b
            for _ in range(10):
                out.append((left / 2, left))
                left /= 2
            out.append((0.0, left))
        else:
            out.append((a, b))
    return out


def mellin_check_per_panel(spec, testform, lambdas):
    """`tubes.mellin_check` with each panel's transform summed on its own."""
    import numpy as np

    chart = spec.chart
    lambdas = [[complex(z) for z in lam] for lam in lambdas]
    signature = ProblemSignature(chart.n, chart.p, chart.q, 1)
    exact = mellin_exact(Scenario(signature, (chart,), {chart.name: testform}), chart)
    terms = _tube_terms(chart, testform)
    supports = []
    for row in chart.rows():
        k = sum(row)
        knots = {x for term in testform.terms for x in term.factors[row.index(k)].rho.knots}
        supports.append(sorted({0.0} | {float(x) ** k for x in knots}))
    gl_nodes, gl_w = _gauss_legendre(40)
    size = len(gl_nodes)
    panels = [
        [(0.5 * (b - a) * gl_nodes + 0.5 * (b + a), 0.5 * (b - a) * gl_w) for a, b in _panels(support)]
        for support in supports
    ]
    nodes = [[x for s, _ in row for x in s.tolist()] for row in panels]
    factors = [
        [_tube_factors(k, j, f, chart.p, [None] if j is None else nodes[j]) for k, j, f in variables]
        for _, variables in terms
    ]
    rows = []
    for lam in lambdas:
        total = 0j
        for (val, variables), xs in zip(terms, factors):
            for (_, j, _), x in zip(variables, xs):
                if j is None:
                    val *= x[0]
                    continue
                transform = 0j
                for i, (s, w) in enumerate(panels[j]):
                    vals = np.array(x[i * size : (i + 1) * size])
                    transform += np.sum(w * vals * (lam[j] * s ** (lam[j] - 1)))
                val *= transform
            total += val
        ref = exact.eval_complex(list(lam))
        sign = 1 if abs(total - ref) <= abs(total + ref) else -1
        rel = abs(total - ref) / max(abs(ref), 1e-300)
        rows.append(MellinCheckRow(tuple(lam), complex(total), ref, float(rel), sign))
    return rows
