"""Reference profile evaluation, for the tests.

`RadialProfile.value` on a float reads cached float coefficients and knots,
and `RadialProfile.moment_tail` sums in integers; these are the plain
per-call formulas they are checked against, bit for bit and exactly.
"""

from fractions import Fraction


def value_float(rho, t: float) -> float:
    """rho(t), comparing t with the Fraction knots and converting every coefficient per call."""
    knots = rho.knots
    if not knots or t < knots[0] or t > knots[-1]:
        return 0 * t
    idx = len(knots) - 2
    for j in range(len(knots) - 1):
        if t < knots[j + 1]:
            idx = j
            break
    acc = 0 * t
    for c in reversed(rho.pieces[idx]):
        acc = acc * t + float(c)
    return acc


def moment_tail(rho, b: int, t0) -> Fraction:
    """Integral of t^b * rho(t) over [t0, support end], summed term by term in Fractions."""
    t0 = Fraction(t0)
    total = Fraction(0)
    for j, p in enumerate(rho.pieces):
        lo = max(rho.knots[j], t0)
        hi = rho.knots[j + 1]
        if lo >= hi:
            continue
        for k, c in enumerate(p):
            if not c:
                continue
            e = b + k + 1
            total += c * (hi**e - lo**e) / e
    return total
