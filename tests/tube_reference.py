"""Reference tube factor, for the tests.

`tubes._tube_factors` evaluates one variable's factor over a whole list of
radii; this is the plain one-radius evaluation it must match bit for bit,
built on the per-call formulas of `profile_reference`.
"""

import math
from fractions import Fraction

import profile_reference


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
