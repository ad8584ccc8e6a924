"""Compactly supported radial profiles, piecewise polynomial in t = |x|^2.

The exact Mellin machinery needs knots contained in {0, 1}: a knot at any
other point would put factors like 4^s into the transform, which no rational
function of the parameters can represent.  Profiles with other rational
knots are still valid data for the floating-point paths (quadrature, tube
integrals); the exact evaluator rejects them with ExactnessError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence, Tuple

from .gaussian import _frac


class InputError(ValueError):
    """Bad input, named in the message; the CLI exits 2 on it and 3 on any other error."""


class ExactnessError(InputError):
    """Profile not in the exactly integrable class (knots must be 0 and 1)."""


def _float_comparable(k: Fraction):
    # an int, or a float equal to k, else k itself: each compares with a float
    # exactly, where float(1/3) would not (float(1/3) < 1/3, not < float(1/3))
    if k.denominator == 1:
        return k.numerator
    f = float(k)
    return f if Fraction(f) == k else k


def _piece_weights(piece: Tuple[Fraction, ...], b: int) -> Tuple[int, Tuple[int, ...]]:
    """A common denominator L and integer weights w_k = c_k*L/(b+k+1), so that the
    piece's integral of t^b * rho is sum_k w_k * t^(b+k+1) / L."""
    es = range(b + 1, b + 1 + len(piece))
    lcd = lcm(*(c.denominator * e for c, e in zip(piece, es) if c))
    return lcd, tuple(c.numerator * (lcd // (c.denominator * e)) for c, e in zip(piece, es))


def _power_sum(weights: Tuple[int, ...], b: int, x: Fraction) -> Tuple[int, int]:
    """sum_k weights[k] * x^(b+k+1) as an integer numerator and denominator."""
    n, d = x.numerator, x.denominator
    acc, dpow = 0, 1
    for w in reversed(weights):
        acc = acc * n + w * dpow
        dpow *= d
    return acc * n ** (b + 1), dpow * d**b


@dataclass(frozen=True)
class RadialProfile:
    """rho(t) on [knots[0], knots[-1]], one polynomial piece per knot interval, zero outside."""

    knots: Tuple[Fraction, ...]
    pieces: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        knots = tuple(_frac(k) for k in self.knots)
        pieces = tuple(tuple(_frac(c) for c in p) for p in self.pieces)
        if knots:
            if len(pieces) != len(knots) - 1:
                raise ValueError("need one polynomial piece per knot interval")
            if any(b <= a for a, b in zip(knots, knots[1:])):
                raise ValueError("knots must be strictly increasing")
            if knots[0] < 0:
                raise ValueError("knots must be nonnegative")
        elif pieces:
            raise ValueError("pieces without knots")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "pieces", pieces)

    @staticmethod
    def zero() -> "RadialProfile":
        return RadialProfile((), ())

    @staticmethod
    def on_unit(coeffs: Sequence) -> "RadialProfile":
        """Polynomial with the given coefficients (constant first) on [0, 1]."""
        cs = tuple(_frac(c) for c in coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        if not cs:
            return RadialProfile.zero()
        return RadialProfile((Fraction(0), Fraction(1)), (cs,))

    @staticmethod
    def bump(degree: int = 2) -> "RadialProfile":
        """(1 - t)^degree on [0, 1]; value 1 at the origin."""
        coeffs = [Fraction(0)] * (degree + 1)
        from math import comb

        for k in range(degree + 1):
            coeffs[k] = Fraction((-1) ** k * comb(degree, k))
        return RadialProfile.on_unit(coeffs)

    def is_zero(self) -> bool:
        return not self.pieces or all(not any(p) for p in self.pieces)

    @cached_property
    def _float_view(self):
        """Knots that compare with a float exactly, and each piece's float coefficients."""
        pieces = tuple(tuple(map(float, p)) for p in self.pieces)
        return tuple(map(_float_comparable, self.knots)), pieces

    @cached_property
    def _tail_weights(self) -> dict:
        return {}  # b -> one `_piece_weights` per piece, filled by moment_tail

    def value(self, t):
        """Evaluate at an exact rational (int or Fraction; exact result) or a float."""
        if isinstance(t, int):
            t = Fraction(t)
        knots, pieces = (self.knots, self.pieces) if isinstance(t, Fraction) else self._float_view
        if not knots or t < knots[0] or t > knots[-1]:
            return 0 * t
        idx = len(knots) - 2
        for j in range(len(knots) - 1):
            if t < knots[j + 1]:
                idx = j
                break
        acc = 0 * t
        for c in reversed(pieces[idx]):
            acc = acc * t + c
        return acc

    def value_at_zero(self) -> Fraction:
        if not self.knots or self.knots[0] != 0 or not self.pieces[0]:
            return Fraction(0)
        return self.pieces[0][0]

    def is_exact_class(self) -> bool:
        if self.is_zero():
            return True
        return self.knots == (Fraction(0), Fraction(1))

    def mellin_terms(self) -> Tuple[Tuple[int, Fraction], ...]:
        """Taylor data (k, c_k) with integral t^s rho dt = sum_k c_k / (s + k + 1).

        Only profiles supported on [0, 1] with a single piece stay rational in s.
        """
        if self.is_zero():
            return ()
        if not self.is_exact_class():
            raise ExactnessError(
                f"profile knots {tuple(map(str, self.knots))} not in {{0,1}}: "
                "Mellin transform is not a rational function"
            )
        return tuple((k, c) for k, c in enumerate(self.pieces[0]) if c)

    def derivative(self) -> "RadialProfile":
        if self.is_zero():
            return RadialProfile.zero()
        pieces = []
        for p in self.pieces:
            d = tuple(Fraction(k) * c for k, c in enumerate(p) if k >= 1)
            pieces.append(d if d else (Fraction(0),))
        return RadialProfile(self.knots, tuple(pieces))

    def mul_poly(self, coeffs: Sequence) -> "RadialProfile":
        """Multiply by a polynomial in t (coefficients constant-first)."""
        cs = [_frac(c) for c in coeffs]
        if self.is_zero() or not any(cs):
            return RadialProfile.zero()
        pieces = []
        for p in self.pieces:
            out = [Fraction(0)] * (len(p) + len(cs) - 1)
            for i, a in enumerate(p):
                for j, b in enumerate(cs):
                    out[i + j] += a * b
            pieces.append(tuple(out))
        return RadialProfile(self.knots, tuple(pieces))

    def scale(self, c) -> "RadialProfile":
        return self.mul_poly([c])

    def moment_tail(self, b: int, t0: Fraction) -> Fraction:
        """Exact integral of t^b * rho(t) over [max(t0, 0), support end], summed in integers."""
        t0 = t0 if isinstance(t0, Fraction) else Fraction(t0)
        weights = self._tail_weights.get(b)
        if weights is None:
            weights = self._tail_weights[b] = tuple(_piece_weights(p, b) for p in self.pieces)
        num, den = 0, 1
        for j, (lcd, w) in enumerate(weights):
            lo = max(self.knots[j], t0)
            hi = self.knots[j + 1]
            if lo >= hi:
                continue
            hn, hd = _power_sum(w, b, hi)
            ln, ld = _power_sum(w, b, lo)
            num = num * lcd * hd * ld + (hn * ld - ln * hd) * den
            den *= lcd * hd * ld
        return Fraction(num, den)

    def moment(self, b: int) -> Fraction:
        return self.moment_tail(b, Fraction(0))

    def to_obj(self) -> dict:
        return {
            "knots": [[k.numerator, k.denominator] for k in self.knots],
            "pieces": [[[c.numerator, c.denominator] for c in p] for p in self.pieces],
        }

    @staticmethod
    def from_obj(obj: dict, path: str = "rho") -> "RadialProfile":
        from .charts import ScenarioError, _rational

        if not isinstance(obj, dict) or "knots" not in obj or "pieces" not in obj:
            raise ScenarioError(path, "expected {knots, pieces}")

        def listed(v, where: str) -> list:
            if not isinstance(v, list):
                raise ScenarioError(f"{path}.{where}", f"expected a list, got {v!r}")
            return v

        knots = [_rational(v, f"{path}.knots[{i}]") for i, v in enumerate(listed(obj["knots"], "knots"))]
        pieces = [
            tuple(_rational(c, f"{path}.pieces[{i}][{j}]") for j, c in enumerate(listed(p, f"pieces[{i}]")))
            for i, p in enumerate(listed(obj["pieces"], "pieces"))
        ]
        try:
            return RadialProfile(tuple(knots), tuple(pieces))
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from exc

    def __str__(self):
        if self.is_zero():
            return "0"
        segs = []
        for j, p in enumerate(self.pieces):
            poly = " + ".join(
                (f"{c}" if k == 0 else (f"{c}*t^{k}" if k > 1 else f"{c}*t"))
                for k, c in enumerate(p)
                if c
            )
            segs.append(f"[{self.knots[j]},{self.knots[j + 1]}]: {poly or '0'}")
        return "; ".join(segs)
