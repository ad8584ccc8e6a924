"""Compactly supported radial profiles, piecewise polynomial in t = |x|^2.

The exact Mellin machinery needs knots contained in {0, 1}: a knot at any
other point would put factors like 4^s into the transform, which no rational
function of the parameters can represent.  Profiles with other rational
knots are still valid data for the floating-point paths (quadrature, tube
integrals); the exact evaluator rejects them with ExactnessError, an
`errors.InputError`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from typing import List, Sequence, Tuple

from .errors import InputError, ScenarioError, _rational, _typed
from .frozen import Frozen, _set
from .gaussian import _frac


class ExactnessError(InputError):
    """Profile not in the exactly integrable class (knots must be 0 and 1)."""


def _ceil_float(k: Fraction, strict: bool = False) -> float:
    """The smallest float >= k (> k when `strict`): for a float t, t < k exactly
    when t < _ceil_float(k), and t > k exactly when t >= _ceil_float(k, True).
    float(k) alone would not do: float(1/3) < 1/3, yet not < float(1/3)."""
    f = float(k)
    return math.nextafter(f, math.inf) if f < k or (strict and f == k) else f


def _piece_weights(piece: Tuple[Fraction, ...], b: int) -> Tuple[int, Tuple[int, ...]]:
    """A common denominator L and integer weights w_k = c_k*L/(b+k+1), so that the
    piece's integral of t^b * rho is sum_k w_k * t^(b+k+1) / L."""
    es = range(b + 1, b + 1 + len(piece))
    lcd = math.lcm(*(c.denominator * e for c, e in zip(piece, es) if c))
    return lcd, tuple(c.numerator * (lcd // (c.denominator * e)) for c, e in zip(piece, es))


def _power_sum(weights: Tuple[int, ...], b: int, n: int, d: int) -> Tuple[int, int]:
    """sum_k weights[k] * x^(b+k+1) at x = n/d, as an integer numerator and denominator."""
    acc, dpow = 0, 1
    for w in reversed(weights):
        acc = acc * n + w * dpow
        dpow *= d
    return acc * n ** (b + 1), dpow * d**b


class RadialProfile(Frozen):
    """rho(t) on [knots[0], knots[-1]], one polynomial piece per knot interval, zero outside."""

    def __init__(self, knots: Tuple[Fraction, ...], pieces: Tuple[Tuple[Fraction, ...], ...]):
        knots = tuple(_frac(k) for k in knots)
        pieces = tuple(tuple(_frac(c) for c in p) for p in pieces)
        if len(knots) == 1:
            raise ValueError("need no knots, or at least two")
        if knots:
            if len(pieces) != len(knots) - 1:
                raise ValueError("need one polynomial piece per knot interval")
            if any(b <= a for a, b in zip(knots, knots[1:])):
                raise ValueError("knots must be strictly increasing")
            if knots[0] < 0:
                raise ValueError("knots must be nonnegative")
        elif pieces:
            raise ValueError("pieces without knots")
        _set(self, "knots", knots)
        _set(self, "pieces", pieces)

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
        """Float thresholds, one per knot, then one for the support end, each
        piece's float coefficients, and the knots rounded to floats: for a
        float t, t < knots[i] exactly when t < lows[i], and t > knots[-1]
        exactly when t >= end."""
        lows = tuple(map(_ceil_float, self.knots))
        end = _ceil_float(self.knots[-1], True) if self.knots else math.inf
        return lows, end, tuple(tuple(map(float, p)) for p in self.pieces), tuple(map(float, self.knots))

    def value(self, t):
        """Evaluate at an exact rational (int or Fraction; exact result) or a float."""
        if not isinstance(t, (int, Fraction)):
            return self.values((t,))[0]
        t = Fraction(t)
        knots = self.knots
        if not knots or t < knots[0] or t > knots[-1]:
            return 0 * t
        acc = 0 * t
        for c in reversed(self.pieces[min(bisect_right(knots, t), len(self.pieces)) - 1]):
            acc = acc * t + c
        return acc

    def values(self, ts: Sequence[float]) -> List[float]:
        """rho at each float t, in floats: Horner's rule on the float coefficients
        of the piece holding t (the last piece at the support end), 0 outside."""
        lows, end, pieces, _ = self._float_view
        # the piece by the count of thresholds <= t, which is >= 1 on the support
        by_count = (None,) + pieces + pieces[-1:]
        out = []
        for t in ts:
            acc = 0 * t
            if lows and not (t < lows[0] or t >= end):
                for c in reversed(by_count[bisect_right(lows, t)]):
                    acc = acc * t + c
            out.append(acc)
        return out

    def is_exact_class(self) -> bool:
        if self.is_zero():
            return True
        return self.knots == (0, 1)

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

    def moment_tail(self, b: int, t0) -> Fraction:
        """Exact integral of t^b * rho(t) over [t0, support end], summed in integers."""
        return Fraction(*self._tail_ratios(b, (t0,))[0])

    def _tail_ratios(self, b: int, radii) -> List[Tuple[int, int]]:
        """`moment_tail` from each radius (an int, a Fraction or a float, read
        exactly) as an integer numerator over a positive denominator: dividing
        them rounds the exact tail to a float once, correctly."""
        knots, lows = self.knots, self._float_view[0]
        weights = [_piece_weights(p, b) for p in self.pieces]
        # From r in piece j the tail is heads[j] - W_j(r)/L_j, with W_j/L_j the
        # piece's antiderivative; `below` is the tail from the support start.
        heads, below = [None] * len(weights), Fraction(0)
        for j in reversed(range(len(weights))):
            lcd, w = weights[j]
            head = below + Fraction(*_power_sum(w, b, *knots[j + 1].as_integer_ratio())) / lcd
            heads[j] = head.numerator * lcd, head.denominator * lcd, head.denominator, w[::-1]
            below = head - Fraction(*_power_sum(w, b, *knots[j].as_integer_ratio())) / lcd
        out = []
        for r in radii:
            i = bisect_right(lows if isinstance(r, float) else knots, r)
            if i == 0:
                out.append((below.numerator, below.denominator))
            elif i > len(weights):
                out.append((0, 1))
            else:
                # _power_sum at r = n/d, written out: this loop runs once per radius
                hn, hd, den, ws = heads[i - 1]
                n, d = r.as_integer_ratio()
                acc, dpow = 0, 1
                for w in ws:
                    acc = acc * n + w * dpow
                    dpow *= d
                wd = dpow * d**b
                out.append((hn * wd - acc * n ** (b + 1) * den, hd * wd))
        return out

    def to_obj(self) -> dict:
        return {
            "knots": [[k.numerator, k.denominator] for k in self.knots],
            "pieces": [[[c.numerator, c.denominator] for c in p] for p in self.pieces],
        }

    @staticmethod
    def from_obj(obj: dict, path: str = "rho") -> "RadialProfile":
        shape = path, "expected {knots, pieces}"
        if not {"knots", "pieces"} <= _typed(obj, dict, *shape).keys():
            raise ScenarioError(*shape)
        knots = _typed(obj["knots"], list, f"{path}.knots", "expected a list, got %r")
        knots = [_rational(v, f"{path}.knots[{i}]") for i, v in enumerate(knots)]
        pieces_obj = _typed(obj["pieces"], list, f"{path}.pieces", "expected a list, got %r")
        pieces = []
        for i, p in enumerate(pieces_obj):
            p = _typed(p, list, f"{path}.pieces[{i}]", "expected a list, got %r")
            pieces.append(tuple(_rational(c, f"{path}.pieces[{i}][{j}]") for j, c in enumerate(p)))
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
