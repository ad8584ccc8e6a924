"""Gaussian rationals: exact complex numbers with Fraction real and imaginary parts."""

from __future__ import annotations

from fractions import Fraction

from .frozen import Frozen, _set


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


class QI(Frozen):
    """An element of Q(i), kept exact so identity checks need no tolerance."""

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        _set(self, "re", re)
        _set(self, "im", im)

    @staticmethod
    def of(re=0, im=0) -> "QI":
        return QI(_frac(re), _frac(im))

    @staticmethod
    def zero() -> "QI":
        return QI()

    @staticmethod
    def one() -> "QI":
        return QI(Fraction(1))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def _coerce(self, other):
        if isinstance(other, QI):
            return other
        if isinstance(other, (int, Fraction)):
            return QI(_frac(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "QI":
        return QI(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QI(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return QI((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def as_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}*i"
        return f"{self.re}{sign}{istr}"
