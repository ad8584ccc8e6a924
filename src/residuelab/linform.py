"""Integer affine forms in the continuation parameters.

An AffineForm c_1*L1 + ... + c_m*Lm + c_0 carries a pole hyperplane or a
denominator factor, such as L1+2.  A homogeneous form (c_0 = 0) is a pole
hyperplane through the origin; LinForm names that case and is the same class.
Normalization: content 1 and first nonzero coefficient positive, so each
hyperplane has exactly one representative.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence, Tuple

from .frozen import Frozen, _set


class ZeroFormError(ValueError):
    """Raised when the zero vector is offered as a linear form."""


def _normalized(coeffs: Sequence[int], const: int = 0) -> Tuple[Tuple[int, ...], int, int]:
    """Primitive coefficients and constant plus the integer scale g with raw = g * form."""
    vec = tuple(int(c) for c in coeffs)
    if not any(vec):
        raise ZeroFormError("ZeroForm: a linear form needs a nonzero coefficient vector")
    g = 0
    for c in vec:
        g = gcd(g, abs(c))
    g = gcd(g, abs(const))
    lead = next(c for c in vec if c)
    if lead < 0:
        g = -g
    return tuple(c // g for c in vec), const // g, g


class AffineForm(Frozen):
    def __init__(self, coeffs: Tuple[int, ...], const: int = 0):
        _set(self, "coeffs", coeffs)
        _set(self, "const", const)

    # a dict key in every denominator: the Frozen rule, spelled out
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs and self.const == other.const
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs, self.const))

    @staticmethod
    def normalize(raw: Sequence[int], const: int = 0) -> "AffineForm":
        """Unique primitive representative with positive leading coefficient."""
        vec, c0, _ = _normalized(raw, const)
        return AffineForm(vec, c0)

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def is_homogeneous(self) -> bool:
        return self.const == 0

    def support(self) -> frozenset:
        """1-based indices of the variables appearing in the form."""
        return frozenset(j + 1 for j, c in enumerate(self.coeffs) if c)

    def axis_index(self) -> Optional[int]:
        """1-based index i when the form is the unit axis form for L_i, else None."""
        hits = [(j, c) for j, c in enumerate(self.coeffs) if c]
        if len(hits) == 1 and hits[0][1] == 1 and not self.const:
            return hits[0][0] + 1
        return None

    def eval(self, values: Sequence):
        total = self.const
        for c, v in zip(self.coeffs, values):
            if c:
                total = total + c * v
        return total

    def eval_complex(self, values: Sequence[complex]) -> complex:
        return complex(self.const) + sum(c * v for c, v in zip(self.coeffs, values) if c)

    def __str__(self) -> str:
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            name = f"L{j + 1}"
            if c == 1:
                parts.append(("+", name))
            elif c == -1:
                parts.append(("-", name))
            else:
                parts.append(("+" if c > 0 else "-", f"{abs(c)}*{name}"))
        if self.const:
            parts.append(("+" if self.const > 0 else "-", str(abs(self.const))))
        if not parts:
            return "0"
        first_sign, first = parts[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, txt in parts[1:]:
            out += sign + txt
        return out

    def sort_key(self):
        return (self.coeffs, self.const)


LinForm = AffineForm
