"""Integer linear and affine forms in the continuation parameters.

A LinForm is a normalized homogeneous integer form c_1*L1 + ... + c_m*Lm;
these are the currency of pole hyperplanes through the origin.  AffineForm
adds an integer constant and carries shifted pole hyperplanes such as L1+2.
Normalization: content 1 and first nonzero coefficient positive, so each
hyperplane has exactly one representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence, Tuple


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


@dataclass(frozen=True)
class LinForm:
    coeffs: Tuple[int, ...]

    @staticmethod
    def normalize(raw: Sequence[int]) -> "LinForm":
        """Unique primitive representative with positive leading coefficient."""
        vec, _, _ = _normalized(raw, 0)
        return LinForm(vec)

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def support(self) -> frozenset:
        """1-based indices of the variables appearing in the form."""
        return frozenset(j + 1 for j, c in enumerate(self.coeffs) if c)

    def axis_index(self) -> Optional[int]:
        """1-based index i when the form is the unit axis form for L_i, else None."""
        hits = [(j, c) for j, c in enumerate(self.coeffs) if c]
        if len(hits) == 1 and hits[0][1] == 1:
            return hits[0][0] + 1
        return None

    def eval(self, values: Sequence):
        total = 0
        for c, v in zip(self.coeffs, values):
            if c:
                total = total + c * v
        return total

    def as_affine(self, const: int = 0) -> "AffineForm":
        return AffineForm(self.coeffs, const)

    def __str__(self) -> str:
        return _form_str(self.coeffs, 0)

    def sort_key(self):
        return self.coeffs


@dataclass(frozen=True)
class AffineForm:
    coeffs: Tuple[int, ...]
    const: int = 0

    @staticmethod
    def normalize(raw: Sequence[int], const: int = 0) -> "AffineForm":
        vec, c0, _ = _normalized(raw, const)
        return AffineForm(vec, c0)

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def is_homogeneous(self) -> bool:
        return self.const == 0

    def linear_part(self) -> LinForm:
        return LinForm.normalize(self.coeffs)

    def eval(self, values: Sequence):
        total = self.const
        for c, v in zip(self.coeffs, values):
            if c:
                total = total + c * v
        return total

    def eval_complex(self, values: Sequence[complex]) -> complex:
        return complex(self.const) + sum(c * v for c, v in zip(self.coeffs, values) if c)

    def __str__(self) -> str:
        return _form_str(self.coeffs, self.const)

    def sort_key(self):
        return (self.coeffs, self.const)


def _form_str(coeffs: Sequence[int], const: int) -> str:
    parts = []
    for j, c in enumerate(coeffs):
        if not c:
            continue
        name = f"L{j + 1}"
        if c == 1:
            parts.append(("+", name))
        elif c == -1:
            parts.append(("-", name))
        else:
            parts.append(("+" if c > 0 else "-", f"{abs(c)}*{name}"))
    if const:
        parts.append(("+" if const > 0 else "-", str(abs(const))))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, txt in parts[1:]:
        out += sign + txt
    return out
