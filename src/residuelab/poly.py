"""Sparse multivariate polynomials over an exact coefficient field.

Terms map exponent tuples (one entry per variable, 0-based) to coefficients.
Coefficients may be Fraction or QI; all operations stay exact.  The zero
polynomial has an empty term map.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

Exponent = Tuple[int, ...]


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exponent, object] | None = None):
        self.nvars = nvars
        self.terms: Dict[Exponent, object] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError(f"exponent {e} has wrong arity, expected {nvars}")
                if c:
                    self.terms[tuple(e)] = c

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, j: int, one) -> "Poly":
        """Monomial x_j (0-based j); `one` supplies the coefficient unit."""
        e = [0] * nvars
        e[j] = 1
        return Poly(nvars, {tuple(e): one})

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], c) -> "Poly":
        return Poly(nvars, {tuple(exps): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        p = Poly(self.nvars)
        p.terms = out
        return p

    def __neg__(self) -> "Poly":
        p = Poly(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        out: Dict[Exponent, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                s = c if s is None else s + c
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        p = Poly(self.nvars)
        p.terms = out
        return p

    def scale(self, c) -> "Poly":
        if not c:
            return Poly(self.nvars)
        p = Poly(self.nvars)
        p.terms = {e: c * v for e, v in self.terms.items()}
        return p

    def divisible_monomial(self, j: int) -> bool:
        """True when every term contains the variable x_j."""
        return all(e[j] >= 1 for e in self.terms)

    def sorted_terms(self) -> Iterable[Tuple[Exponent, object]]:
        return sorted(self.terms.items(), key=lambda t: t[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"x{j + 1}" if k == 1 else f"x{j + 1}^{k}" for j, k in enumerate(e) if k
            )
            cs = str(c)
            if mono:
                parts.append(f"({cs})*{mono}" if ("+" in cs or "-" in cs[1:]) else f"{cs}*{mono}")
            else:
                parts.append(cs)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.terms!r})"
