"""Polynomial exterior algebra and the coordinate-hyperplane division lemma.

Forms have rational polynomial coefficients on strictly increasing wedge
index tuples.  The interpolant, an alternating sum of restrictions, matches a
form on every coordinate hyperplane of a given index set, so the difference
becomes divisible by those coordinates; this is what lets the engine absorb
logarithmic conjugate differentials on the principal-value divisor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .errors import ScenarioError, _int, _rational, _typed
from .frozen import Frozen, _set
from .leibniz import inversion_parity
from .poly import Poly

IndexTuple = Tuple[int, ...]


def _sorted_signed(idx: Sequence[int]) -> Tuple[IndexTuple, int]:
    """Sort wedge indices, tracking the permutation sign; repeated index kills the term."""
    if len(set(idx)) != len(idx):
        return (), 0
    return tuple(sorted(idx)), inversion_parity(idx)


class PolyForm(Frozen):
    """Degree-d form: map from increasing 1-based index tuples to Poly coefficients."""

    def __init__(self, nvars: int, degree: int, terms: Mapping[IndexTuple, Poly]):
        clean: Dict[IndexTuple, Poly] = {}
        for idx, c in terms.items():
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} does not match degree {degree}")
            if any(b <= a for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index tuple {idx} must be strictly increasing")
            if any(i < 1 or i > nvars for i in idx):
                raise ValueError(f"index out of range in {idx}")
            if not c.is_zero():
                clean[tuple(idx)] = c
        _set(self, "nvars", nvars)
        _set(self, "degree", degree)
        _set(self, "terms", clean)

    @staticmethod
    def zero(nvars: int, degree: int = 0) -> "PolyForm":
        return PolyForm(nvars, degree, {})

    @staticmethod
    def function(poly: Poly) -> "PolyForm":
        return PolyForm(poly.nvars, 0, {(): poly})

    @staticmethod
    def basis(nvars: int, idx: Sequence[int], coeff: Poly | None = None) -> "PolyForm":
        srt, sign = _sorted_signed(idx)
        if sign == 0:
            return PolyForm.zero(nvars, len(idx))
        c = coeff if coeff is not None else Poly.const(nvars, Fraction(1))
        if sign < 0:
            c = -c
        return PolyForm(nvars, len(idx), {srt: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PolyForm") -> "PolyForm":
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        out = dict(self.terms)
        for idx, c in other.terms.items():
            s = out.get(idx)
            out[idx] = c if s is None else s + c
        return PolyForm(self.nvars, self.degree, out)

    def __neg__(self) -> "PolyForm":
        return PolyForm(self.nvars, self.degree, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + (-other)

    def scale(self, c) -> "PolyForm":
        return PolyForm(
            self.nvars, self.degree, {i: p.scale(c) for i, p in self.terms.items()}
        )

    def mul_poly(self, poly: Poly) -> "PolyForm":
        return PolyForm(
            self.nvars, self.degree, {i: p * poly for i, p in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyForm):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and (self.is_zero() and other.is_zero() or
                 (self.degree == other.degree and dict(self.terms) == dict(other.terms)))
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self.terms.keys())))


def wedge(a: PolyForm, b: PolyForm) -> PolyForm:
    """Graded-anticommutative product; degree overflow gives the zero form."""
    if a.nvars != b.nvars:
        raise ValueError("arity mismatch")
    d = a.degree + b.degree
    if d > a.nvars:
        return PolyForm.zero(a.nvars, min(d, a.nvars))
    out: Dict[IndexTuple, Poly] = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            idx, sign = _sorted_signed(ia + ib)
            if sign == 0:
                continue
            c = ca * cb
            if sign < 0:
                c = -c
            s = out.get(idx)
            out[idx] = c if s is None else s + c
    return PolyForm(a.nvars, d, out)


def d_monomial(nvars: int, alpha: Sequence[int]) -> PolyForm:
    """d(x^alpha) = sum_i alpha_i x^(alpha - e_i) dx_i."""
    if not any(alpha):
        raise ValueError("zero exponent vector has no differential")
    terms: Dict[IndexTuple, Poly] = {}
    for i, a in enumerate(alpha):
        if not a:
            continue
        e = list(alpha)
        e[i] -= 1
        terms[(i + 1,)] = Poly.monomial(nvars, e, Fraction(a))
    return PolyForm(nvars, 1, terms)


def restrict_extend(f: PolyForm, S: Iterable[int]) -> PolyForm:
    """Pull back to {x_i = 0 : i in S} and extend constantly: kill x_i in the
    coefficients and drop every term whose wedge contains dx_i."""
    S = set(S)
    out: Dict[IndexTuple, Poly] = {}
    for idx, c in f.terms.items():
        if any(i in S for i in idx):
            continue
        kept = {e: v for e, v in c.terms.items() if not any(e[i - 1] for i in S)}
        if kept:
            out[idx] = Poly(f.nvars, kept)
    return PolyForm(f.nvars, f.degree, out)


def build_interpolant(psi: PolyForm, K: Iterable[int]) -> PolyForm:
    """Alternating sum of restrictions over nonempty subsets of K.

    The result matches psi on each hyperplane {x_j = 0}, j in K, so the
    difference has all dx_j-free coefficients divisible by x_j.  A term of
    psi (wedge index, monomial) survives `restrict_extend(psi, S)` exactly
    when it contains neither dx_j nor x_j for every j in S, so over the
    nonempty subsets of the j it misses it counts 1 - 1 + 1 - ... = 1 times
    if there are any such j, else 0: the sum keeps just those terms of psi.
    """
    K = set(K)
    out: Dict[IndexTuple, Poly] = {}
    for idx, c in psi.terms.items():
        free = [j - 1 for j in K if j not in idx]
        kept = {e: v for e, v in c.terms.items() if any(not e[j] for j in free)}
        if kept:
            out[idx] = Poly(psi.nvars, kept)
    return PolyForm(psi.nvars, psi.degree, out)


def log_wedge_nonsingular(psi: PolyForm, omega: PolyForm, K: Iterable[int]) -> Dict[int, bool]:
    """For each j in K: does (dx_j / x_j) ^ (psi - omega) stay polynomial?

    Equivalent check: every coefficient of psi - omega on wedge tuples not
    containing dx_j is divisible by x_j.
    """
    diff = psi - omega
    report: Dict[int, bool] = {}
    for j in sorted(set(K)):
        ok = True
        for idx, c in diff.terms.items():
            if j in idx:
                continue
            if not c.divisible_monomial(j - 1):
                ok = False
                break
        report[j] = ok
    return report


def annihilated_by_row_differentials(omega: PolyForm, rows: Sequence[Sequence[int]]) -> bool:
    """True when d(x^row_1) ^ ... ^ d(x^row_m) ^ omega vanishes identically."""
    acc = omega
    for row in rows:
        acc = wedge(d_monomial(omega.nvars, row), acc)
        if acc.is_zero():
            return True
    return acc.is_zero()


def pullback_monomial(form: PolyForm, subst: Sequence[Sequence[int]], nvars_out: int) -> PolyForm:
    """Pull back under the monomial map x_i = z^(subst[i]); exact on polynomials."""
    if len(subst) != form.nvars:
        raise ValueError("need one exponent row per source variable")

    def pull_poly(p: Poly) -> Poly:
        out = Poly.zero(nvars_out)
        for e, c in p.terms.items():
            exps = [0] * nvars_out
            for i, k in enumerate(e):
                if k:
                    for j, s in enumerate(subst[i]):
                        exps[j] += k * s
            out = out + Poly.monomial(nvars_out, exps, c)
        return out

    total = PolyForm.zero(nvars_out, form.degree)
    for idx, c in form.terms.items():
        piece = PolyForm.function(pull_poly(c))
        ok = True
        for i in idx:
            if not any(subst[i - 1]):
                ok = False
                break
            piece = wedge(piece, d_monomial(nvars_out, subst[i - 1]))
        if ok and not piece.is_zero():
            total = total + piece
    return total


# --- form literals for the CLI and scenario files --------------------------


def form_from_obj(obj: dict, nvars: int, path: str = "form") -> PolyForm:
    shape = path, "expected {degree, terms}"
    obj = _typed(obj, dict, *shape)
    terms = _typed(obj.get("terms") if "degree" in obj else None, list, *shape)
    degree = _int(obj["degree"], f"{path}.degree", 0)
    form = PolyForm.zero(nvars, degree)
    for ti, t in enumerate(terms):
        tb = f"{path}.terms[{ti}]"
        t = _typed(t, dict, tb, "expected object")
        idx = _typed(t.get("idx"), list, f"{tb}.idx", "expected index list")
        idx = _typed(idx, list, f"{tb}.idx", f"expected one index per degree ({degree}), got {len(idx)}", degree)
        idx = [_int(v, f"{tb}.idx[{k}]", 1) for k, v in enumerate(idx)]
        for k, i in enumerate(idx):
            if i > nvars:
                raise ScenarioError(f"{tb}.idx[{k}]", f"expected an index in 1..{nvars}, got {i}")
        monos = _typed(t.get("poly", []), list, f"{tb}.poly", "expected monomial list")
        poly = Poly.zero(nvars)
        for mi, mono in enumerate(monos):
            mono = _typed(mono, dict, f"{tb}.poly[{mi}]", "expected object")
            exps = _typed(mono.get("exps"), list, f"{tb}.poly[{mi}].exps", f"expected {nvars} exponents", nvars)
            exps = [_int(v, f"{tb}.poly[{mi}].exps[{k}]", 0) for k, v in enumerate(exps)]
            coeff = _rational(mono.get("coeff"), f"{tb}.poly[{mi}].coeff")
            poly = poly + Poly.monomial(nvars, exps, coeff)
        form = form + PolyForm.basis(nvars, idx, poly)
    return form


def form_to_obj(form: PolyForm) -> dict:
    return {
        "degree": form.degree,
        "terms": [
            {
                "idx": list(idx),
                "poly": [
                    {
                        "exps": list(e),
                        "coeff": [c.numerator, c.denominator],
                    }
                    for e, c in coeff.sorted_terms()
                ],
            }
            for idx, coeff in sorted(form.terms.items())
        ],
    }
