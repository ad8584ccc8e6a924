"""Exact meromorphic values: rational functions of the continuation parameters.

A MeroValue is

    (2*pi*i)^k * num(L1..Lm) / prod_j form_j ^ mult_j

with num a polynomial over Q(i) and every denominator factor a normalized
integer affine form.  The 2*pi*i token stays symbolic, so pi never enters
the exact engine.

The numerator is stored as Gaussian-integer coefficients, (re, im) pairs of
Python ints, over one positive integer content:
num = sum_e (re_e + i*im_e) * L^e / content, with the content coprime to
every re_e and im_e.  All arithmetic runs on ints.  Division by a form is
synthetic division along its pivot variable: the forms are primitive, so by
Gauss's lemma over Z[i] the quotient of a divisible numerator is integral,
and a step that leaves Z[i] proves that the form does not divide.

A monomial is keyed by one packed int, exponent j of nvars in bits
[32*(nvars-1-j), 32*(nvars-j)): multiplying monomials adds keys, and int
order is the lexicographic order of exponent tuples, so sorted terms come
out as with tuple keys.  Keys are decoded only in num, to_obj and evaluation.
from_poly rejects an exponent of 2**32 or more; no product may build one.

A sum is expanded over its common denominator on packed ints: a coefficient
re + i*im is the one int re*2**K + im, and the exponent e of the last
variable places it in bits [W*e, W*(e+1)) of one int per monomial of the
other variables, so a form multiplies that int by c0 + c_last*2**W at once.
Each step is Z-linear, so only the final coefficients must read back.  In
sum_parts scale * terms * prod form^k each is at most
B = sum |scale| * max|coef| * #terms * prod ||form||_1^k < 2**(K-1) for
K = bit_length(B) + 1, a signed K-bit digit; a packed coefficient, below
2**(2K-1), is then a signed slot of W = 2K + 2 bits.  in_one_form runs
Horner on the same ints.

Every value is reduced when built: no denominator form divides the
numerator, so the representation is canonical (affine forms are irreducible
and Q(i)[L] has unique factorization) and equality is structural.  from_poly
tries every form; the raw constructor and in_one_form trust their caller to
vouch for the value, as for a radial factor; arithmetic on canonical values
tests only the forms that can cancel.  In a sum a/b + c/d over the common
denominator, a form with a higher multiplicity in b than in d divides the
cross term c*(lcm/d) but not a*(lcm/b), so only forms with the same
multiplicity in b and d can cancel.  In a product, a form of one factor's
denominator can cancel only against the other factor's numerator.
Evaluation modulo a prime on a form's zero hyperplane rules divisions out
before they are tried; being a ring homomorphism, it tests a sum on its
summands, so only the forms that pass are tried on the expanded sum.  Every
test point shares x_j = 2j + 3 off the form's pivot, so each summand is
reduced once per pivot variable into a memo that the forms tested on it
share, and each form then costs one Horner pass in its pivot coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm
from operator import mul
from struct import Struct, error as StructError
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .frozen import Frozen, _set
from .gaussian import QI
from .linform import AffineForm
from .poly import Exponent, Poly

# Gaussian-integer polynomial: packed monomial key -> (re, im), no zero entries.
Terms = Dict[int, Tuple[int, int]]


class MeroError(ValueError):
    pass


class TokenPowerError(MeroError):
    """Adding values with different powers of the 2*pi*i token."""


class PoleAtPointError(MeroError):
    def __init__(self, forms):
        self.forms = tuple(forms)
        super().__init__("value has a pole at the requested point: " + ", ".join(map(str, self.forms)))


class PoleAtOriginError(PoleAtPointError):
    def __init__(self, forms):
        self.forms = tuple(forms)
        MeroError.__init__(self, "PoleAtOrigin: " + ", ".join(map(str, self.forms)))


class HigherOrderPoleError(MeroError):
    def __init__(self, form, mult):
        self.form = form
        self.mult = mult
        super().__init__(f"HigherOrderPole: {form} has multiplicity {mult}")


class TokenScalar(Frozen):
    """An exact scalar of the shape coeff * (2*pi*i)^power."""

    def __init__(self, coeff: QI, power: int = 0):
        _set(self, "coeff", coeff)
        _set(self, "power", power if coeff else 0)

    def as_complex(self) -> complex:
        import math

        return self.coeff.as_complex() * (2j * math.pi) ** self.power

    def __str__(self):
        if not self.coeff:
            return "0"
        if self.power == 0:
            return str(self.coeff)
        if self.power == 1:
            tok = "(2*pi*i)"
        else:
            tok = f"(2*pi*i)^{self.power}"
        return f"({self.coeff})*{tok}"


_PRIME = (1 << 61) - 1
_BITS = 32
_MASK = (1 << _BITS) - 1


@cache
def _codec(nvars: int) -> Struct:
    return Struct(f">{nvars}I")


def _key(e: Sequence[int]) -> int:
    """The packed key of an exponent tuple."""
    try:
        return int.from_bytes(_codec(len(e)).pack(*e), "big")
    except StructError:
        raise MeroError(f"exponents {tuple(e)} do not fit in {_BITS} bits each") from None


def _decoded(items: Iterable[Tuple[int, Tuple[int, int]]],
             nvars: int) -> Iterator[Tuple[Exponent, Tuple[int, int]]]:
    """Terms items with each packed key turned back into its exponent tuple, one
    at a time, so that no second copy of a large numerator is held."""
    unpack, size = _codec(nvars).unpack, 4 * nvars
    return ((unpack(e.to_bytes(size, "big")), x) for e, x in items)


def _scalar(c) -> Tuple[int, int, int]:
    """c in Q(i) as (re, im, d) with c = (re + i*im) / d, d > 0 and gcd(re, im, d) = 1."""
    c = c if isinstance(c, QI) else QI.of(c)
    d = lcm(c.re.denominator, c.im.denominator)
    return c.re.numerator * (d // c.re.denominator), c.im.numerator * (d // c.im.denominator), d


def _canon(terms: Terms, content: int) -> Tuple[Terms, int]:
    """Divide the common factor of the content and every coefficient out of both."""
    g = gcd(content, *chain.from_iterable(terms.values())) if content > 1 else 1
    if g == 1:
        return terms, content
    return {e: (re // g, im // g) for e, (re, im) in terms.items()}, content // g


def _mul(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    get = out.get
    for ea, (ar, ai) in a.items():
        for eb, (br, bi) in b.items():
            e = ea + eb
            s = get(e)
            if s is None:
                out[e] = (ar * br - ai * bi, ar * bi + ai * br)
            else:
                out[e] = (s[0] + ar * br - ai * bi, s[1] + ar * bi + ai * br)
    return {e: c for e, c in out.items() if c[0] or c[1]}


def _scale(a: Terms, re: int, im: int) -> Terms:
    if not im:
        return a if re == 1 else {e: (x * re, y * re) for e, (x, y) in a.items()}
    return {e: (x * re - y * im, x * im + y * re) for e, (x, y) in a.items()}


def _form_terms(form: AffineForm, skip: int) -> List[Tuple[int, int]]:
    """The form's nonzero terms as (key, coefficient), leaving out variable `skip`."""
    out = [(1 << _BITS * (form.nvars - 1 - j), c) for j, c in enumerate(form.coeffs) if c and j != skip]
    if form.const:
        out.append((0, form.const))
    return out


def _widths(bound: int) -> Tuple[int, int]:
    """The digit and slot widths K and W that read back every packed
    coefficient of size at most bound."""
    K = bound.bit_length() + 1
    return K, 2 * K + 2


def _times_form(rows: Dict[int, int], f: AffineForm, W: int) -> Dict[int, int]:
    """Packed rows times a real form."""
    *rest, last = f.coeffs
    line = f.const + (last << W)
    out = {g: v * line for g, v in rows.items()}
    for j, c in enumerate(rest):
        if c:
            u = 1 << _BITS * (len(rest) - j)
            for g, v in rows.items():
                out[g + u] = out.get(g + u, 0) + v * c
    return out


def _unpacked(rows: Dict[int, int], K: int, W: int) -> Terms:
    terms = {}
    wmask, wsign, kmask, ksign = (1 << W) - 1, 1 << W - 1, (1 << K) - 1, 1 << K - 1
    for e, v in rows.items():
        while v:  # the low W bits read signed; a negative slot borrowed one from the slot above
            x = (v & wmask ^ wsign) - wsign
            if x:
                im = (x & kmask ^ ksign) - ksign
                terms[e] = (x - im >> K, im)
            v = v - x >> W
            e += 1
    return terms


def _sum_times_forms(parts: Sequence[Tuple[Terms, int, Sequence[Tuple[AffineForm, int]]]]) -> Terms:
    """The sum of scale * terms * prod form^k over the parts (terms, scale,
    [(form, k), ...]), every scale and form real, expanded on packed ints."""
    bound = 0
    for terms, scale, forms in parts:
        b = abs(scale) * len(terms) * max(map(abs, chain.from_iterable(terms.values())), default=0)
        for f, k in forms:
            b *= (abs(f.const) + sum(map(abs, f.coeffs))) ** k
        bound += b
    K, W = _widths(bound)
    total: Dict[int, int] = {}
    for terms, scale, forms in parts:
        rows: Dict[int, int] = {}
        for e, (re, im) in terms.items():
            slot = e & _MASK
            rows[e - slot] = rows.get(e - slot, 0) + ((re << K) + im << W * slot)
        for f, k in forms:
            for _ in range(k):
                rows = _times_form(rows, f, W)
        for g, v in rows.items():
            total[g] = total.get(g, 0) + v * scale
    return _unpacked(total, K, W)


def _pivot(form: AffineForm) -> int:
    return next(j for j, c in enumerate(form.coeffs) if c)


def _residues(terms: Terms, nvars: int, pivot: int) -> List[Tuple[int, int]]:
    """terms modulo _PRIME as a polynomial in x_pivot with every other x_j set
    to 2j + 3: the (re, im) coefficient of each power of x_pivot, constant first."""
    P = _PRIME
    layers: Dict[int, List[int]] = {}
    for e, (re, im) in _decoded(terms.items(), nvars):
        m = 1
        for j, k in enumerate(e):
            if k and j != pivot:
                m = m * pow(2 * j + 3, k, P) % P
        layer = layers.setdefault(e[pivot], [0, 0])
        layer[0] += re * m
        layer[1] += im * m
    return [(re % P, im % P) for re, im in (layers.get(k, (0, 0)) for k in range(max(layers, default=0) + 1))]


def _vanishes(form: AffineForm,
              *parts: Tuple[Terms, Dict[int, list], int, Sequence[Tuple[AffineForm, int]]]) -> bool:
    """Cheap necessary test for form dividing the sum of scale * terms * prod g^k
    over the parts (terms, memo, scale, [(g, k), ...]): evaluate it modulo a
    large prime at a point of the form's zero hyperplane, summand by summand.
    Every such point has x_j = 2j + 3 off the form's pivot, so a summand is
    reduced once per pivot variable (`_residues`, kept in its memo, a dict by
    pivot) and each form costs one Horner pass in its pivot coordinate.
    Divisibility forces a zero value; a zero value may still be a false
    positive, and callers confirm it with the exact division.
    """
    P = _PRIME
    pivot = _pivot(form)
    a = form.coeffs[pivot] % P
    if not a:
        return True  # cannot decide modulo P; let the exact division settle it
    pt = [2 * j + 3 for j in range(form.nvars)]
    rest = form.const + sum(c * pt[j] for j, c in enumerate(form.coeffs) if c and j != pivot)
    x = pt[pivot] = -rest * pow(a, -1, P) % P
    sre = sim = 0
    for terms, memo, scale, forms in parts:
        m = scale % P
        for g, k in forms:
            m = m * pow(g.const + sum(map(mul, g.coeffs, pt)), k, P) % P
        layers = memo.get(pivot)
        if layers is None:
            layers = memo[pivot] = _residues(terms, form.nvars, pivot)
        re = im = 0
        for cr, ci in reversed(layers):
            re = (re * x + cr) % P
            im = (im * x + ci) % P
        sre += re * m
        sim += im * m
    return sre % P == 0 and sim % P == 0


def _divide(terms: Terms, form: AffineForm) -> Optional[Terms]:
    """Exact quotient terms / form over Z[i], or None when the form does not divide.

    Synthetic division along the pivot x: with form = a*x + r, the top
    x-layer of the quotient is the top layer of terms over a, and each layer
    subtracts r times the quotient layer above it.
    """
    pivot = _pivot(form)
    a = form.coeffs[pivot]
    rest = _form_terms(form, pivot)
    shift = _BITS * (form.nvars - 1 - pivot)
    layers: List[Terms] = [{} for _ in range(max(e >> shift & _MASK for e in terms) + 1)]
    for e, c in terms.items():
        layers[e >> shift & _MASK][e] = c
    down = 1 << shift
    quotient: Terms = {}
    for d in range(len(layers) - 1, 0, -1):
        below = layers[d - 1]
        for e, (re, im) in layers[d].items():
            if not (re or im):
                continue
            if re % a or im % a:
                return None
            qr, qi = re // a, im // a
            qe = e - down
            quotient[qe] = (qr, qi)
            for u, c in rest:
                t = qe + u
                s = below.get(t, (0, 0))
                below[t] = (s[0] - qr * c, s[1] - qi * c)
    if any(re or im for re, im in layers[0].values()):
        return None
    return quotient


def _cancel(terms: Terms, den: Dict[AffineForm, int], forms: Iterable[AffineForm]) -> Terms:
    """Divide each of `forms` out of terms as often as den allows, lowering den;
    the forms share one filter memo, reset with each quotient."""
    memo: Dict[int, list] = {}
    for f in forms:
        while den[f] and _vanishes(f, (terms, memo, 1, ())):
            q = _divide(terms, f)
            if q is None:
                break
            terms, memo = q, {}
            den[f] -= 1
    return terms


def _merge_dens(entries: Iterable[Tuple[AffineForm, int]]) -> Tuple[Tuple[AffineForm, int], ...]:
    acc: Dict[AffineForm, int] = {}
    for f, m in entries:
        if m == 0:
            continue
        if m < 0:
            raise MeroError("denominator multiplicities must be positive")
        acc[f] = acc.get(f, 0) + m
    return tuple(sorted(acc.items(), key=lambda t: t[0].sort_key()))


class MeroValue:
    """A reduced value: no form of den divides the numerator.  Build values
    with zero, const, monomial, in_one_form or from_poly; the constructor
    takes the integer representation as is, reduced as its caller vouches."""

    __slots__ = ("nvars", "den", "token_pow", "_terms", "_content")

    def __init__(self, nvars: int, terms: Terms, content: int = 1, den=(), token_pow: int = 0):
        self.nvars = nvars
        self._terms = terms
        self._content = content
        if not terms:
            den, token_pow = (), 0
        self.den: Tuple[Tuple[AffineForm, int], ...] = den
        self.token_pow = token_pow

    @property
    def num(self) -> Poly:
        """The numerator as a new polynomial over Q(i) on each read."""
        c = self._content
        p = Poly(self.nvars)
        terms = _decoded(self._terms.items(), self.nvars)
        # a real coefficient shares QI's default zero imaginary part, one Fraction fewer per term
        p.terms = {e: QI(Fraction(re, c), Fraction(im, c)) if im else QI(Fraction(re, c)) for e, (re, im) in terms}
        return p

    @staticmethod
    def zero(nvars: int) -> "MeroValue":
        return MeroValue(nvars, {})

    @staticmethod
    def const(nvars: int, c, token_pow: int = 0) -> "MeroValue":
        return MeroValue.monomial(nvars, (0,) * nvars, c).mul_token(token_pow)

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], c) -> "MeroValue":
        """c * L^exps."""
        re, im, d = _scalar(c)
        if not (re or im):
            return MeroValue.zero(nvars)
        return MeroValue(nvars, {_key(exps): (re, im)}, d)

    @staticmethod
    def in_one_form(form: AffineForm, coeffs: Sequence[int], content: int, den) -> "MeroValue":
        """sum_i coeffs[i] * form^i / content / prod den: the caller vouches
        that den is sorted by sort_key with distinct forms, and that none of
        them divides the numerator."""
        sign = -1 if content < 0 else 1
        size = abs(form.const) + sum(map(abs, form.coeffs))
        K, W = _widths(sum(abs(c) * size**i for i, c in enumerate(coeffs)))
        rows: Dict[int, int] = {}
        for c in reversed(coeffs):  # Horner in the form, on packed rows
            rows = _times_form(rows, form, W)
            rows[0] = rows.get(0, 0) + (sign * c << K)
        terms, content = _canon(_unpacked(rows, K, W), sign * content)
        return MeroValue(form.nvars, terms, content, den)

    @staticmethod
    def from_poly(num: Poly, den=(), token_pow: int = 0) -> "MeroValue":
        """num / prod form^mult, reduced."""
        parts = {e: _scalar(c) for e, c in num.terms.items()}
        content = lcm(*(d for _, _, d in parts.values()))
        terms = {_key(e): (re * (content // d), im * (content // d)) for e, (re, im, d) in parts.items()}
        den = dict(_merge_dens(den))
        terms = _cancel(terms, den, den if terms else ())
        return MeroValue(num.nvars, terms, content, _merge_dens(den.items()), token_pow)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "MeroValue") -> "MeroValue":
        if not isinstance(other, MeroValue):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.token_pow != other.token_pow:
            raise TokenPowerError(
                f"cannot add token powers {self.token_pow} and {other.token_pow}"
            )
        da, db = dict(self.den), dict(other.den)
        union = dict(da)
        for f, m in db.items():
            union[f] = max(union.get(f, 0), m)
        ca, cb = self._content, other._content
        g = gcd(ca, cb)
        ka = [(f, m - da.get(f, 0)) for f, m in union.items() if m != da.get(f)]
        kb = [(f, m - db.get(f, 0)) for f, m in union.items() if m != db.get(f)]
        terms = _sum_times_forms([(self._terms, cb // g, ka), (other._terms, ca // g, kb)])
        terms, content = _canon(terms, ca // g * cb)
        if not terms:
            return MeroValue.zero(self.nvars)
        pa, pb = (self._terms, {}, cb // g, ka), (other._terms, {}, ca // g, kb)
        same = [f for f, m in da.items() if db.get(f) == m and _vanishes(f, pa, pb)]
        terms = _cancel(terms, union, same)
        return MeroValue(self.nvars, terms, content, _merge_dens(union.items()), self.token_pow)

    def __neg__(self) -> "MeroValue":
        terms = {e: (-re, -im) for e, (re, im) in self._terms.items()}
        return MeroValue(self.nvars, terms, self._content, self.den, self.token_pow)

    def __sub__(self, other: "MeroValue") -> "MeroValue":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MeroValue):
            if self.is_zero() or other.is_zero():
                return MeroValue.zero(self.nvars)
            da, db = dict(self.den), dict(other.den)
            den = dict(da)
            for f, m in db.items():
                den[f] = den.get(f, 0) + m
            na = _cancel(self._terms, den, [f for f in db if f not in da])
            nb = _cancel(other._terms, den, [f for f in da if f not in db])
            terms, content = _canon(_mul(na, nb), self._content * other._content)
            return MeroValue(self.nvars, terms, content, _merge_dens(den.items()), self.token_pow + other.token_pow)
        if isinstance(other, (int, Fraction, QI)):
            re, im, d = _scalar(other)
            if not (re or im):
                return MeroValue.zero(self.nvars)
            terms, content = _canon(_scale(self._terms, re, im), self._content * d)
            return MeroValue(self.nvars, terms, content, self.den, self.token_pow)
        return NotImplemented

    __rmul__ = __mul__

    def mul_token(self, k: int) -> "MeroValue":
        if self.is_zero():
            return self
        return MeroValue(self.nvars, self._terms, self._content, self.den, self.token_pow + k)

    def reduced(self) -> "MeroValue":
        """The value itself, reduced when built; kept because bench/workloads.py
        calls it and bench/spans.py patches it."""
        return self

    def hyperplane_forms(self) -> frozenset:
        """Normalized homogeneous denominator forms (pole hyperplanes through 0)."""
        return frozenset(AffineForm.normalize(f.coeffs) for f, _ in self.den if f.is_homogeneous())

    def eval_rational(self, point: Sequence[Fraction]) -> TokenScalar:
        point = tuple(Fraction(v) for v in point)
        blocking = [f for f, _ in self.den if f.eval(point) == 0]
        if blocking:
            raise PoleAtPointError(blocking)
        # x_j = a_j / b_j: sum the numerator times prod b_j^top_j in integers
        terms = list(_decoded(self._terms.items(), self.nvars))
        tops = [max((e[j] for e, _ in terms), default=0) for j in range(self.nvars)]
        pows = [
            [x.numerator**k * x.denominator ** (top - k) for k in range(top + 1)]
            for x, top in zip(point, tops)
        ]
        sre = sim = 0
        for e, (re, im) in terms:
            m = 1
            for row, k in zip(pows, e):
                m *= row[k]
            sre += re * m
            sim += im * m
        scale = Fraction(self._content)
        for x, top in zip(point, tops):
            scale *= x.denominator**top
        for f, m in self.den:
            scale *= f.eval(point) ** m
        val = QI(sre / scale, sim / scale)
        return TokenScalar(val, self.token_pow if val else 0)

    def eval_complex(self, point: Sequence[complex]) -> complex:
        import math

        tok = 2j * math.pi
        c = self._content
        num = 0j
        for e, (re, im) in _decoded(sorted(self._terms.items()), self.nvars):
            v = complex(re / c) + 1j * complex(im / c)
            for j, k in enumerate(e):
                if k:
                    v *= point[j] ** k
            num += v
        den = 1 + 0j
        for f, m in self.den:
            den *= f.eval_complex(point) ** m
        return num / den * tok**self.token_pow

    def value_at_origin(self) -> TokenScalar:
        offending = sorted(self.hyperplane_forms(), key=lambda f: f.sort_key())
        if offending:
            raise PoleAtOriginError(offending)
        return self.eval_rational((Fraction(0),) * self.nvars)

    def residue_on(self, form: AffineForm, point: Sequence[Fraction]) -> TokenScalar:
        """Exact simple-pole coefficient: (form * value) evaluated on the hyperplane."""
        point = tuple(Fraction(x) for x in point)
        mult = dict(self.den).get(form, 0)
        if mult == 0:
            return TokenScalar(QI.zero(), 0)
        if mult > 1:
            raise HigherOrderPoleError(form, mult)
        if form.eval(point) != 0:
            raise MeroError(f"point is not on the hyperplane {form}=0")
        rest = [(f, m) for f, m in self.den if f != form]
        blocking = [f for f, _ in rest if f.eval(point) == 0]
        if blocking:
            raise PoleAtPointError(blocking)
        # still reduced: dropping one form cannot make another divide the numerator
        stripped = MeroValue(self.nvars, self._terms, self._content, tuple(rest), self.token_pow)
        return stripped.eval_rational(point)

    def __eq__(self, other):
        if not isinstance(other, MeroValue):
            return NotImplemented
        return (self.nvars, self._content, self.den, self.token_pow, self._terms) == (
            other.nvars, other._content, other.den, other.token_pow, other._terms
        )

    def __hash__(self):
        return hash((self.nvars, self._content, self.den, self.token_pow, frozenset(self._terms.items())))

    def to_obj(self) -> dict:
        """JSON-ready exact representation."""
        c = self._content
        terms = _decoded(sorted(self._terms.items()), self.nvars)
        if c == 1:
            num = [{"exps": list(e), "re": [re, 1], "im": [im, 1]} for e, (re, im) in terms]
        else:
            num = [{"exps": list(e), "re": [re // (g := gcd(re, c)), c // g], "im": [im // (h := gcd(im, c)), c // h]}
                   for e, (re, im) in terms]
        den = [
            {"coeffs": list(f.coeffs), "const": f.const, "mult": m} for f, m in self.den
        ]
        return {"num": num, "den": den, "twopii_power": self.token_pow}

    def __str__(self):
        if self.is_zero():
            return "0"
        tok = ""
        if self.token_pow == 1:
            tok = "(2*pi*i)*"
        elif self.token_pow:
            tok = f"(2*pi*i)^{self.token_pow}*"
        num = str(self.num).replace("x", "L")
        if not self.den:
            return f"{tok}({num})"
        den = "*".join(f"({f})" if m == 1 else f"({f})^{m}" for f, m in self.den)
        return f"{tok}({num}) / ({den})"
