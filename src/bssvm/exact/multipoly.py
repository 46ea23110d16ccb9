"""Multivariate polynomials and rational functions with exact coefficients.

Terms map exponent tuples to coefficients (Fraction, or AlgebraicNumber when
a computation leaves Q); zero coefficients are never stored.  The monomial
order everywhere is graded lexicographic.  Rational functions are kept
canonical: numerator and denominator coprime, denominator with leading
coefficient 1, and the zero function stored as 0/1, so structural equality
decides semantic equality.

MultiPoly(...) and RationalFunction(...) validate and canonicalise their
arguments.  Arithmetic whose result is already clean skips that work:
MultiPoly._of(nvars, terms) takes a dict whose exponent tuples all have
length nvars and whose coefficients are nonzero Fractions or
AlgebraicNumbers, and keeps it without a copy, so the dict must be fresh
and never mutated afterwards.  RationalFunction._of(num, den) takes a pair
that is already canonical; the polynomial, constant and negation fast
paths build their results with it and call no gcd.

The gcd is a primitive pseudo-remainder sequence in the highest occurring
variable, recursing on contents; with a single variable it degenerates to
the monic Euclidean algorithm over the coefficient field.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from ..errors import BssError, PoleError
from .rational import format_rational
from .interval import RatInterval
from .numberfield import AlgebraicNumber


def _grlex_key(e: tuple[int, ...]) -> tuple:
    return (sum(e), e)


class MultiPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise BssError("variable count must be nonnegative")
        clean = {}
        for e, c in (terms or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != nvars or any(x < 0 for x in e):
                raise BssError(f"bad exponent tuple {e} for {nvars} variables")
            if not isinstance(c, AlgebraicNumber):
                c = Fraction(c)
            if c == 0:
                continue
            clean[e] = c
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> MultiPoly:
        """Trusted constructor: terms are clean and owned by the result."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def constant(cls, c, nvars: int) -> MultiPoly:
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, index: int, nvars: int) -> MultiPoly:
        if not 0 <= index < nvars:
            raise BssError(f"variable index {index} out of range")
        e = [0] * nvars
        e[index] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise BssError("polynomial is not constant")
        return self.terms[(0,) * self.nvars]

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, index: int) -> int:
        if self.is_zero():
            return -1
        return max(e[index] for e in self.terms)

    def variables(self) -> set[int]:
        out: set[int] = set()
        for e in self.terms:
            out.update(i for i, x in enumerate(e) if x > 0)
        return out

    def leading_term(self) -> tuple[tuple[int, ...], object]:
        if self.is_zero():
            raise BssError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: MultiPoly) -> None:
        if self.nvars != other.nvars:
            raise BssError("variable count mismatch")

    def _merge(self, other: MultiPoly, op) -> MultiPoly:
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = op(out.get(e, 0), c)
            if v == 0:
                del out[e]
            else:
                out[e] = v
        return MultiPoly._of(self.nvars, out)

    def __add__(self, other: MultiPoly) -> MultiPoly:
        return self._merge(other, operator.add)

    def __neg__(self) -> MultiPoly:
        return MultiPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        return self._merge(other, operator.sub)

    def __mul__(self, other: MultiPoly) -> MultiPoly:
        self._check(other)
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                # a product of nonzero coefficients can vanish in a field
                # whose polynomial is reducible
                v = out.get(e, 0) + ca * cb
                if v == 0:
                    out.pop(e, None)
                else:
                    out[e] = v
        return MultiPoly._of(self.nvars, out)

    def scale(self, c) -> MultiPoly:
        if not isinstance(c, AlgebraicNumber):
            c = Fraction(c)
        if c == 0:
            return MultiPoly._of(self.nvars, {})
        out = {}
        for e, v in self.terms.items():
            v = v * c
            if v != 0:
                out[e] = v
        return MultiPoly._of(self.nvars, out)

    def __pow__(self, n: int) -> MultiPoly:
        if n < 0:
            raise BssError("negative polynomial power")
        acc = MultiPoly.constant(1, self.nvars)
        for _ in range(n):
            acc = acc * self
        return acc

    def eval(self, values):
        """Evaluate at a point; entries may be Fraction or AlgebraicNumber."""
        if len(values) != self.nvars:
            raise BssError("wrong number of values")
        acc = None
        for e, c in self.terms.items():
            t = c
            for v, k in zip(values, e):
                if k:
                    t = t * v ** k
            acc = t if acc is None else acc + t
        return Fraction(0) if acc is None else acc

    # -- text -------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        out = ""
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"Y{i + 1}")
                elif k > 1:
                    factors.append(f"Y{i + 1}^{k}")
            negative = isinstance(c, Fraction) and c < 0
            mag = -c if negative else c
            cstr = format_rational(mag) if isinstance(mag, Fraction) else str(mag)
            if factors and cstr == "1":
                body = "*".join(factors)
            else:
                body = "*".join([cstr] + factors)
            if not out:
                out = ("-" if negative else "") + body
            else:
                out += (" - " if negative else " + ") + body
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({str(self)!r})"


def _one(nvars: int) -> MultiPoly:
    return MultiPoly._of(nvars, {(0,) * nvars: Fraction(1)})


# -- gcd machinery -------------------------------------------------------

def _monic(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return p
    _, lc = p.leading_term()
    if isinstance(lc, Fraction) and lc == 1:
        return p
    inv = lc.inverse() if isinstance(lc, AlgebraicNumber) else 1 / lc
    return p.scale(inv)


def _exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Quotient a/b when b divides a; raises otherwise."""
    if b.is_zero():
        raise PoleError("polynomial division by zero")
    eb, cb = b.leading_term()
    inv = cb.inverse() if isinstance(cb, AlgebraicNumber) else 1 / cb
    rem = dict(a.terms)
    out: dict = {}
    while rem:
        ea = max(rem, key=_grlex_key)
        diff = tuple(x - y for x, y in zip(ea, eb))
        if any(d < 0 for d in diff):
            raise BssError("inexact polynomial division")
        q = rem[ea] * inv
        out[diff] = q
        for e, c in b.terms.items():
            tgt = tuple(x + y for x, y in zip(diff, e))
            v = rem.get(tgt, 0) - q * c
            if v == 0:
                rem.pop(tgt, None)
            else:
                rem[tgt] = v
    return MultiPoly._of(a.nvars, out)


def _split(p: MultiPoly, v: int) -> list[MultiPoly]:
    """Coefficient list of p in variable v, ascending; entries drop v."""
    d = max(0, p.degree_in(v))
    out = [dict() for _ in range(d + 1)]
    for e, c in p.terms.items():
        rest = list(e)
        k = rest[v]
        rest[v] = 0
        out[k][tuple(rest)] = c
    return [MultiPoly._of(p.nvars, t) for t in out]


def _join(coeffs: list[MultiPoly], v: int, nvars: int) -> MultiPoly:
    out: dict = {}
    for k, q in enumerate(coeffs):
        for e, c in q.terms.items():
            t = list(e)
            t[v] += k
            out[tuple(t)] = c
    return MultiPoly._of(nvars, out)


def _content(p: MultiPoly, v: int) -> MultiPoly:
    g = MultiPoly._of(p.nvars, {})
    for q in _split(p, v):
        g = mp_gcd(g, q)
    return g


def _primitive(p: MultiPoly, v: int) -> MultiPoly:
    if p.is_zero():
        return p
    return _exact_div(p, _content(p, v))


def _shift(p: MultiPoly, v: int, k: int) -> MultiPoly:
    out = {}
    for e, c in p.terms.items():
        t = list(e)
        t[v] += k
        out[tuple(t)] = c
    return MultiPoly._of(p.nvars, out)


def _pseudo_rem(a: MultiPoly, b: MultiPoly, v: int) -> MultiPoly:
    db = b.degree_in(v)
    lb = _split(b, v)[db]
    r = a
    while not r.is_zero() and r.degree_in(v) >= db:
        dr = r.degree_in(v)
        lr = _split(r, v)[dr]
        r = r * lb - _shift(lr, v, dr - db) * b
    return r


def mp_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Gcd with graded-lex leading coefficient 1 (zero for gcd(0,0))."""
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    if a.is_constant() or b.is_constant():
        return _one(a.nvars)
    vs = a.variables() | b.variables()
    v = max(vs)
    ca, cb = _content(a, v), _content(b, v)
    pa, pb = _exact_div(a, ca), _exact_div(b, cb)
    if pa.degree_in(v) < pb.degree_in(v):
        pa, pb = pb, pa
    while not pb.is_zero() and pb.degree_in(v) > 0:
        r = _pseudo_rem(pa, pb, v)
        pa, pb = pb, _primitive(r, v)
    pp = _one(a.nvars) if not pb.is_zero() else pa
    return _monic(mp_gcd(ca, cb) * pp)


# -- interval evaluation ----------------------------------------------------

DEFAULT_COEFF_WIDTH = Fraction(1, 2 ** 32)


def interval_eval(p: MultiPoly, boxes, coeff_width: Fraction = DEFAULT_COEFF_WIDTH) -> RatInterval:
    """Enclosure of p over a box per variable, term by term.

    Algebraic coefficients are first narrowed to rational enclosures of
    width at most coeff_width.
    """
    if len(boxes) != p.nvars:
        raise BssError("wrong number of interval arguments")
    acc = RatInterval.point(0)
    for e, c in p.terms.items():
        if isinstance(c, AlgebraicNumber):
            ci = c.enclosure(max_width=coeff_width)
        else:
            ci = RatInterval.point(c)
        for box, k in zip(boxes, e):
            if k:
                ci = ci * box.pow(k)
        acc = acc + ci
    return acc


# -- rational functions -------------------------------------------------

def _is_one(p: MultiPoly) -> bool:
    """Is p the constant whose coefficient is the Fraction 1?"""
    if len(p.terms) != 1:
        return False
    (e, c), = p.terms.items()
    return type(c) is Fraction and c == 1 and not any(e)


class RationalFunction:
    """Quotient of MultiPolys in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = _one(num.nvars)
        if num.nvars != den.nvars:
            raise BssError("variable count mismatch")
        if den.is_zero():
            raise PoleError("zero denominator")
        if num.is_zero():
            den = _one(num.nvars)
        else:
            g = mp_gcd(num, den)
            if not (g.is_constant() and g.constant_value() == 1):
                num = _exact_div(num, g)
                den = _exact_div(den, g)
            _, lc = den.leading_term()
            if not (isinstance(lc, Fraction) and lc == 1):
                inv = lc.inverse() if isinstance(lc, AlgebraicNumber) else 1 / lc
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def _of(cls, num: MultiPoly, den: MultiPoly) -> RationalFunction:
        """Trusted constructor: num/den is already canonical."""
        rf = object.__new__(cls)
        rf.num = num
        rf.den = den
        return rf

    @classmethod
    def constant(cls, c, nvars: int) -> RationalFunction:
        if type(c) is Fraction:
            return cls._of(MultiPoly._of(nvars, {(0,) * nvars: c} if c else {}), _one(nvars))
        return cls(MultiPoly.constant(c, nvars))

    @classmethod
    def var(cls, index: int, nvars: int) -> RationalFunction:
        return cls(MultiPoly.var(index, nvars))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        if not self.is_constant():
            raise BssError("rational function is not constant")
        return self.num.constant_value()

    # Over two denominators that are the Fraction 1, a sum, difference or
    # product is already canonical: no gcd, no rescaling.

    def __add__(self, other: RationalFunction) -> RationalFunction:
        if _is_one(self.den) and _is_one(other.den):
            return RationalFunction._of(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __neg__(self) -> RationalFunction:
        return RationalFunction._of(-self.num, self.den)

    def __sub__(self, other: RationalFunction) -> RationalFunction:
        if _is_one(self.den) and _is_one(other.den):
            return RationalFunction._of(self.num - other.num, self.den)
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        if _is_one(self.den) and _is_one(other.den):
            return RationalFunction._of(self.num * other.num, self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: RationalFunction) -> RationalFunction:
        if other.is_zero():
            raise PoleError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"


def rf_eval(rf: RationalFunction, values):
    """Exact evaluation; raises PoleError on a vanishing denominator."""
    den = rf.den.eval(values)
    if (den.is_zero() if isinstance(den, AlgebraicNumber) else den == 0):
        raise PoleError("evaluation hits a pole")
    num = rf.num.eval(values)
    return num / den
