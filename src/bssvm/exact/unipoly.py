"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored lowest degree first with no trailing zeros; the zero
polynomial has an empty coefficient tuple.  The textual form is sparse and
highest degree first, e.g. ``X^2 - 2``; :func:`UniPoly.parse` reads that form
back (and also tolerates dense ascending text such as ``-2 + 0*X + 1*X^2``).

Evaluation at a rational point runs in integers: with the coefficients
written as nums[i] / e over the lcm e of their denominators and the point
as x / d, :func:`horner` computes e * d^m * p(x / d) exactly, so the value
and its sign need no Fraction until the one result is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from ..errors import BssError, PoleError
from .rational import parse_rational, format_rational


def integer_coeffs(coeffs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(e, nums) with coeffs[i] == nums[i] / e, where e > 0 is the lcm of the
    coefficients' denominators."""
    e = lcm(*[c.denominator for c in coeffs])
    return e, [c.numerator * (e // c.denominator) for c in coeffs]


def horner(nums: Sequence[int], x: int, d: int) -> int:
    """sum nums[i] * x^i * d^(m - i) for m = len(nums) - 1, by Horner's rule:
    d^m times the polynomial with coefficients nums at x / d, in integers."""
    acc, dk = 0, 1
    for c in reversed(nums):
        acc = acc * x + c * dk
        dk *= d
    return acc


def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int | str] = ()):
        self.coeffs: tuple[Fraction, ...] = _trim([Fraction(c) for c in coeffs])

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> UniPoly:
        return cls(())

    @classmethod
    def constant(cls, c) -> UniPoly:
        return cls((Fraction(c),))

    @classmethod
    def x(cls) -> UniPoly:
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> UniPoly:
        return cls([0] * degree + [Fraction(coeff)])

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coeff(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: UniPoly) -> UniPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> UniPoly:
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: UniPoly) -> UniPoly:
        return self + (-other)

    def __mul__(self, other: UniPoly) -> UniPoly:
        if not self.coeffs or not other.coeffs:
            return UniPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def scale(self, c) -> UniPoly:
        c = Fraction(c)
        if c == 0:
            return UniPoly(())
        return UniPoly([a * c for a in self.coeffs])

    def monic(self) -> UniPoly:
        if self.is_zero():
            return self
        lc = self.coeffs[-1]
        return self if lc == 1 else self.scale(1 / lc)

    def divmod(self, other: UniPoly) -> tuple[UniPoly, UniPoly]:
        """Exact polynomial division with remainder.

        Examples
        ========

        Dividing X^2 - 2 by X - 1 gives quotient X + 1 and remainder -1.
        """
        if other.is_zero():
            raise PoleError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.coeffs
        dq = len(dv) - 1
        lc = dv[-1]
        if len(rem) - 1 < dq:
            return UniPoly(()), UniPoly(rem)
        quot = [Fraction(0)] * (len(rem) - dq)
        for k in range(len(rem) - 1, dq - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            q = c / lc
            quot[k - dq] = q
            for i in range(dq + 1):
                rem[k - dq + i] -= q * dv[i]
        return UniPoly(quot), UniPoly(rem)

    def __mod__(self, other: UniPoly) -> UniPoly:
        return self.divmod(other)[1]

    def __floordiv__(self, other: UniPoly) -> UniPoly:
        return self.divmod(other)[0]

    def derivative(self) -> UniPoly:
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other: UniPoly) -> UniPoly:
        """Monic greatest common divisor by the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def eval(self, x):
        """Horner evaluation; works for any argument supporting + and *."""
        if not self.coeffs:
            return x * 0
        acc = None
        for c in reversed(self.coeffs):
            if acc is None:
                acc = x * 0 + c
            else:
                acc = acc * x + c
        return acc

    def eval_fraction(self, x: Fraction) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        e, nums = integer_coeffs(self.coeffs)
        d = x.denominator
        return Fraction(horner(nums, x.numerator, d), e * d ** (len(nums) - 1))

    def sign_fraction(self, x: Fraction) -> int:
        """Sign of p(x), from the integer Horner value alone."""
        v = horner(integer_coeffs(self.coeffs)[1], x.numerator, x.denominator)
        return (v > 0) - (v < 0)

    # -- text form -------------------------------------------------------

    def __str__(self) -> str:
        # Fixed serialization form: dense, ascending, every coefficient shown.
        if not self.coeffs:
            return "0"
        parts: list[str] = [format_rational(self.coeffs[0])]
        for i, c in enumerate(self.coeffs[1:], start=1):
            power = "X" if i == 1 else f"X^{i}"
            body = f"{format_rational(abs(c))}*{power}"
            parts.append(f"{'-' if c < 0 else '+'} {body}")
        return " ".join(parts)

    def pretty(self) -> str:
        """Sparse highest-degree-first rendering for human-facing output."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = format_rational(mag)
            else:
                power = "X" if i == 1 else f"X^{i}"
                body = power if mag == 1 else f"{format_rational(mag)}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> UniPoly:
        """Parse the form produced by str(); sparse or dense, any term order."""
        s = text.strip()
        if not s:
            raise BssError("empty polynomial text")
        s = s.replace(" - ", " + -").replace(" + ", "+")
        coeffs: dict[int, Fraction] = {}
        for part in s.split("+"):
            part = part.strip()
            if not part:
                raise BssError(f"malformed polynomial text {text!r}")
            neg = part.startswith("-")
            if neg:
                part = part[1:].strip()
            if "*" in part:
                cstr, xstr = part.split("*", 1)
            elif part.startswith("X"):
                cstr, xstr = "1", part
            else:
                cstr, xstr = part, ""
            xstr = xstr.strip()
            if xstr == "":
                k = 0
            elif xstr == "X":
                k = 1
            elif xstr.startswith("X^"):
                try:
                    k = int(xstr[2:])
                except ValueError:
                    raise BssError(f"malformed polynomial term {part!r}") from None
                if k < 0:
                    raise BssError(f"malformed polynomial term {part!r}")
            else:
                raise BssError(f"malformed polynomial term {part!r}")
            c = parse_rational(cstr)
            coeffs[k] = coeffs.get(k, Fraction(0)) + (-c if neg else c)
        out = [Fraction(0)] * (max(coeffs) + 1)
        for k, c in coeffs.items():
            out[k] = c
        return cls(out)


def poly_ext_gcd(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = UniPoly.constant(1), UniPoly.zero()
    t0, t1 = UniPoly.zero(), UniPoly.constant(1)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lc = r0.leading_coeff()
    inv = 1 / lc
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def unipoly_from_roots(roots: Sequence[Fraction]) -> UniPoly:
    p = UniPoly.constant(1)
    for r in roots:
        p = p * UniPoly((-Fraction(r), Fraction(1)))
    return p
