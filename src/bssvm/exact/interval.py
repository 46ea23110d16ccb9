"""Closed intervals with exact rational endpoints.

Used as enclosures for algebraic numbers: every operation returns an
interval guaranteed to contain the exact result, with no rounding anywhere.

A univariate polynomial is enclosed over a box term by term, and that
enclosure runs in integers: the box is written as [a / d, b / d] over the
lcm d of its endpoints' denominators, and the coefficients as nums[k] / e
over the lcm e of theirs.  Each term's bound is then an integer over
e * d^k, and the sums come out over the one denominator e * d^m.  The
endpoints are the same exact rationals as the RatInterval arithmetic below
gives term by term, and the sign-only form builds no Fraction at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ..errors import BssError, PoleError
from .unipoly import integer_coeffs


class RatInterval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise BssError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, x) -> RatInterval:
        x = Fraction(x)
        return cls(x, x)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def sign(self) -> int | None:
        """Definite sign of every point, or None when the interval straddles 0."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None

    def __add__(self, other: RatInterval) -> RatInterval:
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> RatInterval:
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other: RatInterval) -> RatInterval:
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: RatInterval) -> RatInterval:
        prods = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return RatInterval(min(prods), max(prods))

    def inverse(self) -> RatInterval:
        if self.contains_zero():
            raise PoleError("interval inverse across zero")
        return RatInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other: RatInterval) -> RatInterval:
        return self * other.inverse()

    def pow(self, n: int) -> RatInterval:
        """n-th power enclosure, tight for all signs (n >= 0)."""
        if n < 0:
            return self.inverse().pow(-n)
        if n == 0:
            return RatInterval.point(1)
        if n % 2 == 1 or self.lo >= 0:
            return RatInterval(self.lo ** n, self.hi ** n)
        if self.hi <= 0:
            return RatInterval(self.hi ** n, self.lo ** n)
        # Even power of an interval straddling zero.
        return RatInterval(0, max(self.lo ** n, self.hi ** n))

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatInterval)
                and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"RatInterval({self.lo}, {self.hi})"


def _scaled_enclosure(nums, box: RatInterval) -> tuple[int, int, int]:
    """(lo, hi, d) with [lo / d^m, hi / d^m] the term-by-term enclosure over
    box of the polynomial with integer coefficients nums, m = len(nums) - 1.

    Term k is nums[k] times the tight bounds of [a, b]^k, the power rule of
    RatInterval.pow, and Horner's rule in d puts it over d^m."""
    blo, bhi = box.lo, box.hi
    d = lcm(blo.denominator, bhi.denominator)
    a = blo.numerator * (d // blo.denominator)
    b = bhi.numerator * (d // bhi.denominator)
    lo = hi = 0
    pa = pb = 1             # a^k and b^k
    for k, c in enumerate(nums):
        lo *= d
        hi *= d
        if k:
            pa *= a
            pb *= b
        if not c:
            continue
        if k == 0:
            plo = phi = 1
        elif k % 2 == 1 or a >= 0:
            plo, phi = pa, pb
        elif b <= 0:
            plo, phi = pb, pa
        else:
            plo, phi = 0, max(pa, pb)
        if c > 0:
            lo += c * plo
            hi += c * phi
        else:
            lo += c * phi
            hi += c * plo
    return lo, hi, d


def eval_unipoly_interval(coeffs, box: RatInterval) -> RatInterval:
    """Enclosure over a box of the polynomial whose rational coefficients
    are coeffs (ascending order), term by term."""
    if not coeffs:
        return RatInterval.point(0)
    e, nums = integer_coeffs(coeffs)
    lo, hi, d = _scaled_enclosure(nums, box)
    den = e * d ** (len(nums) - 1)
    return RatInterval(Fraction(lo, den), Fraction(hi, den))


def sign_unipoly_interval(coeffs, box: RatInterval) -> int | None:
    """eval_unipoly_interval(coeffs, box).sign(), with no Fraction built."""
    lo, hi, _ = _scaled_enclosure(integer_coeffs(coeffs)[1], box)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    if lo == hi == 0:
        return 0
    return None
