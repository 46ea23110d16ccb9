"""Closed intervals with exact rational endpoints, and term-by-term
enclosures of polynomials over boxes.

A RatInterval is a plain exact value with no arithmetic of its own.
power_hull is the one power rule: the tight bounds of [a, b]^k from a^k and
b^k.  An enclosure sums, term by term, each coefficient times the hull of
its power bounds, with no rounding, so it contains the exact value.

The univariate enclosure runs in integers: the box is written as
[a / d, b / d] over the lcm d of its endpoints' denominators, and the
coefficients as nums[k] / e over the lcm e of theirs.  Each term's bound is
then an integer over e * d^k, and the sums come out over the one
denominator e * d^m.  The endpoints are the same exact rationals as the
rule gives in Fractions, as multipoly.interval_eval applies it, and the
sign-only form builds no Fraction at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ..errors import BssError
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

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatInterval)
                and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"RatInterval({self.lo}, {self.hi})"


def power_hull(pa, pb, k: int, a, b):
    """(lo, hi), the tight bounds of [a, b]^k for k >= 0, from pa = a^k and
    pb = b^k; a and b are ints or Fractions alike."""
    if k % 2 == 1 or a >= 0 or k == 0:
        return pa, pb
    if b <= 0:
        return pb, pa
    # an even power of a box across 0 reaches down to 0
    return 0, max(pa, pb)


def _scaled_enclosure(nums, box: RatInterval) -> tuple[int, int, int]:
    """(lo, hi, d) with [lo / d^m, hi / d^m] the term-by-term enclosure over
    box of the polynomial with integer coefficients nums, m = len(nums) - 1.

    Term k is nums[k] times power_hull of [a, b]^k, and Horner's rule in d
    puts it over d^m."""
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
        plo, phi = power_hull(pa, pb, k, a, b)
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
