"""Closed intervals with exact rational endpoints.

Used as enclosures for algebraic numbers: every operation returns an
interval guaranteed to contain the exact result, with no rounding anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import BssError, PoleError


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


def eval_unipoly_interval(coeffs, box: RatInterval) -> RatInterval:
    """Enclosure over a box of the polynomial whose rational coefficients
    are coeffs (ascending order), term by term."""
    acc = RatInterval.point(0)
    for k, c in enumerate(coeffs):
        acc = acc + RatInterval.point(c) * box.pow(k)
    return acc
