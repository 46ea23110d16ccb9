"""Middle-thirds arithmetic: ternary expansions, the two-member
decomposition x = c1 + c2/2, and the reference predicate for the
even-leading-zeros set."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import BssError


@dataclass(frozen=True)
class CantorPair:
    c1: Fraction
    c2: Fraction
    digits_used: int


def ternary_expansion(x: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Digits of x in [0, 1] base 3 as (preperiod, cycle); cycle is empty
    for terminating expansions.  1 comes out as 0.(2).

    Every state of the walk is k/den for an integer k in [0, den], den the
    denominator of x, so a state repeats, and the walk closes, within
    den + 1 digits."""
    x = Fraction(x)
    if x < 0 or x > 1:
        raise BssError(f"ternary expansion needs x in [0, 1], got {x}")
    digits: list[int] = []
    seen: dict[Fraction, int] = {}
    state = x
    while True:
        if state == 0:
            return tuple(digits), ()
        if state in seen:
            k = seen[state]
            return tuple(digits[:k]), tuple(digits[k:])
        seen[state] = len(digits)
        d = int(3 * state)
        if d == 3:  # state exactly 1
            d = 2
        digits.append(d)
        state = 3 * state - d


def ternary_string(x: Fraction) -> str:
    pre, cyc = ternary_expansion(x)
    body = "".join(str(d) for d in pre)
    if cyc:
        body += "(" + "".join(str(d) for d in cyc) + ")"
    return "0." + (body or "0")


def _digits_value(pre, cyc) -> Fraction:
    # exact value of 0.pre(cyc) in base 3
    value = Fraction(0)
    scale = Fraction(1)
    for d in pre:
        scale /= 3
        value += d * scale
    if cyc:
        block = Fraction(0)
        bscale = Fraction(1)
        for d in cyc:
            bscale /= 3
            block += d * bscale
        period = Fraction(3) ** -len(cyc)
        value += scale * block / (1 - period)
    return value


_DIGIT_SPLIT = {0: (0, 0), 1: (0, 2), 2: (2, 0)}


def cantor_decompose(x: Fraction) -> CantorPair:
    """Split x in [0, 1] as c1 + c2/2 with both parts in the middle-thirds
    set.  Each ternary digit d splits in place: 0 -> (0, 0), 2 -> (2, 0),
    and 1 -> (0, 2), the halving turning the 2 back into a 1."""
    pre, cyc = ternary_expansion(x)
    pre1 = [_DIGIT_SPLIT[d][0] for d in pre]
    pre2 = [_DIGIT_SPLIT[d][1] for d in pre]
    cyc1 = [_DIGIT_SPLIT[d][0] for d in cyc]
    cyc2 = [_DIGIT_SPLIT[d][1] for d in cyc]
    c1 = _digits_value(pre1, cyc1)
    c2 = _digits_value(pre2, cyc2)
    pair = CantorPair(c1, c2, len(pre) + len(cyc))
    if c1 + c2 / 2 != Fraction(x):
        raise BssError(f"decomposition of {x} failed exactness; engine bug")
    return pair


def even_zeros_truth(x: Fraction) -> int:
    """1 iff x lies in (0, 1] and in some band [4^-k / 2, 4^-k]."""
    x = Fraction(x)
    if x <= 0 or x > 1:
        return 0
    band_hi = Fraction(1)
    while True:
        if x > band_hi:
            return 0
        if x >= band_hi / 2:
            return 1
        band_hi /= 4
