"""Rational scalars.

Exact rationals are `fractions.Fraction` throughout the package; Fraction
already guarantees the reduced form with a positive denominator.  This module
only adds the textual wire format ("p/q", or "p" for integers).
"""

import re
import sys
from fractions import Fraction

from ..errors import BssError


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction.

    Raises BssError on malformed input (including a zero denominator).
    """
    s = text.strip()
    try:
        q = Fraction(s)
    except ZeroDivisionError as exc:
        raise BssError(f"malformed rational {text!r}") from exc
    except ValueError as exc:
        # Fraction(str) also refuses integers past
        # sys.get_int_max_str_digits(), which format_rational prints.
        m = _PLAIN.fullmatch(s)
        if m is None:
            raise BssError(f"malformed rational {text!r}") from exc
        sign, num, den = m.groups()
        max_digits = sys.get_int_max_str_digits()
        n = _integer(num, max_digits)
        d = _integer(den, max_digits) if den else 1
        if d == 0:
            raise BssError(f"malformed rational {text!r}") from exc
        return Fraction(-n if sign == "-" else n, d)
    if "." in s or "e" in s.lower():
        # Fraction accepts decimal strings; the wire format does not.
        raise BssError(f"malformed rational {text!r}")
    return q


_PLAIN = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


def _integer(digits: str, max_digits: int) -> int:
    """int(digits) for a string of ASCII digits, by splitting it at a power
    of ten until every piece has at most max_digits digits (max_digits > 0:
    this runs only after the limit refused a well-formed string)."""
    if len(digits) <= max_digits:
        return int(digits)
    k = len(digits) // 2
    return _integer(digits[:-k], max_digits) * 10 ** k + _integer(digits[-k:], max_digits)


def format_rational(q: Fraction) -> str:
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        # str() refuses integers past sys.get_int_max_str_digits() (at
        # least 640); a piece of 3 * limit bits has at most 0.91 * limit + 1
        # decimal digits, which str() accepts.
        max_bits = 3 * sys.get_int_max_str_digits()
        num = _decimal(abs(q.numerator), 0, max_bits)
        text = "-" + num if q.numerator < 0 else num
        if q.denominator == 1:
            return text
        return f"{text}/{_decimal(q.denominator, 0, max_bits)}"


def _decimal(n: int, width: int, max_bits: int) -> str:
    """Decimal digits of n >= 0, zero-padded to width, by splitting n at a
    power of ten until every piece has at most max_bits bits."""
    if n.bit_length() <= max_bits:
        return str(n).zfill(width)
    k = n.bit_length() * 3 // 20        # about half of n's decimal digits
    high, low = divmod(n, 10 ** k)
    return _decimal(high, width - k, max_bits) + _decimal(low, k, max_bits)
