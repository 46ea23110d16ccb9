"""Root placement helpers for the algebraic-dependence witness.

max_var_degree / choose_prime_m / place_root are the host-side steps that
pick the extension degree and drop an m-th root next to a target point,
with exact sign checks on the result.  The dependence searcher itself is
the library program "dependence".
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import BssError
from ..exact import AlgebraicNumber, RationalFunction, nth_root_field, sign_at
from ..exact.numberfield import _is_prime, _rational_nth_root

PLACE_ROOT_MAX_STEPS = 20_000


def max_var_degree(functions, var_index: int) -> int:
    """Largest exponent of variable Y<var_index> across numerators and
    denominators; 0 when the collection is empty.  var_index is 1-based,
    matching the display names."""
    if var_index < 1:
        raise BssError("variable numbers start at 1")
    best = 0
    for f in functions:
        if not isinstance(f, RationalFunction):
            raise BssError("max_var_degree expects rational functions")
        best = max(best, f.num.degree_in(var_index - 1), f.den.degree_in(var_index - 1))
    return best


def choose_prime_m(n: int) -> int:
    if n < 0:
        raise BssError("degree bound must be nonnegative")
    m = n + 1
    while not _is_prime(m):
        m += 1
    return m


def place_root(x1, m: int, center, eps) -> tuple[Fraction, AlgebraicNumber]:
    """Pick b so that b + x1^(1/m) lands within eps of center.

    Bisects a bracket around the root until its width drops below eps/2,
    snaps center minus the midpoint to the nearest multiple of eps/2,
    and verifies the placement with exact sign tests before returning.
    """
    x1 = Fraction(x1)
    center = Fraction(center)
    eps = Fraction(eps)
    if x1 <= 0:
        raise BssError("root placement needs a positive radicand")
    if eps <= 0:
        raise BssError("root placement needs a positive tolerance")
    if m < 2:
        raise BssError("root index must be at least 2")
    if _rational_nth_root(x1, m) is not None:
        raise BssError(f"{x1} is a perfect {m}-th power; no proper root to place")

    lo, hi = (Fraction(1), x1) if x1 > 1 else (x1, Fraction(1))
    steps = 0
    while hi - lo >= eps / 2:
        steps += 1
        if steps > PLACE_ROOT_MAX_STEPS:
            raise BssError("root enclosure did not reach the requested width")
        mid = (lo + hi) / 2
        if mid ** m <= x1:
            lo = mid
        else:
            hi = mid

    grid = eps / 2
    raw = (center - (lo + hi) / 2) / grid
    # round half up, exactly
    b = ((raw.numerator * 2 + raw.denominator) // (raw.denominator * 2)) * grid

    _, root = nth_root_field(x1, m)
    x2 = b + root
    if sign_at(x2 - (center - eps)) != 1 or sign_at((center + eps) - x2) != 1:
        raise BssError("root placement failed its exact tolerance check")
    return b, x2
