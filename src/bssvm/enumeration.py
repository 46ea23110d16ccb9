"""Reference enumerations of Q, Q[X], and Q[Y1,Y2].

These fix the orders that the tape programs (q_enumerator, qx_enumerator,
algebraic_semidecider, dependence) must reproduce, and they are what the
tests cross-check those programs against.

Order of Q: 0 first; then by height |p| + q ascending (p/q reduced, q > 0);
within a height, increasing p; each positive entry immediately followed by
its negation.  So: 0, 1, -1, 1/2, -1/2, 2, -2, 1/3, -1/3, 3, -3, ...

Order of Q[X]: frames N = 1, 2, ...; inside frame N, degree d = 0..N-1;
inside the (N, d) block, weak compositions (j_0..j_d) of N-d-1 in ascending
lexicographic order.  The polynomial for (N, d, j) has coefficient
rational_at(j_k + [k == d]) on X^k; the bump on the leading index keeps the
leading coefficient nonzero, so every polynomial of degree d appears exactly
once across frames.

Order of Q[Y1,Y2]: frames N = 1, 2, ...; inside frame N, total-degree cap
D = 0..N-1 with weight s = N-D >= 1; inside the (N, D) block, ALL weak
compositions of s over the graded monomial list of degree <= D (degree
blocks ascending, first-variable exponent descending inside a block).
Coefficient on monomial t is rational_at(j_t); s >= 1 forces some nonzero
coefficient.  This order is onto but not 1-1 (duplicates across frames),
which is all the halting arguments need.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Iterator, Sequence

from .exact import AlgebraicNumber, MultiPoly, UniPoly, sign_at

__all__ = [
    "rational_at",
    "rationals",
    "composition_count",
    "unrank_composition",
    "unipoly_at",
    "unipolys",
    "monomials_upto",
    "bipoly_at",
    "bipolys",
    "first_unipoly_vanishing",
    "first_bipoly_vanishing",
]


def _positive_rational_at(u: int) -> Fraction:
    # u-th reduced positive rational (0-based): heights ascending, p ascending.
    h = 2
    while True:
        block = [Fraction(p, h - p) for p in range(1, h) if gcd(p, h - p) == 1]
        if u < len(block):
            return block[u]
        u -= len(block)
        h += 1


def rational_at(n: int) -> Fraction:
    if n < 0:
        raise ValueError("enumeration index must be nonnegative")
    if n == 0:
        return Fraction(0)
    u, r = divmod(n - 1, 2)
    v = _positive_rational_at(u)
    return -v if r else v


def rationals() -> Iterator[Fraction]:
    n = 0
    while True:
        yield rational_at(n)
        n += 1


def composition_count(total: int, parts: int) -> int:
    """Number of weak compositions of `total` into `parts` ordered parts."""
    if total < 0 or parts < 1:
        raise ValueError("need total >= 0 and parts >= 1")
    return comb(total + parts - 1, parts - 1)


def unrank_composition(total: int, parts: int, rank: int) -> tuple[int, ...]:
    """rank-th (0-based) weak composition of `total` into `parts`, lex ascending."""
    if not 0 <= rank < composition_count(total, parts):
        raise ValueError("composition rank out of range")
    out = []
    for remaining_parts in range(parts, 1, -1):
        v = 0
        while True:
            below = composition_count(total - v, remaining_parts - 1)
            if rank < below:
                break
            rank -= below
            v += 1
        out.append(v)
        total -= v
    out.append(total)
    return tuple(out)


def _unipoly_locate(n: int) -> tuple[int, int, tuple[int, ...]]:
    # Returns (frame, degree, composition) for global index n.
    if n < 0:
        raise ValueError("enumeration index must be nonnegative")
    frame = 1
    while n >= 2 ** (frame - 1):  # frame N holds sum_d C(N-1, d) = 2^(N-1) entries
        n -= 2 ** (frame - 1)
        frame += 1
    degree = 0
    while n >= comb(frame - 1, degree):
        n -= comb(frame - 1, degree)
        degree += 1
    return frame, degree, unrank_composition(frame - degree - 1, degree + 1, n)


def unipoly_at(n: int) -> UniPoly:
    frame, degree, j = _unipoly_locate(n)
    coeffs = [rational_at(j[k] + (1 if k == degree else 0)) for k in range(degree + 1)]
    return UniPoly(coeffs)


def unipolys() -> Iterator[UniPoly]:
    n = 0
    while True:
        yield unipoly_at(n)
        n += 1


def monomials_upto(cap: int) -> list[tuple[int, int]]:
    """Graded (e1, e2) list: degree blocks ascending, e1 descending inside."""
    out = []
    for b in range(cap + 1):
        for e1 in range(b, -1, -1):
            out.append((e1, b - e1))
    return out


def _bipoly_block_size(frame: int, cap: int) -> int:
    weight = frame - cap
    nmono = (cap + 1) * (cap + 2) // 2
    return composition_count(weight, nmono)


def _bipoly_locate(n: int) -> tuple[int, int, tuple[int, ...]]:
    if n < 0:
        raise ValueError("enumeration index must be nonnegative")
    frame = 1
    while True:
        size = sum(_bipoly_block_size(frame, cap) for cap in range(frame))
        if n < size:
            break
        n -= size
        frame += 1
    cap = 0
    while n >= _bipoly_block_size(frame, cap):
        n -= _bipoly_block_size(frame, cap)
        cap += 1
    nmono = (cap + 1) * (cap + 2) // 2
    return frame, cap, unrank_composition(frame - cap, nmono, n)


def bipoly_at(n: int) -> MultiPoly:
    frame, cap, j = _bipoly_locate(n)
    terms = {}
    for t, (e1, e2) in enumerate(monomials_upto(cap)):
        c = rational_at(j[t])
        if c:
            terms[(e1, e2)] = c
    return MultiPoly(2, terms)


def bipolys() -> Iterator[MultiPoly]:
    n = 0
    while True:
        yield bipoly_at(n)
        n += 1


def first_unipoly_vanishing(x, limit: int = 10**6) -> tuple[int, UniPoly]:
    """Smallest index n with unipoly_at(n)(x) == 0.  Exact arithmetic only."""
    for n in range(limit):
        p = unipoly_at(n)
        if sign_at(p.eval(x) if isinstance(x, AlgebraicNumber) else p.eval_fraction(Fraction(x))) == 0:
            return n, p
    raise ValueError("no vanishing polynomial within limit")


def first_bipoly_vanishing(x1, x2, limit: int = 10**6) -> tuple[int, MultiPoly]:
    """Smallest index n with bipoly_at(n)(x1, x2) == 0."""
    for n in range(limit):
        p = bipoly_at(n)
        if sign_at(p.eval((x1, x2))) == 0:
            return n, p
    raise ValueError("no vanishing polynomial within limit")
