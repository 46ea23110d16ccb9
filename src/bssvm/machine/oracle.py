"""Membership oracles a machine may consult, and exact Cantor membership.

An oracle answers yes/no for a tuple of exact values.  Kinds:

  rationals      true iff every coordinate is rational
  algebraic      always true: every representable value is algebraic
  degree_eq(d)   single coordinate of degree exactly d over Q
  degree_leq(d)  single coordinate of degree at most d over Q
  cantor         single rational coordinate in the middle-thirds Cantor set
  finite(S)      tuple membership in an explicit finite set
  empty          always false

A query, and each member of finite(S), is converted once, value by value,
by exact_value (exact/numberfield.py).

Degree oracles take length-1 tuples only; the cantor oracle additionally
requires the coordinate to be rational.  Anything else raises
OracleUnsupported, which the interpreter converts into an
`oracle_unsupported` fault.

GENERIC_ANSWER is the answer the shadow analyses substitute for queries
whose symbolic form is nonconstant; plain concrete runs never read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import BssError
from ..exact import AlgebraicNumber, degree_over_q, exact_value


class OracleUnsupported(BssError):
    """The oracle cannot decide this query (wrong shape or unsupported field)."""


Value = Fraction | AlgebraicNumber

# Every oracle kind listed above decides a countable set, or (cantor) a set
# of measure zero.  A nonconstant rational function of the input takes a
# value in such a set only on a measure-zero set of inputs, so at a generic
# input every nonconstant query is answered no, whatever the oracle kind.
GENERIC_ANSWER = False

_KINDS = ("rationals", "algebraic", "degree_eq", "degree_leq", "cantor", "finite", "empty")


@dataclass(frozen=True)
class Oracle:
    kind: str
    degree: int | None = None
    members: frozenset[tuple[Value, ...]] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise BssError(f"unknown oracle kind {self.kind!r}")
        if self.kind in ("degree_eq", "degree_leq"):
            if not isinstance(self.degree, int) or self.degree < 1:
                raise BssError("degree oracles need a positive integer degree")
        elif self.degree is not None:
            raise BssError(f"oracle kind {self.kind!r} takes no degree")
        if self.kind == "finite":
            if self.members is None:
                raise BssError("finite oracle needs its member set")
        elif self.members is not None:
            raise BssError(f"oracle kind {self.kind!r} takes no member set")

    # -- constructors ----------------------------------------------------

    @classmethod
    def rationals(cls) -> "Oracle":
        return cls("rationals")

    @classmethod
    def algebraic(cls) -> "Oracle":
        return cls("algebraic")

    @classmethod
    def degree_eq(cls, d: int) -> "Oracle":
        return cls("degree_eq", degree=d)

    @classmethod
    def degree_leq(cls, d: int) -> "Oracle":
        return cls("degree_leq", degree=d)

    @classmethod
    def cantor(cls) -> "Oracle":
        return cls("cantor")

    @classmethod
    def finite(cls, tuples) -> "Oracle":
        members = frozenset(tuple(map(exact_value, t)) for t in tuples)
        return cls("finite", members=members)

    @classmethod
    def empty(cls) -> "Oracle":
        return cls("empty")


def _is_rational(v: Value) -> bool:
    return isinstance(v, Fraction) or v.is_rational()


def oracle_query(oracle: Oracle, values: tuple) -> bool:
    """The oracle's answer for values, each read once by exact_value: an
    int coordinate is read as its Fraction."""
    values = tuple(map(exact_value, values))
    kind = oracle.kind
    if kind == "rationals":
        return all(_is_rational(v) for v in values)
    if kind == "algebraic":
        return True
    if kind in ("degree_eq", "degree_leq"):
        if len(values) != 1:
            raise OracleUnsupported(f"{kind} oracle takes a single coordinate, got {len(values)}")
        d = degree_over_q(values[0])
        return d == oracle.degree if kind == "degree_eq" else d <= oracle.degree
    if kind == "cantor":
        if len(values) != 1:
            raise OracleUnsupported(f"cantor oracle takes a single coordinate, got {len(values)}")
        v = values[0]
        if not _is_rational(v):
            raise OracleUnsupported("cantor oracle decides rational coordinates only")
        return cantor_membership(v if isinstance(v, Fraction) else v.as_fraction())
    if kind == "finite":
        return values in oracle.members
    if kind == "empty":
        return False
    raise BssError(f"unknown oracle kind {kind!r}")


def cantor_membership(x: Fraction) -> bool:
    """Exact middle-thirds Cantor set membership for a rational.

    Walks the ternary expansion greedily, preferring the digit-1-avoiding
    expansion at the 1/3 and 2/3 boundary points.  The state is a rational
    in [0, 1] whose denominator divides the input's, so the walk either
    reaches 0/1, hits a forced middle digit, or revisits a state; a revisit
    means the {0,2}-digit walk recurs forever, i.e. membership.
    """
    x = Fraction(x)
    if x < 0 or x > 1:
        return False
    seen = set()
    s = x
    while True:
        if s == 0 or s == 1:
            return True
        if s in seen:
            return True
        seen.add(s)
        t = 3 * s
        if t <= 1:
            s = t          # digit 0 (t == 1: prefer 0.0222..., still inside)
        elif t >= 2:
            s = t - 2      # digit 2
        else:
            return False   # forced middle digit: in a deleted interval
