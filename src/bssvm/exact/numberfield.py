"""Real algebraic number fields as explicit quotient rings.

A :class:`NumberField` is Q[X] modulo a monic squarefree polynomial together
with an isolating interval that pins down one distinguished real root.  An
:class:`AlgebraicNumber` is a coordinate vector over the power basis of its
field.  All comparisons are exact: a sign query refines the generator's
isolating interval by quadratic interval refinement until interval
evaluation of the coordinate polynomial excludes zero.  The zero element is
recognised from its coordinates alone.  A field polynomial is only checked
to be squarefree, so a nonzero coordinate vector may still vanish at the
distinguished root; when the first evaluation leaves the sign open, a Sturm
count of gcd(element, field polynomial) on the box recognises that case, so
refinement always terminates.

A field's refinement cache, the schedule of boxes that quadratic interval
refinement builds from the isolating interval, is a function of the field's
identity (polynomial and interval); a printed enclosure is a function of the
value and the width, whatever was compared before.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from ..errors import BssError, FieldMismatchError, PoleError
from .unipoly import UniPoly, poly_ext_gcd
from .sturm import sturm_chain, count_roots_open, qir_step, squarefree_part
from .interval import RatInterval, eval_unipoly_interval


class NumberField:
    """Q(alpha) for a distinguished real root alpha of a monic polynomial."""

    __slots__ = ("min_poly", "interval", "_boxes", "_grid", "_chain")

    def __init__(self, min_poly: UniPoly, interval: RatInterval):
        if min_poly.degree < 1:
            raise BssError("field polynomial must have positive degree")
        if not min_poly.is_monic():
            raise BssError("field polynomial must be monic")
        if squarefree_part(min_poly) != min_poly:
            raise BssError("field polynomial must be squarefree")
        if interval.lo == interval.hi:
            if min_poly.eval_fraction(interval.lo) != 0:
                raise BssError("point interval is not a root of the field polynomial")
        else:
            if min_poly.eval_fraction(interval.lo) == 0 or min_poly.eval_fraction(interval.hi) == 0:
                raise BssError("isolating interval endpoint is a root")
            if count_roots_open(min_poly, interval.lo, interval.hi) != 1:
                raise BssError("interval does not isolate exactly one root")
        self.min_poly = min_poly
        self.interval = interval          # as constructed; never mutated
        self._boxes = [interval]          # refinement schedule, only grows
        self._grid = 4                    # grid size of the next refinement step
        self._chain = None

    @property
    def degree(self) -> int:
        return self.min_poly.degree

    def chain(self) -> list[UniPoly]:
        if self._chain is None:
            self._chain = sturm_chain(self.min_poly)
        return self._chain

    def refine(self) -> RatInterval:
        """Append the next box of the schedule, one quadratic interval
        refinement step on the last, and return it.  A step that succeeds
        narrows the box by the grid size and squares it; one that fails
        bisects.  A grid point that is the root ends the schedule."""
        box = self._boxes[-1]
        if box.lo != box.hi:
            (lo, hi), self._grid = qir_step(self.min_poly, box.lo, box.hi, self._grid)
            box = RatInterval(lo, hi)
            self._boxes.append(box)
        return box

    def generator(self) -> AlgebraicNumber:
        if self.degree == 1:
            return AlgebraicNumber(self, (-self.min_poly.coeff(0),))
        coords = [Fraction(0)] * self.degree
        coords[1] = Fraction(1)
        return AlgebraicNumber(self, tuple(coords))

    def from_rational(self, r) -> AlgebraicNumber:
        coords = [Fraction(0)] * self.degree
        coords[0] = Fraction(r)
        return AlgebraicNumber(self, tuple(coords))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, NumberField):
            return NotImplemented
        if self.min_poly != other.min_poly:
            return False
        if self.degree == 1:
            return True
        # Same polynomial: same distinguished root iff the isolating
        # intervals overlap on a region still holding a root.
        lo = max(self.interval.lo, other.interval.lo)
        hi = min(self.interval.hi, other.interval.hi)
        if lo >= hi:
            return (lo == hi and self.min_poly.eval_fraction(lo) == 0)
        return count_roots_open(self.min_poly, lo, hi, chain=self.chain()) == 1

    def __hash__(self) -> int:
        return hash(self.min_poly)

    def __repr__(self) -> str:
        return (f"NumberField({self.min_poly}, "
                f"({self.interval.lo}, {self.interval.hi}))")


QQ = NumberField(UniPoly.x(), RatInterval.point(0))


class AlgebraicNumber:
    """Element of a NumberField in power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != field.degree:
            raise BssError("coordinate length does not match field degree")
        self.field = field
        self.coords = coords

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise BssError("value is not rational")
        return self.coords[0]

    # -- coercion ------------------------------------------------------

    def _pair(self, other) -> tuple["AlgebraicNumber", "AlgebraicNumber"]:
        if isinstance(other, (int, Fraction)):
            return self, self.field.from_rational(other)
        if not isinstance(other, AlgebraicNumber):
            raise TypeError(f"cannot combine AlgebraicNumber with {type(other).__name__}")
        if self.field is other.field or self.field == other.field:
            return self, other
        if other.is_rational():
            return self, self.field.from_rational(other.coords[0])
        if self.is_rational():
            return other.field.from_rational(self.coords[0]), other
        raise FieldMismatchError(
            f"elements live in distinct fields {self.field!r} and {other.field!r}")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        return AlgebraicNumber(a.field, tuple(x + y for x, y in zip(a.coords, b.coords)))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self.field, tuple(-c for c in self.coords))

    def __sub__(self, other):
        a, b = self._pair(other)
        return AlgebraicNumber(a.field, tuple(x - y for x, y in zip(a.coords, b.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        fld = a.field
        if b.is_rational():
            r = b.coords[0]
            return AlgebraicNumber(fld, tuple(c * r for c in a.coords))
        if a.is_rational():
            r = a.coords[0]
            return AlgebraicNumber(fld, tuple(c * r for c in b.coords))
        prod = UniPoly(a.coords) * UniPoly(b.coords)
        return AlgebraicNumber(fld, _pad(prod % fld.min_poly, fld.degree))

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicNumber":
        if self.is_zero():
            raise PoleError("inverse of zero")
        fld = self.field
        if self.is_rational():
            return fld.from_rational(1 / self.coords[0])
        g, s, _ = poly_ext_gcd(UniPoly(self.coords), fld.min_poly)
        if g.degree != 0:
            raise BssError("field polynomial is not irreducible over Q")
        inv = s.scale(1 / g.coeff(0))
        return AlgebraicNumber(fld, _pad(inv % fld.min_poly, fld.degree))

    def __truediv__(self, other):
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.from_rational(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    # -- exact comparison ---------------------------------------------

    def sign(self) -> int:
        if self.is_rational():
            c = self.coords[0]
            return 0 if c == 0 else (1 if c > 0 else -1)
        fld = self.field
        box = fld._boxes[-1]
        s = eval_unipoly_interval(self.coords, box).sign()
        if s is None:
            # A reducible field polynomial lets a nonzero coordinate vector
            # vanish at the root, and then no box decides the sign.  The
            # root is a zero of the element iff it is a zero of the gcd, and
            # it is the only root of the field polynomial in the box.
            g = UniPoly(self.coords).gcd(fld.min_poly)
            if g.degree > 0 and count_roots_open(g, box.lo, box.hi) > 0:
                return 0
        while s is None:
            s = eval_unipoly_interval(self.coords, fld.refine()).sign()
        return s

    def __eq__(self, other) -> bool:
        try:
            a, b = self._pair(other)
        except (TypeError, FieldMismatchError):
            return NotImplemented if not isinstance(other, AlgebraicNumber) else False
        return a.coords == b.coords

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.coords[0])
        return hash((self.field.min_poly, self.coords))

    def __lt__(self, other):
        a, b = self._pair(other)
        return (a - b).sign() < 0

    def __le__(self, other):
        a, b = self._pair(other)
        return (a - b).sign() <= 0

    def __gt__(self, other):
        a, b = self._pair(other)
        return (a - b).sign() > 0

    def __ge__(self, other):
        a, b = self._pair(other)
        return (a - b).sign() >= 0

    def enclosure(self, max_width: Fraction | None = None) -> RatInterval:
        """Evaluation over the isolating interval, or over the first schedule
        box at most max_width / L wide, where L = sum k |c_k| M^(k-1) bounds
        the evaluation's width per unit box width on boxes inside [-M, M]."""
        if self.is_rational():
            return RatInterval.point(self.coords[0])
        fld, box = self.field, self.field.interval
        if max_width is not None:
            m = max(abs(box.lo), abs(box.hi))
            lip = sum(k * abs(c) * m ** (k - 1) for k, c in enumerate(self.coords) if k)
            narrow = lambda b: b.width() * lip <= max_width
            while not narrow(fld._boxes[-1]):
                fld.refine()
            box = fld._boxes[bisect_left(fld._boxes, True, key=narrow)]
        return eval_unipoly_interval(self.coords, box)

    def __repr__(self) -> str:
        return f"AlgebraicNumber({UniPoly(self.coords)})"


def _pad(p: UniPoly, n: int) -> tuple[Fraction, ...]:
    cs = list(p.coeffs)
    return tuple(cs + [Fraction(0)] * (n - len(cs)))


def sign_at(value) -> int:
    """Three-way sign of an exact value (Fraction, int, or AlgebraicNumber)."""
    if type(value) is Fraction:
        n = value.numerator
        return (n > 0) - (n < 0)
    if isinstance(value, AlgebraicNumber):
        return value.sign()
    v = Fraction(value)
    return 0 if v == 0 else (1 if v > 0 else -1)


def algebraic_equal(a, b) -> bool:
    if type(a) is Fraction and type(b) is Fraction:
        return a == b
    if isinstance(a, AlgebraicNumber) or isinstance(b, AlgebraicNumber):
        if not isinstance(a, AlgebraicNumber):
            a, b = b, a
        x, y = a._pair(b)
        return (x - y).is_zero()
    return Fraction(a) == Fraction(b)


def minimal_polynomial(a: AlgebraicNumber) -> UniPoly:
    """Monic minimal polynomial of a over Q.

    Power coordinates 1, a, a^2, ... are accumulated until the first linear
    dependence, found by exact Gaussian elimination; that dependence is the
    minimal polynomial, and its degree divides the field degree.
    """
    if not isinstance(a, AlgebraicNumber):
        a = QQ.from_rational(Fraction(a))
    n = a.field.degree
    powers = [a.field.from_rational(1)]
    for _ in range(n):
        powers.append(powers[-1] * a)
    for k in range(1, n + 1):
        cols = [powers[i].coords for i in range(k)]
        rhs = powers[k].coords
        sol = _solve_exact(cols, rhs, n)
        if sol is not None:
            coeffs = [-c for c in sol] + [Fraction(1)]
            return UniPoly(coeffs)
    raise BssError("no linear dependence among power coordinates")


def degree_over_q(a: AlgebraicNumber) -> int:
    return minimal_polynomial(a).degree


def _solve_exact(cols, rhs, n):
    """Solve sum_j x_j * cols[j] = rhs exactly; None when inconsistent."""
    k = len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(rhs[i])]
           for i in range(n)]
    pivots = []
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, n):
        if aug[r][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        sol[col] = aug[r][k]
    # Free columns (rank < k) mean the earlier powers were already
    # dependent, which a smaller k has caught first; treat as consistent.
    return sol


def _int_nth_root(x: int, m: int) -> int:
    """floor(x ** (1/m)) for x >= 0 by integer Newton iteration."""
    if x < 2:
        return x
    guess = 1 << (-(-x.bit_length() // m))
    while True:
        nxt = ((m - 1) * guess + x // guess ** (m - 1)) // m
        if nxt >= guess:
            return guess
        guess = nxt


def _rational_nth_root(c: Fraction, m: int) -> Fraction | None:
    """Exact positive m-th root of c > 0 when one exists in Q, else None."""
    p, q = c.numerator, c.denominator
    rp, rq = _int_nth_root(p, m), _int_nth_root(q, m)
    if rp ** m == p and rq ** m == q:
        return Fraction(rp, rq)
    return None


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def nth_root_field(c, m: int) -> tuple[NumberField, AlgebraicNumber]:
    """Field containing the positive real m-th root of c, plus that root.

    When c is an exact m-th power in Q the answer stays rational and the
    field is QQ.  Otherwise m must be prime, which makes X^m - c
    irreducible, and the returned field is a genuine degree-m extension.
    Composite m without an exact root is rejected: irreducibility of the
    binomial can then fail and the quotient would not be a field.
    """
    c = Fraction(c)
    if c <= 0:
        raise BssError("root extraction requires a positive radicand")
    if m < 1:
        raise BssError("root index must be at least 1")
    if m == 1:
        return QQ, QQ.from_rational(c)
    r = _rational_nth_root(c, m)
    if r is not None:
        return QQ, QQ.from_rational(r)
    if not _is_prime(m):
        raise BssError(f"root index {m} is composite and c has no exact root")
    poly = UniPoly.monomial(m, 1) - UniPoly.constant(c)
    if c > 1:
        box = RatInterval(1, c)
    else:
        box = RatInterval(c, 1)
    field = NumberField(poly, box)
    return field, field.generator()
