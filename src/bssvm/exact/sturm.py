"""Sturm chains and exact real-root isolation for rational polynomials.

The chain is the classical remainder sequence: p0 = p, p1 = p', and
p_{k+1} = -(p_{k-1} mod p_k) until the remainder vanishes.  The number of
distinct real roots of a squarefree p in the open interval (a, b) equals
V(a) - V(b), where V(t) counts sign changes along the chain evaluated at t.
Root counting always runs on the squarefree part so repeated roots are
counted once.  An isolating interval is narrowed by quadratic interval
refinement (qir_step), which falls back to one bisection (refine_interval)
when its secant guess misses.

Every sign here is read from an integer: a chain polynomial at t = x / d is
horner(nums, x, d), d^m times e * p(t) for the positive lcm e of its
coefficients' denominators, and the grid of a refinement step is a set of
integers over one denominator.  The signs, counts and boxes are the same
exact values as Fraction evaluation gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from ..errors import BssError
from .unipoly import UniPoly, horner, integer_coeffs


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic squarefree polynomial with the same real roots as p."""
    if p.is_zero():
        raise BssError("zero polynomial has no squarefree part")
    if p.degree == 0:
        return UniPoly.constant(1)
    g = p.gcd(p.derivative())
    if g.degree == 0:
        return p.monic()
    return (p // g).monic()


def sturm_chain(p: UniPoly) -> list[UniPoly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def sign_variations(chain: list[UniPoly], t: Fraction) -> int:
    signs = [s for s in (q.sign_fraction(t) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_open(p: UniPoly, a: Fraction, b: Fraction,
                     chain: list[UniPoly] | None = None) -> int:
    """Distinct real roots of p in the open interval (a, b).

    The endpoints themselves are not counted even when p vanishes there.
    A given chain is the Sturm chain of p's squarefree part, which is then
    read from chain[0] instead of computed again.
    """
    if a >= b:
        raise BssError("interval endpoints out of order")
    if chain is None:
        chain = sturm_chain(squarefree_part(p))
    n = sign_variations(chain, a) - sign_variations(chain, b)
    # Sturm counts roots in (a, b]; drop b if it is a root.
    if chain[0].sign_fraction(b) == 0:
        n -= 1
    return n


def cauchy_bound(p: UniPoly) -> Fraction:
    """Bound B with every real root of p inside (-B, B)."""
    if p.is_zero() or p.degree < 1:
        return Fraction(1)
    lc = abs(p.leading_coeff())
    m = max(abs(c) for c in p.coeffs[:-1])
    return Fraction(1) + m / lc


def sturm_isolate(p: UniPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open rational intervals, one per distinct real root of p.

    Bisection starts from the Cauchy bound; when a bisection midpoint is
    itself a root it is dodged by a small shift so every root stays interior
    to its interval.
    """
    if p.is_zero():
        raise BssError("cannot isolate roots of the zero polynomial")
    sf = squarefree_part(p)
    if sf.degree < 1:
        return []
    chain = sturm_chain(sf)
    bound = cauchy_bound(sf)
    lo, hi = -bound, bound
    # Make sure the outer endpoints are not roots (the bound is strict, but
    # stay defensive for degree shifts under squarefree reduction).
    while sf.sign_fraction(lo) == 0:
        lo -= 1
    while sf.sign_fraction(hi) == 0:
        hi += 1

    out: list[tuple[Fraction, Fraction]] = []

    def recurse(a: Fraction, b: Fraction, va: int, vb: int) -> None:
        n = va - vb
        if n == 0:
            return
        if n == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        shift = (b - a) / 4
        while sf.sign_fraction(mid) == 0:
            mid += shift
            shift /= 2
        vm = sign_variations(chain, mid)
        recurse(a, mid, va, vm)
        recurse(mid, b, vm, vb)

    recurse(lo, hi, sign_variations(chain, lo), sign_variations(chain, hi))
    out.sort()
    return out


def refine_interval(p: UniPoly, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """One bisection step on an isolating interval of squarefree p.

    Requires exactly one root in (a, b); keeps the half that still holds it.
    """
    mid = (a + b) / 2
    vm = p.sign_fraction(mid)
    if vm == 0:
        # Nudge off the root; the root stays strictly inside one half.
        mid = (a + mid) / 2
        vm = p.sign_fraction(mid)
        if vm == 0:
            raise BssError("interval does not isolate a single root")
    va = p.sign_fraction(a)
    if va == 0:
        raise BssError("isolating interval endpoint is a root")
    if va != vm:
        return (a, mid)
    return (mid, b)


def qir_step(p: UniPoly, a: Fraction, b: Fraction,
             n: int) -> tuple[tuple[Fraction, Fraction], int]:
    """One quadratic interval refinement step (Abbott, 2006).

    Requires exactly one root of squarefree p in (a, b) and a grid size
    n >= 2.  The secant through (a, p(a)) and (b, p(b)) is
    snapped to the grid of n subintervals; when the root lies in the grid
    cell next to that point, the interval shrinks by a factor n and the grid
    size becomes n^2.  Otherwise one bisection is taken and the grid size
    drops to max(4, sqrt(n)).  A grid point that is exactly the root becomes
    the point interval (x, x).  Returns the new interval and grid size.

    The grid runs in integers over the denominator d = lcm(den a, den b) * n,
    where every grid point a + k (b - a) / n is an integer over d and
    horner() gives p there up to one positive factor; the secant's grid
    index is rounded half to even, as round() rounds a Fraction.
    """
    _, nums = integer_coeffs(p.coeffs)
    d = lcm(a.denominator, b.denominator) * n
    xa = a.numerator * (d // a.denominator)
    xb = b.numerator * (d // b.denominator)
    w = (xb - xa) // n
    fa, fb = horner(nums, xa, d), horner(nums, xb, d)
    k = min(max(_round_half_even(n * fa, fa - fb), 1), n - 1)
    x = xa + k * w
    fx = horner(nums, x, d)
    if fx == 0:
        return (Fraction(x, d), Fraction(x, d)), n
    # The neighbour on the root's side of x; grid ends are a and b.
    j = k + 1 if (fx > 0) == (fa > 0) else k - 1
    y = xa + j * w
    fy = fa if j == 0 else fb if j == n else horner(nums, y, d)
    if fy == 0:
        return (Fraction(y, d), Fraction(y, d)), n
    if (fy > 0) != (fx > 0):
        return (Fraction(min(x, y), d), Fraction(max(x, y), d)), n * n
    return refine_interval(p, a, b), max(4, isqrt(n))


def _round_half_even(num: int, den: int) -> int:
    """round(Fraction(num, den)) for den != 0, without building the Fraction."""
    if den < 0:
        num, den = -num, -den
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    return q
