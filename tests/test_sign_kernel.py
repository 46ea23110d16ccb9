"""The integer sign kernel against the Fraction formulas it replaced.

Enclosures, Horner values, Sturm sign variations and quadratic interval
refinement steps run in integers over a common denominator.  The reference
implementations below are a term-by-term enclosure in Fractions, written
from the extremes of each power and each product of powers rather than with
the library's power rule, the Fraction Horner evaluation and the Fraction
qir_step, and every comparison asks for the same exact rationals, not close
ones.  The same enclosure reference checks multipoly.interval_eval, which
applies the power rule in Fractions.
"""

import hashlib
import itertools
import random
from fractions import Fraction as F
from math import isqrt, prod

import pytest

from bssvm.errors import BssError
from bssvm.exact import (
    MultiPoly,
    NumberField,
    RatInterval,
    UniPoly,
    eval_unipoly_interval,
    interval_eval,
    nth_root_field,
    qir_step,
    refine_interval,
    sign_variations,
    sturm_chain,
    sturm_isolate,
)
from bssvm.exact.interval import sign_unipoly_interval
from bssvm.exact.sturm import _round_half_even


# -- the Fraction reference --------------------------------------------------

def ref_power_bounds(lo, hi, k):
    """[lo, hi]^k from the extremes of x^k on the box: its two ends, and 0
    when the box crosses 0 and k > 0."""
    values = [lo ** k, hi ** k] + ([F(0)] if k and lo < 0 < hi else [])
    return min(values), max(values)


def ref_terms_enclosure(terms, boxes):
    """Sum over the (exponents, coefficient) terms of the extremes of the
    coefficient times each product of one power bound per variable."""
    lo = hi = F(0)
    for e, c in terms:
        bounds = [ref_power_bounds(box.lo, box.hi, k) for box, k in zip(boxes, e)]
        products = [c * prod(choice) for choice in itertools.product(*bounds)]
        lo += min(products)
        hi += max(products)
    return RatInterval(lo, hi)


def ref_enclosure(coeffs, box):
    return ref_terms_enclosure([((k,), c) for k, c in enumerate(coeffs)], [box])


def ref_eval(p, x):
    acc = F(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def ref_sign_variations(chain, t):
    signs = []
    for q in chain:
        v = ref_eval(q, t)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def ref_refine_interval(p, a, b):
    mid = (a + b) / 2
    vm = ref_eval(p, mid)
    if vm == 0:
        mid = (a + mid) / 2
        vm = ref_eval(p, mid)
        if vm == 0:
            raise BssError("interval does not isolate a single root")
    va = ref_eval(p, a)
    if va == 0:
        raise BssError("isolating interval endpoint is a root")
    if (va > 0) != (vm > 0):
        return (a, mid)
    return (mid, b)


def ref_qir_step(p, a, b, n):
    fa, fb = ref_eval(p, a), ref_eval(p, b)
    w = (b - a) / n
    k = min(max(round(n * fa / (fa - fb)), 1), n - 1)
    x = a + k * w
    fx = ref_eval(p, x)
    if fx == 0:
        return (x, x), n
    j = k + 1 if (fx > 0) == (fa > 0) else k - 1
    y = a + j * w
    fy = fa if j == 0 else fb if j == n else ref_eval(p, y)
    if fy == 0:
        return (y, y), n
    if (fy > 0) != (fx > 0):
        return (min(x, y), max(x, y)), n * n
    return ref_refine_interval(p, a, b), max(4, isqrt(n))


def ref_schedule(p, box, steps):
    """The boxes NumberField.refine appends, by the reference qir_step."""
    boxes, grid = [box], 4
    for _ in range(steps):
        lo, hi = boxes[-1]
        if lo == hi:
            break
        (lo, hi), grid = ref_qir_step(p, lo, hi, grid)
        boxes.append((lo, hi))
    return boxes


# -- seeded inputs -----------------------------------------------------------

def _rational(rng, span=9, den=12):
    return F(rng.randint(-span, span), rng.randint(1, den))


def _coeffs(rng):
    """Up to degree 6, about a third of the coefficients zero and most of
    the rest not integers."""
    return [F(0) if rng.random() < 0.3 else _rational(rng)
            for _ in range(rng.randint(1, 7))]


def _boxes(rng):
    lo = _rational(rng)
    yield RatInterval(lo, lo + F(rng.randint(1, 20), rng.randint(1, 9)))
    neg = -abs(_rational(rng)) - F(1, rng.randint(1, 50))
    yield RatInterval(neg - F(rng.randint(0, 9), rng.randint(1, 7)), neg)   # wholly < 0
    yield RatInterval(-F(rng.randint(1, 9), rng.randint(1, 7)),
                      F(rng.randint(1, 9), rng.randint(1, 7)))              # straddles 0
    yield RatInterval(-F(rng.randint(1, 9), rng.randint(1, 7)), 0)          # ends at 0
    yield RatInterval(0, F(rng.randint(1, 9), rng.randint(1, 7)))           # starts at 0
    yield RatInterval.point(lo)
    yield RatInterval.point(0)
    # endpoints of 300 bits, as on a deep refinement box
    big = F(rng.getrandbits(300) - (1 << 299), 1 << 299)
    yield RatInterval(big, big + F(1, 1 << 299))


# -- enclosures --------------------------------------------------------------

@pytest.mark.parametrize("seed", range(2))
def test_enclosure_and_sign_match_the_term_by_term_reference(seed):
    rng = random.Random(seed)
    for _ in range(150):
        coeffs = _coeffs(rng)
        for box in _boxes(rng):
            want = ref_enclosure(coeffs, box)
            assert eval_unipoly_interval(coeffs, box) == want, (coeffs, box)
            assert sign_unipoly_interval(coeffs, box) == want.sign(), (coeffs, box)


@pytest.mark.parametrize("coeffs, box, want", [
    # even powers over a box across 0 reach down to 0, not to min(lo^k, hi^k)
    ([0, 0, 1], (-1, 2), (0, 4)),
    ([0, 0, 0, 0, -1], (-3, 2), (-81, 0)),
    # even powers of a box wholly below 0 swap the ends
    ([0, 0, 1], (-3, -2), (4, 9)),
    ([0, 0, 0, F(1, 2)], (-3, -2), (F(-27, 2), -4)),
    # a constant term stays a point on a box across 0
    ([F(-2, 3), 0, 1], (-1, 1), (F(-2, 3), F(1, 3))),
    ([], (-1, 1), (0, 0)),
])
def test_enclosure_edge_cases(coeffs, box, want):
    coeffs = [F(c) for c in coeffs]
    box, want = RatInterval(*box), RatInterval(*want)
    assert ref_enclosure(coeffs, box) == want
    assert eval_unipoly_interval(coeffs, box) == want
    assert sign_unipoly_interval(coeffs, box) == want.sign()


@pytest.mark.parametrize("seed", range(3))
def test_interval_eval_matches_the_term_by_term_reference(seed):
    rng = random.Random(seed)
    for _ in range(60):
        nvars = rng.randint(1, 3)
        terms = {tuple(rng.randint(0, 4) for _ in range(nvars)): _rational(rng)
                 for _ in range(rng.randint(1, 5))}
        p = MultiPoly(nvars, terms)
        kinds = [list(_boxes(rng)) for _ in range(nvars)]
        # each box kind in every variable at once, then mixed kinds
        choices = list(zip(*kinds)) + [tuple(rng.choice(k) for k in kinds)
                                       for _ in range(4)]
        for boxes in choices:
            want = ref_terms_enclosure(p.terms.items(), boxes)
            got = interval_eval(p, list(boxes))
            assert (got.lo, got.hi) == (want.lo, want.hi), (p, boxes)


def test_sign_is_zero_only_on_a_zero_point_enclosure():
    # 2X - 1 at the point 1/2 is exactly 0; across 1/2 it is undecided
    assert sign_unipoly_interval([F(-1), F(2)], RatInterval.point(F(1, 2))) == 0
    assert sign_unipoly_interval([F(-1), F(2)], RatInterval(0, 1)) is None
    assert sign_unipoly_interval([F(0), F(0)], RatInterval(-1, 1)) == 0


# -- Horner and Sturm --------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_horner_matches_the_fraction_reference(seed):
    rng = random.Random(100 + seed)
    for _ in range(200):
        p = UniPoly(_coeffs(rng))
        for x in (_rational(rng), F(0), F(rng.getrandbits(200), 1 << 199)):
            want = ref_eval(p, x)
            assert p.eval_fraction(x) == want
            assert p.sign_fraction(x) == (want > 0) - (want < 0)


def test_horner_at_a_root_is_exactly_zero():
    p = UniPoly([F(-2, 9), F(-1, 3), F(1)])        # (X - 2/3)(X + 1/3)
    for root in (F(2, 3), F(-1, 3)):
        assert p.eval_fraction(root) == 0 and p.sign_fraction(root) == 0
    assert UniPoly().eval_fraction(F(5)) == 0 and UniPoly().sign_fraction(F(5)) == 0


@pytest.mark.parametrize("seed", range(3))
def test_sign_variations_match_the_fraction_reference(seed):
    rng = random.Random(200 + seed)
    for _ in range(60):
        p = UniPoly(_coeffs(rng))
        if p.degree < 1:
            continue
        chain = sturm_chain(p)
        points = [_rational(rng) for _ in range(5)] + [F(0)]
        points += [a for a, _ in sturm_isolate(p)]
        for t in points:
            assert sign_variations(chain, t) == ref_sign_variations(chain, t)


def test_sign_variations_skip_zero_entries_as_the_reference_does():
    # (X - 1/2)(X + 2/3)(X^2 - 2): the chain has zero entries at 1/2 and -2/3
    p = UniPoly.parse("X - 1/2") * UniPoly.parse("X + 2/3") * UniPoly.parse("X^2 - 2")
    chain = sturm_chain(p)
    for t in (F(1, 2), F(-2, 3)):
        assert p.sign_fraction(t) == 0
        assert sign_variations(chain, t) == ref_sign_variations(chain, t)


# -- quadratic interval refinement -------------------------------------------

def test_round_half_even_matches_fraction_round():
    for num in range(-40, 41):
        for den in list(range(-8, 0)) + list(range(1, 9)):
            assert _round_half_even(num, den) == round(F(num, den)), (num, den)


@pytest.mark.parametrize("poly, lo, hi, n", [
    ("X^2 - 3/8", 0, 1, 4),       # secant index 1.5 rounds to 2, and the step succeeds
    ("X^2 - 5/8", 0, 1, 4),       # 2.5 rounds to 2, the step misses and bisects
    ("X - 3/8", 0, 1, 4),         # a line: the secant hits the root, a tie at 1.5
    ("X - 5/8", 0, 1, 4),
    ("X - 7/16", 0, 1, 8),        # 3.5 rounds to 4: the grid point 1/2 is past the root
    ("X^2 - 4", 1, 4, 3),         # the secant's grid point is the root 2
    ("X^2 - 4", 0, 4, 4),         # its neighbour is the root 2
    ("X^3 - X", F(1, 2), F(3, 2), 4),
    ("X^2 - 2/3", -1, 0, 16),     # a negative isolating interval
    ("X^2 - 2", -2, -1, 4),
    ("X^5 - 2", 0, 2, 16),        # a far-off secant: bisection
])
def test_qir_step_matches_the_fraction_reference_at_edges(poly, lo, hi, n):
    p = UniPoly.parse(poly)
    assert qir_step(p, F(lo), F(hi), n) == ref_qir_step(p, F(lo), F(hi), n)


def test_qir_step_secant_ties_take_both_branches():
    p_hit, p_miss = UniPoly.parse("X^2 - 3/8"), UniPoly.parse("X^2 - 5/8")
    assert qir_step(p_hit, F(0), F(1), 4) == ((F(1, 2), F(3, 4)), 16)
    assert qir_step(p_miss, F(0), F(1), 4) == ((F(1, 2), F(1)), 4)


@pytest.mark.parametrize("seed", range(3))
def test_qir_schedules_match_the_fraction_reference(seed):
    # every root of seeded squarefree polynomials, from its Sturm interval,
    # through each grid size the schedule reaches
    rng = random.Random(300 + seed)
    done = 0
    while done < 12:
        p = UniPoly([_rational(rng, 5, 4) for _ in range(rng.randint(2, 5))] + [F(1)])
        if p.gcd(p.derivative()).degree > 0:
            continue
        for lo, hi in sturm_isolate(p):
            want = ref_schedule(p, (lo, hi), 8)
            field = NumberField(p, RatInterval(lo, hi))
            for _ in range(8):
                field.refine()
            assert [(b.lo, b.hi) for b in field._boxes] == want
            done += 1


def test_refine_interval_matches_the_fraction_reference():
    p = UniPoly.parse("X^3 - X")
    # the midpoint 1 is the root: the nudged midpoint decides
    assert refine_interval(p, F(1, 2), F(3, 2)) == ref_refine_interval(p, F(1, 2), F(3, 2))
    q = UniPoly.parse("X^2 - 2/3")
    assert refine_interval(q, F(-1), F(0)) == ref_refine_interval(q, F(-1), F(0))


# sha256 of "%x/%x;%x/%x;" (lo, hi) of the first 20 boxes of the 2^(1/5)
# schedule, as the Fraction qir_step built them; the last box has
# 262,145-bit denominators, and the reference takes 14 s to reach it
FIFTH_ROOT_BOXES = [
    "7d36b39a34a1ca7b", "78efd0a92d2e5a19", "6493eac7f8ad1ae7", "610770e267963f0e",
    "ccf7de04abef6e5f", "09ad6e00d79a87af", "20c4f6e72475104d", "7251b91c78fb55ac",
    "6197a5be2223db5c", "ab497efc4c493229", "62a4a7f2ad701132", "0d4f91deb7691232",
    "371856f8c3081492", "ffc21107ae910191", "303c4006f1dc96ff", "bdb673f525e69c11",
    "93a01297e47dc414", "ffe1fe61e59dce4c", "d000d6fd19d80361", "e21df7a92e6e7ea8",
]


def _box_digest(lo, hi):
    h = hashlib.sha256()
    for q in (lo, hi):
        h.update(b"%x/%x;" % (q.numerator, q.denominator))
    return h.hexdigest()[:16]


def test_fifth_root_of_2_schedule_is_pinned_to_the_reference():
    field, _ = nth_root_field(2, 5)
    for _ in range(19):
        field.refine()
    boxes = [(b.lo, b.hi) for b in field._boxes]
    # live against the reference while it is fast, then by the pinned digests
    assert boxes[:16] == ref_schedule(field.min_poly, (F(1), F(2)), 15)
    assert [_box_digest(*b) for b in boxes] == FIFTH_ROOT_BOXES
