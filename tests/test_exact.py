"""Exact arithmetic layer: polynomials, Sturm isolation, number fields."""

import random
import re
from fractions import Fraction as F

import pytest

from bssvm.errors import BssError, PoleError
from bssvm.exact import (
    AlgebraicNumber,
    MultiPoly,
    NumberField,
    QQ,
    RatInterval,
    RationalFunction,
    UniPoly,
    algebraic_equal,
    count_roots_open,
    degree_over_q,
    eval_unipoly_interval,
    format_rational,
    interval_eval,
    minimal_polynomial,
    mp_gcd,
    nth_root_field,
    parse_rational,
    poly_ext_gcd,
    qir_step,
    rf_eval,
    sign_at,
    sign_variations,
    sturm_chain,
    sturm_isolate,
    unipoly_from_roots,
)


@pytest.fixture(scope="module")
def sqrt2_field():
    field, root = nth_root_field(2, 2)
    return field, root


@pytest.fixture(scope="module")
def fifth_root_field():
    field, root = nth_root_field(2, 5)
    return field, root


# -- rationals ---------------------------------------------------------------

def test_rational_parse_format_round_trip():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-6/8") == F(-3, 4)
    assert parse_rational("7") == F(7)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(5)) == "5"
    assert format_rational(F(-1, 2)) == "-1/2"


def test_format_rational_past_the_int_string_limit():
    # CPython's str() refuses integers of more than 4300 digits by default
    assert format_rational(F(10 ** 5000)) == "1" + "0" * 5000
    assert format_rational(F(10 ** 5000 - 1)) == "9" * 5000
    # a piece that is split again keeps its leading zeros
    spread = F(10 ** 20000 + 10 ** 5000 + 1)
    assert format_rational(spread) == "1" + "0" * 14999 + "1" + "0" * 4999 + "1"
    middle = F(-(123456789 * 10 ** 4400 + 987654321), 7)
    assert format_rational(middle) == "-123456789" + "0" * 4391 + "987654321/7"
    assert format_rational(F(-7, 10 ** 4500 + 1)) == "-7/1" + "0" * 4499 + "1"


def test_rational_parse_past_the_int_string_limit():
    # Fraction(str) refuses integers of more than 4300 digits by default;
    # every value format_rational prints must read back
    big = F(2 ** 16384)
    for q in (big, -big, F(-3, 7 ** 6000), F(10 ** 5000 + 1, 10 ** 4400 + 7)):
        assert parse_rational(format_rational(q)) == q
    assert parse_rational(" +" + "0" * 5000 + "12/4 ") == 3


def test_rational_parse_rejects_garbage():
    with pytest.raises(BssError):
        parse_rational("1/0")
    with pytest.raises(BssError):
        parse_rational("two")
    for text in ("1.5", "1e5", "9" * 5000 + "x", "9" * 5000 + ".5", "9" * 5000 + "/0",
                 "1/" + "0" * 5000, "9" * 5000 + "/-3", "--" + "9" * 5000):
        with pytest.raises(BssError, match="malformed rational"):
            parse_rational(text)


# -- univariate polynomials --------------------------------------------------

def test_unipoly_str_is_dense_ascending():
    assert str(UniPoly([-2, 0, 1])) == "-2 + 0*X + 1*X^2"
    assert str(UniPoly([F(1, 2), -1])) == "1/2 - 1*X"
    assert str(UniPoly.zero()) == "0"


def test_unipoly_pretty_is_sparse_descending():
    assert UniPoly([-2, 0, 1]).pretty() == "X^2 - 2"
    assert UniPoly([F(1, 2), -1]).pretty() == "-X + 1/2"
    assert UniPoly.zero().pretty() == "0"


def test_unipoly_parse_round_trips_both_forms():
    rng = random.Random(11)
    for _ in range(200):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(rng.randint(0, 6))]
        p = UniPoly(coeffs)
        assert UniPoly.parse(str(p)) == p
        assert UniPoly.parse(p.pretty()) == p


def test_unipoly_parse_rejects_malformed():
    for bad in ["", "X^-1", "X**2", "2X"]:
        with pytest.raises(BssError):
            UniPoly.parse(bad)


def test_unipoly_divmod_and_gcd():
    p = UniPoly([-2, 0, 1]) * UniPoly([1, 1])
    q, r = p.divmod(UniPoly([1, 1]))
    assert r.is_zero() and q == UniPoly([-2, 0, 1])
    g = p.gcd(UniPoly([1, 1]))
    assert g == UniPoly([1, 1]).monic()


def test_poly_ext_gcd_bezout_identity():
    a = UniPoly([-2, 0, 1])
    b = UniPoly([1, 1])
    g, s, t = poly_ext_gcd(a, b)
    assert s * a + t * b == g
    assert g.is_monic()


def test_unipoly_from_roots():
    p = unipoly_from_roots([F(1, 2), F(1)])
    assert p.eval_fraction(F(1, 2)) == 0 and p.eval_fraction(F(1)) == 0
    assert p.degree == 2 and p.is_monic()


# -- Sturm isolation ---------------------------------------------------------

def test_sturm_chain_of_x_squared_minus_2():
    chain = sturm_chain(UniPoly([-2, 0, 1]))
    assert chain == [UniPoly([-2, 0, 1]), UniPoly([0, 2]), UniPoly([2])]
    assert sign_variations(chain, F(-2)) == 2
    assert sign_variations(chain, F(0)) == 1
    assert sign_variations(chain, F(2)) == 0


def test_sturm_isolate_no_real_roots():
    assert sturm_isolate(UniPoly([1, 0, 1])) == []


def test_sturm_isolate_single_root_at_zero():
    intervals = sturm_isolate(UniPoly([0, 1]))
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo <= 0 <= hi


def test_sturm_isolate_x_squared_minus_2():
    p = UniPoly([-2, 0, 1])
    intervals = sturm_isolate(p)
    assert len(intervals) == 2
    for lo, hi in intervals:
        assert count_roots_open(p, lo, hi) == 1
    (l1, h1), (l2, h2) = sorted(intervals)
    assert h1 <= 0 <= l2  # one negative root, one positive


def test_sturm_isolate_interval_counts_are_one():
    # every returned interval holds exactly one root, checked by Sturm count
    rng = random.Random(5)
    for _ in range(40):
        roots = sorted({F(rng.randint(-8, 8), rng.randint(1, 4))
                        for _ in range(rng.randint(1, 4))})
        p = unipoly_from_roots(roots)
        intervals = sturm_isolate(p)
        assert len(intervals) == len(roots)
        for (lo, hi), r in zip(sorted(intervals), roots):
            assert count_roots_open(p, lo, hi) == 1
            assert lo < r < hi or lo == hi == r


def test_count_roots_open_reads_the_squarefree_part_from_a_given_chain():
    # endpoints at roots, between roots and outside them, on squarefree inputs
    rng = random.Random(11)
    for _ in range(40):
        roots = sorted({F(rng.randint(-8, 8), rng.randint(1, 4))
                        for _ in range(rng.randint(1, 4))})
        p = unipoly_from_roots(roots)
        chain = sturm_chain(p)
        points = sorted(set(roots) | {F(rng.randint(-20, 20), 4) for _ in range(6)})
        for a in points:
            for b in points:
                if a < b:
                    assert count_roots_open(p, a, b, chain=chain) == count_roots_open(p, a, b)
    p = UniPoly.parse("X^3 - X - 1")
    assert count_roots_open(p, F(1), F(2), chain=sturm_chain(p)) == 1


def test_number_field_build_takes_one_squarefree_part(monkeypatch):
    import bssvm.exact.numberfield as numberfield_module
    import bssvm.exact.sturm as sturm_module

    calls = []
    squarefree_part = sturm_module.squarefree_part

    def counted(p):
        calls.append(p)
        return squarefree_part(p)

    monkeypatch.setattr(sturm_module, "squarefree_part", counted)
    monkeypatch.setattr(numberfield_module, "squarefree_part", counted)
    p = UniPoly.parse("X^3 - X - 1")
    field = NumberField(p, RatInterval(F(1), F(2)))
    assert calls == [p]
    assert field == NumberField(p, RatInterval(F(1), F(3, 2)))
    assert len(calls) == 2
    with pytest.raises(BssError, match="isolate exactly one root"):
        NumberField(UniPoly.parse("X^2 - 2"), RatInterval(F(-2), F(2)))


# -- sign determination ------------------------------------------------------

def test_sign_at_zero_coords_is_zero(sqrt2_field):
    field, _ = sqrt2_field
    assert sign_at(AlgebraicNumber(field, (F(0), F(0)))) == 0


def test_sign_at_alpha_minus_7_5_is_positive(sqrt2_field):
    _, alpha = sqrt2_field
    assert sign_at(alpha - F(7, 5)) == 1


def test_sign_at_alpha_squared_minus_2_is_zero(sqrt2_field):
    _, alpha = sqrt2_field
    assert sign_at(alpha * alpha - 2) == 0


def test_sign_at_rational_inputs():
    assert sign_at(F(-3, 7)) == -1
    assert sign_at(F(0)) == 0
    assert sign_at(F(5)) == 1


def test_sign_at_int_inputs():
    assert [sign_at(n) for n in (-4, 0, 9, -(10 ** 5000), 10 ** 5000)] == [-1, 0, 1, -1, 1]


# -- field arithmetic --------------------------------------------------------

def test_alpha_times_alpha_is_2(sqrt2_field):
    _, alpha = sqrt2_field
    assert algebraic_equal(alpha * alpha, F(2))


def test_algebraic_number_checks_outside_callers_only(sqrt2_field):
    field, alpha = sqrt2_field
    # the public constructor checks the length and converts coordinates
    for coords in ((F(1),), (1, 2, 3), ()):
        with pytest.raises(BssError):
            AlgebraicNumber(field, coords)
    a = AlgebraicNumber(field, (1, "1/2"))
    assert a.coords == (F(1), F(1, 2)) and all(type(c) is F for c in a.coords)
    # arithmetic results come from the trusted constructor with the same shape
    results = [a + 3, 3 + a, a - alpha, 3 - a, -a, a * alpha, a * 2, 2 * a,
               a * F(1, 3), a.inverse(), a / (a + 1), 5 / a, a ** 3,
               field.from_rational(7), field.generator()]
    for r in results:
        assert r.field is field and type(r.coords) is tuple and len(r.coords) == 2
        assert all(type(c) is F for c in r.coords), r
    assert algebraic_equal(a * a.inverse(), 1) and algebraic_equal(5 / a * a, 5)


def test_rational_addition_in_field():
    assert F(2, 3) + F(1, 6) == F(5, 6)


def test_inverse_of_one_plus_alpha(sqrt2_field):
    _, alpha = sqrt2_field
    inv = (alpha + 1).inverse()
    assert algebraic_equal(inv, alpha - 1)
    assert algebraic_equal(F(1) / (alpha + 1), alpha - 1)


def test_division_by_zero_element_raises(sqrt2_field):
    field, alpha = sqrt2_field
    zero = field.from_rational(0)
    with pytest.raises(PoleError):
        alpha / zero
    with pytest.raises(PoleError):
        zero.inverse()


def test_field_axioms_on_random_triples(sqrt2_field):
    _, alpha = sqrt2_field
    rng = random.Random(23)

    def rand_elem():
        return alpha * F(rng.randint(-5, 5), rng.randint(1, 5)) + \
            F(rng.randint(-5, 5), rng.randint(1, 5))

    for _ in range(25):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert algebraic_equal((a + b) + c, a + (b + c))
        assert algebraic_equal((a * b) * c, a * (b * c))
        assert algebraic_equal(a * (b + c), a * b + a * c)
        if sign_at(a) != 0:
            assert algebraic_equal(a * a.inverse(), F(1))


def test_pow_matches_repeated_multiplication(sqrt2_field):
    _, alpha = sqrt2_field
    x = alpha + F(1, 2)
    assert algebraic_equal(x ** 3, x * x * x)
    assert algebraic_equal(x ** 0, F(1))


# -- minimal polynomials and degrees ----------------------------------------

def test_minimal_polynomial_of_rational():
    assert minimal_polynomial(QQ.from_rational(F(1, 2))) == UniPoly([F(-1, 2), 1])


def test_minimal_polynomial_of_alpha_plus_1(sqrt2_field):
    _, alpha = sqrt2_field
    assert minimal_polynomial(alpha + 1) == UniPoly([-1, -2, 1])


def test_minimal_polynomial_of_alpha_squared(sqrt2_field):
    _, alpha = sqrt2_field
    assert minimal_polynomial(alpha * alpha) == UniPoly([-2, 1])


def test_minimal_polynomial_vanishes_and_degree_divides(fifth_root_field):
    field, root = fifth_root_field
    rng = random.Random(31)
    for _ in range(10):
        coords = tuple(F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(5))
        a = AlgebraicNumber(field, coords)
        mp = minimal_polynomial(a)
        assert algebraic_equal(mp.eval(a), F(0))
        assert field.degree % mp.degree == 0


def test_degree_over_q():
    assert degree_over_q(F(7, 3)) == 1
    _, sqrt2 = nth_root_field(2, 2)
    assert degree_over_q(sqrt2) == 2
    _, fifth = nth_root_field(2, 5)
    assert degree_over_q(fifth) == 5


# -- root fields -------------------------------------------------------------

def test_nth_root_field_perfect_square():
    field, e = nth_root_field(4, 2)
    assert field.degree == 1 and algebraic_equal(e, F(2))


def test_nth_root_field_perfect_cube():
    field, e = nth_root_field(F(8, 27), 3)
    assert field.degree == 1 and algebraic_equal(e, F(2, 3))


def test_nth_root_field_fifth_root_of_2():
    field, e = nth_root_field(2, 5)
    assert field.min_poly == UniPoly([-2, 0, 0, 0, 0, 1])
    assert F(1) <= field.interval.lo and field.interval.hi <= F(2)
    assert algebraic_equal(e ** 5, F(2))


def test_nth_root_field_rejects_composite_degree():
    with pytest.raises(BssError):
        nth_root_field(2, 6)


def test_nth_root_field_root_property():
    rng = random.Random(41)
    for _ in range(10):
        c = F(rng.randint(2, 30), rng.randint(1, 6))
        m = rng.choice([2, 3, 5, 7])
        field, e = nth_root_field(c, m)
        assert algebraic_equal(e ** m, c)
        if field.degree > 1:
            assert degree_over_q(e) == m


def test_nth_root_field_rejects_negative_radicand():
    with pytest.raises(BssError):
        nth_root_field(-2, 2)


# -- enclosures and the refinement loop --------------------------------------

def test_enclosure_narrows_to_requested_width(sqrt2_field):
    _, alpha = sqrt2_field
    box = (alpha + 1).enclosure(F(1, 10 ** 12))
    assert box.width() <= F(1, 10 ** 12)
    # 1 + sqrt2 = 2.41421356...
    assert box.lo < F(24143, 10000) and box.hi > F(24142, 10000)


@pytest.mark.parametrize("poly, lo, hi, coords", [
    ("X^3 - X - 1", 1, 2, (F(2, 3), -1, 5)),
    ("X^2 - 2", 1, 2, (F(1, 3), 1)),
    ("X^5 - 2", 1, 2, (F(2, 3), -1, 5, 0, F(1, 2))),
])
def test_enclosure_uses_the_shallowest_box_narrow_enough(poly, lo, hi, coords):
    # each enclosure is the evaluation over the first schedule box whose own
    # evaluation is at most the width wide, not over a deeper box; the
    # widths go down to 2^-58 and back, so the way back finds its boxes in
    # a schedule already built
    field = NumberField(UniPoly.parse(poly), RatInterval(lo, hi))
    a = AlgebraicNumber(field, tuple(F(c) for c in coords))
    for bits in [*range(1, 59), *range(58, 0, -1)]:
        width = F(1, 1 << bits)
        enc = a.enclosure(width)
        first = next(e for e in (eval_unipoly_interval(a.coords, box)
                                 for box in field._boxes)
                     if e.width() <= width)
        assert enc == first, bits


def test_sign_agrees_with_narrow_enclosure():
    # 100-digit refinement never contradicts the exact sign
    hundred = F(1, 10 ** 100)
    rng = random.Random(47)
    for c, m in [(2, 2), (2, 5)]:
        field, _ = nth_root_field(c, m)
        for _ in range(50):
            coords = tuple(F(rng.randint(-6, 6), rng.randint(1, 6))
                           for _ in range(field.degree))
            a = AlgebraicNumber(field, coords)
            s = sign_at(a)
            box = a.enclosure(hundred)
            if s != 0:
                assert box.sign() == s
            else:
                assert box.contains_zero()


# -- quadratic interval refinement ------------------------------------------

def test_qir_step_success_narrows_by_grid_and_squares_it():
    # secant of X^2 - 2 on (1, 2) lands on grid point 5/4; 3/2 brackets
    p = UniPoly.parse("X^2 - 2")
    assert qir_step(p, F(1), F(2), 4) == ((F(5, 4), F(3, 2)), 16)


def test_qir_step_failure_bisects_and_shrinks_grid():
    # the secant of X^5 - 2 on (0, 2) points far left of 2^(1/5)
    p = UniPoly.parse("X^5 - 2")
    assert qir_step(p, F(0), F(2), 16) == ((F(1), F(2)), 4)
    assert qir_step(p, F(0), F(2), 4) == ((F(1), F(2)), 4)


@pytest.mark.parametrize("poly, lo, hi", [
    ("X^2 - 2", 1, 2),
    ("X^2 - 2", 0, 100),          # secant far off: fallback bisections
    ("X^3 - 2", 1, 2),
    ("X^3 - 3*X + 1", 0, 1),      # middle one of three real roots
    ("X^5 - 2", 1, 2),
    ("X^5 - 4*X + 2", 0, 1),
    ("X^3 - X", F(1, 2), F(3, 2)),  # a grid point is the root 1
])
def test_refine_keeps_exactly_one_root_in_box(poly, lo, hi):
    field = NumberField(UniPoly.parse(poly), RatInterval(lo, hi))
    prev = field.interval
    for _ in range(10):
        box = field.refine()
        assert prev.lo <= box.lo <= box.hi <= prev.hi
        if box.lo == box.hi:
            assert field.min_poly.eval_fraction(box.lo) == 0
        else:
            assert count_roots_open(field.min_poly, box.lo, box.hi) == 1
        prev = box


def test_refine_stops_on_exact_root():
    field = NumberField(UniPoly.parse("X^3 - X"), RatInterval(F(1, 2), F(3, 2)))
    assert field.refine() == RatInterval.point(1)
    assert field.refine() == RatInterval.point(1)
    assert (field.generator() - 1).sign() == 0


def test_sign_at_2000_bits_takes_few_refine_steps(monkeypatch):
    bits = 2000
    # floor(2^(1/5) * 2^bits) by integer bisection
    lo, hi = 1 << bits, 2 << bits
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** 5 <= 2 << (5 * bits) else (lo, mid)
    r = F(lo, 1 << bits)
    field, root = nth_root_field(2, 5)
    calls = []
    refine = NumberField.refine
    monkeypatch.setattr(NumberField, "refine",
                        lambda self: calls.append(1) or refine(self))
    assert (root - r).sign() == 1
    assert (root - (r + F(1, 1 << bits))).sign() == -1
    assert len(calls) <= 32


def test_enclosure_rejects_a_nonpositive_width(sqrt2_field):
    _, alpha = sqrt2_field
    for width in (0, -1):
        with pytest.raises(BssError, match="width must be positive"):
            alpha.enclosure(width)


# -- interval enclosures ----------------------------------------------------

def test_interval_eval_constant():
    box = interval_eval(MultiPoly.constant(3, 1), [RatInterval(0, 1)])
    assert box.lo == 3 and box.hi == 3


def test_interval_eval_sum_of_vars():
    p = MultiPoly.var(0, 2) + MultiPoly.var(1, 2)
    box = interval_eval(p, [RatInterval(0, 1), RatInterval(0, 1)])
    assert box.lo == 0 and box.hi == 2


def test_interval_eval_y_squared_minus_2():
    p = MultiPoly.var(0, 1) * MultiPoly.var(0, 1) - MultiPoly.constant(2, 1)
    box = interval_eval(p, [RatInterval(F(7, 5), F(3, 2))])
    assert box.lo <= F(-1, 25) and box.hi >= F(1, 4)


def test_interval_eval_soundness_on_samples():
    rng = random.Random(53)
    for _ in range(100):
        nvars = rng.choice([1, 2])
        p = MultiPoly.constant(0, nvars)
        for _ in range(rng.randint(1, 4)):
            term = MultiPoly.constant(F(rng.randint(-5, 5), rng.randint(1, 4)), nvars)
            for v in range(nvars):
                term = term * MultiPoly.var(v, nvars) ** rng.randint(0, 3)
            p = p + term
        boxes = []
        for _ in range(nvars):
            lo = F(rng.randint(-12, 12), rng.randint(1, 6))
            boxes.append(RatInterval(lo, lo + F(rng.randint(0, 8), rng.randint(1, 4))))
        enc = interval_eval(p, boxes)
        for _ in range(10):
            point = []
            for b in boxes:
                t = F(rng.randint(0, 16), 16)
                point.append(b.lo + (b.hi - b.lo) * t)
            v = p.eval(tuple(point))
            assert enc.lo <= v <= enc.hi


def test_eval_unipoly_interval_exact_power_handling():
    # [-1, 2]^2 must include 0, not [1, 4]
    box = eval_unipoly_interval([F(0), F(0), F(1)], RatInterval(-1, 2))
    assert box.lo <= 0 and box.hi >= 4


# -- rational functions ------------------------------------------------------

def test_rf_eval_projection():
    y = RationalFunction.var(0, 1)
    assert rf_eval(y, (F(5),)) == F(5)


def test_rf_eval_moebius_at_3():
    y = RationalFunction.var(0, 1)
    one = RationalFunction.constant(1, 1)
    f = (y - one) / (y + one)
    assert rf_eval(f, (F(3),)) == F(1, 2)


def test_rf_eval_product_on_sqrt2(sqrt2_field):
    _, alpha = sqrt2_field
    f = RationalFunction.var(0, 2) * RationalFunction.var(1, 2)
    v = rf_eval(f, (alpha, alpha + 1))
    assert algebraic_equal(v, alpha + 2)
    assert v.coords == (F(2), F(1))


def test_rf_eval_pole_raises(sqrt2_field):
    _, alpha = sqrt2_field
    y = RationalFunction.var(0, 1)
    one = RationalFunction.constant(1, 1)
    f = one / (y - one)
    with pytest.raises(PoleError):
        rf_eval(f, (F(1),))
    # the denominator Y1^2 - 2 vanishes at the algebraic point sqrt(2)
    with pytest.raises(PoleError):
        rf_eval(one / (y * y - RationalFunction.constant(2, 1)), (alpha,))


def test_rational_function_canonical_form():
    y = RationalFunction.var(0, 1)
    one = RationalFunction.constant(1, 1)
    f = (y * y - one) / (y - one)
    assert f.is_polynomial()
    assert f == y + one
    g = (y + one) / (y + y)  # denominator gets leading coefficient 1
    assert g.den.leading_term()[1] == 1


def test_rational_function_zero_denominator_rejected():
    y = RationalFunction.var(0, 1)
    with pytest.raises(PoleError):
        y / RationalFunction.constant(0, 1)


def test_mp_gcd_shared_factor():
    y1 = MultiPoly.var(0, 2)
    y2 = MultiPoly.var(1, 2)
    common = y1 + y2
    a = common * (y1 - y2)
    b = common * common
    g = mp_gcd(a, b)
    # gcd is exact up to a constant; normalize by checking divisibility both ways
    assert not g.is_constant()
    assert g.degree_in(0) == 1 and g.degree_in(1) == 1


# -- fast paths of MultiPoly and RationalFunction against the constructor -----

def _raw_mul(p, q):
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return MultiPoly(p.nvars, out)


def _raw_add(p, q, sign=1):
    out = dict(p.terms)
    for e, c in q.terms.items():
        out[e] = out.get(e, 0) + sign * c
    return MultiPoly(p.nvars, out)


def _reference(op, a, b):
    """The result of op rebuilt through the canonicalising constructor
    from products taken term by term."""
    if op == "neg":
        return RationalFunction(MultiPoly(a.nvars, {e: -c for e, c in a.num.terms.items()}),
                                a.den)
    if op in ("add", "sub"):
        return RationalFunction(_raw_add(_raw_mul(a.num, b.den), _raw_mul(b.num, a.den),
                                         1 if op == "add" else -1),
                                _raw_mul(a.den, b.den))
    if op == "mul":
        return RationalFunction(_raw_mul(a.num, b.num), _raw_mul(a.den, b.den))
    return RationalFunction(_raw_mul(a.num, b.den), _raw_mul(a.den, b.num))


def _assert_clean(*polys):
    for p in polys:
        for e, c in p.terms.items():
            assert len(e) == p.nvars and all(type(x) is int and x >= 0 for x in e)
            assert type(c) is F and c != 0


def _random_poly(rng, nvars):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[e] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return MultiPoly(nvars, terms)


def _random_operand(rng, kind, nvars):
    if kind == "zero":
        return RationalFunction.constant(F(0), nvars)
    if kind == "constant":
        return RationalFunction.constant(F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)), nvars)
    num = _random_poly(rng, nvars)
    if kind == "polynomial":
        return RationalFunction(num)
    den = MultiPoly.constant(0, nvars)
    while den.is_constant():
        den = _random_poly(rng, nvars)
    return RationalFunction(num, den)


OPERAND_KINDS = ["zero", "constant", "polynomial", "rational"]


@pytest.mark.parametrize("nvars", [1, 2])
def test_rational_function_fast_paths_match_the_constructor(nvars):
    rng = random.Random(5000 + nvars)
    ops = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
           "mul": lambda a, b: a * b, "neg": lambda a, b: -a, "div": lambda a, b: a / b}
    checked = 0
    for kind_a in OPERAND_KINDS:
        for kind_b in OPERAND_KINDS:
            for _ in range(6):
                a = _random_operand(rng, kind_a, nvars)
                b = _random_operand(rng, kind_b, nvars)
                for name, op in ops.items():
                    if name == "div" and b.is_zero():
                        with pytest.raises(PoleError):
                            a / b
                        continue
                    got, want = op(a, b), _reference(name, a, b)
                    assert got == want, (name, str(a), str(b))
                    assert hash(got) == hash(want) and str(got) == str(want)
                    _assert_clean(got.num, got.den)
                    checked += 1
    assert checked > 400


def test_multipoly_fast_paths_keep_terms_clean():
    rng = random.Random(77)
    for nvars in (1, 2, 3):
        for _ in range(40):
            p = _random_poly(rng, nvars)
            q = _random_poly(rng, nvars)
            for got, want in [(p + q, _raw_add(p, q)), (p - q, _raw_add(p, q, -1)),
                              (p * q, _raw_mul(p, q)), (p - p, MultiPoly(nvars)),
                              (p.scale(F(-2, 3)), _raw_mul(p, MultiPoly.constant(F(-2, 3), nvars)))]:
                assert got == want and str(got) == str(want)
                _assert_clean(got)


def _rebuilt(f):
    """A fresh, equal object from the public constructors."""
    if isinstance(f, MultiPoly):
        return MultiPoly(f.nvars, dict(f.terms))
    return RationalFunction(_rebuilt(f.num), _rebuilt(f.den))


def test_cached_hashes_match_the_constructor():
    # fast-path and _of results hash like the equal function the public
    # constructor builds, on the first hash (which fills the cache) and after
    rng = random.Random(91)
    checked = 0
    for nvars in (1, 2):
        for _ in range(30):
            p, q = _random_poly(rng, nvars), _random_poly(rng, nvars)
            a = _random_operand(rng, rng.choice(OPERAND_KINDS), nvars)
            b = _random_operand(rng, rng.choice(OPERAND_KINDS), nvars)
            for got in (p + q, p - q, p * q, -p, p - p, p.scale(F(3, 2)),
                        MultiPoly._of(nvars, dict(p.terms)),
                        a + b, a - b, a * b, -a, RationalFunction._of(a.num, a.den),
                        RationalFunction.constant(F(rng.randint(-3, 3), 2), nvars)):
                first = hash(got)
                assert first == hash(_rebuilt(got))
                assert hash(got) == first == hash(_rebuilt(got))
                # the definitions the cache must keep
                if isinstance(got, MultiPoly):
                    assert first == hash((got.nvars, frozenset(got.terms.items())))
                else:
                    assert first == hash((got.num, got.den))
                checked += 1
    assert checked == 780


def test_is_constant_matches_the_degree_definition():
    rng = random.Random(92)
    seen = set()
    for nvars in (0, 1, 2, 3):
        polys = [MultiPoly(nvars), MultiPoly.constant(F(-2, 3), nvars),
                 MultiPoly.constant(7, nvars)]
        for _ in range(40):
            p = _random_poly(rng, nvars)
            polys += [p, p - p, p - MultiPoly._of(nvars, {e: c for e, c in p.terms.items()
                                                          if any(e)})]
        for p in polys:
            want = all(sum(e) == 0 for e in p.terms)
            assert p.is_constant() == want, str(p)
            seen.add(want)
    assert seen == {True, False}


def test_multipoly_public_constructor_still_validates():
    with pytest.raises(BssError, match="bad exponent"):
        MultiPoly(2, {(1,): F(1)})
    with pytest.raises(BssError, match="bad exponent"):
        MultiPoly(1, {(-1,): F(1)})
    p = MultiPoly(2, {(1, 0): 0, (0, 1): 3, (0, 0): F(0)})
    assert p.terms == {(0, 1): F(3)} and type(p.terms[(0, 1)]) is F


@pytest.mark.parametrize("exponent", [1.5, "2", True, 2.0, F(2)])
def test_multipoly_rejects_an_exponent_that_is_not_an_int(exponent):
    # int(x) used to turn 1.5 into 1 and "2" into 2 without a word
    with pytest.raises(BssError, match="bad exponent"):
        MultiPoly(1, {(exponent,): F(1)})
    with pytest.raises(BssError, match="bad exponent"):
        MultiPoly(2, {(0, exponent): F(1)})


def test_multipoly_products_drop_cancelled_coefficients():
    # (Y1 + 1)(Y1 - 1) = Y1^2 - 1: the two Y1 terms cancel and are not stored
    y, one = MultiPoly.var(0, 1), MultiPoly.constant(1, 1)
    p = (y + one) * (y - one)
    assert p.terms == {(2,): F(1), (0,): F(-1)}
    _assert_clean(p)


def test_polynomials_reject_algebraic_coefficients(sqrt2_field):
    _, alpha = sqrt2_field
    for c in (alpha, 0.5):
        for build in (lambda: MultiPoly(1, {(1,): c}), lambda: MultiPoly.constant(c, 2),
                      lambda: RationalFunction.constant(c, 2)):
            with pytest.raises(BssError, match=re.escape(f"coefficient {c!r}")):
                build()
