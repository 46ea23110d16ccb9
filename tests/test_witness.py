"""Witness layer: ternary decompositions, root placement, counterexamples."""

import random
from fractions import Fraction as F

import pytest

from bssvm.errors import BssError
from bssvm.exact import RationalFunction, degree_over_q, sign_at
from bssvm.machine import Oracle, cantor_membership, run_concrete
from bssvm.stdlib import stdlib_program
from bssvm.witness import (
    CONFIRMED,
    INAPPLICABLE,
    CounterexampleReport,
    build_counterexample,
    cantor_decompose,
    choose_prime_m,
    even_zeros_truth,
    max_var_degree,
    place_root,
    ternary_expansion,
    ternary_string,
)


# -- ternary expansions ------------------------------------------------------

def test_ternary_expansion_terminating():
    preperiod, cycle = ternary_expansion(F(73, 81))
    assert preperiod == (2, 2, 0, 1) and cycle == ()
    assert ternary_string(F(73, 81)) == "0.2201"


def test_ternary_expansion_periodic():
    preperiod, cycle = ternary_expansion(F(1, 4))
    assert preperiod == () and cycle == (0, 2)
    assert ternary_string(F(1, 4)) == "0.(02)"
    assert ternary_string(F(1, 2)) == "0.(1)"


def test_ternary_expansion_endpoints():
    assert ternary_expansion(F(0)) == ((), ())
    preperiod, cycle = ternary_expansion(F(1))
    assert preperiod == () and cycle == (2,)  # 1 = 0.(2)


def test_ternary_expansion_domain_check():
    for x in [F(-1, 2), F(4, 3)]:
        with pytest.raises(BssError):
            ternary_expansion(x)


def test_ternary_expansion_strict_explicit_budget():
    # 1/997 has a long period, and its expansion still closes exactly
    preperiod, cycle = ternary_expansion(F(1, 997))
    assert cycle  # periodic
    value = sum(d * F(1, 3 ** (i + 1)) for i, d in enumerate(preperiod))
    scale = F(1, 3 ** len(preperiod))
    block = sum(d * F(1, 3 ** (i + 1)) for i, d in enumerate(cycle))
    value += scale * block / (1 - F(1, 3 ** len(cycle)))
    assert value == F(1, 997)


# -- Cantor decomposition ----------------------------------------------------

def test_cantor_decompose_frozen_prefix():
    pair = cantor_decompose(F(73, 81))
    assert (pair.c1, pair.c2) == (F(8, 9), F(2, 81))
    assert pair.c1 + pair.c2 / 2 == F(73, 81)


def test_cantor_decompose_small_cases():
    pair = cantor_decompose(F(1, 3))
    assert (pair.c1, pair.c2) == (F(0), F(2, 3))
    pair = cantor_decompose(F(0))
    assert (pair.c1, pair.c2) == (F(0), F(0))
    pair = cantor_decompose(F(1))
    assert pair.c1 + pair.c2 / 2 == 1
    assert cantor_membership(pair.c1) and cantor_membership(pair.c2)


def test_cantor_decompose_periodic_inputs():
    pair = cantor_decompose(F(1, 4))  # 0.(02) splits with an empty second leg
    assert pair.c1 + pair.c2 / 2 == F(1, 4) and pair.c2 == 0
    pair = cantor_decompose(F(1, 2))  # 0.(1) pushes everything to c2
    assert pair.c1 == 0 and pair.c2 == 1


def test_cantor_decompose_random_ternary_denominators():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randrange(0, 21)
        den = 3 ** k
        x = F(rng.randrange(0, den + 1), den)
        pair = cantor_decompose(x)
        assert pair.c1 + pair.c2 / 2 == x, x
        assert cantor_membership(pair.c1) and cantor_membership(pair.c2), x


def test_cantor_decompose_long_period_input():
    x = F(1, 997)
    pair = cantor_decompose(x)
    assert pair.c1 + pair.c2 / 2 == x
    assert cantor_membership(pair.c1) and cantor_membership(pair.c2)


def test_cantor_decompose_domain_check():
    with pytest.raises(BssError):
        cantor_decompose(F(3, 2))


# -- even_zeros ground truth -------------------------------------------------

def test_even_zeros_truth_frozen():
    assert even_zeros_truth(F(3, 4)) == 1
    assert even_zeros_truth(F(3, 10)) == 0
    assert even_zeros_truth(F(1, 8)) == 1
    assert even_zeros_truth(F(0)) == 0
    assert even_zeros_truth(F(1)) == 1
    assert even_zeros_truth(F(2)) == 0
    assert even_zeros_truth(F(-1, 2)) == 0


def test_even_zeros_truth_matches_program():
    prog = stdlib_program("even_zeros")
    rng = random.Random(29)
    for _ in range(200):
        x = F(rng.randint(1, 199), 200)
        result, _ = run_concrete(prog, [x])
        assert result.output == (F(even_zeros_truth(x)),), x


# -- degree bookkeeping ------------------------------------------------------

def test_max_var_degree():
    y1 = RationalFunction.var(0, 2)
    y2 = RationalFunction.var(1, 2)
    assert max_var_degree([], 2) == 0
    assert max_var_degree([y1 * y1], 2) == 0
    f = (y1 * y2 * y2 * y2 + RationalFunction.constant(1, 2)) / \
        (y2 - RationalFunction.constant(2, 2))
    assert max_var_degree([f, y1 * y1], 2) == 3
    assert max_var_degree([f], 1) == 1
    with pytest.raises(BssError):
        max_var_degree([f], 0)  # variables are numbered from 1


def test_choose_prime_m():
    assert choose_prime_m(0) == 2
    assert choose_prime_m(1) == 2
    assert choose_prime_m(2) == 3
    assert choose_prime_m(3) == 5
    assert choose_prime_m(13) == 17


# -- root placement ----------------------------------------------------------

def test_place_root_frozen_example():
    b, x2 = place_root(2, 5, F(5, 2), F(1, 10))
    assert b == F(27, 20)
    assert sign_at(x2 - F(12, 5)) == 1 and sign_at(F(13, 5) - x2) == 1
    assert degree_over_q(x2) == 5


def test_place_root_wide_window():
    b, x2 = place_root(2, 2, 0, 10)
    assert sign_at(x2 + 10) == 1 and sign_at(10 - x2) == 1
    assert degree_over_q(x2) == 2


def test_place_root_rejects_perfect_powers():
    with pytest.raises(BssError, match="perfect"):
        place_root(4, 2, 0, 1)
    with pytest.raises(BssError, match="perfect"):
        place_root(F(8, 27), 3, 0, 1)


def test_place_root_rejects_bad_arguments():
    with pytest.raises(BssError):
        place_root(-2, 2, 0, 1)  # radicand must be positive
    with pytest.raises(BssError):
        place_root(2, 1, 0, 1)  # extension degree at least 2
    with pytest.raises(BssError):
        place_root(2, 2, 0, 0)  # window width must be positive


def test_place_root_lands_inside_window():
    rng = random.Random(11)
    for _ in range(40):
        center = F(rng.randrange(-400, 400), rng.randrange(1, 40))
        eps = F(1, rng.randrange(1, 200))
        m = rng.choice([2, 3, 5, 7])
        x1 = rng.choice([F(2), F(3), F(5), F(1, 2), F(7, 3)])
        b, x2 = place_root(x1, m, center, eps)
        assert sign_at(x2 - (center - eps)) == 1
        assert sign_at((center + eps) - x2) == 1
        assert (b / (eps / 2)).denominator == 1  # b sits on the eps/2 grid
        assert degree_over_q(x2) == m


# -- the counterexample pipeline ---------------------------------------------

def test_build_counterexample_confirms_on_probe():
    prog = stdlib_program("oracle_member")
    report = build_counterexample(prog, Oracle.rationals(), 2, (5, 7))
    assert report.verdict == CONFIRMED
    assert report.n == 1 and report.m == 2 and report.b == F(11, 2)
    assert report.path_equal is True
    assert report.machine_output == 0 and report.ground_truth == 1
    assert degree_over_q(report.x2) == 2
    assert any("dependence witness" in note for note in report.notes)


def test_build_counterexample_constant_machine():
    prog = stdlib_program("always_zero")
    report = build_counterexample(prog, Oracle.rationals(), 2, (5, 7))
    assert report.verdict == CONFIRMED
    assert report.n == 0 and report.m == 2


def test_build_counterexample_equality_probe_inapplicable():
    prog = stdlib_program("eq_probe")
    report = build_counterexample(prog, Oracle.rationals(), 2, (5, 5))
    assert report.verdict == INAPPLICABLE
    assert "pins" in report.notes[0]


def test_build_counterexample_rejects_wrong_arity():
    with pytest.raises(BssError):
        build_counterexample(stdlib_program("sgn"), Oracle.rationals(), 2, (5,))


def test_counterexample_report_validates_itself():
    with pytest.raises(BssError):
        CounterexampleReport(verdict=CONFIRMED, x1=F(2))  # missing the payload


def test_build_counterexample_perfect_power_radicand():
    prog = stdlib_program("oracle_member")
    report = build_counterexample(prog, Oracle.rationals(), 4, (5, 7))
    assert report.verdict == INAPPLICABLE  # 4 is a perfect square
