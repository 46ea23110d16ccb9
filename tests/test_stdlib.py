"""Library programs: outputs, step counts, enumerator agreement."""

import random
from fractions import Fraction as F

import pytest

from bssvm.enumeration import (
    bipoly_at,
    first_bipoly_vanishing,
    first_unipoly_vanishing,
    rational_at,
    unipoly_at,
)
from bssvm.exact import algebraic_equal, nth_root_field
from bssvm.machine import (
    BUDGET_EXHAUSTED,
    HALTED,
    Oracle,
    run_concrete,
)
from bssvm.stdlib import stdlib_names, stdlib_program

# Step counts are pinned to the documented enumeration orders; a change in
# the orders or the generators shows up here first.
SEMIDECIDER_STEPS_HALF = 4358
SEMIDECIDER_STEPS_SQRT2 = 11481
DEPENDENCE_STEPS_2_3 = 22292
DEPENDENCE_STEPS_SQRT2_3 = 152778
Q_ENUM_MAX_STEPS_80 = 1201
QX_ENUM_MAX_STEPS_45 = 392


def out(name, *args, budget=10 ** 5, oracle=None):
    result, _ = run_concrete(stdlib_program(name), list(args),
                             oracle=oracle, budget=budget)
    return result


@pytest.fixture(scope="module")
def sqrt2():
    _, root = nth_root_field(2, 2)
    return root


def test_listing_and_sources_match_generators():
    names = stdlib_names()
    assert "sgn" in names and "algebraic_semidecider" in names


def test_sgn_and_decider():
    assert out("sgn", F(-3)).output == (F(-1),)
    assert out("sgn", F(0)).output == (F(0),)
    assert out("sgn", F(5, 7)).output == (F(1),)
    assert out("sgn_decider", F(-3)).output == (F(0),)
    assert out("sgn_decider", F(0)).output == (F(0),)
    assert out("sgn_decider", F(2)).output == (F(1),)


def test_interval_member_half_to_one():
    cases = [(F(1, 4), 0), (F(1, 2), 1), (F(3, 4), 1),
             (F(1), 1), (F(2), 0), (F(-1), 0)]
    for x, want in cases:
        assert out("interval_member", x).output == (F(want),), x


def even_zeros_truth_oracle(x):
    # member iff x lies in some band [4^-m / 2, 4^-m]
    if x <= 0 or x > 1:
        return 0
    band_hi = F(1)
    while True:
        if band_hi / 2 <= x <= band_hi:
            return 1
        if x > band_hi:
            return 0
        band_hi /= 4


def test_even_zeros_frozen_cases():
    cases = [(F(3, 4), 1), (F(3, 10), 0), (F(1, 8), 1), (F(0), 0), (F(1), 1),
             (F(2), 0), (F(-1), 0), (F(1, 2), 1), (F(1, 4), 1), (F(1, 16), 1),
             (F(3, 8), 0), (F(1, 5), 1), (F(1, 10), 0)]
    for x, want in cases:
        result = out("even_zeros", x)
        assert result.status == HALTED and result.output == (F(want),), x


def test_even_zeros_matches_band_oracle():
    rng = random.Random(7)
    for _ in range(300):
        x = F(rng.randint(-4, 40), rng.randint(1, 40))
        result = out("even_zeros", x)
        assert result.status == HALTED
        assert result.output == (F(even_zeros_truth_oracle(x)),), x


def test_inv_shift():
    assert out("inv_shift", F(3)).output == (F(1, 2),)
    assert out("inv_shift", F(-1)).output == (F(-1, 2),)
    # at the pole the program spins instead of dividing by zero
    assert out("inv_shift", F(1), budget=500).status == BUDGET_EXHAUSTED


def test_cantor_cosemidecider_halts_outside():
    assert out("cantor_cosemidecider", F(1, 2)).output == (F(1),)
    assert out("cantor_cosemidecider", F(5)).output == (F(1),)
    assert out("cantor_cosemidecider", F(-1, 3)).output == (F(1),)


def test_cantor_cosemidecider_spins_on_members():
    for member in [F(0), F(1), F(1, 3), F(2, 3), F(1, 4), F(9, 10), F(3, 4)]:
        result = out("cantor_cosemidecider", member, budget=2000)
        assert result.status == BUDGET_EXHAUSTED, member


def test_oracle_demo_programs(sqrt2):
    fin = Oracle.finite([(F(2),)])
    assert out("oracle_member", F(5), F(2), oracle=fin).output == (F(1),)
    assert out("oracle_member", F(5), F(3), oracle=fin).output == (F(0),)
    assert out("oracle_member", F(5), sqrt2, oracle=Oracle.rationals()).output == (F(0),)
    assert out("always_zero", F(5), F(7)).output == (F(0),)
    assert out("eq_probe", F(5), F(5)).output == (F(1),)
    assert out("eq_probe", F(5), F(7)).output == (F(0),)


def test_q_enumerator_agrees_with_host_order():
    worst = 0
    for n in range(81):
        result = out("q_enumerator", F(n), budget=10 ** 6)
        assert result.status == HALTED and result.output == (rational_at(n),), n
        worst = max(worst, result.steps)
    assert worst == Q_ENUM_MAX_STEPS_80


def test_q_enumerator_spins_on_non_indices():
    assert out("q_enumerator", F(-1), budget=300).status == BUDGET_EXHAUSTED
    assert out("q_enumerator", F(7, 2), budget=2000).status == BUDGET_EXHAUSTED


def test_qx_enumerator_agrees_with_host_order():
    worst = 0
    for n in range(46):
        result = out("qx_enumerator", F(n), budget=10 ** 6)
        assert result.status == HALTED, n
        assert result.output == tuple(unipoly_at(n).coeffs), n
        worst = max(worst, result.steps)
    assert worst == QX_ENUM_MAX_STEPS_45


def test_algebraic_semidecider_halts_on_half():
    result = out("algebraic_semidecider", F(1, 2), budget=10 ** 6)
    assert result.status == HALTED and result.output == (F(1),)
    assert result.steps == SEMIDECIDER_STEPS_HALF
    # cross-check the halting point against the host-side enumeration
    index, poly = first_unipoly_vanishing(F(1, 2))
    assert poly.eval_fraction(F(1, 2)) == 0


def test_algebraic_semidecider_halts_on_sqrt2(sqrt2):
    result = out("algebraic_semidecider", sqrt2, budget=10 ** 6)
    assert result.status == HALTED and result.output == (F(1),)
    assert result.steps == SEMIDECIDER_STEPS_SQRT2
    index, poly = first_unipoly_vanishing(sqrt2)
    assert algebraic_equal(poly.eval(sqrt2), F(0))


def test_algebraic_semidecider_budget_cut():
    assert out("algebraic_semidecider", F(1, 2), budget=50).status == BUDGET_EXHAUSTED


def test_dependence_halts_on_rational_pair():
    result = out("dependence", F(2), F(3), budget=10 ** 6)
    assert result.status == HALTED and result.output == (F(1),)
    assert result.steps == DEPENDENCE_STEPS_2_3


def test_dependence_halts_on_mixed_pair(sqrt2):
    result = out("dependence", sqrt2, F(3), budget=10 ** 6)
    assert result.status == HALTED and result.output == (F(1),)
    assert result.steps == DEPENDENCE_STEPS_SQRT2_3


def test_dependence_halts_on_random_dependent_pairs():
    # Arbitrary pairs have first-vanishing indices far beyond desk scale, so
    # the pool keeps the dependency small: x2 = +/-x1 + delta puts a
    # low-index polynomial like Y2 - Y1 - 1 in the way.
    rng = random.Random(19)
    for _ in range(8):
        a = F(rng.randint(1, 6), rng.randint(1, 3))
        sign = rng.choice([1, -1])
        delta = rng.choice([F(0), F(1), F(-1)])
        b = sign * a + delta
        index, poly = first_bipoly_vanishing(a, b)
        assert algebraic_equal(poly.eval((a, b)), F(0))
        result = out("dependence", a, b, budget=10 ** 6)
        assert result.status == HALTED and result.output == (F(1),), (a, b)


def test_dependence_on_sqrt2_pair(sqrt2):
    # (sqrt2, 1 + sqrt2) is dependent with a small witness: Y2 - Y1 - 1
    index, poly = first_bipoly_vanishing(sqrt2, sqrt2 + 1)
    assert algebraic_equal(poly.eval((sqrt2, sqrt2 + 1)), F(0))
    result = out("dependence", sqrt2, sqrt2 + 1, budget=10 ** 6)
    assert result.status == HALTED and result.output == (F(1),)
