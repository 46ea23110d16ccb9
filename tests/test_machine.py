"""Machine layer: DSL parsing, concrete execution, faults, oracles."""

from fractions import Fraction as F

import pytest

from bssvm.errors import BssError, DslSyntaxError, ProgramError
from bssvm.exact import nth_root_field
from bssvm.machine import (
    BLANK_READ,
    Arith,
    Const,
    Copy,
    Output,
    Program,
    Shift,
    BUDGET_EXHAUSTED,
    DIVISION_BY_ZERO,
    FAULT,
    HALTED,
    Oracle,
    OracleUnsupported,
    cantor_membership,
    oracle_query,
    parse_program,
    run_concrete,
    trace_to_text,
)
from bssvm.stdlib import stdlib_names, stdlib_program

SGN_TEXT = """\
PROGRAM sgn
ARITY 1
start: BRANCH c0 neg zero pos
neg:   CONST c1 -1
j1:    JMP done
zero:  CONST c1 0
j2:    JMP done
pos:   CONST c1 1
done:  OUTPUT c1..c1
"""


def run_text(text, *args, oracle=None, budget=10 ** 5):
    prog = parse_program(text)
    return run_concrete(prog, list(args), oracle=oracle, budget=budget)


# -- parsing -----------------------------------------------------------------

def test_parse_sgn_round_trip():
    prog = parse_program(SGN_TEXT)
    assert prog.name == "sgn" and prog.arity == 1
    assert parse_program(prog.to_text()) == prog


def test_parse_unresolved_label():
    bad = "PROGRAM p\nARITY 1\nstart: JMP L9\n"
    with pytest.raises(BssError, match="L9"):
        parse_program(bad)


def test_parse_syntax_error_carries_line_number():
    bad = "PROGRAM p\nARITY 1\nstart: CONST c0 oops\n"
    with pytest.raises(DslSyntaxError, match="line 3"):
        parse_program(bad)


def test_parse_bad_parameter_reference():
    bad = "PROGRAM p\nARITY 1\nstart: CONST c0 $nope\nout: OUTPUT c0..c0\n"
    with pytest.raises((DslSyntaxError, ProgramError)):
        parse_program(bad)


def test_parse_comments_and_params():
    text = """\
PROGRAM shifty  # named constant demo
ARITY 1
PARAM k = 3/2
start: CONST c1 $k   # load the parameter
mul:   MUL c2 c0 c1
out:   OUTPUT c2..c2
"""
    prog = parse_program(text)
    result, _ = run_concrete(prog, [F(4)])
    assert result.output == (F(6),)


def test_stdlib_sources_round_trip():
    for name in stdlib_names():
        prog = stdlib_program(name)
        assert parse_program(prog.to_text()) == prog


@pytest.mark.parametrize("last", [
    Const(0, F(1)),
    Copy(1, 0),
    Arith("ADD", 1, 0, 0),
    Arith("SUB", 1, 0, 0),
    Arith("MUL", 1, 0, 0),
    Arith("DIV", 1, 0, 0),
    Shift("left"),
    Shift("right"),
], ids=["CONST", "COPY", "ADD", "SUB", "MUL", "DIV", "SHIFTL", "SHIFTR"])
def test_fall_through_last_instruction_rejected(last):
    head = (("first", Const(2, F(5))),)
    with pytest.raises(ProgramError, match="falls through"):
        Program("p", 1, (), None, head + (("last", last),))
    # the same instruction is fine before a final OUTPUT
    Program("p", 1, (), None, head + (("last", last), ("out", Output(0, 0))))


def test_fall_through_program_rejected_at_parse():
    with pytest.raises(BssError, match="falls through"):
        parse_program("PROGRAM x\nARITY 0\nstart: CONST c0 1\n")


def test_arity_mismatch_rejected():
    prog = parse_program(SGN_TEXT)
    with pytest.raises(BssError):
        run_concrete(prog, [F(1), F(2)])


# -- concrete execution ------------------------------------------------------

def test_sgn_outputs():
    for x, want in [(F(-3), F(-1)), (F(0), F(0)), (F(5, 7), F(1))]:
        result, _ = run_text(SGN_TEXT, x)
        assert result.status == HALTED and result.output == (want,)


def test_determinism_identical_traces():
    prog = stdlib_program("even_zeros")
    r1, t1 = run_concrete(prog, [F(3, 10)])
    r2, t2 = run_concrete(prog, [F(3, 10)])
    assert r1 == r2
    assert len(t1.steps) == len(t2.steps)
    for a, b in zip(t1.steps, t2.steps):
        assert (a.index, a.label, a.writes, a.branch_sign, a.oracle_event) == \
            (b.index, b.label, b.writes, b.branch_sign, b.oracle_event)


def test_budget_exhaustion_and_monotonicity():
    loop = "PROGRAM loop\nARITY 0\nstart: JMP start\n"
    result, trace = run_text(loop, budget=17)
    assert result.status == BUDGET_EXHAUSTED and result.steps == 17
    assert len(trace.steps) == 17

    prog = stdlib_program("sgn")
    baseline, _ = run_concrete(prog, [F(2)], budget=10 ** 5)
    assert baseline.status == HALTED
    for budget in (baseline.steps, baseline.steps + 1, 10 ** 6):
        again, _ = run_concrete(prog, [F(2)], budget=budget)
        assert again == baseline  # halted runs are budget-independent


def test_division_by_zero_fault():
    text = "PROGRAM d\nARITY 2\nstart: DIV c2 c0 c1\nout: OUTPUT c2..c2\n"
    result, trace = run_text(text, F(1), F(0))
    assert result.status == FAULT and result.fault_kind == DIVISION_BY_ZERO
    assert result.output is None
    # the faulting step is recorded with no writes
    assert trace.steps[-1].writes == ()


def test_blank_read_fault_and_zero_window():
    text = "PROGRAM b\nARITY 1\nstart: ADD c2 c0 c1\nout: OUTPUT c2..c2\n"
    result, _ = run_text(text, F(1))
    assert result.status == FAULT and result.fault_kind == BLANK_READ

    declared = "PROGRAM b\nARITY 1\nZERO 0..4\nstart: ADD c2 c0 c1\nout: OUTPUT c2..c2\n"
    result, _ = run_text(declared, F(1))
    assert result.status == HALTED and result.output == (F(1),)


def test_oracle_unsupported_fault():
    text = "PROGRAM o\nARITY 1\nstart: ORACLE c0..c0 yes no\nyes: CONST c1 1\n" \
           "j: JMP out\nno: CONST c1 0\nout: OUTPUT c1..c1\n"
    _, sqrt2 = nth_root_field(2, 2)
    result, trace = run_text(text, sqrt2, oracle=Oracle.cantor())
    assert result.status == FAULT and result.fault_kind == "oracle_unsupported"
    assert trace.steps[-1].writes == ()


def test_output_inverted_range_rejected_at_parse():
    text = "PROGRAM e\nARITY 1\nstart: OUTPUT c1..c0\n"
    with pytest.raises(BssError, match="lo <= hi"):
        parse_program(text)


def test_output_empty_range_after_shift():
    # OUTPUT lo anchored to the initial frame, hi riding the window;
    # after two left shifts the absolute range [1, -1] is empty
    text = "PROGRAM e\nARITY 1\nstart: SHIFTL\ns2: SHIFTL\nout: OUTPUT c1..c1\n"
    result, _ = run_text(text, F(9))
    assert result.status == HALTED and result.output == ()


def test_output_variable_length_after_shift():
    # writes at the moving window land in distinct absolute cells
    text = """\
PROGRAM v
ARITY 1
start: CONST c1 10
a:     SHIFTR
b:     CONST c1 20
c:     SHIFTL
out:   OUTPUT c1..c2
"""
    result, _ = run_text(text, F(0))
    assert result.status == HALTED and result.output == (F(10), F(20))


def test_trace_text_format():
    prog = stdlib_program("sgn")
    _, trace = run_concrete(prog, [F(-3)])
    text = trace_to_text(trace)
    lines = text.splitlines()
    assert len(lines) == len(trace.steps) + 1  # one per step plus a summary
    assert all("writes=[" in ln and "branch=" in ln and "oracle=" in ln
               for ln in lines[:-1])
    assert "branch=-1" in text  # the sign taken on input -3
    assert lines[-1].startswith("halted steps=3")


# -- oracle queries ----------------------------------------------------------

def test_oracle_rationals():
    assert oracle_query(Oracle.rationals(), (F(3, 4),)) is True
    _, sqrt2 = nth_root_field(2, 2)
    assert oracle_query(Oracle.rationals(), (sqrt2,)) is False
    assert oracle_query(Oracle.rationals(), (F(1), sqrt2)) is False


def test_oracle_algebraic_always_true():
    _, sqrt2 = nth_root_field(2, 2)
    assert oracle_query(Oracle.algebraic(), (sqrt2, F(1, 3))) is True


def test_oracle_degree_kinds():
    _, sqrt2 = nth_root_field(2, 2)
    _, fifth = nth_root_field(2, 5)
    assert oracle_query(Oracle.degree_eq(2), (sqrt2,)) is True
    assert oracle_query(Oracle.degree_eq(2), (fifth,)) is False
    assert oracle_query(Oracle.degree_eq(1), (F(4, 3),)) is True
    assert oracle_query(Oracle.degree_leq(2), (F(4, 3),)) is True
    assert oracle_query(Oracle.degree_leq(2), (fifth,)) is False
    with pytest.raises(OracleUnsupported):
        oracle_query(Oracle.degree_eq(2), (sqrt2, sqrt2))  # 1-tuples only


def test_oracle_finite_coherence():
    _, sqrt2 = nth_root_field(2, 2)
    members = [(F(1), F(2)), (sqrt2, F(0))]
    oracle = Oracle.finite(members)
    for t in members:
        assert oracle_query(oracle, t) is True
    for t in [(F(1), F(3)), (F(2), F(1)), (sqrt2, F(1)), (F(1),)]:
        assert oracle_query(oracle, t) is False


def test_oracle_empty_and_cantor_unsupported():
    assert oracle_query(Oracle.empty(), (F(1),)) is False
    _, sqrt2 = nth_root_field(2, 2)
    with pytest.raises(OracleUnsupported):
        oracle_query(Oracle.cantor(), (sqrt2,))


def test_oracle_kind_validation():
    with pytest.raises(BssError):
        Oracle("nonsense")
    with pytest.raises(BssError):
        Oracle.degree_eq(0)


# -- Cantor membership -------------------------------------------------------

def test_cantor_membership_frozen_examples():
    assert cantor_membership(F(1, 4)) is True   # 0.(02)
    assert cantor_membership(F(1, 2)) is False  # 0.(1), unique expansion
    assert cantor_membership(F(1)) is True      # 0.(2)
    assert cantor_membership(F(0)) is True
    assert cantor_membership(F(1, 3)) is True   # 0.1 = 0.0(2)
    assert cantor_membership(F(2, 3)) is True
    assert cantor_membership(F(5, 27)) is False
    assert cantor_membership(F(-1, 4)) is False
    assert cantor_membership(F(5, 4)) is False


def test_cantor_membership_digit_pair_closure():
    # appending 00 or 22 to a terminating member expansion stays inside
    members = [(F(0), 1), (F(2, 3), 1), (F(2, 9), 2), (F(8, 9), 2), (F(20, 27), 3)]
    for x, ndigits in members:
        assert cantor_membership(x) is True
        appended00 = x  # two zero digits change nothing
        appended22 = x + F(2, 3 ** (ndigits + 1)) + F(2, 3 ** (ndigits + 2))
        assert cantor_membership(appended00) is True
        assert cantor_membership(appended22) is True


def test_cantor_membership_matches_digit_search():
    # brute force over denominators 3^k: x is a member iff some k-digit
    # 0/2-string equals x exactly or extends to it with trailing 2s
    from itertools import product
    for k in range(1, 6):
        den = 3 ** k
        for num in range(den + 1):
            x = F(num, den)
            want = any(
                sum(d * F(1, 3 ** (i + 1)) for i, d in enumerate(digits)) == x
                or sum(d * F(1, 3 ** (i + 1)) for i, d in enumerate(digits))
                + F(1, 3 ** k) == x
                for digits in product((0, 2), repeat=k)
            )
            assert cantor_membership(x) is want, x
