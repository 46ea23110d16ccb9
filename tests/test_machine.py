"""Machine layer: DSL parsing, concrete execution, faults, oracles."""

import dataclasses
from fractions import Fraction as F

import pytest

from bssvm.errors import BssError, DslSyntaxError, ProgramError
from bssvm.exact import AlgebraicNumber, algebraic_equal, degree_over_q, nth_root_field
from bssvm.machine import (
    BLANK_READ,
    Arith,
    Branch,
    Const,
    Copy,
    Output,
    OracleCall,
    Program,
    Shift,
    StepRecord,
    BUDGET_EXHAUSTED,
    DIVISION_BY_ZERO,
    FAULT,
    HALTED,
    Oracle,
    OracleUnsupported,
    cantor_membership,
    initial_cells,
    normalize_input,
    oracle_query,
    parse_program,
    run_concrete,
    trace_to_text,
)
from bssvm.machine.core import BRANCH, GOTO, compile_program, execute
from bssvm.machine.interp import ConcreteDomain
from bssvm.stdlib import stdlib_names, stdlib_program
from bssvm.symbolic import epsilon_certificate, extract_f, shadow_trace, verify_neighborhood
from bssvm.witness import CONFIRMED, build_counterexample, place_root

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
    assert type(t1.steps) is list and t1.steps == t2.steps
    assert [hash(s) for s in t1.steps] == [hash(s) for s in t2.steps]


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


# the library programs with a jump to itself, `spin: JMP spin`, where the
# rational unranking they share diverges on an index off the naturals
SPINNING = ("q_enumerator", "qx_enumerator", "algebraic_semidecider", "dependence")


def _spin_entries(name):
    """The program, its spin row, and (pc, cells) states from which execute
    reaches that row.  q_enumerator gets there from its inputs off the
    naturals.  The other three unrank an index that is always a natural
    built from constants, so no input of theirs reaches the row; their
    states start at the BRANCH that opens the unranking, with an index off
    the naturals in its cell and 1 in the cell the unranking reads as one."""
    program = stdlib_program(name)
    code = compile_program(program)
    (spin,) = [i for i, (op, a, b, _, _) in enumerate(code) if op == GOTO and a == i and b == 0]
    if name == "q_enumerator":
        return program, spin, [(0, initial_cells(program, [x])) for x in (F(-1), F(1, 2), F(7, 2))]
    guard = next(i for i, (op, _, b, _, _) in enumerate(code) if op == BRANCH and b[0] == spin)
    idx, (_, _, start) = code[guard][1], code[guard][2]
    one = code[start][3]   # start: SUB idx idx one
    entries = []
    for x in (F(-1), F(7, 2)):
        cells = initial_cells(program, [F(2)] * program.arity)
        cells[idx], cells[one] = x, 1
        entries.append((guard, cells))
    return program, spin, entries


@pytest.mark.parametrize("name", SPINNING)
def test_an_untraced_jump_to_itself_ends_as_stepping_would(name):
    program, spin, entries = _spin_entries(name)
    code = compile_program(program)
    domain = ConcreteDomain(Oracle.empty())
    for pc, cells in entries:
        pcs = []
        execute(code, dict(cells), domain, 10 ** 4, pc, record=lambda _, at, *rest: pcs.append(at))
        k = pcs.index(spin) + 1   # the step that first enters the spin row
        assert k >= 2
        for budget in (1, k - 1, k, k + 1, 10 ** 4):
            traced, untraced = dict(cells), dict(cells)
            want = execute(code, traced, domain, budget, pc, record=lambda *_: None)
            assert execute(code, untraced, domain, budget, pc) == want, (budget, k)
            assert untraced == traced
        assert want[:4] == (BUDGET_EXHAUSTED, spin, 0, 10 ** 4)


class _CountingCode(tuple):
    """A code table that counts its row fetches."""

    fetches = 0

    def __getitem__(self, i):
        self.fetches += 1
        return tuple.__getitem__(self, i)


def test_an_untraced_spin_fetches_a_few_rows_not_one_per_step():
    program = stdlib_program("q_enumerator")
    code = _CountingCode(compile_program(program))
    cells = initial_cells(program, [F(-1)])
    status, pc, _, steps, _ = execute(code, cells, ConcreteDomain(Oracle.empty()), 10 ** 6)
    assert (status, steps) == (BUDGET_EXHAUSTED, 10 ** 6)
    assert code.fetches < 50
    # the decisions level runs untraced: a budget of 10^9 ends at once, with
    # the decisions of a full trace
    result, trace = run_concrete(program, [F(-1)], budget=10 ** 9, trace="decisions")
    assert (result.status, result.steps) == (BUDGET_EXHAUSTED, 10 ** 9)
    _, full = run_concrete(program, [F(-1)], budget=100)
    assert trace.branch_history() == full.branch_history() == (-1,)
    assert full.steps[-1].label == program.instructions[pc][0]


def test_normalize_input_keeps_a_fraction_and_converts_the_rest():
    program = stdlib_program("dependence")
    q = F(3, 7)
    kept, two = normalize_input(program, [q, 2])
    assert kept is q and type(two) is F and two == 2

    class Sub(F):
        pass

    half, five_thirds = normalize_input(program, [Sub(1, 2), "5/3"])
    assert type(half) is F and half == F(1, 2)
    assert type(five_thirds) is F and five_thirds == F(5, 3)


_SGN, _PAIR = stdlib_program("sgn"), stdlib_program("oracle_member")

# each entry point that reads a caller's value, given v where that value goes
_READS_A_VALUE = {
    "run_concrete": lambda v: run_concrete(_SGN, [v]),
    "shadow_trace": lambda v: shadow_trace(_SGN, [v]),
    "normalize_input": lambda v: normalize_input(_SGN, [v]),
    "Oracle.finite": lambda v: Oracle.finite([(F(1), v)]),
    "oracle_query": lambda v: oracle_query(Oracle.rationals(), (F(1), v)),
}
# the witness layer's rational inputs
_READS_A_RATIONAL = {
    "build_counterexample_x1":
        lambda v: build_counterexample(_PAIR, Oracle.rationals(), v, (5, 7)),
    "build_counterexample_probe":
        lambda v: build_counterexample(_PAIR, Oracle.rationals(), 2, (5, v)),
    "place_root_x1": lambda v: place_root(v, 2, F(7), F(1, 10)),
    "place_root_center": lambda v: place_root(F(2), 2, v, F(1, 10)),
    "place_root_eps": lambda v: place_root(F(2), 2, F(7), v),
}


_NOT_EXACT = {"None": None, "abc": "abc", "object": object()}


@pytest.mark.parametrize("entry,bad", [
    *((e, b) for e in [*_READS_A_VALUE, *_READS_A_RATIONAL] for b in _NOT_EXACT),
    *((e, "sqrt2") for e in _READS_A_RATIONAL),
])
def test_a_value_that_is_not_exact_is_a_typed_error(entry, bad):
    call = {**_READS_A_VALUE, **_READS_A_RATIONAL}[entry]
    value = nth_root_field(2, 2)[1] if bad == "sqrt2" else _NOT_EXACT[bad]
    with pytest.raises(BssError):
        call(value)


def test_degree_over_q_reads_a_rational_value_without_linear_algebra(monkeypatch):
    import bssvm.exact.numberfield as numberfield

    field, cbrt2 = nth_root_field(2, 3)

    def refuse(a):
        raise AssertionError("minimal polynomial computed for a rational value")

    monkeypatch.setattr(numberfield, "minimal_polynomial", refuse)
    for v in (3, F(1, 2), field.from_rational(F(-5, 3))):
        assert degree_over_q(v) == 1
    monkeypatch.undo()
    assert degree_over_q(cbrt2) == 3


@pytest.mark.parametrize("budget", [2.5, "5", None, True, 0])
def test_run_concrete_rejects_non_int_budget(budget):
    with pytest.raises(BssError, match="budget must be"):
        run_concrete(stdlib_program("sgn"), [F(2)], budget=budget)


def test_step_record_contract():
    assert StepRecord._fields == ("index", "label", "instruction", "writes",
                                  "branch_sign", "oracle_event")
    assert StepRecord._field_defaults == {"branch_sign": None, "oracle_event": None}
    _, trace = run_concrete(stdlib_program("even_zeros"), [F(3, 10)])
    record = trace.steps[0]
    assert type(record) is StepRecord and not hasattr(record, "__dict__")
    assert repr(record).startswith("StepRecord(index=0, label=")
    with pytest.raises(AttributeError):
        record.branch_sign = 1
    assert record == tuple(record)
    with pytest.raises(TypeError):
        dataclasses.replace(record, index=7)
    assert record._replace(index=7) == (7,) + tuple(record)[1:]


WALK_TEXT = """\
PROGRAM walk
ARITY 1
ZERO 5..5
start: CONST c1 2
mul:   MUL c2 c0 c1
test:  BRANCH c2 neg neg pos
neg:   JMP neg
pos:   ORACLE c0..c0 yes no
yes:   SHIFTR
div:   DIV c3 c0 c4
no:    OUTPUT c1..c1
"""


def test_step_records_follow_the_program_text():
    # writes, a branch, an oracle call, a shift and then a division by the
    # ZERO cell: the window has moved, so DIV reads absolute cells 1 and 5
    prog = parse_program(WALK_TEXT)
    result, trace = run_concrete(prog, [F(3, 4)], oracle=Oracle.rationals())
    assert (result.status, result.fault_kind, result.steps) == (FAULT, DIVISION_BY_ZERO, 6)
    at = dict(prog.instructions)
    assert trace.steps == [
        (0, "start", Const(1, F(2)), ((1, F(2)),), None, None),
        (1, "mul", Arith("MUL", 2, 0, 1), ((2, F(3, 2)),), None, None),
        (2, "test", Branch(2, "neg", "neg", "pos"), (), 1, None),
        (3, "pos", OracleCall(0, 0, "yes", "no"), (), None, ((F(3, 4),), True)),
        (4, "yes", Shift("right"), (), None, None),
        (5, "div", Arith("DIV", 3, 0, 4), (), None, None),
    ]
    for i, step in enumerate(trace.steps):
        assert type(step) is StepRecord and step.index == i
        assert step.instruction is at[step.label]


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


def test_trace_text_rejects_a_decisions_trace():
    _, trace = run_concrete(stdlib_program("sgn"), [F(-3)], trace="decisions")
    assert trace.steps == [] and trace.branch_history() == (-1,)
    with pytest.raises(BssError, match="decisions-level trace"):
        trace_to_text(trace)


# -- integral values inside a run -------------------------------------------

def _public(v) -> bool:
    return type(v) is F or isinstance(v, AlgebraicNumber)


def assert_public(result, trace):
    """Every value leaving run_concrete is a Fraction or an AlgebraicNumber:
    never the int, bool or float a run may hold inside."""
    for step in trace.steps:
        assert all(_public(v) for _, v in step.writes), step
        if step.oracle_event is not None:
            assert all(_public(v) for v in step.oracle_event[0]), step
    if result.output is not None:
        assert all(_public(v) for v in result.output), result
    assert all(_public(v) for v in trace.input)


@pytest.mark.parametrize("name", stdlib_names())
def test_values_leave_a_run_as_fractions(name):
    prog = stdlib_program(name)
    _, sqrt2 = nth_root_field(2, 2)
    for first in (F(3), F(-1, 2), F(0), sqrt2):
        values = (F(2), first)[-prog.arity:]
        result, trace = run_concrete(prog, values, oracle=Oracle.rationals(), budget=3000)
        assert_public(result, trace)


def test_certificate_and_witness_values_are_fractions():
    prog = stdlib_program("inv_shift")
    trace = shadow_trace(prog, [F(2)])
    cert = epsilon_certificate(extract_f(trace), trace.input)
    report = verify_neighborhood(prog, None, trace, cert, samples=10, seed=2)
    assert report.ok
    assert all(_public(v) for v in (report.epsilon, *(c for s in report.samples for c in s.point)))
    for name in ("oracle_member", "always_zero"):
        report = build_counterexample(stdlib_program(name), Oracle.rationals(),
                                      F(2), (F(5), F(7)))
        assert report.verdict == CONFIRMED
        assert all(_public(v) for v in (report.x1, report.b, report.x2, report.machine_output,
                                        report.ground_truth, report.epsilon)), report


def test_int_division_is_exact():
    text = ("PROGRAM d\nARITY 0\none: CONST c0 1\nthree: CONST c1 3\n"
            "third: DIV c2 c0 c1\nneg: CONST c3 -6\nexact: DIV c4 c3 c1\n"
            "out: OUTPUT c2..c4\n")
    result, trace = run_text(text)
    assert_public(result, trace)
    assert [s.writes for s in trace.steps] == [
        ((0, F(1)),), ((1, F(3)),), ((2, F(1, 3)),), ((3, F(-6)),), ((4, F(-2)),), ()]
    assert result.output == (F(1, 3), F(-6), F(-2))
    # inside the run: an int quotient stays an int, and none is a float
    div = ConcreteDomain.div
    assert type(div(1, 3)) is F and div(1, 3) == F(1, 3)
    assert type(div(-6, 3)) is int and div(-6, 3) == -2
    assert div(-6, 0) is None and div(F(1, 2), 0) is None and div(0, F(0)) is None
    assert type(div(7, F(1, 2))) is F and div(7, F(1, 2)) == 14
    assert type(ConcreteDomain.const(F(4))) is int and ConcreteDomain.const(F(1, 2)) == F(1, 2)


def test_repeated_int_writes_share_one_writes_tuple():
    text = ("PROGRAM rep\nARITY 1\nstart: CONST c1 1\nagain: CONST c1 1\n"
            "other: CONST c2 1\nin1: COPY c3 c0\nin2: COPY c3 c0\nout: OUTPUT c1..c3\n")
    prog = parse_program(text)
    _, trace = run_concrete(prog, [F(5)])
    first, again, other, in1, in2 = (s.writes for s in trace.steps[:5])
    assert first is again and first == ((1, F(1)),) and type(first[0][1]) is F
    assert other == ((2, F(1)),) and other[0][1] is first[0][1]
    # an integral input is an int inside the run too
    assert in1 is in2 and in1 == ((3, F(5)),) and type(in1[0][1]) is F


def test_int_zero_divisor_faults_at_the_division():
    text = ("PROGRAM z\nARITY 1\nstart: CONST c1 2\nsub: SUB c2 c1 c1\n"
            "add: ADD c3 c0 c1\ndiv: DIV c4 c3 c2\nout: OUTPUT c4..c4\n")
    result, trace = run_text(text, F(5))
    assert (result.status, result.fault_kind, result.steps) == (FAULT, DIVISION_BY_ZERO, 4)
    assert [s.writes for s in trace.steps] == [((1, F(2)),), ((2, F(0)),), ((3, F(7)),), ()]
    assert trace.steps[-1].label == "div"
    assert_public(result, trace)


def test_int_over_an_algebraic_number_and_back():
    text = ("PROGRAM back\nARITY 1\nstart: CONST c1 5\nover: DIV c2 c1 c0\n"
            "back: DIV c3 c1 c2\nout: OUTPUT c2..c3\n")
    field, b = nth_root_field(2, 3)
    x = b * b - F(1, 2) * b + 3
    result, trace = run_text(text, x)
    assert_public(result, trace)
    over, back = result.output
    assert isinstance(over, AlgebraicNumber) and algebraic_equal(over * x, 5)
    assert isinstance(back, AlgebraicNumber) and back.field is field and back == x


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


@pytest.mark.parametrize("oracle, query, want", [
    (Oracle.rationals(), (3, -2), True),
    (Oracle.degree_eq(1), (4,), True),
    (Oracle.degree_leq(2), (4,), True),
    (Oracle.cantor(), (0,), True),
    (Oracle.cantor(), (1,), True),
    (Oracle.finite([(1, 2)]), (1, 2), True),
    (Oracle.algebraic(), (3, -2), True),
    (Oracle.empty(), (3, -2), False),
])
def test_oracle_query_accepts_int_coordinates(oracle, query, want):
    # the concrete domain hands its integral values to the oracle as ints
    assert oracle_query(oracle, query) is want
    assert ConcreteDomain(oracle).ask(query) is want


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
