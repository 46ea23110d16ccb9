"""Concrete runs, shadow traces and path trees agree on every way a run ends.

The table below covers every opcode, and its runs end in each outcome: a
halt after SHIFT with an OUTPUT whose range spans two frames, each fault
kind, and budget exhaustion.  Each run is made three ways, by run_concrete,
shadow_trace and explore_paths, and the three must tell the same story.

run_concrete keeps integral values as ints inside a run; further down it
is checked against the Fraction-only domain it replaced, on every library
program.  At the end, its "decisions" trace level is checked against its
"full" one.
"""

import random
from fractions import Fraction as F

import pytest

from bssvm.errors import BssError, PoleError
from bssvm.exact import algebraic_equal, nth_root_field, rf_eval, sign_at
from bssvm.machine import Oracle, initial_cells, parse_program, run_concrete
from bssvm.machine.core import FAULT, HALTED, compile_program, execute
from bssvm.machine.oracle import oracle_query
from bssvm.stdlib import stdlib_names, stdlib_program
from bssvm.symbolic import explore_paths, shadow_trace
from bssvm.symbolic.shadow import input_functions

# CONST (literal and $param), COPY, ADD/SUB/MUL/DIV, BRANCH, JMP, ORACLE,
# SHIFTR; a DIV by the branch-pinned zero; OUTPUT c1..c1 after one SHIFTR
# emits the absolute cells 1..2
MIXED = """\
PROGRAM mixed
ARITY 1
PARAM k = 3/2
ZERO 1..1
start: CONST c2 $k
cp:    COPY c3 c0
mul:   MUL c4 c3 c2
sub:   SUB c4 c4 c0
add:   ADD c4 c4 c2
ask:   ORACLE c0..c0 br other
other: CONST c1 7
j0:    JMP emit
br:    BRANCH c4 neg zero pos
neg:   CONST c1 -1
j1:    JMP emit
zero:  DIV c1 c2 c4
j2:    JMP emit
pos:   DIV c1 c0 c4
emit:  SHIFTR
sum:   ADD c1 c0 c2
out:   OUTPUT c1..c1
"""

# SHIFTL/SHIFTR; blank reads in ADD and in OUTPUT
BLANK = """\
PROGRAM blank
ARITY 2
start: SHIFTL
cp:    COPY c0 c2
back:  SHIFTR
br:    BRANCH c0 bad wide ok
bad:   ADD c2 c0 c3
wide:  OUTPUT c0..c2
ok:    SHIFTL
out:   OUTPUT c0..c1
"""

# a divisor that is zero as a function, not only at the input
DIV_ZERO = """\
PROGRAM divzero
ARITY 1
start: SUB c1 c0 c0
div:   DIV c2 c0 c1
out:   OUTPUT c2..c2
"""

# a constant two-coordinate query the cantor oracle cannot decide
UNSUPPORTED = """\
PROGRAM unsupported
ARITY 1
start: CONST c1 1/3
one:   CONST c2 1
ask:   ORACLE c1..c2 yes no
yes:   OUTPUT c0..c0
no:    OUTPUT c1..c1
"""

# a counter loop whose branches are all constant: no fork, no halt
LOOP = """\
PROGRAM loop
ARITY 1
ZERO 1..1
start: CONST c2 1
loop:  ADD c1 c1 c2
mul:   MUL c3 c1 c0
br:    BRANCH c2 loop loop loop
"""

BUDGET = 40


def _sqrt2():
    return nth_root_field(2, 2)[1]


# (program text, oracle, input, status, fault kind)
CASES = [
    (MIXED, Oracle.rationals(), (F(5),), "halted", None),
    (MIXED, Oracle.rationals(), (F(-7),), "halted", None),
    (MIXED, Oracle.rationals(), (F(-3),), "fault", "division_by_zero"),
    (MIXED, Oracle.rationals(), ("sqrt2",), "halted", None),
    (BLANK, Oracle.empty(), (F(-1), F(2)), "fault", "blank_read"),
    (BLANK, Oracle.empty(), (F(0), F(2)), "fault", "blank_read"),
    (BLANK, Oracle.empty(), (F(4), F(2)), "halted", None),
    (DIV_ZERO, Oracle.empty(), (F(2),), "fault", "division_by_zero"),
    (UNSUPPORTED, Oracle.cantor(), (F(2),), "fault", "oracle_unsupported"),
    (LOOP, Oracle.empty(), (F(3),), "budget_exhausted", None),
]


def _case(text, values):
    values = tuple(_sqrt2() if v == "sqrt2" else v for v in values)
    return parse_program(text), values


@pytest.mark.parametrize("text,oracle,values,status,fault_kind", CASES)
def test_concrete_shadow_and_tree_agree(text, oracle, values, status, fault_kind):
    program, values = _case(text, values)
    result, ctrace = run_concrete(program, values, oracle=oracle, budget=BUDGET)
    strace = shadow_trace(program, values, oracle=oracle, budget=BUDGET)

    assert (result.status, result.fault_kind) == (status, fault_kind)
    assert (strace.outcome, strace.fault_kind) == (status, fault_kind)
    assert strace.output_values == result.output
    assert strace.steps_executed == result.steps == len(ctrace.steps)
    for cs, ss in zip(ctrace.steps, strace.steps):
        assert ss.values == dict(cs.writes)
        assert set(ss.cells) == set(ss.values)
    assert strace.branch_history() == ctrace.branch_history()
    assert strace.oracle_history() == ctrace.oracle_history()

    tree = explore_paths(program, oracle_policy="split", oracle=oracle)
    holding = [leaf for leaf in tree.leaves
               if leaf.condition.satisfied_by(values, oracle)]
    assert len(holding) == 1
    leaf = holding[0]
    assert (leaf.outcome, leaf.fault_kind) == (status, fault_kind)
    if status == "halted":
        assert len(leaf.outputs) == len(result.output)
        for f, v in zip(leaf.outputs, result.output):
            assert algebraic_equal(rf_eval(f, values), v)
    else:
        assert leaf.outputs is None


def test_tree_leaf_at_step_cap():
    program = parse_program(LOOP)
    tree = explore_paths(program)
    assert [(leaf.history, leaf.outcome, leaf.forks_used) for leaf in tree.leaves] \
        == [((), "budget_exhausted", 0)]
    assert tree.nodes == {(): ("leaf", tree.leaves[0])}


@pytest.mark.parametrize("text,oracle,values,status,fault_kind", CASES)
def test_shadow_cells_replay_the_concrete_run(text, oracle, values, status, fault_kind):
    program, values = _case(text, values)
    _, ctrace = run_concrete(program, values, oracle=oracle, budget=BUDGET)
    strace = shadow_trace(program, values, oracle=oracle, budget=BUDGET)
    cells = initial_cells(program, values)
    functions = input_functions(program, len(strace.input))
    for i, (step, sstep) in enumerate(zip(ctrace.steps, strace.steps, strict=True)):
        cells.update(step.writes)
        functions.update(sstep.cells)
        assert set(functions) == set(cells)
        for cell, f in functions.items():
            assert algebraic_equal(rf_eval(f, values), cells[cell]), (i, cell)


# -- the Fraction-only reference domain --------------------------------------

class FractionDomain:
    """The concrete domain as it was before integral values became ints:
    every rational value is a Fraction throughout the run."""

    def __init__(self, oracle):
        self.oracle = oracle

    @staticmethod
    def const(q):
        return q

    @staticmethod
    def div(a, b):
        if sign_at(b) == 0:
            return None
        try:
            return a / b
        except (PoleError, ZeroDivisionError):
            return None

    sign = staticmethod(sign_at)

    def ask(self, query):
        return oracle_query(self.oracle, query)


def reference_run(program, values, oracle, budget):
    """(status, steps, output, fault kind, records) of execute over the
    Fraction-only domain, each record (index, pc, writes, branch sign,
    oracle event) as run_concrete records it."""
    records = []

    def record(index, pc, writes, branch, oracle_event):
        records.append((index, pc, writes, branch and branch[1], oracle_event))

    status, _, _, count, payload = execute(
        compile_program(program), initial_cells(program, values),
        FractionDomain(oracle), budget, record=record)
    return (status, count, payload if status == HALTED else None,
            payload if status == FAULT else None, records)


def same(a, b) -> bool:
    """Equal and of one type, elementwise through tuples: an int never
    passes for the Fraction it equals."""
    if type(a) is tuple:
        return type(b) is tuple and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


ORACLE_PROGRAMS = ("oracle_member", "always_zero", "eq_probe")
REFERENCE_BUDGET = 2500


def _reference_inputs(name, arity):
    """Seeded rational inputs, integral and not, and inputs in Q(2^(1/3)):
    the generator, elements with non-integer coordinates, and a rational
    element of the cubic field."""
    rng = random.Random(sum(map(ord, name)))
    field, b = nth_root_field(2, 3)
    algebraic = [b, b * b - 3, F(1, 2) * b + F(-7, 3), field.from_rational(4)]
    points = []
    for _ in range(4):
        points.append(tuple(F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5)))
                            for _ in range(arity)))
    points.append(tuple(F(rng.randint(0, 40)) for _ in range(arity)))
    for k in range(len(algebraic)):
        points.append(tuple(algebraic[(k + i) % len(algebraic)] if i == arity - 1
                            else F(rng.randint(-5, 5)) for i in range(arity)))
    return points


@pytest.mark.parametrize("name", stdlib_names())
def test_run_concrete_agrees_with_the_fraction_domain(name):
    program = stdlib_program(name)
    oracle = Oracle.rationals() if name in ORACLE_PROGRAMS else Oracle.empty()
    rows = program.instructions
    for values in _reference_inputs(name, program.arity):
        status, count, output, fault_kind, records = reference_run(
            program, values, oracle, REFERENCE_BUDGET)
        result, trace = run_concrete(program, values, oracle=oracle, budget=REFERENCE_BUDGET)
        assert (result.status, result.steps, result.fault_kind) == (status, count, fault_kind)
        assert same(result.output, output) if output is not None else result.output is None
        assert len(trace.steps) == len(records)
        for step, (index, pc, writes, sign, oracle_event) in zip(trace.steps, records):
            assert (step.index, step.label, step.instruction) == (index, *rows[pc])
            assert same(step.writes, writes), (values, index)
            assert step.branch_sign == sign
            assert same(step.oracle_event, oracle_event), (values, index)


def test_reference_inputs_reach_every_outcome_and_the_oracle():
    """The runs above halt, exhaust the budget, and ask the oracle on both
    rational and irrational queries."""
    statuses, answers = set(), set()
    for name in stdlib_names():
        program = stdlib_program(name)
        oracle = Oracle.rationals() if name in ORACLE_PROGRAMS else Oracle.empty()
        for values in _reference_inputs(name, program.arity):
            result, trace = run_concrete(program, values, oracle=oracle,
                                         budget=REFERENCE_BUDGET)
            statuses.add(result.status)
            answers.update(trace.oracle_history())
    assert statuses >= {"halted", "budget_exhausted"}
    assert answers == {True, False}


# -- trace levels ------------------------------------------------------------

def same_decisions(program, values, oracle, budget):
    """Both trace levels give the same result and the same histories; the
    decisions level keeps no steps."""
    full_result, full = run_concrete(program, values, oracle=oracle, budget=budget)
    result, trace = run_concrete(program, values, oracle=oracle, budget=budget,
                                 trace="decisions")
    assert full.decisions is None
    assert result == full_result
    assert same(result.output, full_result.output)
    assert trace.steps == []
    assert trace.branch_history() == full.branch_history()
    assert trace.oracle_history() == full.oracle_history()
    assert (trace.program, trace.input, trace.oracle) == (full.program, full.input, full.oracle)
    return full_result, full


@pytest.mark.parametrize("name", stdlib_names())
def test_decisions_level_agrees_with_the_full_trace(name):
    program = stdlib_program(name)
    for values in _reference_inputs(name, program.arity):
        for oracle in (Oracle.rationals(), Oracle.empty(), None):
            for budget in (1, 5, 3000):
                same_decisions(program, values, oracle, budget)


@pytest.mark.parametrize("text,oracle,values,status,fault_kind", CASES)
def test_decisions_level_agrees_on_every_outcome(text, oracle, values, status, fault_kind):
    program, values = _case(text, values)
    result, _ = same_decisions(program, values, oracle, BUDGET)
    assert (result.status, result.fault_kind) == (status, fault_kind)


@pytest.mark.parametrize("level", ["none", "FULL", "", None, 1])
def test_run_concrete_rejects_an_unknown_trace_level(level):
    with pytest.raises(BssError, match="trace must be"):
        run_concrete(stdlib_program("sgn"), [F(2)], trace=level)
