"""Execution core: the one place instructions are given their meaning.

Execution model: an unbounded, Z-indexed sparse tape of values plus a window
offset.  A cell operand c<i> addresses absolute cell offset+i.  SHIFTR and
SHIFTL move the window by one.  Reading a never-written cell is a blank_read
fault.  OUTPUT c<lo>..c<hi> halts and emits absolute cells [lo, offset+hi]:
the low end is anchored to the initial frame, the high end rides the window,
which is what lets a program emit a tuple whose length it chose at run time.
An inverted range emits the empty tuple.

compile_program turns a Program into a code table once: labels become
instruction indices, $param constants their values, opcodes small integers.
execute runs the table over a dict of cells in a value domain, an object
with four methods:

  const(q)     the domain value of the rational program constant q
  div(a, b)    a / b, or None when the divisor is zero
  sign(v)      -1, 0 or 1, or None when the sign is open
  ask(values)  the oracle's answer to the query, or None when it is open;
               raises OracleUnsupported for a query the oracle cannot decide

ADD, SUB and MUL are the values' own + - * operators.  A None from sign or
ask stops the run with status FORK, so the caller decides how to go on: the
concrete and shadow domains never return None, the path explorer forks.

A run with no record callback ends at once on a jump to itself (a GOTO
whose target is its own row and whose delta is 0, i.e. JMP to its own
label): its step count becomes the budget, and it returns BUDGET_EXHAUSTED
with the pc, offset, steps and cells that stepping to the budget would give.
That is exact, because such a row reads no cell, writes none and calls no
domain method, so nothing can change before the budget runs out.  A run
with a record callback steps through it, since record is called once per
executed instruction.  A semi-decision diverges this way, as q_enumerator
does off the naturals (`spin: JMP spin`), and its untraced run then costs
a few rows, not one loop pass per step of its budget.
"""

from __future__ import annotations

import operator

from ..errors import BssError
from .oracle import OracleUnsupported
from .program import Arith, Branch, Const, Copy, Jmp, OracleCall, Program, Shift

HALTED = "halted"
BUDGET_EXHAUSTED = "budget_exhausted"
FAULT = "fault"
FORK = "fork"

DIVISION_BY_ZERO = "division_by_zero"
BLANK_READ = "blank_read"
ORACLE_UNSUPPORTED = "oracle_unsupported"

CONST, COPY, ARITH, DIV, BRANCH, GOTO, ORACLE, OUTPUT = range(8)

_ARITH = {"ADD": operator.add, "SUB": operator.sub, "MUL": operator.mul}


def compile_program(program: Program) -> tuple[tuple, ...]:
    """The code table of a program, built once per Program object and kept
    on it.  Row i is instruction i as (op, a, b, c, d):

      CONST dst value        COPY dst src src       ARITH dst src1 src2 operator
      DIV dst src1 src2      BRANCH src (neg, zero, pos)
      GOTO target delta      ORACLE lo hi yes no    OUTPUT lo hi

    GOTO jumps and moves the window by delta: JMP is GOTO target 0, SHIFTR
    and SHIFTL are GOTO to the next row with delta 1 and -1."""
    # Program is a frozen dataclass, but its instance __dict__ takes a cached
    # attribute, as functools.cached_property relies on
    code = program.__dict__.get("_code")
    if code is not None:
        return code
    at = program.label_index()
    rows = []
    for i, (_, ins) in enumerate(program.instructions):
        if isinstance(ins, Const):
            value = ins.value if ins.param is None else program.param_value(ins.param)
            rows.append((CONST, ins.dst, value, None, None))
        elif isinstance(ins, Copy):
            rows.append((COPY, ins.dst, ins.src, ins.src, None))
        elif isinstance(ins, Arith) and ins.op == "DIV":
            rows.append((DIV, ins.dst, ins.src1, ins.src2, None))
        elif isinstance(ins, Arith):
            rows.append((ARITH, ins.dst, ins.src1, ins.src2, _ARITH[ins.op]))
        elif isinstance(ins, Branch):
            rows.append((BRANCH, ins.src, (at[ins.neg], at[ins.zero], at[ins.pos]), None, None))
        elif isinstance(ins, Jmp):
            rows.append((GOTO, at[ins.target], 0, None, None))
        elif isinstance(ins, Shift):
            rows.append((GOTO, i + 1, 1 if ins.direction == "right" else -1, None, None))
        elif isinstance(ins, OracleCall):
            rows.append((ORACLE, ins.lo, ins.hi, at[ins.yes], at[ins.no]))
        else:  # Output; Program admits no other kind
            rows.append((OUTPUT, ins.lo, ins.hi, None, None))
    code = program.__dict__["_code"] = tuple(rows)
    return code


def check_budget(budget, name: str, least: int) -> None:
    """Reject a budget that is not an int (a bool included) or is below least."""
    if type(budget) is bool or not isinstance(budget, int):
        raise BssError(f"{name} must be an int, got {budget!r}")
    if budget < least:
        raise BssError(f"{name} must be at least {least}, got {budget}")


def execute(code, cells: dict, domain, budget: int, pc: int = 0, offset: int = 0,
            record=None) -> tuple[str, int, int, int, object]:
    """Run code from pc until it halts, faults, forks or has executed budget
    instructions, updating cells in place.

    Returns (status, pc, offset, steps), steps counting the last instruction
    too, and a payload: the output tuple when HALTED, the fault kind when
    FAULT, None at BUDGET_EXHAUSTED.  At FORK, pc is the BRANCH or ORACLE
    that forked and the payload is the value or the query left open.

    record(index, pc, writes, branch, oracle), when given, is called for
    every instruction executed, forks excepted: writes holds (absolute cell,
    value) pairs, branch is (value, sign) at a BRANCH and oracle is
    (query, answer) at an ORACLE, else None.

    With no record, a JMP to its own row sets steps to budget and so returns
    BUDGET_EXHAUSTED at once, with the same pc, offset, steps and cells as
    stepping would: the row touches no cell and no domain method (module
    docstring).
    """
    const, div, sign, ask = domain.const, domain.div, domain.sign, domain.ask
    get = cells.get
    steps = 0
    while steps < budget:
        op, a, b, c, d = code[pc]
        index = steps
        steps += 1
        if op <= DIV:
            if op == CONST:
                value = const(b)
            else:
                x, y = get(offset + b), get(offset + c)
                if x is None or y is None:
                    fault = BLANK_READ
                    break
                if op == COPY:
                    value = x
                elif op == ARITH:
                    value = d(x, y)
                elif (value := div(x, y)) is None:
                    fault = DIVISION_BY_ZERO
                    break
            cells[offset + a] = value
            if record is not None:
                record(index, pc, ((offset + a, value),), None, None)
            pc += 1
        elif op == BRANCH:
            x = get(offset + a)
            if x is None:
                fault = BLANK_READ
                break
            s = sign(x)
            if s is None:
                return FORK, pc, offset, steps, x
            if record is not None:
                record(index, pc, (), (x, s), None)
            pc = b[s + 1]
        elif op == GOTO:
            if record is not None:
                record(index, pc, (), None, None)
            elif a == pc and not b:
                # a jump to itself: every step left repeats it (docstring)
                steps = budget
            pc = a
            offset += b
        elif op == ORACLE:
            query = tuple(map(get, range(offset + a, offset + b + 1)))
            if any(v is None for v in query):
                fault = BLANK_READ
                break
            try:
                answer = ask(query)
            except OracleUnsupported:
                fault = ORACLE_UNSUPPORTED
                break
            if answer is None:
                return FORK, pc, offset, steps, query
            if record is not None:
                record(index, pc, (), None, (query, answer))
            pc = c if answer else d
        else:
            output = tuple(map(get, range(a, offset + b + 1)))
            if any(v is None for v in output):
                fault = BLANK_READ
                break
            if record is not None:
                record(index, pc, (), None, None)
            return HALTED, pc, offset, steps, output
    else:
        return BUDGET_EXHAUSTED, pc, offset, steps, None
    if record is not None:
        record(index, pc, (), None, None)
    return FAULT, pc, offset, steps, fault
