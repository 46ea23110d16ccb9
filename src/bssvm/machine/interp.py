"""Concrete interpreter: the execution core (core.py) over exact values.

The declared ZERO window (absolute, at offset 0) and the input cells 0..k-1
are pre-written.  Division by an exact zero is a division_by_zero fault, and
an oracle that cannot decide its query is an oracle_unsupported fault.

A run keeps one of two trace levels.  At "full", the default, each
executed instruction appends one step record: label, instruction, cells
written (absolute), branch sign taken, oracle query and answer.  At
"decisions" the run keeps only its branch signs and oracle answers, in run
order, and Trace.steps is empty.  That level calls execute with no record
callback, over a ConcreteDomain whose sign and ask append each answer they
give.  It is exact: execute calls sign only at a BRANCH and ask only at an
ORACLE, each call's answer is the one a full trace records at that step,
and the concrete domain never leaves a sign or an answer open.  A query
the oracle cannot decide raises before anything is appended, just as a
full trace records no oracle event on that fault.  With no record callback,
execute also ends a run at once when it reaches a jump to itself, with the
status and step count that stepping to the budget would give: such a row
makes no decision, so the decisions are those of the full trace too
(machine/core.py).  A full trace steps through it, one record per step.

Inside a run, every integral value is a Python int: the integral input
cells, the ZERO window and the integral program constants start as ints,
and ADD, SUB, MUL and an exact DIV of ints stay ints, so most steps of the
enumerators pay for no gcd and allocate no Fraction.  Values are Fractions
again where they leave run_concrete: the writes and the oracle query of
each full step record, and the output.  The query goes to oracle_query as
it is, ints included, and oracle_query converts it once.  Dicts kept for
one run map each int to its Fraction, starting from the program's own
integral constants, and each int written to a cell to the writes tuple of
that write.  So a value written again and again is converted once, and the
records that write it share one tuple: fewer objects for the garbage
collector to track.  A decisions-level run converts only its output: its
int -> Fraction dict starts empty, and it keeps no writes tuples.

StepRecord is a typing.NamedTuple, not a dataclass: dataclasses.replace,
asdict and fields do not apply to it, while its _replace, _asdict and
_fields do, and a record compares equal to the plain tuple of its fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from ..errors import BssError, PoleError
from ..exact import AlgebraicNumber, format_rational, sign_at
from .core import (BLANK_READ, BUDGET_EXHAUSTED, CONST, DIVISION_BY_ZERO, FAULT,
                   HALTED, ORACLE_UNSUPPORTED, check_budget, compile_program,
                   execute)
from .oracle import Oracle, oracle_query
from .program import Instruction, Program, VAR_ARITY, format_instruction

Value = Fraction | AlgebraicNumber

DEFAULT_BUDGET = 10**5

FULL = "full"
DECISIONS = "decisions"
TRACE_LEVELS = (FULL, DECISIONS)


@dataclass(frozen=True)
class RunResult:
    status: str
    output: tuple[Value, ...] | None
    steps: int
    fault_kind: str | None = None

    def __post_init__(self):
        if self.status not in (HALTED, BUDGET_EXHAUSTED, FAULT):
            raise BssError(f"bad status {self.status!r}")
        if (self.output is not None) != (self.status == HALTED):
            raise BssError("output is present exactly when the run halted")
        if (self.fault_kind is not None) != (self.status == FAULT):
            raise BssError("fault_kind is present exactly when the run faulted")


class StepRecord(NamedTuple):
    index: int
    label: str
    instruction: Instruction
    writes: tuple[tuple[int, Value], ...]
    branch_sign: int | None = None
    oracle_event: tuple[tuple[Value, ...], bool] | None = None


@dataclass
class Trace:
    program: Program
    input: tuple[Value, ...]
    oracle: Oracle
    steps: list[StepRecord]
    result: RunResult
    # (branch signs, oracle answers) of a decisions-level run, whose steps
    # are empty; None for a full trace
    decisions: tuple[list[int], list[bool]] | None = field(default=None, repr=False)

    def branch_history(self) -> tuple[int, ...]:
        if self.decisions is not None:
            return tuple(self.decisions[0])
        return tuple(s.branch_sign for s in self.steps if s.branch_sign is not None)

    def oracle_history(self) -> tuple[bool, ...]:
        if self.decisions is not None:
            return tuple(self.decisions[1])
        return tuple(s.oracle_event[1] for s in self.steps if s.oracle_event is not None)


def require_full(trace: Trace) -> None:
    """Reject a trace that kept only its decisions where steps are printed."""
    if trace.decisions is not None:
        raise BssError("a decisions-level trace has no steps to print; "
                       "run with trace='full'")


def normalize_input(program: Program, input_values) -> tuple[Value, ...]:
    # a Fraction passes as it is; anything else, a Fraction subclass included,
    # is converted
    values = tuple(v if type(v) is Fraction or isinstance(v, AlgebraicNumber) else Fraction(v)
                   for v in input_values)
    if program.arity != VAR_ARITY and len(values) != program.arity:
        raise BssError(f"program {program.name} takes {program.arity} input(s), got {len(values)}")
    return values


def initial_cells(program: Program, values, zero=Fraction(0)) -> dict:
    """The cells before the first step: the ZERO window holding zero, then
    input i in cell i."""
    cells = {}
    if program.zero_window is not None:
        lo, hi = program.zero_window
        for i in range(lo, hi + 1):
            cells[i] = zero
    for i, v in enumerate(values):
        cells[i] = v
    return cells


class _Fractions(dict):
    """int -> its Fraction, one per run: seeded with the program's
    constants, any other int's Fraction built on first use."""

    def __missing__(self, n: int) -> Fraction:
        q = self[n] = Fraction(n)
        return q


def _public(values, fractions: _Fractions) -> tuple[Value, ...]:
    return tuple([fractions[v] if type(v) is int else v for v in values])


def _constant_fractions(program: Program) -> dict[int, Fraction]:
    """Each integral constant of the program, as an int, mapped to the
    program's own Fraction; built once per Program object and kept on it,
    like its code table.  A run starts its _Fractions from it, so a short
    run converts its constants without building a Fraction."""
    table = program.__dict__.get("_constant_fractions")
    if table is None:
        table = program.__dict__["_constant_fractions"] = {
            q.numerator: q for op, _, q, _, _ in compile_program(program)
            if op == CONST and q.denominator == 1}
    return table


def run_concrete(program: Program, input_values, oracle: Oracle | None = None,
                 budget: int = DEFAULT_BUDGET,
                 trace: str = FULL) -> tuple[RunResult, Trace]:
    """Run to halt, fault, or budget exhaustion; always returns the trace,
    at the level trace names: "full" or "decisions" (module docstring)."""
    check_budget(budget, "budget", 1)
    if trace not in TRACE_LEVELS:
        raise BssError(f"trace must be {FULL!r} or {DECISIONS!r}, got {trace!r}")
    oracle = oracle if oracle is not None else Oracle.empty()
    values = normalize_input(program, input_values)
    cells = initial_cells(program, [v.numerator if type(v) is Fraction and v.denominator == 1
                                    else v for v in values], zero=0)
    steps: list[StepRecord] = []
    if trace == DECISIONS:
        fractions = _Fractions()
        domain = _DecisionsDomain(oracle)
        record = None
    else:
        fractions = _Fractions(_constant_fractions(program))
        domain = ConcreteDomain(oracle)
        written: dict[int, dict] = {}   # cell -> int -> its writes tuple
        append, rows, new = steps.append, program.instructions, tuple.__new__

        def record(index, pc, writes, branch, oracle_event):
            label, instruction = rows[pc]
            if writes:
                ((cell, value),) = writes
                if type(value) is int:
                    at = written.get(cell)
                    if at is None:
                        at = written[cell] = {}
                    shared = at.get(value)
                    if shared is None:
                        shared = at[value] = ((cell, fractions[value]),)
                    writes = shared
            if oracle_event is not None:
                oracle_event = (_public(oracle_event[0], fractions), oracle_event[1])
            # trusted constructor, like MultiPoly._of: one C-level tuple build
            append(new(StepRecord, (index, label, instruction, writes,
                                    branch and branch[1], oracle_event)))

    status, _, _, count, payload = execute(
        compile_program(program), cells, domain, budget, record=record)
    result = RunResult(status, _public(payload, fractions) if status == HALTED else None,
                       count, payload if status == FAULT else None)
    decisions = None if record is not None else (domain.branches, domain.answers)
    return result, Trace(program, values, oracle, steps, result, decisions)


class ConcreteDomain:
    """Exact values: every sign and oracle answer is decided.  An integral
    value may be an int (see the module docstring)."""

    def __init__(self, oracle: Oracle):
        self.oracle = oracle

    @staticmethod
    def const(q: Fraction) -> Value | int:
        return q.numerator if q.denominator == 1 else q

    @staticmethod
    def div(a: Value | int, b: Value | int) -> Value | int | None:
        if type(a) is int and type(b) is int:
            # never a / b, which is a float
            if not b:
                return None
            q = Fraction(a, b)
            return q.numerator if q.denominator == 1 else q
        if sign_at(b) == 0:
            return None
        try:
            return a / b
        except (PoleError, ZeroDivisionError):
            return None

    sign = staticmethod(sign_at)

    def ask(self, query: tuple[Value | int, ...]) -> bool:
        return oracle_query(self.oracle, query)


class _DecisionsDomain(ConcreteDomain):
    """The concrete domain, keeping each branch sign and oracle answer it
    gives, in run order: a decisions-level trace (module docstring)."""

    def __init__(self, oracle: Oracle):
        super().__init__(oracle)
        self.branches: list[int] = []
        self.answers: list[bool] = []

    def sign(self, value: Value | int) -> int:
        s = sign_at(value)
        self.branches.append(s)
        return s

    def ask(self, query: tuple[Value | int, ...]) -> bool:
        answer = oracle_query(self.oracle, query)
        self.answers.append(answer)
        return answer


# -- trace pretty printer --------------------------------------------------


def format_value(v: Value) -> str:
    if isinstance(v, AlgebraicNumber):
        if v.is_rational():
            return format_rational(v.as_fraction())
        coords = ",".join(format_rational(c) for c in v.coords)
        return f"alg({coords}; {v.field.min_poly})"
    return format_rational(v)


def trace_to_text(trace: Trace) -> str:
    require_full(trace)
    lines = []
    for step in trace.steps:
        writes = ",".join(f"c{cell}={format_value(value)}" for cell, value in step.writes)
        branch = "-" if step.branch_sign is None else f"{step.branch_sign:+d}"
        if step.oracle_event is None:
            oracle = "-"
        else:
            query, answer = step.oracle_event
            oracle = f"({','.join(format_value(v) for v in query)})->{'yes' if answer else 'no'}"
        lines.append(f"{step.index} {step.label} {format_instruction(step.instruction)} "
                     f"writes=[{writes}] branch={branch} oracle={oracle}")
    r = trace.result
    tail = f"{r.status} steps={r.steps}"
    if r.status == HALTED:
        tail += f" output=({','.join(format_value(v) for v in r.output)})"
    if r.status == FAULT:
        tail += f" fault={r.fault_kind}"
    lines.append(tail)
    return "\n".join(lines) + "\n"
