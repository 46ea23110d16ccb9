"""Concrete-symbolic lockstep execution.

shadow_trace runs a program on a concrete input while carrying, for every
written cell, the canonical rational function of the input indeterminates
that produced it: it runs the execution core (machine/core.py) over cells
that hold both.  Branch directions and oracle answers come from the
concrete values, so the symbolic side never decides anything; it only
records what function of the input each cell holds.  Each step keeps only
the cells it wrote.  The payoff is the agreement property: evaluating a
written cell's function at the input gives the concrete value written,
which field_boundary_check verifies after the fact.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

from ..errors import PoleError
from ..exact import (RationalFunction, algebraic_equal, degree_over_q, rf_eval,
                     sign_at)
from ..machine.core import FAULT, HALTED, check_budget, compile_program, execute
from ..machine.interp import (DEFAULT_BUDGET, ConcreteDomain, Value,
                              initial_cells, normalize_input)
from ..machine.oracle import GENERIC_ANSWER, Oracle
from ..machine.program import Program


@dataclass(frozen=True)
class SymStep:
    """One executed instruction: the cells it wrote, symbolically and
    concretely (keys are absolute cell indices)."""

    index: int
    pc: int
    label: str
    cells: dict[int, RationalFunction]
    values: dict[int, Value]


@dataclass(frozen=True)
class BranchEvent:
    function: RationalFunction
    sign: int
    step: int


@dataclass(frozen=True)
class OracleEvent:
    functions: tuple[RationalFunction, ...]
    answer: bool
    was_constant: bool
    step: int


@dataclass
class SymbolicTrace:
    program: Program
    input: tuple[Value, ...]
    oracle: Oracle
    steps: tuple[SymStep, ...]
    branch_log: tuple[BranchEvent, ...]
    oracle_log: tuple[OracleEvent, ...]
    outcome: str                 # halted | budget_exhausted | fault
    fault_kind: str | None
    output_functions: tuple[RationalFunction, ...] | None
    output_values: tuple[Value, ...] | None
    final_cells: dict[int, RationalFunction] = field(repr=False, default_factory=dict)
    final_values: dict[int, Value] = field(repr=False, default_factory=dict)

    @property
    def steps_executed(self) -> int:
        return len(self.steps)

    def branch_history(self) -> tuple[int, ...]:
        return tuple(e.sign for e in self.branch_log)

    def oracle_history(self) -> tuple[bool, ...]:
        return tuple(e.answer for e in self.oracle_log)


def input_functions(program: Program, nvars: int) -> dict[int, RationalFunction]:
    """The symbolic cells before the first step: input i is the variable
    Y(i+1), and the ZERO window holds the constant 0."""
    variables = [RationalFunction.var(i, nvars) for i in range(nvars)]
    return initial_cells(program, variables, zero=RationalFunction.constant(Fraction(0), nvars))


def _lockstep(op):
    """op on both halves of two shadow cells.  Two bare constants stay
    bare; a bare constant meeting a function is lifted to its variables."""

    def apply(a: "_Shadowed", b: "_Shadowed", value=None) -> "_Shadowed":
        if value is None:
            value = op(a.value, b.value)
        f, g = a.function, b.function
        if f is None:
            if g is None:
                return _Shadowed(value, None)
            f = a.lifted(g.nvars)
        elif g is None:
            g = b.lifted(f.nvars)
        return _Shadowed(value, op(f, g))

    return apply


class _Shadowed:
    """A shadow cell: a concrete value and the function that produced it.
    A cell whose function is the constant value itself carries function
    None and is lifted to a RationalFunction only where one is needed."""

    __slots__ = ("value", "function")

    def __init__(self, value: Value, function: RationalFunction | None):
        self.value = value
        self.function = function

    def lifted(self, nvars: int) -> RationalFunction:
        """The cell's function, a bare constant lifted to nvars variables."""
        f = self.function
        return RationalFunction.constant(self.value, nvars) if f is None else f

    __add__ = _lockstep(operator.add)
    __sub__ = _lockstep(operator.sub)
    __mul__ = _lockstep(operator.mul)


_divide = _lockstep(operator.truediv)


class _ShadowDomain(ConcreteDomain):
    """The concrete domain, deciding on the concrete halves of the cells."""

    def __init__(self, oracle: Oracle, use_generic: bool):
        super().__init__(oracle)
        self.use_generic = use_generic

    @staticmethod
    def const(q: Fraction) -> _Shadowed:
        return _Shadowed(q, None)

    def div(self, a: _Shadowed, b: _Shadowed) -> _Shadowed | None:
        value = super().div(a.value, b.value)
        return None if value is None else _divide(a, b, value)

    @staticmethod
    def sign(a: _Shadowed) -> int:
        return sign_at(a.value)

    def ask(self, query: tuple[_Shadowed, ...]) -> bool:
        if self.use_generic and not all(c.function is None or c.function.is_constant()
                                        for c in query):
            return GENERIC_ANSWER
        return super().ask(tuple(c.value for c in query))


def shadow_trace(program: Program, input_values, oracle: Oracle | None = None,
                 budget: int = DEFAULT_BUDGET,
                 use_generic: bool = False) -> SymbolicTrace:
    """use_generic answers nonconstant oracle queries with the generic
    answer, no (GENERIC_ANSWER), instead of querying, standing in for an input that the
    oracle's set misses entirely."""
    check_budget(budget, "budget", 1)
    oracle = oracle if oracle is not None else Oracle.empty()
    values = normalize_input(program, input_values)
    nvars = len(values)
    base = input_functions(program, nvars)
    cells = {c: _Shadowed(v, None if base[c].is_constant() else base[c])
             for c, v in initial_cells(program, values).items()}

    lifted: dict[tuple[int, int], RationalFunction] = {}

    def function(c: _Shadowed) -> RationalFunction:
        """The cell's function; a bare constant is lifted once per run and
        shared.  Recorded writes repeat few constants: on the benchmark's
        corpus workload 96% of these lifts find the constant already
        lifted, and sharing them cuts the traces' memory (BENCH_5.json)."""
        if c.function is not None:
            return c.function
        q = c.value
        # a pair of ints hashes without the modular inverse a Fraction takes
        key = (q.numerator, q.denominator)
        f = lifted.get(key)
        if f is None:
            f = lifted[key] = c.lifted(nvars)
        return f

    steps: list[SymStep] = []
    branch_log: list[BranchEvent] = []
    oracle_log: list[OracleEvent] = []

    def record(index, pc, writes, branch, oracle_event):
        if branch is not None:
            branch_log.append(BranchEvent(function(branch[0]), branch[1], index))
        if oracle_event is not None:
            query, answer = oracle_event
            fns = tuple(map(function, query))
            oracle_log.append(OracleEvent(fns, answer, all(f.is_constant() for f in fns), index))
        steps.append(SymStep(index, pc, program.instructions[pc][0],
                             {cell: function(c) for cell, c in writes},
                             {cell: c.value for cell, c in writes}))

    status, _, _, _, payload = execute(
        compile_program(program), cells, _ShadowDomain(oracle, use_generic),
        budget, record=record)
    output = payload if status == HALTED else None
    return SymbolicTrace(
        program=program, input=values, oracle=oracle, steps=tuple(steps),
        branch_log=tuple(branch_log), oracle_log=tuple(oracle_log),
        outcome=status, fault_kind=payload if status == FAULT else None,
        output_functions=None if output is None else tuple(map(function, output)),
        output_values=None if output is None else tuple(c.value for c in output),
        final_cells={cell: function(c) for cell, c in cells.items()},
        final_values={cell: c.value for cell, c in cells.items()},
    )


@dataclass(frozen=True)
class FieldBoundaryReport:
    ok: bool
    cells_checked: int
    max_value_degree: int
    failures: tuple[str, ...]


def field_boundary_check(trace: SymbolicTrace) -> FieldBoundaryReport:
    """Every written cell's function must (a) have rational coefficients and
    (b) reproduce the concrete value when evaluated at the input.

    Cells share function objects (a run lifts each constant once, and a
    COPY writes its source's function), so each distinct object is checked
    and replayed once, keyed by id: the trace holds every one of them for
    the length of the call.  Every cell is still compared with its own
    value, and every failure is reported for each cell it touches."""
    failures: list[str] = []
    checked = 0
    max_deg = 0
    seen: dict[int, tuple[list[str], object]] = {}  # id(f) -> (bad coeffs, replay)
    for step in trace.steps:
        for cell, f in step.cells.items():
            checked += 1
            concrete = step.values[cell]
            known = seen.get(id(f))
            if known is None:
                bad = [f"non-rational coefficient {coeff!r}"
                       for poly in (f.num, f.den) for coeff in poly.terms.values()
                       if not isinstance(coeff, Fraction)]
                try:
                    replay = rf_eval(f, trace.input)
                except PoleError:
                    replay = None
                known = seen[id(f)] = (bad, replay)
            bad, replay = known
            if bad:
                failures.extend(f"step {step.index} cell {cell}: {b}" for b in bad)
            if replay is None:
                failures.append(
                    f"step {step.index} cell {cell}: function pole at the input")
                continue
            if not algebraic_equal(replay, concrete):
                failures.append(
                    f"step {step.index} cell {cell}: {f} evaluates to "
                    f"{replay!r}, concrete run holds {concrete!r}")
            max_deg = max(max_deg, degree_over_q(concrete))
    return FieldBoundaryReport(not failures, checked, max_deg, tuple(failures))
