"""Whole-tree symbolic exploration.

Where shadow_trace follows one concrete input, explore_paths follows every
input at once: a BRANCH on a nonconstant cell function forks the state three
ways (sign -1, 0, +1), an ORACLE call on a nonconstant query tuple forks two
ways or takes the generic answer, and each resulting leaf carries the sign
conditions that select it.  Constant functions never fork; a function whose
sign the current path has already pinned is forced down that arm, which also
prunes contradictory paths without any satisfiability reasoning (dead leaves
from jointly-unsatisfiable conditions are allowed).  Depth is counted in
forks, not instructions; a separate straight-line step cap catches runaway
loops between forks.

Equality arms (sign 0) on nonconstant functions describe measure-zero input
sets; their leaves are flagged so downstream consumers can skip them.

The index from function to sign that makes each lookup O(1) lives on the
explorer's stack, one dict per pending state, so it dies with its state and
a finished leaf keeps only its plain PathCondition.

Paths run on the execution core (machine/core.py) over rational functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import BssError
from ..exact import (MultiPoly, RationalFunction, UniPoly, rf_eval, sign_at)
from ..machine.core import (BRANCH, BUDGET_EXHAUSTED, FAULT, FORK, HALTED,
                            check_budget, compile_program, execute)
from ..machine.oracle import GENERIC_ANSWER, Oracle, oracle_query
from ..machine.program import VAR_ARITY, Program
from .shadow import input_functions

STEP_CAP = 10_000  # straight-line instructions between forks

_SIGN_ARM = {-1: "-1", 0: "0", 1: "+1"}


@dataclass(frozen=True)
class PathCondition:
    """Sign constraints and oracle assumptions that select one path."""

    constraints: tuple[tuple[RationalFunction, int], ...] = ()
    oracle_assumptions: tuple[tuple[tuple[RationalFunction, ...], bool], ...] = ()

    def __post_init__(self):
        signs: dict[RationalFunction, int] = {}
        for f, s in self.constraints:
            if signs.setdefault(f, s) != s:
                raise BssError(f"contradictory signs on {f} in one path condition")

    def sign_of(self, f: RationalFunction) -> int | None:
        for g, s in self.constraints:
            if g == f:
                return s
        return None

    def assumed(self, fns: tuple[RationalFunction, ...]) -> bool | None:
        for g, a in self.oracle_assumptions:
            if g == fns:
                return a
        return None

    def with_constraint(self, f: RationalFunction, s: int) -> "PathCondition":
        return PathCondition(self.constraints + ((f, s),), self.oracle_assumptions)

    def with_assumption(self, fns, answer: bool) -> "PathCondition":
        return PathCondition(self.constraints,
                             self.oracle_assumptions + ((tuple(fns), answer),))

    def satisfied_by(self, values, oracle: Oracle | None = None) -> bool:
        """Do concrete input values meet every constraint (and, when an
        oracle is supplied, every oracle assumption)?"""
        for f, s in self.constraints:
            if sign_at(rf_eval(f, values)) != s:
                return False
        if oracle is not None:
            for fns, assumed in self.oracle_assumptions:
                query = tuple(rf_eval(f, values) for f in fns)
                if oracle_query(oracle, query) != assumed:
                    return False
        return True


@dataclass(frozen=True)
class PathLeaf:
    history: tuple[str, ...]
    condition: PathCondition
    outcome: str                 # halted | budget_exhausted | fault
    outputs: tuple[RationalFunction, ...] | None
    fault_kind: str | None
    measure_zero: bool
    forks_used: int


@dataclass(frozen=True)
class PathTree:
    program: Program
    arity: int
    depth_budget: int
    # history prefix -> ("branch", f) | ("oracle", fns) | ("leaf", PathLeaf)
    nodes: dict[tuple[str, ...], tuple]
    leaves: tuple[PathLeaf, ...]

    def halted_leaves(self) -> tuple[PathLeaf, ...]:
        return tuple(l for l in self.leaves if l.outcome == "halted")


class _PathDomain:
    """Rational functions of the inputs: a sign or an oracle answer is
    decided when the function is constant or the path pins it in signs or
    assumptions.  With generic set, an open oracle answer is the generic
    one, no (GENERIC_ANSWER), and it is appended to assumptions."""

    def __init__(self, oracle: Oracle, nvars: int, signs: dict, assumptions: tuple,
                 generic: bool):
        self.oracle = oracle
        self.nvars = nvars
        self.signs = signs
        self.assumptions = assumptions
        self.generic = generic

    def const(self, q: Fraction) -> RationalFunction:
        return RationalFunction.constant(q, self.nvars)

    def div(self, fa: RationalFunction, fb: RationalFunction) -> RationalFunction | None:
        if fb.is_zero() or self.signs.get(fb) == 0:
            return None
        # a nonconstant divisor with unknown sign is taken as nonzero; the
        # zero fiber is measure zero
        return fa / fb

    def sign(self, f: RationalFunction) -> int | None:
        if f.is_constant():
            return sign_at(f.constant_value())
        return self.signs.get(f)

    def ask(self, fns: tuple[RationalFunction, ...]) -> bool | None:
        if all(f.is_constant() for f in fns):
            return oracle_query(self.oracle, tuple(f.constant_value() for f in fns))
        for g, a in self.assumptions:
            if g == fns:
                return a
        if not self.generic:
            return None
        self.assumptions += ((fns, GENERIC_ANSWER),)
        return GENERIC_ANSWER


def explore_paths(program: Program, arity: int | None = None,
                  oracle_policy: str = "generic", depth_budget: int = 12,
                  oracle: Oracle | None = None) -> PathTree:
    """Symbolically execute all paths up to depth_budget forks per path.

    oracle_policy "generic": nonconstant oracle queries take the generic
    answer, no (one arm, assumption logged).  "split": they fork both
    ways.  Constant queries are always answered concretely by the oracle.
    """
    check_budget(depth_budget, "depth_budget", 0)
    if oracle_policy not in ("generic", "split"):
        raise BssError(f"unknown oracle policy {oracle_policy!r}")
    if arity is None:
        if program.arity == VAR_ARITY:
            raise BssError("variadic program: explore_paths needs an explicit arity")
        arity = program.arity
    elif program.arity != VAR_ARITY and arity != program.arity:
        raise BssError(f"program {program.name} has arity {program.arity}, got {arity}")
    oracle = oracle if oracle is not None else Oracle.empty()
    code = compile_program(program)
    nodes: dict[tuple[str, ...], tuple] = {}
    leaves: list[PathLeaf] = []

    # a state is (pc, offset, cells, constraints, signs, assumptions, history,
    # forks); signs indexes constraints and is never mutated, so oracle arms
    # share it
    stack = [(0, 0, input_functions(program, arity), (), {}, (), (), 0)]
    while stack:
        pc, offset, cells, constraints, signs, assumptions, history, forks = stack.pop()
        # STEP_CAP counts the instructions since the last fork
        domain = _PathDomain(oracle, arity, signs, assumptions, oracle_policy == "generic")
        status, pc, offset, _, payload = execute(code, cells, domain, STEP_CAP, pc, offset)
        assumptions = domain.assumptions
        if status == FORK and forks < depth_budget:
            op, _, targets, yes, no = code[pc]
            nodes[history] = ("branch" if op == BRANCH else "oracle", payload)
            if op == BRANCH:  # reversed: the stack pops -1 first
                for s in (1, 0, -1):
                    stack.append((targets[s + 1], offset, dict(cells),
                                  constraints + ((payload, s),), {**signs, payload: s},
                                  assumptions, history + (_SIGN_ARM[s],), forks + 1))
            else:
                for target, answer, arm in ((no, False, "no"), (yes, True, "yes")):
                    stack.append((target, offset, dict(cells), constraints, signs,
                                  assumptions + ((payload, answer),), history + (arm,),
                                  forks + 1))
            continue

        if status == FORK:
            status = BUDGET_EXHAUSTED
        leaf = PathLeaf(history, PathCondition(constraints, assumptions), status,
                        payload if status == HALTED else None,
                        payload if status == FAULT else None,
                        any(s == 0 for _, s in constraints), forks)
        nodes[history] = ("leaf", leaf)
        leaves.append(leaf)

    return PathTree(program, arity, depth_budget, nodes, tuple(leaves))


def as_unipoly(p: MultiPoly) -> UniPoly:
    """View a one-variable MultiPoly as a UniPoly (coefficients low to high)."""
    if p.nvars != 1:
        raise BssError(f"polynomial in {p.nvars} variables is not univariate")
    if not p.terms:
        return UniPoly([])
    coeffs = [Fraction(0)] * (p.total_degree() + 1)
    for (e,), c in p.terms.items():
        coeffs[e] = c
    return UniPoly(coeffs)


def boundary_report(tree: PathTree) -> set[MultiPoly]:
    """Numerators whose zero sets cover the boundary of the decided set:
    every constraint function pinned to sign 0 somewhere, plus every
    function on which two leaves with different outputs take different
    signs.  Requires a fully halted 0/1-output tree."""
    # per function, the signs it takes under output 0 and under output 1
    seen: dict[RationalFunction, tuple[set, set]] = {}
    polys: set[MultiPoly] = set()
    for l in tree.leaves:
        if l.outcome != "halted":
            raise BssError(f"leaf {l.history} did not halt; boundary undefined")
        if l.outputs is None or len(l.outputs) != 1 or not l.outputs[0].is_constant():
            raise BssError(f"leaf {l.history} output is not a single constant")
        value = l.outputs[0].constant_value()
        if value not in (Fraction(0), Fraction(1)):
            raise BssError(f"leaf {l.history} outputs {value}, not 0/1")
        for f, s in l.condition.constraints:
            if s == 0:
                polys.add(f.num)
            seen.setdefault(f, (set(), set()))[value == 1].add(s)
    # a pair of leaves with different outputs differs on f's sign unless
    # both outputs saw f at one and the same sign
    polys.update(f.num for f, (zero, one) in seen.items()
                 if zero and one and not (zero == one and len(zero) == 1))
    return polys
