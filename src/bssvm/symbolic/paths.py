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
loops between forks.  A path that reaches a jump to itself reaches the cap
at once, since execute runs here with no record callback (machine/core.py),
and ends in a budget_exhausted leaf as stepping to the cap would.

Equality arms (sign 0) on nonconstant functions describe measure-zero input
sets; their leaves are flagged so downstream consumers can skip them.

The index from function to sign that makes each lookup O(1) lives on the
explorer's stack, one dict per pending state, so it dies with its state and
a finished leaf keeps only its plain PathCondition.

A tree keeps only its leaves (history, condition, outcome); they hold the
whole tree, and PathTree.nodes rebuilds the inner nodes from them on demand.
Constraints are appended only at BRANCH forks, so the j-th sign arm
(-1/0/+1) of a history is condition.constraints[j]; an oracle forks only
under "split", where no generic assumption is appended, so the k-th yes/no
arm is condition.oracle_assumptions[k].

Paths run on the execution core (machine/core.py) over rational functions.
One call interns every function it makes and remembers its arithmetic: a
canon dict maps each function to the one object that stands for it, and a
memo maps (op, f, g) to the interned op(f, g).  ARITH rows run through a
per-call copy of the code table whose operators look the memo up first, and
the domain's const and div use the same memo.  The input cells are interned
and every result is, so all cell values, BRANCH payloads and oracle queries
are canonical: equal functions in one tree are one object, and a memo hit
is an identity compare.  Both dicts are locals of explore_paths and die when
it returns; the table compile_program caches on the Program is not changed,
and two calls share nothing.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from ..errors import BssError
from ..exact import (MultiPoly, RationalFunction, UniPoly, rf_eval, sign_at)
from ..machine.core import (ARITH, BRANCH, BUDGET_EXHAUSTED, FAULT, FORK, HALTED,
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

    @classmethod
    def _of(cls, constraints, oracle_assumptions) -> "PathCondition":
        """Trusted constructor: the explorer never pushes a contradictory
        arm, so its leaves skip __post_init__'s check."""
        c = object.__new__(cls)
        object.__setattr__(c, "constraints", constraints)
        object.__setattr__(c, "oracle_assumptions", oracle_assumptions)
        return c

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
    leaves: tuple[PathLeaf, ...]

    @property
    def nodes(self) -> dict[tuple[str, ...], tuple]:
        """History prefix -> ("branch", f) | ("oracle", fns) | ("leaf", PathLeaf),
        rebuilt from the leaves as the module docstring describes."""
        nodes: dict[tuple[str, ...], tuple] = {}
        for leaf in self.leaves:
            signs = iter(leaf.condition.constraints)
            answers = iter(leaf.condition.oracle_assumptions)
            for j, arm in enumerate(leaf.history):
                nodes[leaf.history[:j]] = (("oracle", next(answers)[0]) if arm in ("yes", "no")
                                           else ("branch", next(signs)[0]))
            nodes[leaf.history] = ("leaf", leaf)
        return nodes

    def halted_leaves(self) -> tuple[PathLeaf, ...]:
        return tuple(l for l in self.leaves if l.outcome == "halted")


def _memoiser(memo: dict, canon: dict):
    """memoised(op) wraps a two-argument op: op(f, g) is computed once per
    (op, f, g) and kept in memo, each result interned through canon."""
    get, intern = memo.get, canon.setdefault

    def memoised(op):
        def apply(f, g):
            key = (op, f, g)
            value = get(key)
            if value is None:
                value = op(f, g)
                value = memo[key] = intern(value, value)
            return value
        return apply
    return memoised


class _PathDomain:
    """Rational functions of the inputs: a sign or an oracle answer is
    decided when the function is constant or the path pins it in signs or
    assumptions.  With generic set, an open oracle answer is the generic
    one, no (GENERIC_ANSWER), and it is appended to assumptions.  One domain
    serves one explore_paths call, which sets signs and assumptions to those
    of each state before running it; const and div build through the call's
    memo."""

    def __init__(self, oracle: Oracle, nvars: int, generic: bool, memoised):
        self.oracle = oracle
        self.nvars = nvars
        self.generic = generic
        self.signs: dict = {}
        self.assumptions: tuple = ()
        self._constant = memoised(RationalFunction.constant)
        self._quotient = memoised(operator.truediv)

    def const(self, q: Fraction) -> RationalFunction:
        return self._constant(q, self.nvars)

    def div(self, fa: RationalFunction, fb: RationalFunction) -> RationalFunction | None:
        if fb.is_zero() or self.signs.get(fb) == 0:
            return None
        # a nonconstant divisor with unknown sign is taken as nonzero; the
        # zero fiber is measure zero
        return self._quotient(fa, fb)

    def sign(self, f: RationalFunction) -> int | None:
        # a constant never forks, so it is never in signs
        s = self.signs.get(f)
        if s is None and f.is_constant():
            return sign_at(f.constant_value())
        return s

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
    canon: dict[RationalFunction, RationalFunction] = {}
    memoised = _memoiser({}, canon)
    code = tuple((op, a, b, c, memoised(d)) if op == ARITH else (op, a, b, c, d)
                 for op, a, b, c, d in compile_program(program))
    domain = _PathDomain(oracle, arity, oracle_policy == "generic", memoised)
    cells = {i: canon.setdefault(f, f) for i, f in input_functions(program, arity).items()}
    leaves: list[PathLeaf] = []

    # a state is (pc, offset, cells, constraints, signs, assumptions, history,
    # forks); signs indexes constraints and is never mutated, so oracle arms
    # share it
    stack = [(0, 0, cells, (), {}, (), (), 0)]
    while stack:
        pc, offset, cells, constraints, signs, assumptions, history, forks = stack.pop()
        # STEP_CAP counts the instructions since the last fork
        domain.signs, domain.assumptions = signs, assumptions
        status, pc, offset, _, payload = execute(code, cells, domain, STEP_CAP, pc, offset)
        assumptions = domain.assumptions
        if status == FORK and forks < depth_budget:
            op, _, targets, yes, no = code[pc]
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
        leaf = PathLeaf(history, PathCondition._of(constraints, assumptions), status,
                        payload if status == HALTED else None,
                        payload if status == FAULT else None,
                        any(s == 0 for _, s in constraints), forks)
        leaves.append(leaf)

    return PathTree(program, arity, depth_budget, tuple(leaves))


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
