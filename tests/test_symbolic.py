"""Symbolic layer: shadow traces, certificates, path exploration."""

import dataclasses
import hashlib
import operator
import random
from fractions import Fraction as F

import pytest

from bssvm.errors import BssError, CertificateError
from bssvm.exact import (
    MultiPoly,
    RationalFunction,
    algebraic_equal,
    nth_root_field,
    rf_eval,
    sign_at,
)
from bssvm.machine import (Arith, Branch, Const, Oracle, OracleCall, parse_program,
                           run_concrete)
from bssvm.machine.core import (ARITH, BRANCH, BUDGET_EXHAUSTED, FAULT, FORK, HALTED,
                                compile_program, execute)
from bssvm.machine.oracle import GENERIC_ANSWER, oracle_query
from bssvm.stdlib import stdlib_names, stdlib_program
from bssvm.symbolic import (
    STEP_CAP,
    PathCondition,
    PathLeaf,
    PathTree,
    as_unipoly,
    boundary_report,
    epsilon_certificate,
    explore_paths,
    extract_f,
    field_boundary_check,
    shadow_trace,
    verify_neighborhood,
)
from bssvm.symbolic.shadow import input_functions


@pytest.fixture(scope="module")
def sqrt2():
    _, root = nth_root_field(2, 2)
    return root


# -- shadow traces -----------------------------------------------------------

def test_shadow_sgn_positive_input():
    trace = shadow_trace(stdlib_program("sgn"), [F(5)])
    assert trace.outcome == "halted"
    assert [(str(e.function), e.sign) for e in trace.branch_log] == [("Y1", 1)]
    assert [str(f) for f in trace.output_functions] == ["1"]
    assert trace.output_values == (F(1),)
    assert trace.branch_history() == (1,)


def test_shadow_inv_shift_builds_rational_function():
    trace = shadow_trace(stdlib_program("inv_shift"), [F(3)])
    assert trace.outcome == "halted"
    assert trace.output_values == (F(1, 2),)
    fs = extract_f(trace)
    assert len(fs) == 1  # the lone nonconstant branch function
    report = field_boundary_check(trace)
    assert report.ok and report.max_value_degree == 1


def test_shadow_agreement_with_concrete_runs():
    rng = random.Random(3)
    names = ["sgn", "sgn_decider", "interval_member", "even_zeros",
             "inv_shift", "cantor_cosemidecider", "q_enumerator"]
    for name in names:
        prog = stdlib_program(name)
        for _ in range(8):
            x = F(rng.randint(-30, 30), rng.randint(1, 12))
            strace = shadow_trace(prog, [x], budget=2000)
            result, ctrace = run_concrete(prog, [x], budget=2000)
            assert strace.outcome == result.status, (name, x)
            assert len(strace.steps) == len(ctrace.steps)
            for ss, cs in zip(strace.steps, ctrace.steps):
                assert dict(cs.writes) == ss.values, (name, x, ss.index)
                for cell, fn in ss.cells.items():
                    assert algebraic_equal(rf_eval(fn, strace.input),
                                           ss.values[cell])


def test_shadow_on_algebraic_input(sqrt2):
    trace = shadow_trace(stdlib_program("sgn"), [sqrt2])
    assert trace.outcome == "halted" and trace.output_values == (F(1),)
    assert field_boundary_check(trace).ok


def test_shadow_square_of_shifted_input(sqrt2):
    prog = parse_program("""\
PROGRAM square_shift
ARITY 1
a: CONST c1 1
b: ADD c2 c0 c1
c: MUL c3 c2 c2
d: OUTPUT c3..c3
""")
    trace = shadow_trace(prog, [sqrt2])
    assert str(trace.output_functions[0]) == "Y1^2 + 2*Y1 + 1"
    want = sqrt2 * 2 + 3  # (1 + sqrt2)^2
    assert algebraic_equal(trace.output_values[0], want)
    assert field_boundary_check(trace).ok


def test_field_boundary_degree_stays_one_on_rational_runs():
    rng = random.Random(13)
    for name in ["even_zeros", "interval_member"]:
        prog = stdlib_program(name)
        for _ in range(10):
            x = F(rng.randint(-10, 20), rng.randint(1, 10))
            trace = shadow_trace(prog, [x], budget=2000)
            report = field_boundary_check(trace)
            assert report.ok and report.max_value_degree <= 1


# one function object, Y1^2, written to three cells
SHARED = """\
PROGRAM shared
ARITY 1
sq:  MUL c1 c0 c0
cp1: COPY c2 c1
cp2: COPY c3 c1
out: OUTPUT c1..c3
"""


def _with_cells(trace, changes):
    """The trace with step i's cells and values replaced as changes[i] says:
    a (cell, function, value) triple per step, None keeping the old one."""
    steps = list(trace.steps)
    for i, (cell, f, v) in changes.items():
        step = steps[i]
        steps[i] = dataclasses.replace(
            step, cells={**step.cells, cell: step.cells[cell] if f is None else f},
            values={**step.values, cell: step.values[cell] if v is None else v})
    return dataclasses.replace(trace, steps=tuple(steps))


def test_field_boundary_check_reports_the_one_corrupted_cell_of_a_shared_function():
    trace = shadow_trace(parse_program(SHARED), [F(3)])
    f = trace.steps[0].cells[1]
    assert [step.cells for step in trace.steps[:3]] == [{1: f}, {2: f}, {3: f}]
    assert all(step.cells[cell] is f for step, cell in zip(trace.steps, (1, 2, 3)))
    assert field_boundary_check(trace).ok

    report = field_boundary_check(_with_cells(trace, {1: (2, None, F(10))}))
    assert not report.ok and report.cells_checked == 3
    assert report.failures == (
        "step 1 cell 2: Y1^2 evaluates to Fraction(9, 1), concrete run holds Fraction(10, 1)",)


def test_field_boundary_check_reports_a_shared_pole_and_coefficient_per_cell():
    trace = shadow_trace(parse_program(SHARED), [F(3)])
    y1, one = MultiPoly.var(0, 1), MultiPoly.constant(1, 1)
    pole = RationalFunction(one, y1 - MultiPoly.constant(3, 1))
    # an int coefficient, which MultiPoly(...) would have made a Fraction
    int_coeff = RationalFunction._of(MultiPoly._of(1, {(2,): 1}), one)
    report = field_boundary_check(_with_cells(
        trace, {0: (1, pole, None), 1: (2, int_coeff, None), 2: (3, pole, None)}))
    assert not report.ok and report.cells_checked == 3
    assert report.failures == (
        "step 0 cell 1: function pole at the input",
        "step 1 cell 2: non-rational coefficient 1",
        "step 2 cell 3: function pole at the input",
    )
    report = field_boundary_check(_with_cells(
        trace, {0: (1, int_coeff, None), 2: (3, int_coeff, F(8))}))
    assert report.failures == (
        "step 0 cell 1: non-rational coefficient 1",
        "step 2 cell 3: non-rational coefficient 1",
        "step 2 cell 3: Y1^2 evaluates to Fraction(9, 1), concrete run holds Fraction(8, 1)",
    )


@pytest.mark.parametrize("budget", [2.5, "5", None, True, 0])
def test_shadow_trace_rejects_non_int_budget(budget):
    with pytest.raises(BssError, match="budget must be"):
        shadow_trace(stdlib_program("sgn"), [F(2)], budget=budget)


def test_shadow_fault_is_reported():
    prog = parse_program("PROGRAM d\nARITY 2\ns: DIV c2 c0 c1\no: OUTPUT c2..c2\n")
    trace = shadow_trace(prog, [F(1), F(0)])
    assert trace.outcome == "fault" and trace.fault_kind == "division_by_zero"


BARE_CONSTANT_PROGRAMS = {
    # a constant meets the input variable, and constants meet each other
    "lift": ("""\
PROGRAM lift
ARITY 1
ZERO 0..6
a: CONST c1 3
b: ADD c2 c1 c0
c: DIV c3 c1 c0
d: MUL c4 c1 c1
e: SUB c5 c4 c6
f: SUB c6 c0 c4
g: BRANCH c4 h h h
h: OUTPUT c1..c6
""", (F(-5, 2),), None),
    # Y1 - Y1 is the constant 0, a function rather than a bare constant
    "cancel": ("""\
PROGRAM cancel
ARITY 1
a: SUB c1 c0 c0
b: ADD c2 c1 c1
c: BRANCH c1 d d d
d: OUTPUT c1..c2
""", (F(7),), None),
    # a constant-folded query is asked; a mixed one takes the generic answer
    "fold": ("""\
PROGRAM fold
ARITY 1
a: CONST c1 1
b: CONST c2 2
c: DIV c3 c1 c2
d: ORACLE c1..c3 e e
e: ORACLE c0..c2 f f
f: OUTPUT c0..c3
""", (F(4, 9),), Oracle.rationals()),
}


def _unlifted(instr, ref, nvars):
    """The function an instruction writes, through the canonicalising
    constructor only."""
    if isinstance(instr, Const):
        return RationalFunction(MultiPoly.constant(instr.value, nvars))
    f, g = ref[instr.src1], ref[instr.src2]
    if instr.op == "ADD":
        return RationalFunction(f.num * g.den + g.num * f.den, f.den * g.den)
    if instr.op == "SUB":
        return RationalFunction(f.num * g.den - g.num * f.den, f.den * g.den)
    if instr.op == "MUL":
        return RationalFunction(f.num * g.num, f.den * g.den)
    return RationalFunction(f.num * g.den, f.den * g.num)


def _same(got, want):
    assert isinstance(got, RationalFunction)
    assert got == want and str(got) == str(want) and hash(got) == hash(want)


@pytest.mark.parametrize("name", sorted(BARE_CONSTANT_PROGRAMS))
def test_shadow_lifts_bare_constants_in_every_public_field(name):
    text, inputs, oracle = BARE_CONSTANT_PROGRAMS[name]
    prog = parse_program(text)
    trace = shadow_trace(prog, inputs, oracle=oracle, use_generic=True)
    assert trace.outcome == "halted"
    nvars = len(inputs)
    ref = {i: RationalFunction.var(i, nvars) for i in range(nvars)}
    if prog.zero_window is not None:
        lo, hi = prog.zero_window
        ref.update({c: RationalFunction(MultiPoly(nvars)) for c in range(max(lo, nvars), hi + 1)})
    branches, queries = iter(trace.branch_log), iter(trace.oracle_log)
    snapshot = input_functions(prog, nvars)
    for step in trace.steps:
        snapshot.update(step.cells)
        instr = prog.instructions[step.pc][1]
        if isinstance(instr, (Const, Arith)):
            ref[instr.dst] = _unlifted(instr, ref, nvars)
            assert step.cells.keys() == {instr.dst}
            _same(step.cells[instr.dst], ref[instr.dst])
        elif isinstance(instr, Branch):
            event = next(branches)
            _same(event.function, ref[instr.src])
        elif isinstance(instr, OracleCall):
            event = next(queries)
            for got, cell in zip(event.functions, range(instr.lo, instr.hi + 1)):
                _same(got, ref[cell])
            assert event.was_constant == (instr.lo > 0)
        assert snapshot.keys() == ref.keys()
        for cell in ref:
            _same(snapshot[cell], ref[cell])
    assert next(branches, None) is None and next(queries, None) is None
    lo, hi = prog.instructions[-1][1].lo, prog.instructions[-1][1].hi
    for got, cell in zip(trace.output_functions, range(lo, hi + 1), strict=True):
        _same(got, ref[cell])
    assert trace.final_cells.keys() == ref.keys()
    for cell in ref:
        _same(trace.final_cells[cell], ref[cell])
    assert field_boundary_check(trace).ok
    if name == "fold":
        # the folded query (1, 2, 1/2) was asked, the mixed one was not
        assert [e.answer for e in trace.oracle_log] == [True, False]


# -- certificates ------------------------------------------------------------

def test_epsilon_certificate_sgn_at_5():
    trace = shadow_trace(stdlib_program("sgn"), [F(5)])
    cert = epsilon_certificate(extract_f(trace), trace.input)
    assert cert.epsilon == 1
    report = verify_neighborhood(stdlib_program("sgn"), None, trace, cert,
                                 samples=20, seed=1)
    assert report.ok and report.passed == len(report.samples) == 20


def test_epsilon_certificate_inv_shift_at_2():
    prog = stdlib_program("inv_shift")
    trace = shadow_trace(prog, [F(2)])
    cert = epsilon_certificate(extract_f(trace), trace.input)
    assert cert.epsilon == F(1, 2)
    report = verify_neighborhood(prog, None, trace, cert, samples=30, seed=2)
    assert report.ok


def test_epsilon_certificate_interval_member():
    prog = stdlib_program("interval_member")
    trace = shadow_trace(prog, [F(3, 4)])
    cert = epsilon_certificate(extract_f(trace), trace.input)
    assert 0 < cert.epsilon <= F(1, 4)  # boundary at 1/2 and 1
    report = verify_neighborhood(prog, None, trace, cert, samples=25, seed=3)
    assert report.ok


def test_epsilon_certificate_empty_function_set():
    cert = epsilon_certificate(set(), (F(7),))
    assert cert.epsilon == 1 and cert.functions == ()


def test_epsilon_certificate_rejects_vanishing_center():
    trace = shadow_trace(stdlib_program("sgn"), [F(5)])
    fs = extract_f(trace)
    with pytest.raises(CertificateError):
        epsilon_certificate(fs, (F(0),))  # Y1 vanishes at the center


def test_neighborhood_samples_follow_the_same_path():
    prog = stdlib_program("even_zeros")
    trace = shadow_trace(prog, [F(3, 4)])
    cert = epsilon_certificate(extract_f(trace), trace.input)
    report = verify_neighborhood(prog, None, trace, cert, samples=40, seed=9)
    assert report.ok and report.passed == 40
    for sample in report.samples:
        assert sample.ok


def test_neighborhood_check_rejects_a_forged_certificate():
    """inv_shift at 2 is certified for epsilon 1/2; at epsilon 2 the box
    [0, 4] holds points below 1, which take the other branch, and 1 itself,
    where the guard loops until the budget runs out."""
    prog = stdlib_program("inv_shift")
    trace = shadow_trace(prog, [F(2)])
    cert = epsilon_certificate(extract_f(trace), trace.input)
    forged = dataclasses.replace(cert, epsilon=F(2))
    report = verify_neighborhood(prog, None, trace, forged, samples=60, seed=5)
    assert not report.ok
    details = {}
    for sample in report.samples:
        (x,) = sample.point
        want = ("path and output reproduced" if x > 1 else
                "status budget_exhausted" if x == 1 else "path diverged from the trace")
        assert (sample.ok, sample.detail) == (x > 1, want), x
        details[want] = details.get(want, 0) + 1
    assert details == {"path and output reproduced": 47, "path diverged from the trace": 12,
                       "status budget_exhausted": 1}


# -- path exploration --------------------------------------------------------

def test_explore_paths_sgn_three_leaves():
    tree = explore_paths(stdlib_program("sgn"), depth_budget=10)
    assert len(tree.leaves) == 3
    halted = tree.halted_leaves()
    assert len(halted) == 3
    by_condition = {
        tuple((str(f), s) for f, s in leaf.condition.constraints):
            tuple(str(o) for o in leaf.outputs)
        for leaf in halted
    }
    assert by_condition == {
        (("Y1", -1),): ("-1",),
        (("Y1", 0),): ("0",),
        (("Y1", 1),): ("1",),
    }
    assert [leaf.history for leaf in halted] == [("-1",), ("0",), ("+1",)]


def test_explore_paths_measure_zero_flags():
    tree = explore_paths(stdlib_program("interval_member"), depth_budget=20)
    assert all(leaf.outcome == "halted" for leaf in tree.leaves)
    flagged = [leaf for leaf in tree.leaves if leaf.measure_zero]
    assert flagged
    for leaf in flagged:
        assert any(s == 0 for _, s in leaf.condition.constraints)


def test_explore_paths_exclusivity_even_zeros():
    tree = explore_paths(stdlib_program("even_zeros"), depth_budget=30)
    rng = random.Random(17)
    prog = stdlib_program("even_zeros")
    for _ in range(60):
        x = F(rng.randint(-200, 200), rng.randint(1, 200))
        matching = [leaf for leaf in tree.halted_leaves()
                    if leaf.condition.satisfied_by((x,))]
        assert len(matching) == 1, x
        result, _ = run_concrete(prog, [x])
        assert result.status == "halted"
        assert result.output[0] == matching[0].outputs[0].constant_value()


def test_path_condition_contradiction_rejected():
    y = RationalFunction.var(0, 1)
    cond = PathCondition(((y, 1),))
    with pytest.raises(BssError):
        PathCondition(cond.constraints + ((y, -1),))
    with pytest.raises(BssError):
        PathCondition(((y, 1), (y - RationalFunction.constant(F(0), 1), 0)))
    with pytest.raises(BssError):
        dataclasses.replace(cond, constraints=((y, 1), (y, -1)))
    assert PathCondition(cond.constraints + ((y, 1),)).constraints == ((y, 1), (y, 1))


def test_explore_paths_builds_leaves_without_a_second_validation(monkeypatch):
    # the explorer never pushes a contradictory arm, so its leaves skip the
    # public constructor's check, and still equal what that constructor builds
    def refuse(self):
        raise AssertionError("leaf condition validated again")

    with monkeypatch.context() as patch:
        patch.setattr(PathCondition, "__post_init__", refuse)
        trees = [explore_paths(stdlib_program("cantor_cosemidecider"), depth_budget=5),
                 explore_paths(stdlib_program("oracle_member"), oracle_policy="split",
                               depth_budget=5)]
    assert len(trees[0].leaves) > 100
    assert any(leaf.condition.oracle_assumptions for leaf in trees[1].leaves)
    for tree in trees:
        for leaf in tree.leaves:
            c = leaf.condition
            assert c == PathCondition(c.constraints, c.oracle_assumptions)
            assert set(vars(c)) == {"constraints", "oracle_assumptions"}


def test_path_trees_keep_fraction_coefficients():
    # the arithmetic fast paths build these functions without the
    # validating constructor
    checked = 0
    for name in stdlib_names():
        program = stdlib_program(name)
        if program.arity != 1:
            continue
        for leaf in explore_paths(program, depth_budget=5).leaves:
            fns = [f for f, _ in leaf.condition.constraints] + list(leaf.outputs or ())
            for f in fns:
                for poly in (f.num, f.den):
                    assert all(type(c) is F for c in poly.terms.values()), (name, str(f))
                checked += 1
    assert checked > 1000


def test_path_condition_replace_eq_hash_and_repr_see_only_the_fields():
    y = RationalFunction.var(0, 1)
    built = PathCondition._of(((y, 1),), (((y,), False),))
    direct = PathCondition(((y, 1),), (((y,), False),))
    assert built == direct and hash(built) == hash(direct) and repr(built) == repr(direct)
    assert [f.name for f in dataclasses.fields(PathCondition)] == [
        "constraints", "oracle_assumptions"]
    moved = dataclasses.replace(built, constraints=((y, -1),))
    assert moved.constraints == ((y, -1),) and built.constraints == ((y, 1),)
    assert moved != built and moved.oracle_assumptions == built.oracle_assumptions


def test_path_condition_satisfied_by():
    y = RationalFunction.var(0, 1)
    cond = PathCondition(((y, 1),))
    assert cond.satisfied_by((F(2),))
    assert not cond.satisfied_by((F(-2),))
    assert not cond.satisfied_by((F(0),))


@pytest.mark.parametrize("depth_budget", [2.5, "3", None, False, -1])
def test_explore_paths_rejects_non_int_depth_budget(depth_budget):
    with pytest.raises(BssError, match="depth_budget must be"):
        explore_paths(stdlib_program("sgn"), depth_budget=depth_budget)


def test_explore_paths_depth_budget_marks_leaves():
    # a loop that keeps forking on a nonconstant function exhausts depth
    prog = stdlib_program("even_zeros")
    tree = explore_paths(prog, depth_budget=3)
    exhausted = [l for l in tree.leaves if l.outcome == "budget_exhausted"]
    assert exhausted
    assert all(l.forks_used <= 3 for l in tree.leaves)


# the second BRANCH tests the function the first one already pinned
BRANCH_TWICE = """\
PROGRAM twice
ARITY 1
first:  BRANCH c0 neg1 zero1 pos1
neg1:   CONST c1 -1
j1:     JMP second
zero1:  CONST c1 0
j2:     JMP second
pos1:   CONST c1 1
second: BRANCH c0 neg2 zero2 pos2
neg2:   CONST c2 -2
j3:     JMP out
zero2:  CONST c2 0
j4:     JMP out
pos2:   CONST c2 2
out:    OUTPUT c1..c2
"""


def test_explore_paths_forces_a_pinned_sign():
    tree = explore_paths(parse_program(BRANCH_TWICE))
    assert [(l.history, tuple(str(f) for f in l.outputs)) for l in tree.leaves] == [
        (("-1",), ("-1", "-2")), (("0",), ("0", "0")), (("+1",), ("1", "2"))]


def test_boundary_report_sgn_decider():
    tree = explore_paths(stdlib_program("sgn_decider"), depth_budget=10)
    polys = boundary_report(tree)
    assert {str(p) for p in polys} == {"Y1"}


def test_boundary_report_interval_member():
    tree = explore_paths(stdlib_program("interval_member"), depth_budget=20)
    polys = boundary_report(tree)
    assert sorted(str(p) for p in polys) == ["Y1 - 1", "Y1 - 1/2"]
    roots = set()
    for p in polys:
        u = as_unipoly(p)
        assert u.degree == 1
        roots.add(-u.coeff(0) / u.coeff(1))
    assert roots == {F(1, 2), F(1)}


def test_boundary_report_pairs_leaves_without_a_zero_arm():
    # with the sign-0 leaf dropped, Y1 is on the boundary only because the
    # two remaining leaves differ on its sign and on their output
    tree = explore_paths(stdlib_program("sgn_decider"), depth_budget=10)
    open_arms = tuple(l for l in tree.leaves if not l.measure_zero)
    pruned = dataclasses.replace(tree, leaves=open_arms)
    polys = boundary_report(pruned)
    assert {str(p) for p in polys} == {"Y1"}
    assert polys == boundary_pairs(pruned)


def boundary_pairs(tree):
    """boundary_report by its definition: the sign-0 constraints, plus every
    function on which a pair of leaves with different outputs differs."""
    polys = {f.num for l in tree.leaves for f, s in l.condition.constraints if s == 0}
    for i, la in enumerate(tree.leaves):
        for lb in tree.leaves[i + 1:]:
            if la.outputs == lb.outputs:
                continue
            signs_b = dict(lb.condition.constraints)
            for f, sa in la.condition.constraints:
                sb = signs_b.get(f)
                if sb is not None and sb != sa:
                    polys.add(f.num)
    return polys


def test_boundary_report_matches_the_pair_definition():
    accepted = 0
    for name in stdlib_names():
        program = stdlib_program(name)
        if program.arity != 1:
            continue
        for depth in range(9):
            tree = explore_paths(program, depth_budget=depth)
            try:
                polys = boundary_report(tree)
            except BssError:
                continue
            accepted += 1
            assert polys == boundary_pairs(tree), (name, depth)
            open_arms = tuple(l for l in tree.leaves if not l.measure_zero)
            pruned = dataclasses.replace(tree, leaves=open_arms)
            assert boundary_report(pruned) == boundary_pairs(pruned), (name, depth)
    assert accepted >= 10


BANDS = """\
PROGRAM bands
ARITY 1
ZERO 4..4
a:     CONST c1 10
b:     ADD c1 c0 c1
c:     BRANCH c1 no no mid
mid:   BRANCH c0 left no right
left:  CONST c2 1
d:     ADD c2 c0 c2
e:     BRANCH c2 no no yes
right: CONST c3 1
f:     SUB c3 c0 c3
g:     BRANCH c3 yes no no
yes:   CONST c4 1
no:    OUTPUT c4..c4
"""


def test_boundary_report_reads_signs_per_output():
    # Without the sign-0 leaves, Y1 takes both signs under both outputs (on
    # the boundary); without the Y1 + 10 < 0 leaf too, Y1 + 10 is positive
    # under both outputs (off it).
    tree = explore_paths(parse_program(BANDS))
    open_arms = [l for l in tree.leaves if not l.measure_zero]
    inner = [l for l in open_arms if l.history[0] == "+1"]
    for leaves, want in [(tree.leaves, {"Y1 + 10", "Y1", "Y1 + 1", "Y1 - 1"}),
                         (open_arms, {"Y1 + 10", "Y1", "Y1 + 1", "Y1 - 1"}),
                         (inner, {"Y1", "Y1 + 1", "Y1 - 1"})]:
        part = dataclasses.replace(tree, leaves=tuple(leaves))
        polys = boundary_report(part)
        assert {str(p) for p in polys} == want
        assert polys == boundary_pairs(part)


def test_boundary_report_rejects_non_indicator_outputs():
    tree = explore_paths(stdlib_program("sgn"), depth_budget=10)
    with pytest.raises(BssError):
        boundary_report(tree)  # sgn outputs -1, not an indicator


def test_explore_paths_oracle_generic_policy():
    prog = stdlib_program("oracle_member")
    tree = explore_paths(prog, oracle_policy="generic", depth_budget=5)
    assert len(tree.leaves) == 1
    leaf = tree.leaves[0]
    assert leaf.condition.oracle_assumptions
    assert leaf.condition.oracle_assumptions[0][1] is False
    assert str(leaf.outputs[0]) == "0"


def test_explore_paths_oracle_split_policy():
    prog = stdlib_program("oracle_member")
    tree = explore_paths(prog, oracle_policy="split", depth_budget=5)
    assert len(tree.leaves) == 2
    assert sorted(str(leaf.outputs[0]) for leaf in tree.leaves) == ["0", "1"]


# sha256 of the sorted (prefix, kind, str(payload)) items of tree.nodes, as
# the explorer stored them before the nodes were derived from the leaves
PINNED_NODES = [
    ("cantor_cosemidecider", "generic", 6, 493,
     "f7b2316494804aa2c75202fc6508045f3b53739ab120084d982319ce0c8c84bb"),
    ("sgn_decider", "generic", 10, 4,
     "cffbfc1ca13ec133a48ff17139aaa4953dff693c4b539a049d9296d40ade4ce5"),
    ("even_zeros", "generic", 20, 61,
     "605908d9d811099e43c8eef42b27fb65d234dcdbaa9317768215c8332dd0041e"),
    ("q_enumerator", "generic", 3, 10,
     "e4ab159d6393e4477813be811b1127b3a94120ecc9c9ffbe3fd20eec29a8b220"),
    ("oracle_member", "split", 5, 3,
     "fc88ddc417d39c74142ea2a38970059c1e5460513ff5b7abd71e1e013c78e03f"),
    ("eq_probe", "split", 5, 4,
     "e09d8a20ca7f77e1b512be414121d22cd51574fa4a39298e41e2ab06f1a52725"),
]


@pytest.mark.parametrize("name,policy,depth,count,digest", PINNED_NODES)
def test_path_tree_nodes_derived_from_the_leaves_match_the_stored_ones(
        name, policy, depth, count, digest):
    tree = explore_paths(stdlib_program(name), oracle_policy=policy, depth_budget=depth)
    items = sorted((prefix, kind, str(payload))
                   for prefix, (kind, payload) in tree.nodes.items())
    assert len(items) == count
    assert hashlib.sha256(repr(items).encode()).hexdigest() == digest


def test_path_tree_stores_only_its_leaves():
    assert [f.name for f in dataclasses.fields(PathTree)] == [
        "program", "arity", "depth_budget", "leaves"]


# -- the unmemoised reference explorer ---------------------------------------

class ReferenceDomain:
    """The path domain as it was before explore_paths interned its
    functions: every const, quotient and sign is computed afresh."""

    def __init__(self, oracle, nvars, signs, assumptions, generic):
        self.oracle = oracle
        self.nvars = nvars
        self.signs = signs
        self.assumptions = assumptions
        self.generic = generic

    def const(self, q):
        return RationalFunction.constant(q, self.nvars)

    def div(self, fa, fb):
        if fb.is_zero() or self.signs.get(fb) == 0:
            return None
        return fa / fb

    def sign(self, f):
        if f.is_constant():
            return sign_at(f.constant_value())
        return self.signs.get(f)

    def ask(self, fns):
        if all(f.is_constant() for f in fns):
            return oracle_query(self.oracle, tuple(f.constant_value() for f in fns))
        for g, a in self.assumptions:
            if g == fns:
                return a
        if not self.generic:
            return None
        self.assumptions += ((fns, GENERIC_ANSWER),)
        return GENERIC_ANSWER


def reference_tree(program, oracle_policy, depth_budget, oracle):
    """explore_paths without interning or memo: the compiled code table as
    it is, and a fresh domain per state."""
    arity = program.arity
    code = compile_program(program)
    signs_arm = {-1: "-1", 0: "0", 1: "+1"}
    leaves = []
    stack = [(0, 0, input_functions(program, arity), (), {}, (), (), 0)]
    while stack:
        pc, offset, cells, constraints, signs, assumptions, history, forks = stack.pop()
        domain = ReferenceDomain(oracle, arity, signs, assumptions,
                                 oracle_policy == "generic")
        status, pc, offset, _, payload = execute(code, cells, domain, STEP_CAP, pc, offset)
        assumptions = domain.assumptions
        if status == FORK and forks < depth_budget:
            op, _, targets, yes, no = code[pc]
            if op == BRANCH:
                for s in (1, 0, -1):
                    stack.append((targets[s + 1], offset, dict(cells),
                                  constraints + ((payload, s),), {**signs, payload: s},
                                  assumptions, history + (signs_arm[s],), forks + 1))
            else:
                for target, answer, arm in ((no, False, "no"), (yes, True, "yes")):
                    stack.append((target, offset, dict(cells), constraints, signs,
                                  assumptions + ((payload, answer),), history + (arm,),
                                  forks + 1))
            continue
        if status == FORK:
            status = BUDGET_EXHAUSTED
        leaves.append(PathLeaf(history, PathCondition(constraints, assumptions), status,
                               payload if status == HALTED else None,
                               payload if status == FAULT else None,
                               any(s == 0 for _, s in constraints), forks))
    return PathTree(program, arity, depth_budget, tuple(leaves))


ORACLE_PROGRAMS = ("oracle_member", "always_zero", "eq_probe")


def tree_functions(tree):
    """Every function a tree's leaves hold, one entry per reference."""
    for leaf in tree.leaves:
        yield from (f for f, _ in leaf.condition.constraints)
        for fns, _ in leaf.condition.oracle_assumptions:
            yield from fns
        yield from leaf.outputs or ()


@pytest.mark.parametrize("policy", ["generic", "split"])
@pytest.mark.parametrize("name", stdlib_names())
def test_explore_paths_matches_the_unmemoised_reference(name, policy):
    program = stdlib_program(name)
    oracle = Oracle.rationals() if name in ORACLE_PROGRAMS else Oracle.empty()
    tree = explore_paths(program, oracle_policy=policy, depth_budget=6, oracle=oracle)
    assert tree == reference_tree(program, policy, 6, oracle)


def test_equal_functions_in_one_tree_are_one_object():
    for name, policy in (("cantor_cosemidecider", "generic"), ("qx_enumerator", "generic"),
                         ("eq_probe", "split"), ("dependence", "generic")):
        tree = explore_paths(stdlib_program(name), oracle_policy=policy, depth_budget=5)
        canon, refs = {}, 0
        for f in tree_functions(tree):
            assert canon.setdefault(f, f) is f, (name, str(f))
            refs += 1
        assert refs > len(canon), name
    # the reference explorer builds equal functions as distinct objects
    tree = reference_tree(stdlib_program("cantor_cosemidecider"), "generic", 5,
                          Oracle.empty())
    assert len({id(f) for f in tree_functions(tree)}) > len(set(tree_functions(tree)))


def test_two_calls_share_no_functions_and_leave_the_code_table_alone():
    program = stdlib_program("cantor_cosemidecider")
    code = compile_program(program)
    first, second = (explore_paths(program, depth_budget=5) for _ in range(2))
    assert first == second
    ids = {id(f) for f in tree_functions(first)}
    assert not ids & {id(f) for f in tree_functions(second)}
    assert compile_program(program) is code
    operators = {d for op, _, _, _, d in code if op == ARITH}
    assert operators and operators <= {operator.add, operator.sub, operator.mul}


@pytest.mark.parametrize("policy", ["generic", "split"])
def test_each_fork_appends_its_arm_to_the_leaf_condition(policy):
    # the invariant PathTree.nodes reads: the j-th sign arm of a history is
    # its j-th constraint, the k-th yes/no arm its k-th oracle assumption
    signs = {-1: "-1", 0: "0", 1: "+1"}
    forks = 0
    for name in stdlib_names():
        for leaf in explore_paths(stdlib_program(name), oracle_policy=policy,
                                  depth_budget=5).leaves:
            cond = leaf.condition
            assert [a for a in leaf.history if a not in ("yes", "no")] == [
                signs[s] for _, s in cond.constraints]
            answers = [a for a in leaf.history if a in ("yes", "no")]
            if policy == "split":
                assert answers == [
                    "yes" if answer else "no" for _, answer in cond.oracle_assumptions]
            else:
                assert answers == []
            forks += len(leaf.history)
    assert forks > 1000


def test_semidecider_halted_leaves_need_equality():
    prog = stdlib_program("algebraic_semidecider")
    tree = explore_paths(prog, depth_budget=3)
    halted = tree.halted_leaves()
    assert halted
    for leaf in halted:
        zero_pins = [f for f, s in leaf.condition.constraints
                     if s == 0 and not f.is_constant()]
        assert zero_pins, leaf.history
