"""Seeded job lists, one per workload.

A job is one call a user makes on one input: a run, a shadow trace with
its field check, a certificate, a path tree, a boundary report, or one
`bss` invocation.  make_jobs(workload, seed) builds a workload's list; the
seed picks the inputs and the order, and every list has a fixed make-up so
that its cost does not depend on the seed.  The list length is odd and
0.05 * length is not a whole number, so the job median and the 95th
percentile each fall inside one job's samples rather than between two.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction as F
from time import perf_counter
from typing import Any, Callable

import checks
from bssvm import cli
from bssvm.enumeration import unipoly_at
from bssvm.machine import Oracle, parse_program, run_concrete
from bssvm.stdlib import stdlib_program
from bssvm.stdlib.sources import source_text
from bssvm.symbolic import (boundary_report, epsilon_certificate, explore_paths,
                            extract_f, field_boundary_check, shadow_trace,
                            verify_neighborhood)

RUN_BUDGET = 10 ** 6
CERT_SAMPLES = 50


@dataclass
class Job:
    name: str
    call: Callable[[], Any]                   # the timed call
    check: Callable[[Any], str | None]        # outside the timing; None = correct
    corrupt: Callable[[Any], list]            # wrong answers the check must reject
    digest: Callable[[Any], Any]              # what check reads, as text, for repeat rounds
    steps: Callable[[Any], int] | None = None  # BSS steps the output reports


def _strs(values) -> tuple | None:
    """A snapshot of values as text, so that a later change to the objects
    themselves cannot make a repeat output look like the verified one."""
    return None if values is None else tuple(map(str, values))


class Slot:
    """Hands one job's output to the next job of the same round."""
    value: Any = None


def _programs(names) -> tuple[dict, float, float]:
    """Build each program and parse its committed source: the program part
    of set-up.  Returns the programs and the build and parse seconds."""
    progs, build_s, parse_s = {}, 0.0, 0.0
    for name in names:
        t0 = perf_counter()
        progs[name] = stdlib_program(name)
        t1 = perf_counter()
        parse_program(source_text(name))
        build_s += t1 - t0
        parse_s += perf_counter() - t1
    return progs, build_s, parse_s


# -- enumerate ---------------------------------------------------------------

# Inputs of the two searchers, by cost class.  A rational's class is the
# position of its first vanishing polynomial in bssvm.enumeration's order,
# which fixes the step count: for the semidecider 1 takes 0.8k steps and
# positions 17-35 take 1.7k-4.4k; for dependence positions 20-25 take
# 4.1k-5k steps, 45 takes 12k and 66-74 take 22k-24k.  Costlier inputs are
# left out, so that no run takes more than a tenth of a round: the next
# semidecider class (positions 257-263, e.g. -3 and -1/4) takes 58k steps,
# the next dependence class (113-122, e.g. (1/2, 2)) 39k-43k.
SEMI_INPUTS = [F(1), F(-2), F(-1, 2), F(2), F(1, 2)]
_h = F(1, 2)
DEP_LIGHT = [(F(-3), F(-3)), (F(-2), F(-2)), (-_h, -_h), (_h, _h), (F(1), F(1)),
             (F(2), F(2)), (F(3), F(3)), (F(-3), F(1)), (F(-2), F(1)), (-_h, F(1)),
             (_h, F(1)), (F(2), F(1)), (F(3), F(1)), (F(-3), F(2)), (F(1), F(-2)),
             (F(2), F(-3)), (F(1), F(-3)), (F(1), -_h), (F(1), _h), (F(1), F(2)),
             (F(1), F(3))]
DEP_MID_A = [(F(-2), _h), (-_h, F(2)), (_h, F(-2)), (F(2), -_h)]
DEP_MID_B = [(F(-3), F(-2)), (-_h, F(-2)), (F(3), F(-2)), (F(2), F(3)), (F(-2), F(-3)),
             (F(3), F(2)), (F(-2), -_h), (F(-2), F(3)), (F(-3), -_h), (F(3), -_h),
             (-_h, F(-3)), (-_h, F(3))]


def _run_job(progs, name, inputs, expected: Callable[[], tuple]) -> Job:
    prog = progs[name]

    def corrupt(out):
        result, trace = out
        wrong = (result.output[0] + 1,) + tuple(result.output[1:])
        return [(replace(result, output=wrong), trace),
                (replace(result, status="budget_exhausted", output=None), trace),
                (result, replace(trace, steps=trace.steps[:-1]))]

    return Job(
        name=f"{name}{tuple(str(v) for v in inputs)}",
        call=lambda: run_concrete(prog, inputs, budget=RUN_BUDGET),
        check=lambda out: checks.check_run(out[0], out[1], expected()),
        corrupt=corrupt,
        digest=lambda out: (out[0].status, out[0].steps, out[0].output, len(out[1].steps)),
        steps=lambda out: out[0].steps)


def enumerate_jobs(rng: random.Random, progs) -> list[Job]:
    jobs = []
    for i in range(24):   # q_enumerator: 0.9k-15k steps, n = 60, 80, ..., 520 plus 0-9
        n = 60 + 20 * i + rng.randrange(10)
        jobs.append(_run_job(progs, "q_enumerator", (F(n),),
                             lambda n=n: (checks.rational_at(n),)))
    for i in range(12):   # qx_enumerator: 0.8k-1.3k steps, n log-spread in 10^3..10^6
        n = int(10 ** rng.uniform(3 + 3 * i / 12, 3 + 3 * (i + 1) / 12))
        jobs.append(_run_job(progs, "qx_enumerator", (F(n),),
                             lambda n=n: tuple(unipoly_at(n).coeffs)))
    for x in rng.sample(SEMI_INPUTS, len(SEMI_INPUTS)):
        jobs.append(_run_job(progs, "algebraic_semidecider", (x,), lambda: (F(1),)))
    pairs = rng.sample(DEP_LIGHT, 7) + rng.sample(DEP_MID_A, 2) + [rng.choice(DEP_MID_B)]
    for pair in pairs:
        jobs.append(_run_job(progs, "dependence", pair, lambda: (F(1),)))
    rng.shuffle(jobs)
    return jobs


# -- corpus ------------------------------------------------------------------

# Step budgets of the acceptance corpus: the enumerating programs halt only
# once the enumeration reaches the input.
CORPUS_BUDGETS = {"q_enumerator": 400, "qx_enumerator": 400,
                  "algebraic_semidecider": 400, "dependence": 300}
CORPUS_DEFAULT_BUDGET = 600
ORACLE_PROGRAMS = {"oracle_member", "always_zero", "eq_probe"}
CORPUS_PROGRAMS = ("sgn", "sgn_decider", "interval_member", "even_zeros", "inv_shift",
                   "cantor_cosemidecider", "oracle_member", "always_zero", "eq_probe",
                   "q_enumerator", "qx_enumerator", "algebraic_semidecider", "dependence")
CORPUS_INPUTS = 11
# Certified programs and the inputs at which their path has an equality
# branch, where no neighbourhood follows the path.
CERTIFIED = {"sgn": lambda x: x == 0,
             "interval_member": lambda x: x in (F(1, 2), F(1)),
             "even_zeros": lambda x: x == 0 or (x > 0 and x.numerator == 1
                                                 and x.denominator & (x.denominator - 1) == 0),
             "inv_shift": lambda x: x == 1}


def _truth(name: str, xs: tuple):
    x = xs[0]
    if name == "sgn":
        return (F(checks.sign(x)),)
    if name == "sgn_decider":
        return (F(int(x > 0)),)
    if name == "interval_member":
        return (F(int(F(1, 2) <= x <= 1)),)
    if name == "even_zeros":
        return (F(checks.band_truth(x)),)
    if name == "inv_shift":
        return (1 / (x - 1),)
    if name == "cantor_cosemidecider":
        return None if checks.cantor_member(x) else (F(1),)
    if name == "oracle_member":
        return (F(1),)   # the rationals oracle accepts every rational
    if name == "always_zero":
        return (F(0),)
    if name == "eq_probe":
        return (F(int(xs[0] == xs[1])),)
    return None


def _shadow_job(progs, name, xs, slot: Slot) -> Job:
    prog = progs[name]
    budget = CORPUS_BUDGETS.get(name, CORPUS_DEFAULT_BUDGET)
    oracle = Oracle.rationals() if name in ORACLE_PROGRAMS else None
    truth = _truth(name, xs)

    def call():
        strace = shadow_trace(prog, xs, oracle=oracle, budget=budget)
        slot.value = strace
        return strace, field_boundary_check(strace)

    def check(out):
        strace, report = out
        if name == "cantor_cosemidecider" and strace.outcome == "halted" and truth is None:
            return f"co-semidecider halted on Cantor member {xs[0]}"
        return checks.check_shadow(strace, report,
                                   *run_concrete(prog, xs, oracle=oracle, budget=budget),
                                   truth)

    def corrupt(out):
        strace, report = out
        wrong = [(replace(strace, steps=strace.steps[:-1]), report),
                 (strace, replace(report, ok=False)),
                 (strace, replace(report, max_value_degree=2))]
        step = next((s for s in strace.steps if s.values), None)
        if step is not None:
            cell = next(iter(step.values))
            bad = replace(step, values={**step.values, cell: step.values[cell] + 1})
            steps = tuple(bad if s is step else s for s in strace.steps)
            wrong.append((replace(strace, steps=steps), report))
        if truth is not None and strace.outcome == "halted":
            bad = (strace.output_values[0] + 1,) + tuple(strace.output_values[1:])
            wrong.append((replace(strace, output_values=bad), report))
        return wrong

    return Job(
        name=f"shadow {name}{tuple(str(v) for v in xs)}", call=call,
        check=check, corrupt=corrupt,
        digest=lambda out: (out[0].outcome, out[0].steps_executed, _strs(out[0].output_values),
                            out[0].branch_history(), out[0].oracle_history(),
                            tuple(_strs(sorted(s.values.items())) for s in out[0].steps),
                            out[1].ok, out[1].cells_checked, out[1].max_value_degree),
        steps=lambda out: out[0].steps_executed)


def _cert_job(progs, name, xs, slot: Slot, seed: int) -> Job:
    prog = progs[name]

    def call():
        strace = slot.value
        cert = epsilon_certificate(extract_f(strace), strace.input)
        return cert, verify_neighborhood(prog, None, strace, cert,
                                         samples=CERT_SAMPLES, seed=seed)

    def corrupt(out):
        cert, report = out
        failed = (replace(report.samples[0], ok=False),) + report.samples[1:]
        return [(cert, replace(report, samples=failed, ok=False)),
                (cert, replace(report, samples=report.samples[1:]))]

    return Job(
        name=f"certify {name}{tuple(str(v) for v in xs)}", call=call,
        check=lambda out: checks.check_certificate(out[0], out[1], CERT_SAMPLES),
        corrupt=corrupt,
        digest=lambda out: (str(out[0].epsilon), _strs(out[0].center), _strs(out[0].functions),
                            out[1].passed, out[1].ok,
                            tuple((_strs(x.point), x.ok) for x in out[1].samples)))


def corpus_jobs(rng: random.Random, progs) -> list[Job]:
    units = []
    for name in CORPUS_PROGRAMS:
        arity = progs[name].arity
        for _ in range(CORPUS_INPUTS):
            xs = tuple(F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(arity))
            if name in CERTIFIED:
                while CERTIFIED[name](xs[0]):
                    xs = (F(rng.randint(-40, 40), rng.randint(1, 12)),)
            slot = Slot()
            unit = [_shadow_job(progs, name, xs, slot)]
            if name in CERTIFIED:
                unit.append(_cert_job(progs, name, xs, slot, rng.randrange(10 ** 6)))
            units.append(unit)
    rng.shuffle(units)
    return [job for unit in units for job in unit]


# -- paths -------------------------------------------------------------------

TREE_POINTS = 6   # seeded rationals checked against every tree


def _one_step(_out) -> int:
    """explore_paths reports no step count, so on paths every job counts as
    one step and steps_per_s equals jobs_per_s."""
    return 1


def _tree_job(progs, name, depth, points, slot: Slot | None = None, prog=None) -> Job:
    prog = prog or progs[name]

    def call():
        tree = explore_paths(prog, depth_budget=depth)
        if slot is not None:
            slot.value = tree
        return tree

    def check(tree):
        for point in points:
            err = checks.check_tree_leaf(tree, point, run_concrete(prog, point, budget=10 ** 4))
            if err:
                return err
        return None

    def corrupt(tree):
        holds = [checks.condition_holds(l.condition, points[0]) for l in tree.leaves]
        leaf = tree.leaves[holds.index(True)]
        flipped = replace(leaf, history=leaf.history[:-1] + (
            "+1" if leaf.history[-1] != "+1" else "-1",))
        return [replace(tree, leaves=tree.leaves * 2),
                replace(tree, leaves=tuple(l for l, h in zip(tree.leaves, holds) if not h)),
                replace(tree, leaves=tuple(flipped if l is leaf else l for l in tree.leaves))]

    return Job(
        name=f"paths {prog.name} depth {depth}", call=call,
        check=check, corrupt=corrupt,
        digest=lambda tree: tuple(
            (l.history, l.outcome, str(l.condition), _strs(l.outputs))
            for l in tree.leaves),
        steps=_one_step)


def _boundary_job(name, slot: Slot, roots: set) -> Job:
    def corrupt(polys):
        return [set(list(polys)[1:]), polys | {next(iter(polys)) * next(iter(polys))}]

    return Job(
        name=f"boundary {name} {sorted(map(str, roots))}",
        call=lambda: boundary_report(slot.value),
        check=lambda polys: checks.check_boundary(polys, roots),
        corrupt=corrupt,
        digest=lambda polys: sorted(map(str, polys)), steps=_one_step)


def paths_jobs(rng: random.Random, progs) -> list[Job]:
    # Every tree costs at most about 40 ms, a tenth of a round: Cantor trees
    # stop at depth 5 (depth 6 takes 100 ms, 8 about 750 ms) and the
    # semidecider's at depth 2 (depth 3 takes 70 ms).
    def points(arity=1):
        return [tuple(F(rng.randint(-300, 300), rng.randint(1, 200)) for _ in range(arity))
                for _ in range(TREE_POINTS)]

    units = []
    for depth in range(1, 6):
        units.append([_tree_job(progs, "cantor_cosemidecider", depth, points())])
    for k in range(7):    # even_zeros: depths 10-58, 2.5-35 ms
        units.append([_tree_job(progs, "even_zeros", 10 + 7 * k + rng.randrange(7), points())])
    for name, depth in (("sgn", 16), ("inv_shift", 8)):
        units.append([_tree_job(progs, name, depth, points())])
    for name, depth, roots in (("sgn_decider", 10, {F(0)}),
                               ("interval_member", 20, {F(1, 2), F(1)})):
        slot = Slot()
        units.append([_tree_job(progs, name, depth, points(), slot),
                      _boundary_job(name, slot, roots)])
    for _ in range(5):   # interval deciders with seeded end points
        lo = F(rng.randint(-50, 50), rng.randint(1, 9))
        hi = lo + F(rng.randint(1, 50), rng.randint(1, 9))
        prog = stdlib_program("interval_member", lo, hi)
        slot = Slot()
        units.append([_tree_job(progs, "interval_member", 20, points(), slot, prog),
                      _boundary_job("interval_member", slot, {lo, hi})])
    for name, depths in (("q_enumerator", (1, 2, 3, 4)), ("qx_enumerator", (1, 2, 3, 4)),
                         ("algebraic_semidecider", (1, 2)), ("dependence", (1,))):
        for depth in depths:
            units.append([_tree_job(progs, name, depth, points(progs[name].arity))])
    rng.shuffle(units)
    return [job for unit in units for job in unit]


# -- algebraic ---------------------------------------------------------------

# (field polynomial as bss reads it, isolating interval) of degree-2 and
# degree-3 roots early in the polynomial order: the semidecider halts on
# the degree-2 ones within 5.4k-5.9k steps (120 ms in text, 220 ms in
# json), on the degree-3 ones within 16k-17.3k (430 ms in text, 730 ms in
# json).  A round runs it at one degree-2 root in each format and at one
# degree-3 root in text, and the cheaper families below fill the round out
# to about four seconds.
ROOTS = {2: [("X^2 + X - 1", "0", "1"), ("X^2 + X - 1", "-2", "-1"),
             ("X^2 - X - 1", "1", "2"), ("X^2 - X - 1", "-1", "0")],
         3: [("X^3 + X - 1", "0", "1"), ("X^3 - X - 1", "1", "2"),
             ("X^3 - X + 1", "-2", "-1"), ("X^3 + X^2 - 1", "0", "1")]}
SEMIDECIDER_RUNS = ((2, "text"), (2, "json"), (3, "text"))
CERT_CENTRES = [("inv_shift", "(a:(0,1))"), ("sgn", "(a:(0,1))"),
                ("interval_member", "(a:(0,1/2))"), ("even_zeros", "(a:(0,1/8))"),
                ("interval_member", "(a:(-1/2,1))"), ("inv_shift", "(a:(1/2,1/2))")]
FORMATS = ("text", "json")
BITS = tuple(16 + 16 * i for i in range(24))   # k, give or take seven
WITNESSES = 40


def _root_approx(d: int, k: int, rng: random.Random) -> F:
    """A rational within 3 * 2^-k of 2^(1/d), on either side of it."""
    target = 1 << (d * k + 1)
    lo, hi = 1 << k, 2 << k
    while hi - lo > 1:      # largest m with m^d <= 2^(dk + 1)
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** d <= target else (lo, mid)
    return F(lo + rng.choice((-1, 0, 1, 2)), 1 << k)


def _bss(argv: list[str], fmt: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--format", fmt])
    return code, buf.getvalue()


# Wrong answers for the self-test, as (pattern, replacement) per format.
_WRONG_OUTPUT = {"text": (r"^output: \((.*)\)$", "output: (7)"),
                 "json": (r'"output": \[\s*"[^"]*"', '"output": ["7"')}
_WRONG_SAMPLES = {"text": (r"^samples: 50/", "samples: 49/"),
                  "json": (r'"passed": 50', '"passed": 49')}
_WRONG_WITNESS = {"text": (r"^b = ", "b = 1 + "), "json": (r'"b": "', '"b": "1')}
_WRONG_DEGREE = {"text": (r", m = (\d+)$", r", m = 1\1"), "json": (r'"m": ', '"m": 1')}


def _bss_job(label, argv, fmt, check, wrong, steps=False) -> Job:
    def corrupt(out):
        code, text = out
        return [(1, text)] + [(code, re.sub(*w[fmt], text, count=1, flags=re.M))
                              for w in wrong]

    return Job(
        name=f"bss {label} --format {fmt}",
        call=lambda: _bss(argv, fmt),
        check=lambda out: check(out[0], fmt, out[1]),
        corrupt=corrupt, digest=lambda out: out,
        steps=(lambda out: checks.run_output(fmt, out[1])[1]) if steps else None)


def algebraic_jobs(rng: random.Random, progs) -> list[Job]:
    # every family alternates text and json, and degrees 2 and 3
    jobs = []
    for i, bits in enumerate(BITS):
        # sgn on r - 2^(1/d) and interval_member on 1/2 + r - 2^(1/d),
        # elements within 2^-k of zero
        for j, (name, shift) in enumerate((("sgn", F(0)), ("interval_member", F(1, 2)))):
            d = 2 + (i + j) % 2
            k = bits + rng.randint(-7, 7)
            r = _root_approx(d, k, rng)
            above = r ** d > 2
            want = str(checks.sign(r ** d - 2)) if name == "sgn" else str(int(above))
            argv = ["run", "--stdlib", name, "--field", f"a=X^{d} - 2;1;2",
                    "--input", f"(a:({shift + r},-1))"]
            jobs.append(_bss_job(f"run {name} d={d} k={k}", argv, FORMATS[i % 2],
                                 lambda c, f, t, w=want: checks.check_bss_run(c, f, t, w),
                                 [_WRONG_OUTPUT], steps=True))
    for d, fmt in SEMIDECIDER_RUNS:
        poly, lo, hi = rng.choice(ROOTS[d])
        argv = ["run", "--stdlib", "algebraic_semidecider", "--field",
                f"a={poly};{lo};{hi}", "--input", "(a:(0,1))"]
        jobs.append(_bss_job(f"run semidecider at a root of {poly}", argv, fmt,
                             lambda c, f, t: checks.check_bss_run(c, f, t, "1"),
                             [_WRONG_OUTPUT], steps=True))
    for i, (name, centre) in enumerate(CERT_CENTRES * 4):   # every centre, d and format
        d = 2 + i // len(CERT_CENTRES) % 2
        argv = ["certify", "--stdlib", name, "--field", f"a=X^{d} - 2;1;2",
                "--input", centre, "--seed", str(rng.randrange(10 ** 6))]
        jobs.append(_bss_job(f"certify {name} at {centre} d={d}", argv,
                             FORMATS[i // (2 * len(CERT_CENTRES))],
                             lambda c, f, t: checks.check_bss_certify(c, f, t, CERT_SAMPLES),
                             [_WRONG_SAMPLES]))
    for i in range(WITNESSES):
        name = ("oracle_member", "always_zero")[i % 2]
        x1 = rng.choice([F(2), F(3), F(5), F(6), F(7), F(2, 3), F(5, 2), F(7, 3)])
        # a zero second coordinate would pin the oracle query's sign
        probe = f"({rng.randint(-9, 9)}, {rng.choice((-1, 1)) * rng.randint(1, 9)})"
        argv = ["witness", "--stdlib", name, "--oracle", "rationals", "--x1", str(x1),
                "--input", probe]
        jobs.append(_bss_job(f"witness {name} x1={x1} at {probe}", argv, FORMATS[i // 2 % 2],
                             lambda c, f, t, x1=x1: checks.check_bss_witness(c, f, t, x1),
                             [_WRONG_WITNESS, _WRONG_DEGREE]))
    rng.shuffle(jobs)
    return jobs


# -- entry ---------------------------------------------------------------------

PROGRAMS = {
    "enumerate": ("q_enumerator", "qx_enumerator", "algebraic_semidecider", "dependence"),
    "corpus": CORPUS_PROGRAMS,
    "paths": ("cantor_cosemidecider", "sgn", "even_zeros", "inv_shift", "sgn_decider",
              "interval_member", "q_enumerator", "qx_enumerator",
              "algebraic_semidecider", "dependence"),
    "algebraic": ("sgn", "interval_member", "algebraic_semidecider", "inv_shift",
                  "even_zeros", "oracle_member", "always_zero"),
}
BUILDERS = {"enumerate": enumerate_jobs, "corpus": corpus_jobs,
            "paths": paths_jobs, "algebraic": algebraic_jobs}
WORKLOADS = tuple(BUILDERS)


def build_programs(workload: str) -> tuple[dict, float, float]:
    return _programs(PROGRAMS[workload])


def make_jobs(workload: str, seed: int, progs: dict) -> list[Job]:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), progs)
