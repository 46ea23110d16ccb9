"""Per-machine counterexample pipeline for oracle deciders of the
algebraic-dependence set.

Given an arity-2 machine M that claims to decide whether its input pair
is algebraically dependent, the pipeline probes M on a rational pair,
reads off the finitely many rational functions its path compares or
queries, and then moves the second coordinate to b + x1^(1/m) with m a
prime exceeding every Y2-degree in sight.  The placement keeps the new
pair inside the probe's certified neighborhood while making the pair
dependent by construction, so a machine that followed the same path and
answered "independent" is caught out: same path, same output, wrong
answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..errors import BssError, CertificateError
from ..exact import (
    AlgebraicNumber,
    MultiPoly,
    algebraic_equal,
    degree_over_q,
    minimal_polynomial,
)
from ..exact.numberfield import _is_prime
from ..machine import (
    DEFAULT_BUDGET,
    FAULT,
    HALTED,
    ORACLE_UNSUPPORTED,
    Oracle,
    Program,
    run_concrete,
)
from ..symbolic import epsilon_certificate, extract_f, shadow_trace
from .depend import choose_prime_m, max_var_degree, place_root

CONFIRMED = "counterexample_confirmed"
INAPPLICABLE = "pipeline_inapplicable"


@dataclass(frozen=True)
class CounterexampleReport:
    verdict: str
    x1: Fraction
    n: int | None = None
    m: int | None = None
    b: Fraction | None = None
    x2: AlgebraicNumber | None = None
    path_equal: bool | None = None
    machine_output: object = None
    ground_truth: object = None
    epsilon: Fraction | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.verdict not in (CONFIRMED, INAPPLICABLE):
            raise BssError(f"bad verdict {self.verdict!r}")
        if self.verdict == CONFIRMED:
            if self.m is None or self.n is None or not _is_prime(self.m) or self.m <= self.n:
                raise BssError("confirmed report needs a prime m exceeding n")
            if self.x2 is None or degree_over_q(self.x2) != self.m:
                raise BssError("confirmed report needs x2 of degree exactly m")
            if self.path_equal is not True:
                raise BssError("confirmed report needs matching paths")
            if self.machine_output == self.ground_truth:
                raise BssError("confirmed report needs an output mismatch")


def _inapplicable(x1: Fraction, note: str, **extra) -> CounterexampleReport:
    return CounterexampleReport(verdict=INAPPLICABLE, x1=x1, notes=(note,), **extra)


def _single(output: tuple) -> object:
    return output[0] if len(output) == 1 else output


def build_counterexample(program: Program, oracle: Oracle, x1, probe_input,
                         budget: int = DEFAULT_BUDGET) -> CounterexampleReport:
    """Run the pipeline end to end; see the module docstring.

    The probe must take the generic path: an exact-equality branch on a
    nonconstant function, or an oracle that cannot answer on the
    extension field, ends the pipeline with verdict pipeline_inapplicable
    rather than an error.
    """
    if program.arity != 2:
        raise BssError("the pipeline tests arity-2 machines")
    x1 = Fraction(x1)
    probe = tuple(Fraction(v) for v in probe_input)
    if len(probe) != 2:
        raise BssError("probe input must be a pair")

    shadow = shadow_trace(program, probe, oracle=oracle, budget=budget,
                          use_generic=True)
    if shadow.outcome != HALTED:
        return _inapplicable(x1, f"probe run did not halt ({shadow.outcome})")
    for ev in shadow.branch_log:
        if ev.sign == 0 and not ev.function.is_constant():
            return _inapplicable(
                x1, f"probe path pins {ev.function} = 0 exactly; no neighborhood "
                    "of the probe follows this path")

    functions = extract_f(shadow)
    n = max_var_degree(functions, 2)
    m = choose_prime_m(n)

    try:
        cert = epsilon_certificate(functions, probe)
    except CertificateError as exc:
        return _inapplicable(x1, f"no certified neighborhood at the probe: {exc}",
                             n=n, m=m)
    try:
        b, x2 = place_root(x1, m, probe[1], cert.epsilon)
    except BssError as exc:
        return _inapplicable(x1, str(exc), n=n, m=m, epsilon=cert.epsilon)

    run, trace = run_concrete(program, (x1, x2), oracle=oracle, budget=budget,
                              trace="decisions")
    if run.status == FAULT and run.fault_kind == ORACLE_UNSUPPORTED:
        return _inapplicable(
            x1, "oracle cannot answer on the degree-m extension field",
            n=n, m=m, b=b, x2=x2, epsilon=cert.epsilon)
    if run.status != HALTED:
        return _inapplicable(
            x1, f"run on the placed pair did not halt ({run.status})",
            n=n, m=m, b=b, x2=x2, epsilon=cert.epsilon)

    path_equal = (trace.branch_history() == shadow.branch_history()
                  and trace.oracle_history() == shadow.oracle_history())
    machine_output = _single(run.output)

    # the placed pair is dependent by construction: (Y2 - b)^m - Y1
    # vanishes at (x1, x2), and the root's minimal polynomial confirms
    # the extension degree is exactly m
    y1 = MultiPoly.var(0, 2)
    y2 = MultiPoly.var(1, 2)
    witness_poly = (y2 - MultiPoly.constant(b, 2)) ** m - y1
    if witness_poly.is_zero() or not algebraic_equal(witness_poly.eval((x1, x2)), 0):
        raise BssError("dependence witness polynomial failed to vanish; engine bug")
    mp = minimal_polynomial(x2 - b)
    if mp.degree != m:
        raise BssError("placed root has the wrong extension degree; engine bug")
    ground_truth = Fraction(1)
    notes = (f"dependence witness: {witness_poly} vanishes at (x1, x2)",
             f"minimal polynomial of x2 - b: {mp.pretty()}")

    if path_equal and machine_output != ground_truth:
        verdict = CONFIRMED
    else:
        verdict = INAPPLICABLE
        if path_equal:
            notes += ("machine output matches the ground truth on the placed "
                      "pair; nothing to refute",)
        else:
            notes += ("placed pair left the probe's path despite the "
                      "certificate; check the oracle's coherence",)
    return CounterexampleReport(
        verdict=verdict, x1=x1, n=n, m=m, b=b, x2=x2, path_equal=path_equal,
        machine_output=machine_output, ground_truth=ground_truth,
        epsilon=cert.epsilon, notes=notes)
