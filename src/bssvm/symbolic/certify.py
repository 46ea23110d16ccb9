"""Sign-invariant neighborhood certificates.

A halted run's behavior is locally constant: the nonconstant functions it
branched or queried on (the F set) keep their signs on a small box around
the input, so every point in the box takes the same path and outputs the
same functions of its coordinates.  epsilon_certificate finds such a box
with interval_eval's term-by-term enclosures, starting at half-width 1 and
halving until every numerator and denominator enclosure excludes zero;
verify_neighborhood then attacks the certificate with concrete sample runs.

Each sample run keeps only its decisions (run_concrete's "decisions"
trace level), which is all the comparison reads: the path is its branch
signs and oracle answers in order, and the output comes with the result.
Those histories are exactly the full trace's, because the execution core
asks the domain for a sign only at a BRANCH and for an answer only at an
ORACLE, and the concrete domain decides every one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from ..errors import BssError, CertificateError
from ..exact import (AlgebraicNumber, RatInterval, RationalFunction,
                     algebraic_equal, interval_eval, rf_eval, sign_at)
from ..machine.interp import Value, run_concrete
from ..machine.oracle import Oracle
from ..machine.program import Program
from .shadow import SymbolicTrace

DEFAULT_MAX_HALVINGS = 60


def extract_f(trace: SymbolicTrace) -> set[RationalFunction]:
    """The F set: every nonconstant function the run branched on or put into
    an oracle query."""
    if trace.outcome != "halted":
        raise BssError(f"F-set extraction requires a halted trace, got {trace.outcome}")
    fs: set[RationalFunction] = set()
    for event in trace.branch_log:
        if not event.function.is_constant():
            fs.add(event.function)
    for event in trace.oracle_log:
        for f in event.functions:
            if not f.is_constant():
                fs.add(f)
    return fs


@dataclass(frozen=True)
class EpsilonCertificate:
    center: tuple[Value, ...]
    epsilon: Fraction
    functions: tuple[RationalFunction, ...]
    # per function: (numerator enclosure, denominator enclosure) over the box
    enclosures: tuple[tuple[RatInterval, RatInterval], ...]

    def __post_init__(self):
        if self.epsilon <= 0:
            raise CertificateError("certificate epsilon must be positive")
        if len(self.functions) != len(self.enclosures):
            raise CertificateError("one enclosure pair per function required")
        for f, (num_enc, den_enc) in zip(self.functions, self.enclosures):
            if num_enc.contains_zero() or den_enc.contains_zero():
                raise CertificateError(f"enclosure for {f} does not exclude zero")


def _coordinate_box(coord: Value, eps: Fraction) -> RatInterval:
    # A rational box guaranteed to contain [coord - eps, coord + eps] is
    # fine: certifying more than the true box is sound.
    if isinstance(coord, AlgebraicNumber):
        if coord.is_rational():
            coord = coord.as_fraction()
        else:
            enc = coord.enclosure(max_width=eps / 2)
            return RatInterval(enc.lo - eps, enc.hi + eps)
    return RatInterval(coord - eps, coord + eps)


def epsilon_certificate(functions, center) -> EpsilonCertificate:
    center = tuple(center)
    fns = sorted(functions, key=str)
    for f in fns:
        if f.nvars != len(center):
            raise CertificateError(
                f"{f} speaks about {f.nvars} coordinates, center has {len(center)}")
        if sign_at(rf_eval(f, center)) == 0:
            raise CertificateError(f"{f} vanishes at the center; no sign to preserve")
    eps = Fraction(1)
    for _ in range(DEFAULT_MAX_HALVINGS + 1):
        box = [_coordinate_box(c, eps) for c in center]
        enclosures: list[tuple[RatInterval, RatInterval]] = []
        for f in fns:
            num_enc = interval_eval(f.num, box)
            den_enc = interval_eval(f.den, box)
            if num_enc.contains_zero() or den_enc.contains_zero():
                break
            enclosures.append((num_enc, den_enc))
        else:
            return EpsilonCertificate(center, eps, tuple(fns), tuple(enclosures))
        eps /= 2
    raise CertificateError(
        f"no certified box after {DEFAULT_MAX_HALVINGS} halvings; "
        "the input may be too close to a sign boundary")


@dataclass(frozen=True)
class SampleResult:
    point: tuple[Fraction, ...]
    ok: bool
    detail: str


@dataclass(frozen=True)
class NeighborhoodReport:
    ok: bool
    samples: tuple[SampleResult, ...]
    epsilon: Fraction

    @property
    def passed(self) -> int:
        return sum(1 for s in self.samples if s.ok)


_GRID = 64  # sample coordinates are multiples of radius/_GRID


def _rational_anchor(coord: Value, eps: Fraction) -> tuple[Fraction, Fraction]:
    # (anchor, radius) with [anchor - radius, anchor + radius] inside the
    # true box around coord
    if isinstance(coord, AlgebraicNumber):
        if coord.is_rational():
            return coord.as_fraction(), eps
        enc = coord.enclosure(max_width=eps / 4)
        return enc.midpoint(), eps / 2
    return Fraction(coord), eps


def verify_neighborhood(program: Program, oracle: Oracle | None,
                        trace: SymbolicTrace, cert: EpsilonCertificate,
                        samples: int = 50, seed: int = 0) -> NeighborhoodReport:
    """Sample rational points from the certified box and check each runs the
    trace's exact path and outputs the trace's functions of its own
    coordinates.  Mismatches are reported, never raised."""
    if trace.outcome != "halted":
        raise BssError("neighborhood verification requires a halted trace")
    if set(cert.functions) != extract_f(trace):
        raise BssError("certificate functions do not match the trace's F set")
    rng = random.Random(seed)
    anchors = [_rational_anchor(c, cert.epsilon) for c in cert.center]
    want_branches = trace.branch_history()
    want_oracle = trace.oracle_history()
    budget = trace.steps_executed + 8

    results: list[SampleResult] = []
    for _ in range(samples):
        point = tuple(anchor + Fraction(rng.randint(-_GRID, _GRID), _GRID) * radius
                      for anchor, radius in anchors)
        result, run = run_concrete(program, point, oracle, budget=budget, trace="decisions")
        if result.status != "halted":
            results.append(SampleResult(point, False, f"status {result.status}"))
            continue
        if run.branch_history() != want_branches or run.oracle_history() != want_oracle:
            results.append(SampleResult(point, False, "path diverged from the trace"))
            continue
        expected = tuple(rf_eval(f, point) for f in trace.output_functions)
        if len(result.output) != len(expected) or not all(
                algebraic_equal(a, b) for a, b in zip(result.output, expected)):
            results.append(SampleResult(
                point, False,
                f"output {result.output!r} != predicted {expected!r}"))
            continue
        results.append(SampleResult(point, True, "path and output reproduced"))
    return NeighborhoodReport(all(r.ok for r in results), tuple(results), cert.epsilon)
