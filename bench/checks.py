"""Reference computations and output checks.

Every check rests on arithmetic done apart from the program under test
(this file's own enumeration of Q, Fraction sign tests, band and Cantor
truths, polynomial arithmetic over Fractions) or on a property the method
must have (the shadow equals the concrete run, exactly one path leaf holds
per input, a certificate survives its samples).  A check returns None when
the output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

# -- the order of Q ---------------------------------------------------------


def rational_at(n: int) -> Fraction:
    """n-th rational of the documented order: 0; then heights |p| + q
    ascending, p ascending inside a height, each positive entry followed by
    its negation."""
    if n == 0:
        return Fraction(0)
    u, neg = divmod(n - 1, 2)
    h = 2
    while True:
        block = [p for p in range(1, h) if gcd(p, h - p) == 1]
        if u < len(block):
            v = Fraction(block[u], h - block[u])
            return -v if neg else v
        u -= len(block)
        h += 1


# -- set truths ---------------------------------------------------------------


def sign(x) -> int:
    return (x > 0) - (x < 0)


def band_truth(x: Fraction) -> int:
    """1 iff x lies in some band [4^-m / 2, 4^-m], m >= 0."""
    hi = Fraction(1)
    while x <= hi and x > 0:
        if x >= hi / 2:
            return 1
        hi /= 4
    return 0


def cantor_member(x: Fraction) -> bool:
    """Exact middle-thirds membership of a rational by tripling; a rational's
    orbit is eventually periodic, so the walk ends."""
    if x < 0 or x > 1:
        return False
    seen = set()
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    while x not in seen:
        if third < x < two_thirds:
            return False
        seen.add(x)
        x = 3 * x if x <= third else 3 * x - 2
    return True


def is_prime(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, int(m ** 0.5) + 1))


# -- polynomials over Q as coefficient lists, low degree first --------------

_TERM = re.compile(r"^(?:(?P<c>\d+(?:/\d+)?)(?:\*)?)?(?P<x>X(?:\^(?P<e>\d+))?)?$")


def parse_poly(text: str) -> list[Fraction]:
    """Parse both printed forms of a polynomial in X: '-2 + 0*X + 1*X^2'
    and 'X^2 - 2'."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    if s[0] not in "+-":
        s = "+" + s
    coeffs: dict[int, Fraction] = {}
    for sgn, body in re.findall(r"([+-])([^+-]+)", s):
        m = _TERM.match(body)
        if m is None or (m.group("c") is None and m.group("x") is None):
            raise ValueError(f"bad term {body!r} in {text!r}")
        c = Fraction(m.group("c")) if m.group("c") else Fraction(1)
        e = 0 if m.group("x") is None else int(m.group("e") or 1)
        coeffs[e] = coeffs.get(e, Fraction(0)) + (c if sgn == "+" else -c)
    out = [coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)]
    return trim(out)


def trim(p: list[Fraction]) -> list[Fraction]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def poly_mod(a: list[Fraction], m: list[Fraction]) -> list[Fraction]:
    a = trim(a)
    lead = m[-1]
    while len(a) >= len(m):
        q = a[-1] / lead
        shift = len(a) - len(m)
        for i, c in enumerate(m):
            a[shift + i] -= q * c
        a = trim(a)
    return a


def poly_pow_mod(a: list[Fraction], n: int, m: list[Fraction]) -> list[Fraction]:
    acc = [Fraction(1)]
    for _ in range(n):
        acc = poly_mod(poly_mul(acc, a), m)
    return acc


def multipoly_eval(terms: dict, point) -> Fraction:
    """Evaluate a {exponent tuple: coefficient} map at a rational point."""
    total = Fraction(0)
    for exps, c in terms.items():
        term = Fraction(c)
        for x, e in zip(point, exps):
            term *= x ** e
        total += term
    return total


def linear_root(terms: dict) -> Fraction | None:
    """Root of a one-variable polynomial of degree one, else None."""
    if set(terms) - {(0,), (1,)} or (1,) not in terms:
        return None
    return -Fraction(terms.get((0,), 0)) / Fraction(terms[(1,)])


# -- checks: enumerate --------------------------------------------------------


def check_run(result, trace, expected: tuple) -> str | None:
    if result.status != "halted":
        return f"status {result.status}, expected halted"
    if tuple(result.output) != tuple(expected):
        return f"output {result.output} != expected {expected}"
    if len(trace.steps) != result.steps:
        return f"trace holds {len(trace.steps)} records for {result.steps} steps"
    return None


# -- checks: corpus -----------------------------------------------------------


def check_shadow(strace, report, result, ctrace, truth) -> str | None:
    """Shadow against the concrete run cell for cell, the field check at
    degree 1, and the decider's output against its truth."""
    if strace.outcome != result.status:
        return f"shadow outcome {strace.outcome} != concrete {result.status}"
    if len(strace.steps) != len(ctrace.steps):
        return f"shadow ran {len(strace.steps)} steps, concrete {len(ctrace.steps)}"
    for ss, cs in zip(strace.steps, ctrace.steps):
        if dict(cs.writes) != ss.values:
            return f"step {ss.index}: shadow wrote {ss.values}, concrete {dict(cs.writes)}"
    if not report.ok:
        return f"field boundary check failed: {report.failures[:1]}"
    if report.max_value_degree > 1:
        return f"value of degree {report.max_value_degree} on a rational run"
    if truth is not None and strace.outcome == "halted" and tuple(strace.output_values) != truth:
        return f"output {strace.output_values} != truth {truth}"
    return None


def check_certificate(cert, report, samples: int) -> str | None:
    if cert.epsilon <= 0:
        return f"epsilon {cert.epsilon} is not positive"
    if not report.ok or report.passed != samples or len(report.samples) != samples:
        return f"{report.passed}/{len(report.samples)} samples pass, expected {samples}/{samples}"
    for s in report.samples:
        if any(abs(p - c) > cert.epsilon for p, c in zip(s.point, cert.center)):
            return f"sample {s.point} lies outside the certified box"
    return None


# -- checks: paths ------------------------------------------------------------

ARM_SIGN = {"-1": -1, "0": 0, "+1": 1}


def condition_holds(condition, point) -> bool:
    for f, s in condition.constraints:
        den = multipoly_eval(f.den.terms, point)
        if den == 0 or sign(multipoly_eval(f.num.terms, point)) * sign(den) != s:
            return False
    return True


def branch_tests(trace) -> list[tuple]:
    """(tested value, sign) of every branch of a concrete run, replayed from
    its trace: inputs and the zero window start in their cells, a step reads
    before its own writes land, and SHIFT moves the offset."""
    cells = {}
    if trace.program.zero_window is not None:
        lo, hi = trace.program.zero_window
        cells.update((i, Fraction(0)) for i in range(lo, hi + 1))
    cells.update(enumerate(trace.input))
    offset, tests = 0, []
    for step in trace.steps:
        instr = step.instruction
        if step.branch_sign is not None:
            tests.append((cells.get(offset + instr.src), step.branch_sign))
        elif type(instr).__name__ == "Shift":
            offset += 1 if instr.direction == "right" else -1
        cells.update(step.writes)
    return tests


def check_tree_leaf(tree, point: tuple, run) -> str | None:
    """Exactly one leaf holds at the point, and the concrete run there takes
    that leaf's arms.  Branches on values the input does not move fork
    nothing, so the run's branches must contain the leaf's forks in order:
    a test of each constraint's value at the point, with the sign of the
    arm.  A halted leaf's outputs equal the run's."""
    holding = [leaf for leaf in tree.leaves if condition_holds(leaf.condition, point)]
    if len(holding) != 1:
        return f"{len(holding)} leaves hold at {point}, expected exactly one"
    leaf = holding[0]
    result, trace = run
    arms = tuple(ARM_SIGN[a] for a in leaf.history)
    forks = tuple((multipoly_eval(f.num.terms, point) / multipoly_eval(f.den.terms, point), s)
                  for f, s in leaf.condition.constraints)
    if arms != tuple(s for _, s in forks):
        return f"leaf arms {arms} differ from its constraint signs {[s for _, s in forks]}"
    tests = iter(branch_tests(trace))
    if not all(fork in tests for fork in forks):   # an ordered subsequence
        return f"concrete run at {point} does not take the leaf's forks {forks}"
    if leaf.outcome == "halted":
        if result.status != "halted":
            return f"concrete run at {point} ended {result.status}, leaf halted"
        want = tuple(multipoly_eval(f.num.terms, point) / multipoly_eval(f.den.terms, point)
                     for f in leaf.outputs)
        if tuple(result.output) != want:
            return f"concrete output {result.output} != leaf output {want} at {point}"
    return None


def check_boundary(polys, roots: set) -> str | None:
    got = set()
    for p in polys:
        r = linear_root(p.terms)
        if r is None:
            return f"boundary polynomial {p} is not linear in one variable"
        got.add(r)
    if got != roots:
        return f"boundary roots {sorted(got)} != {sorted(roots)}"
    return None


# -- checks: algebraic (bss output) -------------------------------------------


def cli_fields(fmt: str, text: str) -> dict:
    """The fields a check needs from `bss` output, in either format."""
    if fmt == "json":
        return json.loads(text)
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if value and key and " " not in key:
            out.setdefault(key, value)
    return out


def run_output(fmt: str, text: str) -> tuple[str, int, tuple[str, ...]]:
    """(status, steps, output tuple as printed) of `bss run`."""
    d = cli_fields(fmt, text)
    if fmt == "json":
        return d["status"], int(d["steps"]), tuple(d["output"] or ())
    out = d.get("output", "()").strip("()")
    return d["status"], int(d["steps"]), tuple(v.strip() for v in out.split(",") if v)


def check_bss_run(code: int, fmt: str, text: str, expected: str) -> str | None:
    if code != 0:
        return f"bss exited {code}"
    status, _, output = run_output(fmt, text)
    if status != "halted" or output != (expected,):
        return f"bss run gave {status} {output}, expected halted ({expected})"
    return None


def check_bss_certify(code: int, fmt: str, text: str, samples: int) -> str | None:
    if code != 0:
        return f"bss exited {code}"
    if fmt == "json":
        hood = cli_fields(fmt, text)["neighborhood"]
        passed, total, ok = hood["passed"], hood["total"], hood["ok"]
        eps = Fraction(cli_fields(fmt, text)["epsilon"])
    else:
        d = cli_fields(fmt, text)
        m = re.match(r"(\d+)/(\d+) pass$", d.get("samples", ""))
        if m is None:
            return "no samples line in bss certify output"
        passed, total = int(m.group(1)), int(m.group(2))
        ok = passed == total
        eps = Fraction(re.search(r"^epsilon = (\S+)$", text, re.M).group(1))
    if not ok or passed != samples or total != samples or eps <= 0:
        return f"certificate: {passed}/{total} samples pass, epsilon {eps}"
    return None


def witness_fields(fmt: str, text: str) -> tuple[str, int, int, Fraction, list, list]:
    """(verdict, n, m, b, x2 coordinates, x2 minimal polynomial)."""
    if fmt == "json":
        d = cli_fields(fmt, text)
        x2 = d["x2"]
        if d["verdict"] != "counterexample_confirmed":
            return d["verdict"], 0, 0, Fraction(0), [], []
        return (d["verdict"], d["n"], d["m"], Fraction(d["b"]),
                [Fraction(c) for c in x2["coords"]], parse_poly(x2["min_poly"]))
    verdict = re.search(r"^verdict: (\S+)$", text, re.M).group(1)
    if verdict != "counterexample_confirmed":
        return verdict, 0, 0, Fraction(0), [], []
    n, m = map(int, re.search(r"^n = (\d+), m = (\d+)$", text, re.M).groups())
    b, element, minpoly = re.search(
        r"^b = (\S+), x2 = (.+) where (.+) = 0;", text, re.M).groups()
    return verdict, n, m, Fraction(b), parse_poly(element), parse_poly(minpoly)


def check_bss_witness(code: int, fmt: str, text: str, x1: Fraction) -> str | None:
    """x2 = b + root satisfies (x2 - b)^m = x1 in Q[X]/(minpoly), m prime > n."""
    if code != 0:
        return f"bss exited {code}"
    verdict, n, m, b, x2, minpoly = witness_fields(fmt, text)
    if verdict != "counterexample_confirmed":
        return f"verdict {verdict}"
    if not is_prime(m) or m <= n:
        return f"m = {m} is not a prime above n = {n}"
    if len(minpoly) != m + 1 or minpoly[-1] != 1:
        return f"x2's field polynomial {minpoly} is not monic of degree m = {m}"
    shifted = trim([c - (b if i == 0 else 0) for i, c in enumerate(x2)])
    power = poly_pow_mod(shifted, m, minpoly)
    if power != trim([x1]):
        return f"(x2 - b)^{m} = {power}, expected {x1}"
    return None
