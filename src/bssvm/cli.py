"""Command-line front end.

Exit codes: 0 for a completed analysis, 1 when an analysis falsifies an
expected invariant (a failed certificate, a boundary-check failure, an
internally inconsistent report), 2 for usage errors.

Input tuples are written "(5, 7)" or "(-3)"; a coordinate may also be a
field-element literal "sqrt2:(0,1)" naming a field registered with
--field.  The --field flag takes "name=minpoly;lo;hi" where minpoly is
the text of a monic defining polynomial and [lo, hi] isolates the
intended real root, e.g. --field "sqrt2=X^2 - 2;1;2".
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable

from .errors import BssError, CertificateError
from .exact import (AlgebraicNumber, NumberField, RatInterval, UniPoly, parse_rational,
                    format_rational)
from .machine import (
    DEFAULT_BUDGET,
    Oracle,
    Program,
    parse_program,
    run_concrete,
    cantor_membership,
    normalize_input,
    trace_to_text,
)
from .serialize import (
    _ENCLOSURE_WIDTH,
    cantor_to_json,
    certificate_to_json,
    shadow_to_json,
    trace_to_json,
    tree_to_json,
    value_to_json,
    witness_to_json,
)
from .stdlib import stdlib_names, stdlib_program
from .symbolic import (
    epsilon_certificate,
    extract_f,
    explore_paths,
    field_boundary_check,
    shadow_trace,
    verify_neighborhood,
)
from .witness import build_counterexample, cantor_decompose, ternary_string


class UsageError(BssError):
    pass


# -- literals ---------------------------------------------------------------


def parse_field_registration(text: str) -> tuple[str, NumberField]:
    try:
        name, rest = text.split("=", 1)
        poly_text, lo, hi = rest.split(";")
        poly = UniPoly.parse(poly_text)
        field = NumberField(poly, RatInterval(parse_rational(lo), parse_rational(hi)))
    except (ValueError, BssError) as exc:
        raise UsageError(f"bad --field {text!r}: {exc}") from None
    return name.strip(), field


def _split_top_level(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UsageError("unbalanced parentheses in input tuple")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise UsageError("unbalanced parentheses in input tuple")
    parts.append("".join(cur))
    return parts


def parse_input_tuple(text: str, fields: dict[str, NumberField]) -> tuple:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise UsageError(f"input tuple must be parenthesized, got {text!r}")
    body = s[1:-1].strip()
    if not body:
        return ()
    values = []
    for item in _split_top_level(body):
        item = item.strip()
        if ":" in item:
            name, coords_text = item.split(":", 1)
            name = name.strip()
            if name not in fields:
                raise UsageError(f"unknown field {name!r}; register it with --field")
            field = fields[name]
            coords_text = coords_text.strip()
            if not (coords_text.startswith("(") and coords_text.endswith(")")):
                raise UsageError(f"field element needs coordinates, got {item!r}")
            coords = [_usage_rational(c) for c in coords_text[1:-1].split(",")]
            if len(coords) > field.degree:
                raise UsageError(f"{name!r} elements take at most "
                                 f"{field.degree} coordinates")
            coords += [Fraction(0)] * (field.degree - len(coords))
            values.append(AlgebraicNumber(field, tuple(coords)))
        else:
            values.append(_usage_rational(item))
    return tuple(values)


def _usage_rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except BssError as exc:
        raise UsageError(str(exc)) from None


def parse_oracle_spec(text: str) -> Oracle:
    s = text.strip()
    if s == "rationals":
        return Oracle.rationals()
    if s == "algebraic":
        return Oracle.algebraic()
    if s == "cantor":
        return Oracle.cantor()
    if s == "empty":
        return Oracle.empty()
    if s.startswith("deg="):
        return Oracle.degree_eq(_int_at_least(s[4:], "oracle degree", 1))
    if s.startswith("degle="):
        return Oracle.degree_leq(_int_at_least(s[6:], "oracle degree", 1))
    if s.startswith("finite:"):
        path = s[len("finite:"):]
        try:
            lines = [ln.strip() for ln in Path(path).read_text(encoding="utf-8").splitlines()]
        except OSError as exc:
            raise UsageError(f"cannot read finite oracle file: {exc}") from None
        tuples = [parse_input_tuple(ln, {}) for ln in lines if ln]
        return Oracle.finite(tuples)
    raise UsageError(f"unknown oracle spec {text!r}")


def _int_at_least(text: str, what: str, least: int) -> int:
    try:
        n = int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None
    if n < least:
        raise UsageError(f"{what} must be at least {least}, got {n}")
    return n


# -- program/argument plumbing ----------------------------------------------


def load_program(args) -> Program:
    if args.stdlib is not None and args.program is not None:
        raise UsageError("--stdlib and --program are alternatives; give one")
    if args.stdlib is not None:
        if args.stdlib not in stdlib_names():
            raise UsageError(f"no library program named {args.stdlib!r}; "
                             f"try `bss stdlib`")
        return stdlib_program(args.stdlib)
    if args.program is not None:
        try:
            text = Path(args.program).read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot read program: {exc}") from None
        return parse_program(text)
    raise UsageError("one of --stdlib or --program is required")


def registered_fields(args) -> dict[str, NumberField]:
    fields = {}
    for spec in args.field or ():
        name, field = parse_field_registration(spec)
        fields[name] = field
    return fields


def run_setup(args) -> tuple[Program, Oracle, tuple]:
    """The program, oracle and input tuple of a command that runs a program;
    an input whose length is not the program's arity is a usage error."""
    fields = registered_fields(args)
    program = load_program(args)
    oracle = parse_oracle_spec(args.oracle)
    if args.input is None:
        raise UsageError("--input is required for this command")
    values = parse_input_tuple(args.input, fields)
    try:
        values = normalize_input(program, values)
    except BssError as exc:
        raise UsageError(str(exc)) from None
    return program, oracle, values


def emit(args, build_json: Callable[[], dict], build_text: Callable[[], Iterable[str]]):
    """Print the lines build_text() returns, or under --format json the
    object build_json() returns; only the printed form is built."""
    if args.format == "json":
        print(json.dumps(build_json(), indent=2))
    else:
        text = "\n".join(build_text())
        print(text, end="" if text.endswith("\n") else "\n")


def fail_record(args, kind: str, detail: str) -> int:
    emit(args, lambda: {"kind": "failure", "analysis": kind, "detail": detail},
         lambda: [f"FALSIFIED [{kind}]: {detail}"])
    return 1


# -- commands ----------------------------------------------------------------


def cmd_run(args) -> int:
    program, oracle, values = run_setup(args)
    result, trace = run_concrete(program, values, oracle=oracle, budget=args.budget)

    def lines():
        if args.trace:
            yield trace_to_text(trace)
        yield (f"status: {result.status}"
               + (f" ({result.fault_kind})" if result.fault_kind else ""))
        yield f"steps: {result.steps}"
        if result.output is not None:
            yield f"output: ({', '.join(_render_value(v) for v in result.output)})"
    emit(args, lambda: trace_to_json(trace), lines)
    return 0


def _render_value(v) -> str:
    if isinstance(v, AlgebraicNumber) and not v.is_rational():
        return (f"{UniPoly(v.coords).pretty()} where {v.field.min_poly.pretty()} = 0; "
                f"approximately {_six_digits(v)}")
    return value_to_json(v)


def _six_digits(v: AlgebraicNumber) -> str:
    """v to 6 significant digits: the enclosure, from the JSON form's width
    down, is narrowed until both ends print the same; once they are adjacent
    doubles (a value exactly on a rounding boundary), the midpoint is printed."""
    width = _ENCLOSURE_WIDTH
    while True:
        enc = v.enclosure(width)
        lo, hi = float(enc.lo), float(enc.hi)
        if f"{lo:.6g}" == f"{hi:.6g}" or math.nextafter(lo, hi) == hi:
            return f"{float(enc.midpoint()):.6g}"
        width *= width


def cmd_shadow(args) -> int:
    program, oracle, values = run_setup(args)
    trace = shadow_trace(program, values, oracle=oracle, budget=args.budget)
    report = field_boundary_check(trace)

    def lines():
        yield (f"outcome: {trace.outcome}"
               + (f" ({trace.fault_kind})" if trace.fault_kind else ""))
        yield f"steps: {trace.steps_executed}"
        if trace.output_functions is not None:
            for f, v in zip(trace.output_functions, trace.output_values):
                yield f"output: {f} = {_render_value(v)}"
        for e in trace.branch_log:
            yield f"branch: sign({e.function}) = {e.sign} at step {e.step}"
        for e in trace.oracle_log:
            yield f"oracle: ({', '.join(str(f) for f in e.functions)}) -> {e.answer}"
        yield (f"field boundary: {'ok' if report.ok else 'FAILED'}, "
               f"{report.cells_checked} cells, "
               f"max value degree {report.max_value_degree}")
        for msg in report.failures:
            yield f"  failure: {msg}"
    emit(args, lambda: shadow_to_json(trace, report), lines)
    return 0 if report.ok else 1


def cmd_paths(args) -> int:
    program = load_program(args)
    oracle = parse_oracle_spec(args.oracle)
    tree = explore_paths(program, depth_budget=args.depth,
                         oracle_policy=args.oracle_policy, oracle=oracle)

    def lines():
        yield f"program: {program.name}"
        yield f"leaves: {len(tree.leaves)}"
        for leaf in tree.leaves:
            conds = ", ".join(f"sign({f}) = {s}" for f, s in leaf.condition.constraints)
            extra = ""
            if leaf.condition.oracle_assumptions:
                asm = "; ".join(f"oracle({', '.join(map(str, fns))}) = {ans}"
                                for fns, ans in leaf.condition.oracle_assumptions)
                extra = f" assuming {asm}"
            outs = ("" if leaf.outputs is None
                    else " output (" + ", ".join(str(f) for f in leaf.outputs) + ")")
            mz = " [measure-zero]" if leaf.measure_zero else ""
            fk = f" ({leaf.fault_kind})" if leaf.fault_kind else ""
            yield (f"  [{' '.join(leaf.history) or 'root'}] {leaf.outcome}{fk}:"
                   f" {conds or 'no constraints'}{extra}{outs}{mz}")
    emit(args, lambda: tree_to_json(tree), lines)
    return 0


def cmd_certify(args) -> int:
    program, oracle, values = run_setup(args)
    trace = shadow_trace(program, values, oracle=oracle, budget=args.budget)
    if trace.outcome != "halted":
        return fail_record(args, "certify",
                           f"run did not halt ({trace.outcome}); nothing to certify")
    functions = extract_f(trace)
    try:
        cert = epsilon_certificate(functions, trace.input)
    except CertificateError as exc:
        return fail_record(args, "certify", str(exc))
    report = verify_neighborhood(program, oracle, trace, cert,
                                 samples=args.samples, seed=args.seed)

    def lines():
        yield f"epsilon = {format_rational(cert.epsilon)}"
        yield f"functions: {len(cert.functions)}"
        for f, (num_enc, den_enc) in zip(cert.functions, cert.enclosures):
            yield (f"  {f}: num in [{format_rational(num_enc.lo)}, "
                   f"{format_rational(num_enc.hi)}], den in "
                   f"[{format_rational(den_enc.lo)}, {format_rational(den_enc.hi)}]")
        yield f"samples: {report.passed}/{len(report.samples)} pass"
        for s in report.samples:
            if not s.ok:
                yield f"  MISMATCH at ({', '.join(map(str, s.point))}): {s.detail}"
    emit(args, lambda: certificate_to_json(cert, report), lines)
    return 0 if report.ok else 1


def cmd_witness(args) -> int:
    program, oracle, probe = run_setup(args)
    try:
        x1 = parse_rational(args.x1)
    except BssError as exc:
        raise UsageError(f"bad --x1: {exc}") from None
    try:
        report = build_counterexample(program, oracle, x1, probe, budget=args.budget)
    except BssError as exc:
        return fail_record(args, "witness", str(exc))

    def lines():
        yield f"verdict: {report.verdict}"
        if report.n is not None:
            yield f"n = {report.n}, m = {report.m}"
        if report.b is not None:
            yield f"b = {format_rational(report.b)}, x2 = {_render_value(report.x2)}"
        if report.path_equal is not None:
            yield f"path_equal: {report.path_equal}"
            yield (f"machine output: {report.machine_output}, "
                   f"ground truth: {report.ground_truth}")
        for note in report.notes:
            yield f"note: {note}"
    emit(args, lambda: witness_to_json(report), lines)
    return 0


def cmd_cantor(args) -> int:
    if (args.decompose is None) == (args.member is None):
        raise UsageError("cantor takes exactly one of --decompose or --member")
    if args.member is not None:
        x = _usage_rational(args.member)
        is_member = cantor_membership(x)
        emit(args, lambda: {"kind": "cantor_membership", "input": format_rational(x),
                            "member": is_member},
             lambda: [f"{format_rational(x)} ({ternary_string(x)}) is "
                      f"{'a member' if is_member else 'not a member'} "
                      "of the middle-thirds set"])
        return 0
    x = _usage_rational(args.decompose)
    if not 0 <= x <= 1:
        raise UsageError(f"decomposition needs x in [0, 1], got {format_rational(x)}")
    pair = cantor_decompose(x)
    exact = pair.c1 + pair.c2 / 2 == x
    emit(args, lambda: cantor_to_json(x, pair), lambda: [
        f"x  = {format_rational(x)} ({ternary_string(x)})",
        f"c1 = {format_rational(pair.c1)} ({ternary_string(pair.c1)})",
        f"c2 = {format_rational(pair.c2)} ({ternary_string(pair.c2)})",
        f"check: c1 + c2/2 = x {'exactly' if exact else 'FAILED'}",
    ])
    return 0 if exact else 1


def cmd_stdlib(args) -> int:
    if args.emit is not None:
        if args.emit not in stdlib_names():
            raise UsageError(f"no library program named {args.emit!r}")
        print(stdlib_program(args.emit).to_text(), end="")
        return 0
    entries = [{"name": name, "arity": stdlib_program(name).arity}
               for name in stdlib_names()]
    emit(args, lambda: {"kind": "stdlib", "entries": entries},
         lambda: (f"{e['name']} (arity {e['arity']})" for e in entries))
    return 0


# -- wiring -------------------------------------------------------------------


def _add_common(p, *, input_flag=True, oracle_flag=True, budget_flag=True):
    p.add_argument("--stdlib", metavar="NAME", help="library program name")
    p.add_argument("--program", metavar="PATH", help="path to a DSL source file")
    if input_flag:
        p.add_argument("--input", metavar="TUPLE",
                       help='input tuple, e.g. "(5, 7)" or "(sqrt2:(0,1))"')
        p.add_argument("--field", action="append", metavar="NAME=MINPOLY;LO;HI",
                       help="register a number field for input literals "
                            '(e.g. "sqrt2=X^2 - 2;1;2"); repeatable')
    if oracle_flag:
        p.add_argument("--oracle", default="empty",
                       metavar="rationals|algebraic|deg=d|degle=d|cantor|finite:PATH|empty",
                       help="membership oracle (default: empty)")
    if budget_flag:
        p.add_argument("--budget", type=lambda t: _int_at_least(t, "--budget", 1),
                       default=DEFAULT_BUDGET,
                       help=f"step budget (default {DEFAULT_BUDGET})")
    p.add_argument("--format", choices=["text", "json"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bss",
        description="Exact-arithmetic machine runner and symbolic analyzer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a program on an exact input")
    _add_common(p)
    p.add_argument("--trace", action="store_true", help="print the full step trace")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("shadow", help="concrete run with symbolic cell functions")
    _add_common(p)
    p.set_defaults(func=cmd_shadow)

    p = sub.add_parser("paths", help="explore the program's branch tree symbolically")
    _add_common(p, input_flag=False, budget_flag=False)
    p.add_argument("--depth", type=lambda t: _int_at_least(t, "--depth", 0), default=12,
                   help="fork budget (default 12)")
    p.add_argument("--oracle-policy", choices=["generic", "split"],
                   default="generic", dest="oracle_policy")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("certify", help="certify a neighborhood of constant behavior")
    _add_common(p)
    p.add_argument("--samples", type=lambda t: _int_at_least(t, "--samples", 1),
                   default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("witness", help="run the root-placement counterexample pipeline")
    _add_common(p)
    p.add_argument("--x1", default="2",
                   help="rational whose m-th root lands in the second "
                        "coordinate (default 2)")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("cantor", help="middle-thirds decomposition and membership")
    p.add_argument("--decompose", metavar="RATIONAL")
    p.add_argument("--member", metavar="RATIONAL")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_cantor)

    p = sub.add_parser("stdlib", help="list or emit the library programs")
    p.add_argument("--emit", metavar="NAME", help="print one program's DSL source")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_stdlib)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # inside the try: integer flags raise UsageError while parsing
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
