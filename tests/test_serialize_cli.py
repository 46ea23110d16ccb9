"""Serialization schemas and the command-line front end."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import jsonschema
import pytest

import bssvm
from bssvm import cli
from bssvm.cli import main
from bssvm.errors import BssError
from bssvm.exact import AlgebraicNumber, NumberField, RatInterval, UniPoly, nth_root_field
from bssvm.machine import run_concrete
from bssvm.serialize import SCHEMAS, trace_to_json, value_to_json
from bssvm.stdlib import stdlib_names, stdlib_program


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# -- value serialization -----------------------------------------------------

def test_value_to_json_rational():
    assert value_to_json(F(3, 4)) == "3/4"
    assert value_to_json(F(-5)) == "-5"


def test_value_to_json_algebraic():
    _, sqrt2 = nth_root_field(2, 2)
    doc = value_to_json(sqrt2 + F(1, 2))
    assert doc["min_poly"] == "-2 + 0*X + 1*X^2"
    assert doc["coords"] == ["1/2", "1"]
    lo, hi = F(doc["enclosure"][0]), F(doc["enclosure"][1])
    assert hi - lo <= F(1, 4096)
    assert lo < F(19142, 10000) < hi  # 0.5 + 1.41421...


def test_value_to_json_rational_valued_field_element():
    field, _ = nth_root_field(2, 2)
    assert value_to_json(field.from_rational(F(7, 2))) == "7/2"


def test_value_to_json_ignores_earlier_comparisons():
    # The plastic number is 1.32471795724474602596...; deciding the sign of
    # b - 1.32471795724474602596 refines the field far past the JSON width.
    poly, box = UniPoly.parse("X^3 - X - 1"), RatInterval(1, 2)
    field = NumberField(poly, box)
    b = field.generator()
    v = AlgebraicNumber(field, (F(2, 3), F(-1), F(5)))
    before = value_to_json(v)
    assert (b - F(132471795724474602596, 10 ** 20)).sign() == 1
    (b * b).enclosure(F(1, 10 ** 40))
    assert value_to_json(v) == before
    assert value_to_json(AlgebraicNumber(NumberField(poly, box), v.coords)) == before


# -- run ----------------------------------------------------------------------

def test_trace_json_rejects_a_decisions_trace():
    _, trace = run_concrete(stdlib_program("sgn"), [F(-3)], trace="decisions")
    with pytest.raises(BssError, match="decisions-level trace"):
        trace_to_json(trace)


@pytest.mark.parametrize("extra,level", [
    ((), "decisions"),
    (("--trace",), "full"),
    (("--format", "json"), "full"),
    (("--trace", "--format", "json"), "full"),
])
def test_run_keeps_the_full_trace_only_where_it_prints_it(capsys, monkeypatch, extra, level):
    levels = []

    def recording(*args, **kwargs):
        levels.append(kwargs["trace"])
        return run_concrete(*args, **kwargs)

    monkeypatch.setattr(cli, "run_concrete", recording)
    code, out, _ = run_cli(capsys, "run", "--stdlib", "sgn", "--input", "(-3)", *extra)
    assert code == 0 and levels == [level]

def test_run_sgn_text(capsys):
    code, out, err = run_cli(capsys, "run", "--stdlib", "sgn", "--input", "(-3)")
    assert code == 0
    assert "status: halted" in out and "output: (-1)" in out


def test_run_trace_listing(capsys):
    code, out, _ = run_cli(capsys, "run", "--stdlib", "sgn", "--input", "(-3)",
                           "--trace")
    assert code == 0
    assert "BRANCH" in out and "branch=-1" in out


def test_run_json_schema(capsys):
    code, doc, _ = run_json(capsys, "run", "--stdlib", "even_zeros",
                            "--input", "(3/10)")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["trace"])
    assert doc["status"] == "halted" and doc["output"] == ["0"]


def test_run_fault_still_exits_zero(capsys):
    # a fault is a completed analysis, not a CLI failure
    code, doc, _ = run_json(capsys, "run", "--stdlib", "q_enumerator",
                            "--input", "(-1)", "--budget", "50")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["trace"])
    assert doc["status"] == "budget_exhausted"


def test_run_with_field_literal(capsys):
    code, doc, _ = run_json(capsys, "run", "--stdlib", "sgn",
                            "--input", "(sqrt2:(0,1))",
                            "--field", "sqrt2=X^2 - 2;1;2")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["trace"])
    assert doc["output"] == ["1"]


@pytest.mark.parametrize("field, value, rendered", [
    ("a=X^2 - 2;1;2", "(a:(0,1))", "X + 1 where X^2 - 2 = 0; approximately 2.41421"),
    ("b=X^3 - X - 1;1;2", "(b:(2/3,-1,5))",
     "-603/3701*X^2 + 666/3701*X + 696/3701 where X^3 - X - 1 = 0; approximately 0.140522"),
    ("a=X^2 - 2;1;2", "(a:(3,0))", "1/2"),
])
def test_run_renders_field_values(capsys, field, value, rendered):
    # inv_shift outputs 1/(x - 1)
    code, out, _ = run_cli(capsys, "run", "--stdlib", "inv_shift",
                           "--field", field, "--input", value)
    assert code == 0
    assert f"output: ({rendered})" in out.splitlines()
    code, doc, _ = run_json(capsys, "run", "--stdlib", "inv_shift",
                            "--field", field, "--input", value)
    name, fld = cli.parse_field_registration(field)
    result, trace = run_concrete(stdlib_program("inv_shift"),
                                 cli.parse_input_tuple(value, {name: fld}))
    assert code == 0 and doc == json.loads(json.dumps(trace_to_json(trace)))


def test_run_json_output_is_value_to_json_of_the_run(capsys):
    field, value = "b=X^3 - X - 1;1;2", "(b:(2/3,-1,5))"
    name, fld = cli.parse_field_registration(field)
    result, _ = run_concrete(stdlib_program("inv_shift"),
                             cli.parse_input_tuple(value, {name: fld}))
    code, doc, _ = run_json(capsys, "run", "--stdlib", "inv_shift",
                            "--field", field, "--input", value)
    assert code == 0
    assert doc["output"] == [value_to_json(v) for v in result.output]
    assert doc["output"][0]["enclosure"] == ["139582033077/993479622656",
                                             "2181548757/15523119104"]


@pytest.mark.parametrize("field, value", [
    ("a=X^2 - 1;0;2", "(a:(-1,1))"),
    ("a=X^4 - 5*X^2 + 6;1;3/2", "(a:(-2,0,1,0))"),
])
def test_run_on_reducible_field_decides_zero(field, value):
    # The element vanishes at the chosen root of a reducible field
    # polynomial.  Run apart so that a hang fails the test, not the suite.
    src = str(Path(bssvm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "bssvm.cli", "run", "--stdlib", "sgn",
         "--field", field, "--input", value],
        env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "output: (0)" in proc.stdout


def test_run_program_file(tmp_path, capsys):
    path = tmp_path / "double.bss"
    path.write_text("PROGRAM double\nARITY 1\na: ADD c1 c0 c0\nb: OUTPUT c1..c1\n")
    code, out, _ = run_cli(capsys, "run", "--program", str(path),
                           "--input", "(3/2)")
    assert code == 0 and "output: (3)" in out


def test_run_fall_through_program_is_an_error(tmp_path):
    path = tmp_path / "x.bss"
    path.write_text("PROGRAM x\nARITY 0\nstart: CONST c0 1\n")
    src = str(Path(bssvm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "bssvm.cli", "run", "--program", str(path), "--input", "()"],
        env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "falls through" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_run_prints_values_past_the_int_string_limit(tmp_path):
    # 14 squarings of 2 give 2^16384, 4933 decimal digits
    path = tmp_path / "square.bss"
    path.write_text("PROGRAM square\nARITY 1\n"
                    + "".join(f"m{i}: MUL c0 c0 c0\n" for i in range(14))
                    + "out: OUTPUT c0..c0\n")
    src = str(Path(bssvm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "bssvm.cli", "run", "--program", str(path), "--input", "(2)"],
        env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0 and proc.stderr == ""
    digits = proc.stdout.splitlines()[-1].removeprefix("output: (").removesuffix(")")
    assert len(digits) == 4933 and digits.startswith("118973149535723176508")
    assert int(digits[-9:]) == 2 ** 16384 % 10 ** 9
    # and the printed value reads back as an input
    proc = subprocess.run(
        [sys.executable, "-m", "bssvm.cli", "run", "--stdlib", "sgn", "--input", f"({digits})"],
        env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "output: (1)"


def test_run_prints_int_cells_past_the_int_string_limit(capsys, tmp_path):
    # 14 squarings of the constant 3 and a division by it, all inside the run
    # as ints: 3^16383 has 7817 decimal digits
    path = tmp_path / "cube.bss"
    path.write_text("PROGRAM cube\nARITY 0\nstart: CONST c0 3\nthree: CONST c1 3\n"
                    + "".join(f"m{i}: MUL c0 c0 c0\n" for i in range(14))
                    + "div: DIV c2 c0 c1\nhalf: CONST c3 1/2\nq: MUL c3 c2 c3\n"
                    + "out: OUTPUT c2..c3\n")
    code, out, err = run_cli(capsys, "run", "--program", str(path), "--input", "()")
    assert code == 0 and err == ""
    whole, half = out.splitlines()[-1].removeprefix("output: (").removesuffix(")").split(", ")
    n = 3 ** 16383
    assert len(whole) == 7817 and 10 ** 7816 <= n < 10 ** 7817
    assert int(whole[-9:]) == n % 10 ** 9
    assert half == whole + "/2"


# -- shadow and paths ---------------------------------------------------------

def test_shadow_json_schema(capsys):
    code, doc, _ = run_json(capsys, "shadow", "--stdlib", "inv_shift",
                            "--input", "(3)")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["shadow"])
    assert doc["outcome"] == "halted"
    assert doc["field_boundary"]["ok"] is True


def test_shadow_algebraic_input_degree(capsys):
    # inv_shift writes 1/(x - 1), a degree-2 value on input sqrt2
    code, doc, _ = run_json(capsys, "shadow", "--stdlib", "inv_shift",
                            "--input", "(sqrt2:(0,1))",
                            "--field", "sqrt2=X^2 - 2;1;2")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["shadow"])
    assert doc["field_boundary"]["ok"] is True
    assert doc["field_boundary"]["max_value_degree"] == 2


def test_paths_json_schema(capsys):
    code, doc, _ = run_json(capsys, "paths", "--stdlib", "sgn", "--depth", "10")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["path_tree"])
    assert len(doc["leaves"]) == 3


def test_paths_text_lists_leaves(capsys):
    code, out, _ = run_cli(capsys, "paths", "--stdlib", "interval_member",
                           "--depth", "20")
    assert code == 0
    assert "leaves: 7" in out and out.count("halted:") == 7


@pytest.mark.parametrize("name,policy,depth,oracle", [
    ("cantor_cosemidecider", "generic", 5, []),
    ("oracle_member", "split", 12, ["--oracle", "rationals"]),
])
def test_paths_formats_each_distinct_function_once(capsys, monkeypatch,
                                                   name, policy, depth, oracle):
    # both printed forms of a tree call RationalFunction.__str__ once per
    # distinct function, however many leaves refer to it
    from bssvm.exact import RationalFunction
    from bssvm.machine import Oracle
    from bssvm.serialize import tree_to_json
    from bssvm.symbolic import explore_paths

    tree = explore_paths(stdlib_program(name), oracle_policy=policy, depth_budget=depth,
                         oracle=Oracle.rationals() if oracle else None)
    refs = [f for leaf in tree.leaves
            for f in ([g for g, _ in leaf.condition.constraints]
                      + [g for fns, _ in leaf.condition.oracle_assumptions for g in fns]
                      + list(leaf.outputs or ()))]
    distinct = len(set(refs))
    assert len(refs) > distinct
    calls = []
    original = RationalFunction.__str__

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(RationalFunction, "__str__", counted)
    doc = tree_to_json(tree)
    assert len(calls) == distinct
    for leaf, entry in zip(tree.leaves, doc["leaves"]):
        assert entry["constraints"] == [[original(f), s] for f, s in leaf.condition.constraints]
        assert entry["oracle_assumptions"] == [
            [[original(f) for f in fns], answer]
            for fns, answer in leaf.condition.oracle_assumptions]
        assert entry["outputs"] == (None if leaf.outputs is None
                                    else [original(f) for f in leaf.outputs])
    calls.clear()
    code, out, _ = run_cli(capsys, "paths", "--stdlib", name, "--oracle-policy", policy,
                           "--depth", str(depth), *oracle)
    assert code == 0 and f"leaves: {len(tree.leaves)}" in out
    assert len(calls) == distinct


# -- certify -------------------------------------------------------------------

def test_certify_sgn_spec_line(capsys):
    code, out, _ = run_cli(capsys, "certify", "--stdlib", "sgn",
                           "--input", "(5)", "--samples", "20")
    assert code == 0
    assert "epsilon = 1" in out and "samples: 20/20 pass" in out


def test_certify_json_schema(capsys):
    code, doc, _ = run_json(capsys, "certify", "--stdlib", "inv_shift",
                            "--input", "(2)", "--samples", "10", "--seed", "4")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["certificate"])
    assert doc["epsilon"] == "1/2"
    assert doc["neighborhood"]["ok"] is True


def test_certify_at_branch_zero_fails(capsys):
    code, doc, _ = run_json(capsys, "certify", "--stdlib", "sgn",
                            "--input", "(0)")
    assert code == 1
    assert doc["kind"] == "failure" and doc["analysis"] == "certify"


def test_certify_failure_text_record(capsys):
    code, out, _ = run_cli(capsys, "certify", "--stdlib", "sgn", "--input", "(0)")
    assert code == 1
    assert out.startswith("FALSIFIED [certify]")


# -- witness --------------------------------------------------------------------

def test_witness_confirmed_json(capsys):
    code, doc, _ = run_json(capsys, "witness", "--stdlib", "oracle_member",
                            "--oracle", "rationals", "--x1", "2",
                            "--input", "(5, 7)")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["witness_report"])
    assert doc["verdict"] == "counterexample_confirmed"
    assert doc["b"] == "11/2" and doc["m"] == 2


def test_witness_inapplicable_is_completed_analysis(capsys):
    code, doc, _ = run_json(capsys, "witness", "--stdlib", "eq_probe",
                            "--oracle", "rationals", "--x1", "2",
                            "--input", "(5, 5)")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["witness_report"])
    assert doc["verdict"] == "pipeline_inapplicable"


WITNESS = ("witness", "--stdlib", "oracle_member", "--oracle", "rationals", "--x1", "2",
           "--field", "a=X^2 - 2;1;2")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_witness_reads_a_rational_field_element_probe_as_its_rational(capsys, fmt):
    rational = run_cli(capsys, *WITNESS, "--input", "(5, 7)", "--format", fmt)
    code, out, err = run_cli(capsys, *WITNESS, "--input", "(5, a:(7,0))", "--format", fmt)
    assert (code, out, err) == rational
    assert code == 0 and not err
    if fmt == "json":
        assert json.loads(out)["b"] == "11/2"
    else:
        assert "verdict: counterexample_confirmed" in out.splitlines()
        assert out.splitlines()[2].startswith("b = 11/2, ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_witness_on_an_irrational_probe_is_a_failure_record(capsys, fmt):
    code, out, err = run_cli(capsys, *WITNESS, "--input", "(5, a:(0,1))", "--format", fmt)
    assert code == 1 and not err
    if fmt == "json":
        doc = json.loads(out)
        assert doc["kind"] == "failure" and doc["analysis"] == "witness"
        assert "must be rational" in doc["detail"]
    else:
        (line,) = out.splitlines()
        assert line.startswith("FALSIFIED [witness]: ") and "must be rational" in line


# -- cantor ----------------------------------------------------------------------

def test_cantor_decompose_spec_line(capsys):
    code, out, _ = run_cli(capsys, "cantor", "--decompose", "73/81")
    assert code == 0
    assert "c1 = 8/9" in out and "c2 = 2/81" in out and "exact" in out


def test_cantor_decompose_json_schema(capsys):
    code, doc, _ = run_json(capsys, "cantor", "--decompose", "73/81")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["cantor_pair"])
    assert doc["c1"] == "8/9" and doc["c2"] == "2/81" and doc["exact"] is True


def test_cantor_member_queries(capsys):
    code, out, _ = run_cli(capsys, "cantor", "--member", "1/4")
    assert code == 0 and "is a member" in out
    code, out, _ = run_cli(capsys, "cantor", "--member", "1/2")
    assert code == 0 and "is not a member" in out


def test_cantor_usage_errors(capsys):
    assert run_cli(capsys, "cantor")[0] == 2
    assert run_cli(capsys, "cantor", "--decompose", "3/2")[0] == 2
    assert run_cli(capsys, "cantor", "--decompose", "1/4",
                   "--member", "1/4")[0] == 2


# -- stdlib listing ----------------------------------------------------------------

def test_stdlib_listing(capsys):
    code, out, _ = run_cli(capsys, "stdlib")
    assert code == 0
    for name in stdlib_names():
        assert name in out


def test_stdlib_emit_matches_sources(capsys):
    for name in stdlib_names():
        code, out, _ = run_cli(capsys, "stdlib", "--emit", name)
        assert code == 0
        assert out == stdlib_program(name).to_text()


# -- oracles through the CLI ---------------------------------------------------------

def test_finite_oracle_from_file(tmp_path, capsys):
    path = tmp_path / "members.txt"
    path.write_text("(2)\n(3, 4)\n")
    code, out, _ = run_cli(capsys, "run", "--stdlib", "oracle_member",
                           "--input", "(5, 2)", "--oracle", f"finite:{path}")
    assert code == 0 and "output: (1)" in out
    code, out, _ = run_cli(capsys, "run", "--stdlib", "oracle_member",
                           "--input", "(5, 9)", "--oracle", f"finite:{path}")
    assert code == 0 and "output: (0)" in out


def test_degree_oracle_specs(capsys):
    code, out, _ = run_cli(capsys, "run", "--stdlib", "oracle_member",
                           "--input", "(5, sqrt2:(0,1))",
                           "--field", "sqrt2=X^2 - 2;1;2",
                           "--oracle", "deg=2")
    assert code == 0 and "output: (1)" in out
    code, out, _ = run_cli(capsys, "run", "--stdlib", "oracle_member",
                           "--input", "(5, sqrt2:(0,1))",
                           "--field", "sqrt2=X^2 - 2;1;2",
                           "--oracle", "degle=1")
    assert code == 0 and "output: (0)" in out


# -- usage errors ------------------------------------------------------------------

def test_usage_error_exit_codes(capsys):
    assert run_cli(capsys, "run", "--stdlib", "sgn")[0] == 2  # missing input
    assert run_cli(capsys, "run", "--stdlib", "nope", "--input", "(1)")[0] == 2
    assert run_cli(capsys, "run", "--stdlib", "sgn", "--program", "x.bss",
                   "--input", "(1)")[0] == 2  # both sources given
    assert run_cli(capsys, "run", "--stdlib", "sgn", "--input", "(1",)[0] == 2
    assert run_cli(capsys, "run", "--stdlib", "sgn", "--input", "(1)",
                   "--oracle", "wat")[0] == 2
    assert run_cli(capsys, "run", "--stdlib", "sgn", "--input", "(1)",
                   "--budget", "0")[0] == 2
    assert run_cli(capsys, "run", "--stdlib", "sgn", "--input", "(1)",
                   "--budget", "many")[0] == 2
    assert run_cli(capsys, "certify", "--stdlib", "sgn", "--input", "(5)",
                   "--samples", "-3")[0] == 2
    assert run_cli(capsys, "paths", "--stdlib", "sgn", "--depth", "-1")[0] == 2
    assert run_cli(capsys, "run", "--stdlib", "sgn", "--input", "(1,2)")[0] == 2
    assert run_cli(capsys, "witness", "--stdlib", "oracle_member",
                   "--input", "(5)")[0] == 2
    assert run_cli(capsys, "paths", "--stdlib", "sgn", "--depth", "0")[0] == 0
    for literal in ("(a:(x,1))", "(a:())"):  # malformed field-element coordinates
        assert run_cli(capsys, "run", "--stdlib", "sgn", "--field", "a=X^2 - 2;1;2",
                       "--input", literal)[0] == 2


def test_usage_errors_go_to_stderr(capsys):
    code, out, err = run_cli(capsys, "run", "--stdlib", "nope", "--input", "(1)")
    assert code == 2 and err and not out


# -- one parser for every in-process call --------------------------------------------

SEQUENCE = [
    ("run", "--stdlib", "algebraic_semidecider", "--field", "a=X^2 - 2;1;2",
     "--input", "(a:(1/3,1))", "--budget", "2000", "--format", "json"),
    ("certify", "--stdlib", "interval_member", "--field", "b=X^3 - X - 1;1;2",
     "--input", "(b:(0,1/2))"),
    ("witness", "--stdlib", "oracle_member", "--oracle", "rationals",
     "--input", "(5, 7)", "--format", "json"),
    ("run", "--stdlib", "sgn", "--field", "a=X^2 - 2/3;0;1", "--input", "(a:(0,-1))",
     "--trace"),
]


def _alone(argv):
    """What bss prints for argv in a process of its own."""
    src = str(Path(bssvm.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "bssvm.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_calls_in_a_row_print_what_each_call_prints_alone(capsys):
    alone = {argv: _alone(argv) for argv in SEQUENCE}
    assert all(code == 0 for code, _, _ in alone.values())
    for order in (SEQUENCE, SEQUENCE[::-1]):
        for argv in order:
            assert run_cli(capsys, *argv) == alone[argv], argv


def test_a_field_from_one_call_is_not_seen_by_the_next(capsys):
    code, out, _ = run_cli(capsys, "run", "--stdlib", "sgn", "--field", "a=X^2 - 2;1;2",
                           "--input", "(a:(0,1))")
    assert code == 0 and "output: (1)" in out
    code, out, err = run_cli(capsys, "run", "--stdlib", "sgn", "--input", "(a:(0,1))")
    assert code == 2 and "unknown field 'a'" in err and not out


@pytest.mark.parametrize("bad", [
    ("run", "--stdlib", "sgn", "--input", "(1)", "--budget", "0"),   # refused while parsing
    ("run", "--stdlib", "sgn", "--input", "(1)", "--bogus"),         # argparse exits
    ("run", "--stdlib", "sgn", "--input", "(1)", "--format", "xml"),
    ("nope",),
    ("certify", "--stdlib", "sgn", "--field", "a=X^2 - 2;2;3", "--input", "(a:(0,1))"),
])
def test_a_usage_error_leaves_the_next_call_unchanged(capsys, bad):
    good = ("run", "--stdlib", "sgn", "--field", "a=X^3 - 2;1;2", "--input", "(a:(0,1))",
            "--trace")
    before = run_cli(capsys, *good)
    try:
        code = main(list(bad))
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code == 2
    assert run_cli(capsys, *good) == before


# -- schema self-checks --------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("run", "--stdlib", "sgn", "--input", "(-3)", "--trace"),
    ("shadow", "--stdlib", "sgn", "--input", "(-3)"),
    ("paths", "--stdlib", "sgn"),
    ("certify", "--stdlib", "sgn", "--input", "(2)"),
    ("witness", "--stdlib", "oracle_member", "--oracle", "rationals",
     "--input", "(5, 7)"),
    ("cantor", "--decompose", "73/81"),
])
def test_text_output_builds_no_json(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("JSON form built in text mode")
    for kind in ("trace", "shadow", "tree", "certificate", "witness", "cantor"):
        monkeypatch.setattr(cli, f"{kind}_to_json", refuse)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out


@pytest.mark.parametrize("argv", [
    ("run", "--stdlib", "inv_shift", "--field", "a=X^2 - 2;1;2", "--input", "(a:(0,1))"),
    ("shadow", "--stdlib", "inv_shift", "--field", "a=X^2 - 2;1;2", "--input", "(a:(0,1))"),
    ("witness", "--stdlib", "oracle_member", "--oracle", "rationals",
     "--input", "(5, 7)"),
])
def test_json_output_builds_no_text(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("text form built in JSON mode")
    monkeypatch.setattr(cli, "_render_value", refuse)
    code, doc, _ = run_json(capsys, *argv)
    values = doc.get("output") or doc.get("output_values") or [doc["x2"]]
    assert code == 0 and any(isinstance(v, dict) and "enclosure" in v for v in values)


def test_schemas_are_valid_drafts():
    for name, schema in SCHEMAS.items():
        jsonschema.Draft202012Validator.check_schema(schema)


def test_trace_json_covers_oracle_steps(capsys):
    code, doc, _ = run_json(capsys, "run", "--stdlib", "oracle_member",
                            "--input", "(5, 3/4)", "--oracle", "rationals")
    assert code == 0
    jsonschema.validate(doc, SCHEMAS["trace"])
    oracle_steps = [s for s in doc["records"] if s.get("oracle")]
    assert oracle_steps and oracle_steps[0]["oracle"]["answer"] is True
