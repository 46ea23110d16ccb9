"""JSON views of runs, path trees, certificates, and reports.

Every analysis object renders to plain JSON-serializable dicts here, and
SCHEMAS documents the shape of each top-level form.  Exact values keep
their exactness in transit: rationals are "p/q" strings, algebraic
numbers are objects carrying their defining polynomial, isolating
interval, and coordinates, so nothing is rounded on the way out.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import AlgebraicNumber, format_rational
from .machine import Trace, format_instruction
from .machine.interp import require_full
from .symbolic import (
    EpsilonCertificate,
    FieldBoundaryReport,
    NeighborhoodReport,
    PathTree,
    SymbolicTrace,
)
from .witness import CantorPair, CounterexampleReport, ternary_string


_ENCLOSURE_WIDTH = Fraction(1, 1 << 12)


def value_to_json(v):
    if v is None:
        return None
    if isinstance(v, AlgebraicNumber):
        if v.is_rational():
            return format_rational(v.as_fraction())
        enc = v.enclosure(_ENCLOSURE_WIDTH)
        from .exact import UniPoly
        return {
            "element": str(UniPoly(v.coords)),
            "min_poly": str(v.field.min_poly),
            "field_interval": [format_rational(v.field.interval.lo),
                               format_rational(v.field.interval.hi)],
            "coords": [format_rational(c) for c in v.coords],
            "enclosure": [format_rational(enc.lo), format_rational(enc.hi)],
        }
    return format_rational(Fraction(v))


def _values(vs):
    return None if vs is None else [value_to_json(v) for v in vs]


def _interval(iv) -> list[str]:
    return [format_rational(iv.lo), format_rational(iv.hi)]


def trace_to_json(trace: Trace) -> dict:
    require_full(trace)
    r = trace.result
    return {
        "kind": "trace",
        "program": trace.program.name,
        "input": _values(trace.input),
        "status": r.status,
        "fault_kind": r.fault_kind,
        "steps": r.steps,
        "output": _values(r.output),
        "records": [
            {
                "index": s.index,
                "label": s.label,
                "instruction": format_instruction(s.instruction),
                "writes": [[cell, value_to_json(v)] for cell, v in s.writes],
                "branch_sign": s.branch_sign,
                "oracle": None if s.oracle_event is None else {
                    "query": _values(s.oracle_event[0]),
                    "answer": s.oracle_event[1],
                },
            }
            for s in trace.steps
        ],
    }


def shadow_to_json(trace: SymbolicTrace,
                   boundary: FieldBoundaryReport | None = None) -> dict:
    out = {
        "kind": "shadow",
        "program": trace.program.name,
        "input": _values(trace.input),
        "outcome": trace.outcome,
        "fault_kind": trace.fault_kind,
        "steps": trace.steps_executed,
        "output_functions": None if trace.output_functions is None
        else [str(f) for f in trace.output_functions],
        "output_values": _values(trace.output_values),
        "branch_log": [
            {"function": str(e.function), "sign": e.sign, "step": e.step}
            for e in trace.branch_log
        ],
        "oracle_log": [
            {"functions": [str(f) for f in e.functions], "answer": e.answer,
             "was_constant": e.was_constant, "step": e.step}
            for e in trace.oracle_log
        ],
        "final_cells": {
            str(cell): {"function": str(trace.final_cells[cell]),
                        "value": value_to_json(trace.final_values[cell])}
            for cell in sorted(trace.final_cells)
        },
    }
    if boundary is not None:
        out["field_boundary"] = {
            "ok": boundary.ok,
            "cells_checked": boundary.cells_checked,
            "max_value_degree": boundary.max_value_degree,
            "failures": list(boundary.failures),
        }
    return out


class FunctionStrings(dict):
    """str(f) of each function, formatted once: one per printed document.
    A path tree's functions are interned, so a lookup is an identity compare."""

    def __missing__(self, f) -> str:
        text = self[f] = str(f)
        return text


def tree_to_json(tree: PathTree) -> dict:
    text = FunctionStrings()
    return {
        "kind": "path_tree",
        "program": tree.program.name,
        "arity": tree.arity,
        "depth_budget": tree.depth_budget,
        "leaf_count": len(tree.leaves),
        "leaves": [
            {
                "history": list(leaf.history),
                "constraints": [[text[f], s] for f, s in leaf.condition.constraints],
                "oracle_assumptions": [
                    [[text[f] for f in fns], ans]
                    for fns, ans in leaf.condition.oracle_assumptions
                ],
                "outcome": leaf.outcome,
                "outputs": None if leaf.outputs is None
                else [text[f] for f in leaf.outputs],
                "fault_kind": leaf.fault_kind,
                "measure_zero": leaf.measure_zero,
                "forks_used": leaf.forks_used,
            }
            for leaf in tree.leaves
        ],
    }


def certificate_to_json(cert: EpsilonCertificate,
                        report: NeighborhoodReport | None = None) -> dict:
    out = {
        "kind": "certificate",
        "center": _values(cert.center),
        "epsilon": format_rational(cert.epsilon),
        "functions": [
            {"function": str(f),
             "num_enclosure": _interval(num_enc),
             "den_enclosure": _interval(den_enc)}
            for f, (num_enc, den_enc) in zip(cert.functions, cert.enclosures)
        ],
    }
    if report is not None:
        out["neighborhood"] = {
            "ok": report.ok,
            "epsilon": format_rational(report.epsilon),
            "passed": report.passed,
            "total": len(report.samples),
            "samples": [
                {"point": _values(s.point), "ok": s.ok, "detail": s.detail}
                for s in report.samples
            ],
        }
    return out


def witness_to_json(report: CounterexampleReport) -> dict:
    return {
        "kind": "witness_report",
        "verdict": report.verdict,
        "x1": value_to_json(report.x1),
        "n": report.n,
        "m": report.m,
        "b": value_to_json(report.b),
        "x2": value_to_json(report.x2),
        "path_equal": report.path_equal,
        "machine_output": value_to_json(report.machine_output)
        if not isinstance(report.machine_output, tuple)
        else _values(report.machine_output),
        "ground_truth": value_to_json(report.ground_truth),
        "epsilon": None if report.epsilon is None
        else format_rational(report.epsilon),
        "notes": list(report.notes),
    }


def cantor_to_json(x: Fraction, pair: CantorPair) -> dict:
    return {
        "kind": "cantor_pair",
        "input": format_rational(x),
        "input_ternary": ternary_string(x),
        "c1": format_rational(pair.c1),
        "c1_ternary": ternary_string(pair.c1),
        "c2": format_rational(pair.c2),
        "c2_ternary": ternary_string(pair.c2),
        "digits_used": pair.digits_used,
        "exact": pair.c1 + pair.c2 / 2 == x,
    }


# -- documented shapes ----------------------------------------------------

_RATIONAL = {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}
_ALGEBRAIC = {
    "type": "object",
    "required": ["element", "min_poly", "field_interval", "coords", "enclosure"],
    "properties": {
        "element": {"type": "string"},
        "min_poly": {"type": "string"},
        "field_interval": {"type": "array", "items": _RATIONAL,
                           "minItems": 2, "maxItems": 2},
        "coords": {"type": "array", "items": _RATIONAL},
        "enclosure": {"type": "array", "items": _RATIONAL,
                      "minItems": 2, "maxItems": 2},
    },
}
_VALUE = {"oneOf": [_RATIONAL, _ALGEBRAIC]}
_VALUES = {"type": "array", "items": _VALUE}
_NULLABLE_VALUES = {"oneOf": [_VALUES, {"type": "null"}]}
_INTERVAL = {"type": "array", "items": _RATIONAL, "minItems": 2, "maxItems": 2}

SCHEMAS: dict[str, dict] = {
    "trace": {
        "type": "object",
        "required": ["kind", "program", "input", "status", "steps", "output",
                     "records"],
        "properties": {
            "kind": {"const": "trace"},
            "program": {"type": "string"},
            "input": _VALUES,
            "status": {"enum": ["halted", "budget_exhausted", "fault"]},
            "fault_kind": {"oneOf": [{"type": "string"}, {"type": "null"}]},
            "steps": {"type": "integer", "minimum": 0},
            "output": _NULLABLE_VALUES,
            "records": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["index", "label", "instruction", "writes"],
                    "properties": {
                        "index": {"type": "integer"},
                        "label": {"type": "string"},
                        "instruction": {"type": "string"},
                        "writes": {
                            "type": "array",
                            "items": {"type": "array", "minItems": 2,
                                      "maxItems": 2,
                                      "prefixItems": [{"type": "integer"},
                                                      _VALUE]},
                        },
                        "branch_sign": {"oneOf": [{"enum": [-1, 0, 1]},
                                                  {"type": "null"}]},
                        "oracle": {"oneOf": [{"type": "object"},
                                             {"type": "null"}]},
                    },
                },
            },
        },
    },
    "shadow": {
        "type": "object",
        "required": ["kind", "program", "input", "outcome", "steps",
                     "branch_log", "oracle_log", "final_cells"],
        "properties": {
            "kind": {"const": "shadow"},
            "program": {"type": "string"},
            "input": _VALUES,
            "outcome": {"enum": ["halted", "budget_exhausted", "fault"]},
            "fault_kind": {"oneOf": [{"type": "string"}, {"type": "null"}]},
            "steps": {"type": "integer", "minimum": 0},
            "output_functions": {"oneOf": [{"type": "array",
                                            "items": {"type": "string"}},
                                           {"type": "null"}]},
            "output_values": _NULLABLE_VALUES,
            "branch_log": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["function", "sign", "step"],
                    "properties": {
                        "function": {"type": "string"},
                        "sign": {"enum": [-1, 0, 1]},
                        "step": {"type": "integer"},
                    },
                },
            },
            "oracle_log": {"type": "array"},
            "final_cells": {"type": "object"},
            "field_boundary": {
                "type": "object",
                "required": ["ok", "cells_checked", "max_value_degree"],
                "properties": {
                    "ok": {"type": "boolean"},
                    "cells_checked": {"type": "integer"},
                    "max_value_degree": {"type": "integer"},
                    "failures": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
    },
    "path_tree": {
        "type": "object",
        "required": ["kind", "program", "arity", "depth_budget", "leaf_count",
                     "leaves"],
        "properties": {
            "kind": {"const": "path_tree"},
            "program": {"type": "string"},
            "arity": {"type": "integer", "minimum": 0},
            "depth_budget": {"type": "integer", "minimum": 0},
            "leaf_count": {"type": "integer", "minimum": 0},
            "leaves": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["history", "constraints", "outcome",
                                 "measure_zero", "forks_used"],
                    "properties": {
                        "history": {"type": "array",
                                    "items": {"type": "string"}},
                        "constraints": {
                            "type": "array",
                            "items": {"type": "array", "minItems": 2,
                                      "maxItems": 2,
                                      "prefixItems": [{"type": "string"},
                                                      {"enum": [-1, 0, 1]}]},
                        },
                        "oracle_assumptions": {"type": "array"},
                        "outcome": {"enum": ["halted", "budget_exhausted",
                                             "fault"]},
                        "outputs": {"oneOf": [{"type": "array",
                                               "items": {"type": "string"}},
                                              {"type": "null"}]},
                        "fault_kind": {"oneOf": [{"type": "string"},
                                                 {"type": "null"}]},
                        "measure_zero": {"type": "boolean"},
                        "forks_used": {"type": "integer"},
                    },
                },
            },
        },
    },
    "certificate": {
        "type": "object",
        "required": ["kind", "center", "epsilon", "functions"],
        "properties": {
            "kind": {"const": "certificate"},
            "center": _VALUES,
            "epsilon": _RATIONAL,
            "functions": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["function", "num_enclosure", "den_enclosure"],
                    "properties": {
                        "function": {"type": "string"},
                        "num_enclosure": _INTERVAL,
                        "den_enclosure": _INTERVAL,
                    },
                },
            },
            "neighborhood": {
                "type": "object",
                "required": ["ok", "passed", "total", "samples"],
                "properties": {
                    "ok": {"type": "boolean"},
                    "epsilon": _RATIONAL,
                    "passed": {"type": "integer"},
                    "total": {"type": "integer"},
                    "samples": {"type": "array"},
                },
            },
        },
    },
    "witness_report": {
        "type": "object",
        "required": ["kind", "verdict", "x1", "notes"],
        "properties": {
            "kind": {"const": "witness_report"},
            "verdict": {"enum": ["counterexample_confirmed",
                                 "pipeline_inapplicable"]},
            "x1": _RATIONAL,
            "n": {"oneOf": [{"type": "integer"}, {"type": "null"}]},
            "m": {"oneOf": [{"type": "integer"}, {"type": "null"}]},
            "b": {"oneOf": [_RATIONAL, {"type": "null"}]},
            "x2": {"oneOf": [_VALUE, {"type": "null"}]},
            "path_equal": {"oneOf": [{"type": "boolean"}, {"type": "null"}]},
            "machine_output": {},
            "ground_truth": {},
            "epsilon": {"oneOf": [_RATIONAL, {"type": "null"}]},
            "notes": {"type": "array", "items": {"type": "string"}},
        },
    },
    "cantor_pair": {
        "type": "object",
        "required": ["kind", "input", "c1", "c2", "digits_used", "exact"],
        "properties": {
            "kind": {"const": "cantor_pair"},
            "input": _RATIONAL,
            "input_ternary": {"type": "string"},
            "c1": _RATIONAL,
            "c1_ternary": {"type": "string"},
            "c2": _RATIONAL,
            "c2_ternary": {"type": "string"},
            "digits_used": {"type": "integer", "minimum": 0},
            "exact": {"type": "boolean"},
        },
    },
}
