"""Program representation: instructions, validation, canonical printer.

A program is a named, labeled instruction sequence over an unbounded tape of
exact real cells.  Cell operands in instructions are nonnegative literals,
resolved against the current window offset at run time (OUTPUT anchors its
low end to the initial frame; see interp).  Every instruction carries a
label; control starts at the first instruction.  The last instruction
cannot fall through: it is OUTPUT, JMP, BRANCH or ORACLE.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import ProgramError
from ..exact import format_rational

ARITH_OPS = ("ADD", "SUB", "MUL", "DIV")


@dataclass(frozen=True)
class Const:
    dst: int
    value: Fraction | None = None   # literal ...
    param: str | None = None        # ... or $param reference (exactly one set)


@dataclass(frozen=True)
class Copy:
    dst: int
    src: int


@dataclass(frozen=True)
class Arith:
    op: str
    dst: int
    src1: int
    src2: int


@dataclass(frozen=True)
class Branch:
    src: int
    neg: str
    zero: str
    pos: str


@dataclass(frozen=True)
class Jmp:
    target: str


@dataclass(frozen=True)
class Shift:
    direction: str  # "left" | "right"


@dataclass(frozen=True)
class OracleCall:
    lo: int
    hi: int
    yes: str
    no: str


@dataclass(frozen=True)
class Output:
    lo: int
    hi: int


Instruction = Const | Copy | Arith | Branch | Jmp | Shift | OracleCall | Output

VAR_ARITY = "VAR"


def _check_cell(i, what: str) -> None:
    if not isinstance(i, int) or i < 0:
        raise ProgramError(f"{what}: cell index must be a nonnegative integer, got {i!r}")


def _instruction_labels(instr: Instruction) -> tuple[str, ...]:
    if isinstance(instr, Branch):
        return (instr.neg, instr.zero, instr.pos)
    if isinstance(instr, Jmp):
        return (instr.target,)
    if isinstance(instr, OracleCall):
        return (instr.yes, instr.no)
    return ()


@dataclass(frozen=True)
class Program:
    name: str
    arity: int | str                 # nonnegative int, or VAR_ARITY
    params: tuple[tuple[str, Fraction], ...]
    zero_window: tuple[int, int] | None
    instructions: tuple[tuple[str, Instruction], ...]

    def __post_init__(self):
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ProgramError("program name must be nonempty without whitespace")
        if self.arity != VAR_ARITY and (not isinstance(self.arity, int) or self.arity < 0):
            raise ProgramError("arity must be a nonnegative integer or VAR")
        seen_params = set()
        for pname, value in self.params:
            if pname in seen_params:
                raise ProgramError(f"duplicate parameter {pname!r}")
            seen_params.add(pname)
            if not isinstance(value, Fraction):
                raise ProgramError(f"parameter {pname!r} must hold a Fraction")
        if self.zero_window is not None:
            lo, hi = self.zero_window
            _check_cell(lo, "ZERO")
            _check_cell(hi, "ZERO")
            if lo > hi:
                raise ProgramError("ZERO window needs lo <= hi")
        if not self.instructions:
            raise ProgramError("program needs at least one instruction")
        labels = set()
        for label, _ in self.instructions:
            if label in labels:
                raise ProgramError(f"duplicate label {label!r}")
            labels.add(label)
        for label, instr in self.instructions:
            self._check_instruction(label, instr, labels, seen_params)
        last_label, last = self.instructions[-1]
        if not isinstance(last, (Output, Jmp, Branch, OracleCall)):
            raise ProgramError(
                f"instruction {last_label!r}: the last instruction must be OUTPUT, JMP, "
                f"BRANCH or ORACLE, not {format_instruction(last).split()[0]}, "
                f"which falls through past the end")

    def _check_instruction(self, label, instr, labels, param_names) -> None:
        where = f"instruction {label!r}"
        if isinstance(instr, Const):
            _check_cell(instr.dst, where)
            if (instr.value is None) == (instr.param is None):
                raise ProgramError(f"{where}: CONST takes a literal or a $param, not both")
            if instr.param is not None and instr.param not in param_names:
                raise ProgramError(f"{where}: unknown parameter {instr.param!r}")
            if instr.value is not None and not isinstance(instr.value, Fraction):
                raise ProgramError(f"{where}: CONST literal must be a Fraction")
        elif isinstance(instr, Copy):
            _check_cell(instr.dst, where)
            _check_cell(instr.src, where)
        elif isinstance(instr, Arith):
            if instr.op not in ARITH_OPS:
                raise ProgramError(f"{where}: bad arithmetic op {instr.op!r}")
            for c in (instr.dst, instr.src1, instr.src2):
                _check_cell(c, where)
        elif isinstance(instr, Branch):
            _check_cell(instr.src, where)
        elif isinstance(instr, Shift):
            if instr.direction not in ("left", "right"):
                raise ProgramError(f"{where}: bad shift direction {instr.direction!r}")
        elif isinstance(instr, (OracleCall, Output)):
            _check_cell(instr.lo, where)
            _check_cell(instr.hi, where)
            if instr.lo > instr.hi:
                raise ProgramError(f"{where}: range needs lo <= hi")
        elif isinstance(instr, Jmp):
            pass
        else:
            raise ProgramError(f"{where}: unknown instruction {instr!r}")
        for target in _instruction_labels(instr):
            if target not in labels:
                raise ProgramError(f"{where}: unresolved label {target!r}")

    # -- lookups ---------------------------------------------------------

    def label_index(self) -> dict[str, int]:
        return {label: i for i, (label, _) in enumerate(self.instructions)}

    def param_value(self, name: str) -> Fraction:
        for pname, value in self.params:
            if pname == name:
                return value
        raise ProgramError(f"unknown parameter {name!r}")

    # -- printing ----------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"PROGRAM {self.name}"]
        lines.append(f"ARITY {self.arity}")
        for pname, value in self.params:
            lines.append(f"PARAM {pname} = {format_rational(value)}")
        if self.zero_window is not None:
            lines.append(f"ZERO {self.zero_window[0]}..{self.zero_window[1]}")
        width = max(len(label) for label, _ in self.instructions)
        for label, instr in self.instructions:
            lines.append(f"{label}:{' ' * (width - len(label) + 1)}{format_instruction(instr)}")
        return "\n".join(lines) + "\n"


def format_instruction(instr: Instruction) -> str:
    if isinstance(instr, Const):
        operand = f"${instr.param}" if instr.param is not None else format_rational(instr.value)
        return f"CONST c{instr.dst} {operand}"
    if isinstance(instr, Copy):
        return f"COPY c{instr.dst} c{instr.src}"
    if isinstance(instr, Arith):
        return f"{instr.op} c{instr.dst} c{instr.src1} c{instr.src2}"
    if isinstance(instr, Branch):
        return f"BRANCH c{instr.src} {instr.neg} {instr.zero} {instr.pos}"
    if isinstance(instr, Jmp):
        return f"JMP {instr.target}"
    if isinstance(instr, Shift):
        return "SHIFTL" if instr.direction == "left" else "SHIFTR"
    if isinstance(instr, OracleCall):
        return f"ORACLE c{instr.lo}..c{instr.hi} {instr.yes} {instr.no}"
    if isinstance(instr, Output):
        return f"OUTPUT c{instr.lo}..c{instr.hi}"
    raise ProgramError(f"unknown instruction {instr!r}")
