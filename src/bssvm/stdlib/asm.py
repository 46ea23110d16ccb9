"""Tiny assembler for generating library programs.

Instructions get explicit labels via label() or fresh auto labels; branch
targets may be declared before the line that carries them, so loops read
top-down.  Cells gives symbolic names to cell indices so builders don't
juggle raw numbers.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import ProgramError
from ..machine.program import (
    Arith,
    Branch,
    Const,
    Copy,
    Jmp,
    OracleCall,
    Output,
    Program,
    Shift,
)


class Cells:
    """Sequential symbolic cell allocator: Cells('x', 'acc', base=3).x == 3."""

    def __init__(self, *names: str, base: int = 0):
        self._top = base
        for name in names:
            setattr(self, name, self._top)
            self._top += 1

    @property
    def top(self) -> int:
        return self._top


class Asm:
    def __init__(self, name: str, arity, zero: tuple[int, int] | None = None):
        self._name = name
        self._arity = arity
        self._zero = zero
        self._params: list[tuple[str, Fraction]] = []
        self._body: list[tuple[str, object]] = []
        self._pending: str | None = None
        self._counter = 0

    # -- labels ----------------------------------------------------------

    def fresh(self, hint: str = "L") -> str:
        self._counter += 1
        return f"{hint}_{self._counter}"

    def label(self, name: str | None = None) -> str:
        """Attach a label to the next emitted instruction."""
        if name is None:
            name = self.fresh()
        if self._pending is not None:
            raise ProgramError(f"two labels for one line: {self._pending!r}, {name!r}")
        self._pending = name
        return name

    def _emit(self, instr) -> None:
        label = self._pending if self._pending is not None else self.fresh("i")
        self._pending = None
        self._body.append((label, instr))

    # -- instructions ------------------------------------------------------

    def param(self, name: str, value) -> str:
        self._params.append((name, Fraction(value)))
        return name

    def const(self, dst: int, value) -> None:
        self._emit(Const(dst, value=Fraction(value)))

    def const_param(self, dst: int, name: str) -> None:
        self._emit(Const(dst, param=name))

    def copy(self, dst: int, src: int) -> None:
        self._emit(Copy(dst, src))

    def add(self, dst: int, a: int, b: int) -> None:
        self._emit(Arith("ADD", dst, a, b))

    def sub(self, dst: int, a: int, b: int) -> None:
        self._emit(Arith("SUB", dst, a, b))

    def mul(self, dst: int, a: int, b: int) -> None:
        self._emit(Arith("MUL", dst, a, b))

    def div(self, dst: int, a: int, b: int) -> None:
        self._emit(Arith("DIV", dst, a, b))

    def branch(self, src: int, neg: str, zero: str, pos: str) -> None:
        self._emit(Branch(src, neg, zero, pos))

    def jmp(self, target: str) -> None:
        self._emit(Jmp(target))

    def shiftl(self) -> None:
        self._emit(Shift("left"))

    def shiftr(self) -> None:
        self._emit(Shift("right"))

    def oracle(self, lo: int, hi: int, yes: str, no: str) -> None:
        self._emit(OracleCall(lo, hi, yes, no))

    def output(self, lo: int, hi: int | None = None) -> None:
        self._emit(Output(lo, lo if hi is None else hi))

    def build(self) -> Program:
        if self._pending is not None:
            raise ProgramError(f"dangling label {self._pending!r}")
        return Program(self._name, self._arity, tuple(self._params),
                       self._zero, tuple(self._body))
