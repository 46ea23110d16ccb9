"""DSL source text of the library programs.

The builders in programs.py are the one definition of every library
program; a program's source text is its builder's output printed by
Program.to_text, which parse_program reads back to the same program.
"""

from __future__ import annotations

from .programs import stdlib_program


def source_text(name: str) -> str:
    """The DSL text of the named library program; BssError for an unknown name."""
    return stdlib_program(name).to_text()
