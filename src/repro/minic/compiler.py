"""Compiler driver: source text -> assembly -> assembled program."""

from __future__ import annotations

from repro.asm import Program, assemble
from repro.errors import InternalCompilerError, MinicError
from repro.minic.codegen import generate
from repro.minic.parser import parse
from repro.minic.sema import analyze
from repro.obs import get_recorder


def compile_source(source: str) -> str:
    """Compile mini-C ``source`` to assembly text.

    Raises:
        CompileError: on any lexical, syntactic or semantic error.

    Any other exception escaping a compiler pass is a bug in the
    compiler, not the program; it is re-raised as
    :class:`InternalCompilerError` (with the original chained as
    ``__cause__``) so callers only ever see :class:`MinicError`.
    """
    try:
        with get_recorder().span("minic.compile"):
            return generate(analyze(parse(source)))
    except (MinicError, RecursionError, MemoryError, KeyboardInterrupt):
        raise
    except Exception as exc:
        raise InternalCompilerError(
            f"internal error: {type(exc).__name__}: {exc}"
        ) from exc


def compile_program(source: str) -> Program:
    """Compile mini-C ``source`` straight to an assembled
    :class:`repro.asm.Program` ready to run on the machine."""
    return assemble(compile_source(source))
