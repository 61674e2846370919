"""Structured diagnostics shared by every stage of the kernel.

A Diagnostic is an immutable finding with a stable machine-readable code, a
severity, a message and a source span.  The code set is closed: constructing
a Diagnostic with an unpublished code fails fast, and the machine rendering
below is the stable line-oriented contract consumed by tests and tooling.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Sequence


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


#: Published closed set of diagnostic codes.
CODES = frozenset({
    "E-SYNTAX",
    "E-DUP-NAME",
    "E-UNRESOLVED",
    "E-ARITY",
    "E-TYPE-MISMATCH",
    "E-NO-CONSTRUCTOR",
    "E-UNJUSTIFIED-STEP",
    "E-UNKNOWN-RULE",
    "E-PREMISS-MISMATCH",
    "E-ENDPOINT-MISMATCH",
    "E-COVERAGE",
    "E-STEP-NUMBERING",
    "E-RESTATEMENT",
    "E-INFINITE-SUM",
    "W-INFERRED-VIA",
    "W-INHABITATION",
    "W-IMPLICIT-QUANTIFIER",
})


class Span(NamedTuple):
    """Source location: 1-based line and column plus a token length.  A
    named tuple, as the lexer builds one per token."""

    file: str = "<input>"
    line: int = 1
    column: int = 1
    length: int = 0


class _Finding(NamedTuple):
    severity: Severity
    code: str
    message: str
    span: Span = Span()
    related: tuple[tuple[Span, str], ...] = ()


class Diagnostic(_Finding):
    """A finding, whose code is in ``CODES`` however it is built: by the
    constructor, ``_replace`` or unpickling."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Diagnostic:
        self = super().__new__(cls, *args, **kwargs)
        if self.code not in CODES:
            raise ValueError(f"diagnostic code {self.code!r} is not in the published set")
        return self

    @classmethod
    def _make(cls, iterable) -> Diagnostic:  # what ``_replace`` builds with
        return cls(*iterable)


def error(code: str, message: str, span: Span = Span(), related: Sequence[tuple[Span, str]] = ()) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span, tuple(related))


def warning(code: str, message: str, span: Span = Span(), related: Sequence[tuple[Span, str]] = ()) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message, span, tuple(related))


class DiagnosticError(Exception):
    """Raised where analysis cannot proceed (lexing, parsing, typing)."""

    def __init__(self, *diagnostics: Diagnostic) -> None:
        self.diagnostics = list(diagnostics)
        summary = render_human(diagnostics[0]) if diagnostics else "diagnostic error"
        super().__init__(summary)


_COLORS = {Severity.ERROR: "\x1b[31m", Severity.WARNING: "\x1b[33m", Severity.NOTE: "\x1b[36m"}
_RESET = "\x1b[0m"


def render_human(d: Diagnostic, color: bool = False) -> str:
    """One-line header ``file:line:col: severity[code]: message`` plus notes."""
    sev = d.severity.value
    if color:
        sev = f"{_COLORS[d.severity]}{sev}{_RESET}"
    head = f"{d.span.file}:{d.span.line}:{d.span.column}: {sev}[{d.code}]: {d.message}"
    lines = [head]
    for span, text in d.related:
        lines.append(f"  {span.file}:{span.line}:{span.column}: {text}")
    return "\n".join(lines)


def render_machine(diagnostics: Iterable[Diagnostic]) -> str:
    """Tab-separated records, one per diagnostic, sorted by source position.

    Field order: code, severity, file, line, column, message.
    """
    ordered = sorted(diagnostics, key=lambda d: (d.span.file, d.span.line, d.span.column))
    lines = [
        "\t".join((d.code, d.severity.value, d.span.file, str(d.span.line), str(d.span.column), d.message))
        for d in ordered
    ]
    return "\n".join(lines) + "\n" if lines else ""
