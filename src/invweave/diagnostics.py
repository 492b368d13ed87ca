"""Diagnostics shared by the frontend, the spec loader, and the analyses."""

from __future__ import annotations

from .syntax import Record


class Diagnostic(Record):
    __slots__ = ("code", "message", "line", "col", "severity")
    def __init__(self, code: str, message: str, line: int = 0, col: int = 0, severity: str = "error"):
        self.code, self.message, self.line, self.col = code, message, line, col
        self.severity = severity  # "error" or "note"

    def __str__(self) -> str:
        loc = "%d:%d" % (self.line, self.col) if self.line else "-"
        return "%s: %s [%s] %s" % (loc, self.severity, self.code, self.message)


class ParseError(Exception):
    """Raised on syntax or structural errors; carries one Diagnostic."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class SpecError(Exception):
    """Raised for malformed invariant-specification documents."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class WeaveError(Exception):
    """Raised when weaving cannot proceed; carries the stage diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


def errors_only(diags: list[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diags if d.severity == "error"]
