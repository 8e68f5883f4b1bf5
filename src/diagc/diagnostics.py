"""Diagnostics with file:line:column positions, and the error hierarchy."""
from __future__ import annotations

from typing import NamedTuple, Optional


class Diagnostic(NamedTuple):
    severity: str  # "error" or "warning"
    message: str
    filename: str = ""
    line: int = 0
    col: int = 0

    def format(self) -> str:
        where = f"{self.filename or '<input>'}:{self.line}:{self.col}"
        return f"{where}: {self.severity}: {self.message}"


class DiagramError(Exception):
    """Base for compilation failures; carries a positioned diagnostic and
    ``seq``, that of the node or arrow at fault, if there is one."""

    def __init__(self, diagnostic: Diagnostic, seq: Optional[int] = None) -> None:
        super().__init__(diagnostic.format())
        self.diagnostic = diagnostic
        self.seq = seq


class ParseError(DiagramError):
    """Malformed source text."""


class ExpandError(DiagramError):
    """A command whose geometry cannot be built (degenerate, bad arity)."""


class LayoutError(DiagramError):
    """Geometry that cannot be drawn (empty diagram, overlapping objects)."""


class RenderError(DiagramError):
    """Text that an output format cannot carry."""
