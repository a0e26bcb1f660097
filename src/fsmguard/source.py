"""Source text, line spans, and diagnostics shared by every analysis stage.

No ``Span`` is mutated once it is built.  The AST nodes, the STG and the
findings share the spans they were built from; a change builds a new one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .rules import CheckReport


@dataclass(frozen=True)
class SourceText:
    """A design payload plus a label saying where it came from."""

    content: str
    origin: str = "<memory>"
    # Set by ``mitigate``: the check of the design this text was repaired
    # from, and the check of this text.  In memory only, never serialized
    # or compared.
    derived_from: CheckReport | None = field(default=None, compare=False, repr=False)
    checked: CheckReport | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.content:
            raise ValueError("empty source text")

    @classmethod
    def from_file(cls, path: str | Path) -> "SourceText":
        p = Path(path)
        return cls(content=p.read_text(encoding="utf-8"), origin=str(p))


@dataclass(order=True, slots=True, unsafe_hash=True)
class Span:
    """Inclusive 1-based line range."""

    start: int
    end: int

    # by hand, to validate and set in one frame; the dataclass keeps it
    def __init__(self, start: int, end: int) -> None:
        if start < 1 or end < start:
            raise ValueError(f"bad span {start}..{end}")
        self.start = start
        self.end = end

    @classmethod
    def point(cls, line: int) -> "Span":
        return cls(line, line)

    def to_json(self) -> list[int]:
        return [self.start, self.end]


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    code: str
    message: str
    span: Span

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def to_json(self) -> dict:
        return {
            "severity": self.severity.value,
            "code": self.code,
            "message": self.message,
            "span": self.span.to_json(),
        }

    def __str__(self) -> str:
        return f"{self.severity.value}[{self.code}] line {self.span.start}: {self.message}"


def error(code: str, message: str, span: Span) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span)


def warning(code: str, message: str, span: Span) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message, span)
