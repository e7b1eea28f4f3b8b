"""Error values shared by the parsers and the translators."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """A 1-based line/column position inside a named input."""

    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(Exception):
    """A single syntax error tied to a source position; str() is its stderr line."""

    def __init__(self, span: SourceSpan, message: str, expected: str | None = None):
        super().__init__(message)
        self.span = span
        self.message = message
        self.expected = expected

    def __str__(self) -> str:
        if self.expected:
            return f"{self.span}: error: {self.message} (expected {self.expected})"
        return f"{self.span}: error: {self.message}"


class ParseFailure(Exception):
    """All syntax errors collected from one input, in source order."""

    def __init__(self, errors: list[ParseError]):
        super().__init__(f"{len(errors)} parse error(s)")
        self.errors = list(errors)

    def __str__(self) -> str:
        return "\n".join(str(e) for e in self.errors)


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One model or translation problem; str() is its stderr line."""

    subject: str  # the class "A", the member "A.x" or the generalization "A -> B"
    message: str

    def __str__(self) -> str:
        return f"error: {self.subject}: {self.message}"


class TranslationError(Exception):
    """Raised when a diagram model cannot be translated back to classes."""

    def __init__(self, problems: list[Diagnostic]):
        super().__init__(f"{len(problems)} translation problem(s)")
        self.problems = list(problems)

    def __str__(self) -> str:
        return "\n".join(str(p) for p in self.problems)
