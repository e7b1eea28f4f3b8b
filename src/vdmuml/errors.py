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
    """A single syntax error tied to a source position."""

    def __init__(self, span: SourceSpan, message: str, expected: str | None = None):
        super().__init__(message)
        self.span = span
        self.message = message
        self.expected = expected

    def __str__(self) -> str:
        if self.expected:
            return f"{self.span}: {self.message} (expected {self.expected})"
        return f"{self.span}: {self.message}"


class ParseFailure(Exception):
    """All syntax errors collected from one input, in source order."""

    def __init__(self, errors: list[ParseError]):
        super().__init__(f"{len(errors)} parse error(s)")
        self.errors = list(errors)

    def __str__(self) -> str:
        return "\n".join(str(e) for e in self.errors)


@dataclass(frozen=True, slots=True)
class TranslationProblem:
    """One diagram member that could not be turned back into source."""

    class_name: str
    member_name: str
    message: str

    def __str__(self) -> str:
        return f"{self.class_name}.{self.member_name}: {self.message}"


class TranslationError(Exception):
    """Raised when a diagram model cannot be translated back to classes."""

    def __init__(self, problems: list[TranslationProblem]):
        super().__init__(f"{len(problems)} translation problem(s)")
        self.problems = list(problems)

    def __str__(self) -> str:
        return "\n".join(str(p) for p in self.problems)
