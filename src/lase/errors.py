"""Exception types shared across the package."""

from __future__ import annotations


class LaseError(Exception):
    """Base class for all errors raised by this package."""


class TraceError(LaseError):
    """An error in a trace: its message, the column it names (None where the
    error has none) and its line number (None until the reader knows it).
    The location is written only by __str__, as "message (column C) at line N"."""

    def __init__(self, message: str, column: str | None = None, line_no: int | None = None):
        super().__init__(message)
        self.message = message
        self.column = column
        self.line_no = line_no

    def __str__(self) -> str:
        column = "" if self.column is None else f" (column {self.column})"
        return self.message + column + ("" if self.line_no is None else f" at line {self.line_no}")


class UnknownIrp(TraceError):
    """An IRP identifier that is in neither the major nor the minor registry."""

    def __init__(self, name: str):
        super().__init__(f"unknown IRP identifier: {name!r}")
        self.name = name


class TraceSyntaxError(TraceError):
    """A malformed trace line, naming the offending column."""


class TraceValidationError(TraceError):
    """A decoded record failed its structural invariants."""

    def __init__(self, violations):
        super().__init__(f"invalid record ({', '.join(v.value for v in violations)})")
        self.violations = list(violations)


class BadMagic(TraceError):
    """Trace stream does not start with the expected magic line."""


class NonMonotonicSequence(TraceError):
    """Global sequence numbers are not strictly increasing."""

    def __init__(self, at_seq: int):
        super().__init__(f"global sequence not strictly increasing at {at_seq}")
        self.at_seq = at_seq


class PipelineClosed(LaseError):
    """Drain attempted on a closed and fully drained pipeline."""


class SignatureParseError(LaseError):
    """Bad signature or rule file; carries the offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"{message} (line {line_no})")
        self.line_no = line_no


class UnknownKey(LaseError):
    """A process key that does not exist in the forest."""


class MissingCell(LaseError):
    """Benchmark halves do not cover the same (operation, size) cells."""
