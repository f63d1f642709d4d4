"""Exception types shared across the package."""

from __future__ import annotations


class LaseError(Exception):
    """Base class for all errors raised by this package."""


class UnknownIrp(LaseError):
    """An IRP identifier that is in neither the major nor the minor registry."""

    def __init__(self, name: str, line_no: int | None = None):
        loc = f" at line {line_no}" if line_no is not None else ""
        super().__init__(f"unknown IRP identifier: {name!r}{loc}")
        self.name = name
        self.line_no = line_no


class TraceSyntaxError(LaseError):
    """A malformed trace line; carries the offending column and line number."""

    def __init__(self, message: str, column: str = "", line_no: int | None = None):
        loc = f" (column {column})" if column else ""
        if line_no is not None:
            loc += f" at line {line_no}"
        super().__init__(message + loc)
        self.column = column
        self.line_no = line_no


class TraceValidationError(LaseError):
    """A decoded record failed its structural invariants."""

    def __init__(self, violations, line_no: int | None = None):
        names = ", ".join(v.value for v in violations)
        loc = f" at line {line_no}" if line_no is not None else ""
        super().__init__(f"invalid record ({names}){loc}")
        self.violations = list(violations)
        self.line_no = line_no


class BadMagic(LaseError):
    """Trace stream does not start with the expected magic line."""

    def __init__(self, message: str, line_no: int | None = None):
        loc = f" at line {line_no}" if line_no is not None else ""
        super().__init__(message + loc)
        self.line_no = line_no


class NonMonotonicSequence(LaseError):
    """Global sequence numbers are not strictly increasing."""

    def __init__(self, at_seq: int, line_no: int | None = None):
        loc = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"global sequence not strictly increasing at {at_seq}{loc}")
        self.at_seq = at_seq
        self.line_no = line_no


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
