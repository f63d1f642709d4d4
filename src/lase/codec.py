"""Reader/writer for the text trace format and its gzip container.

A trace file is a "#LASEv1" magic line, "#key<TAB>value" header lines, then
one tab-separated record per line in the fixed column order: operation
label, time, duration (empty unless an I/O event), global sequence, ppid,
pid, tid, image path, args, file path, result (empty means OK). Text
fields (the paths, args and result) escape raw tabs and newlines, and
double a backslash only before 't', 'n', a backslash, a tab or a
newline, so plain Windows paths are stored verbatim. Numbers follow one
strict grammar (ASCII digits, fixed time widths, no sign or leading
zero), so every accepted line re-encodes to the same bytes; for the same
reason an I/O label must be its exact display form, a result is never
the literal "OK", and the text must be UTF-8. Files ending in .lase.gz
(or any stream starting with the gzip magic) are transparently
decompressed.
"""

from __future__ import annotations

import functools
import gzip
import io
import re
import weakref
import zlib
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import IO, Iterable, Iterator, NoReturn

from .errors import BadMagic, NonMonotonicSequence, TraceSyntaxError, TraceValidationError, UnknownIrp
from .events import (
    ANNOTATION_KEYS,
    IMAGE_LOAD,
    PROCESS_CREATE,
    PROCESS_EXIT,
    RESULT_OK,
    THREAD_CREATE,
    THREAD_EXIT,
    Annotation,
    EventRecord,
    IoMode,
    Irp,
    op_label,
    validate_record,
)
from .irp import irp_code_from_label

MAGIC = "#LASEv1"
ENVIRONMENTS = ("baremetal", "virtual", "unspecified")
_DEFAULT_DATE = date(1970, 1, 1)

_COLUMNS = (
    "operation", "time", "duration_us", "global_seq", "ppid", "pid", "tid",
    "image_path", "args", "file_path", "result",
)

_KIND_BY_LABEL = {
    "Pr Create": PROCESS_CREATE,
    "Pr Exit": PROCESS_EXIT,
    "Tr Create": THREAD_CREATE,
    "Tr Exit": THREAD_EXIT,
    "Ld Image": IMAGE_LOAD,
}

_MODE_TOKENS = {
    "": IoMode.SYNCHRONOUS,
    "async": IoMode.ASYNCHRONOUS,
    "fastio": IoMode.FAST_IO,
    "paging": IoMode.PAGING_IO,
}
_MODE_ENCODE = {
    IoMode.SYNCHRONOUS: "",
    IoMode.ASYNCHRONOUS: "async",
    IoMode.FAST_IO: "fastio",
    IoMode.PAGING_IO: "paging",
}


@dataclass(frozen=True)
class TraceHeader:
    base_date: date = _DEFAULT_DATE
    host_label: str = ""
    environment: str = "unspecified"

    def __post_init__(self):
        if self.environment not in ENVIRONMENTS:
            raise ValueError(f"environment must be one of {ENVIRONMENTS}")


@dataclass(frozen=True)
class Trace:
    header: TraceHeader
    records: tuple[EventRecord, ...]

    def __len__(self) -> int:
        return len(self.records)


# Field escaping: raw TAB -> "\t", raw LF -> "\n"; a literal backslash is
# doubled only when the next character is 't', 'n', '\', TAB or LF, so
# ordinary Windows paths pass through byte-verbatim and every text round-trips.
_ESCAPE = {"\t": "\\t", "\n": "\\n", "\\": "\\\\"}
_ESCAPE_RE = re.compile(r"\\(?=[tn\\\t\n])|[\t\n]")
_UNESCAPE = {"t": "\t", "n": "\n", "\\": "\\"}
_UNESCAPE_RE = re.compile(r"\\([tn\\])")


def _escape_match(m: re.Match) -> str:
    return _ESCAPE[m.group()]


def _unescape_match(m: re.Match) -> str:
    return _UNESCAPE[m.group(1)]


# Most fields hold no sequence the rule rewrites (a plain Windows path has
# none) and are returned as they are, without running the substitution.
def escape_field(text: str) -> str:
    if "\t" in text or "\n" in text or "\\t" in text or "\\n" in text or "\\\\" in text:
        return _ESCAPE_RE.sub(_escape_match, text)
    return text


# Bounded memo: decoded records share one string per distinct text (a
# process's image path repeats on each of its records), while a file of
# endless distinct paths cannot grow it.
_FIELD_MEMO = 4096


@functools.lru_cache(maxsize=_FIELD_MEMO)
def unescape_field(text: str) -> str:
    if "\\t" in text or "\\n" in text or "\\\\" in text:
        return _UNESCAPE_RE.sub(_unescape_match, text)
    return text


# The strict time and integer grammar, written once and shared by
# parse_timestamp, _parse_uint, the header date and the record-line
# pattern. Digits are ASCII, time fields have fixed widths, the clock's
# ranges (hour 00-23, minute and second 00-59) are in the pattern rather
# than left to the datetime parser, and an integer has no sign, space,
# underscore or leading zero ("0" itself is fine), so every accepted line
# re-encodes to the same bytes.
_UINT = r"0|[1-9][0-9]*"
_DATE = r"([0-9]{4})/([0-9]{2})/([0-9]{2})"
_TIME = (rf"(?:{_DATE}-)?"
         r"((?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]):([0-9]{3})")
_TEXT = r"([^\t]*)"
_UINT_RE = re.compile(_UINT)
_DATE_RE = re.compile(_DATE)
_TIME_RE = re.compile(_TIME)
_LINE_RE = re.compile("\t".join(
    [_TEXT, _TIME, f"({_UINT})?", *[f"({_UINT})"] * 4, *[_TEXT] * 4]))
_UINT64_MAX = 2**64 - 1

_iso_date = functools.lru_cache(maxsize=16)(date.isoformat)


def _datetime(year: str | None, month: str | None, day: str | None, clock: str, millis: str,
              base_date: date) -> datetime:
    """Datetime from _TIME's groups; ValueError when a field is out of range."""
    day_text = _iso_date(base_date) if year is None else f"{year}-{month}-{day}"
    return datetime.fromisoformat(f"{day_text}T{clock}.{millis}")


def parse_timestamp(text: str, base_date: date) -> datetime:
    """Parse "HH:MM:SS:mmm" (date from header) or "YYYY/MM/DD-HH:MM:SS:mmm".

    Field widths are fixed (zero-padded), so every accepted line re-encodes
    byte-identically.
    """
    match = _TIME_RE.fullmatch(text)
    if match is not None:
        try:
            return _datetime(*match.groups(), base_date)
        except ValueError:
            pass
    raise TraceSyntaxError(f"bad timestamp {text!r}", column="time")


def format_timestamp(when: datetime, base_date: date | None = None) -> str:
    ms = when.microsecond // 1000
    clock = f"{when.hour:02d}:{when.minute:02d}:{when.second:02d}:{ms:03d}"
    if base_date is not None and when.date() == base_date:
        return clock
    return f"{when.year:04d}/{when.month:02d}/{when.day:02d}-{clock}"


def _parse_uint(text: str, column: str) -> int:
    if _UINT_RE.fullmatch(text) is None:
        raise TraceSyntaxError(f"expected unsigned integer, got {text!r}", column=column)
    value = int(text)
    if value > _UINT64_MAX:
        raise TraceSyntaxError(f"{column} exceeds 64 bits", column=column)
    return value


# Shared Irp kind per (operation label, I/O mode token) seen so far. Only
# canonical labels and tokens enter, so it holds at most one entry per
# registered code and mode.
_IRP_KINDS: dict[tuple[str, str], Irp] = {}


def _irp_kind(op: str, mode_token: str) -> Irp:
    """The Irp kind for a label and mode token not yet in _IRP_KINDS."""
    code = irp_code_from_label(op)
    mode = _MODE_TOKENS.get(mode_token)
    if mode is None:
        raise TraceSyntaxError(f"bad I/O mode token {mode_token!r}", column="args")
    kind = _IRP_KINDS[op, mode_token] = Irp(code, mode)
    return kind


def _reject(line: str, header: TraceHeader) -> NoReturn:
    """Raise the error for a line that decode_line's line pattern or range
    checks refused.

    Runs the per-field checks in decode order, so the error class and
    column are those of the first bad field.
    """
    fields = line.split("\t")
    if len(fields) != len(_COLUMNS):
        raise TraceSyntaxError(
            f"expected {len(_COLUMNS)} tab-separated fields, got {len(fields)}",
            column="line",
        )
    parse_timestamp(fields[1], header.base_date)
    for text, column in zip(fields[3:7], _COLUMNS[3:7]):
        _parse_uint(text, column)
    if fields[2]:
        _parse_uint(fields[2], "duration_us")
    raise AssertionError(f"line pattern and field checks disagree on {line!r}")


def decode_line(line: str, header: TraceHeader) -> EventRecord:
    """Decode one record line into a validated EventRecord.

    Raises TraceSyntaxError for malformed fields, TraceValidationError when
    the decoded record breaks a structural invariant, and UnknownIrp for an
    unregistered operation label.
    """
    match = _LINE_RE.fullmatch(line)
    if match is None:
        _reject(line, header)
    (op, year, month, day, clock, millis, dur_text, seq, ppid, pid, tid,
     image, args, file_path, result) = match.groups()
    try:
        when = _datetime(year, month, day, clock, millis, header.base_date)
    except ValueError:
        _reject(line, header)
    seq, ppid, pid, tid = int(seq), int(ppid), int(pid), int(tid)
    duration = None if dur_text is None else int(dur_text)
    if max(seq, ppid, pid, tid, duration or 0) > _UINT64_MAX:
        _reject(line, header)

    # Each branch sets `proven` where the line leaves validate_record
    # nothing to find: the pattern already rules out NEGATIVE_ID and
    # NEGATIVE_DURATION, and a text field is empty exactly when its escaped
    # form is. Any other line is checked, so errors carry the full list.
    args = unescape_field(args)
    if op == "Annot":
        key, sep, value = args.partition("=")
        if not sep or not key:
            raise TraceSyntaxError("annotation args must be key=value", column="args")
        kind = Annotation(key, value)
        args = ""
        proven = duration is None and key in ANNOTATION_KEYS
    elif op in _KIND_BY_LABEL:
        kind = _KIND_BY_LABEL[op]
        proven = duration is None and (
            kind is PROCESS_EXIT or kind is IMAGE_LOAD and file_path != ""
            or kind is PROCESS_CREATE and image != "" and tid == 0
            or (kind is THREAD_CREATE or kind is THREAD_EXIT) and tid != 0)
    else:
        kind = _IRP_KINDS.get((op, args)) or _irp_kind(op, args)
        args = ""
        proven = file_path != "" and kind.mode is not IoMode.FAST_IO
    if result == RESULT_OK:
        raise TraceSyntaxError("a result of OK is written as an empty column", column="result")

    record = EventRecord(seq, when, kind, pid, ppid, tid, duration, unescape_field(image),
                         args, unescape_field(file_path),
                         unescape_field(result) if result else RESULT_OK)
    if not proven:
        violations = validate_record(record)
        if violations:
            raise TraceValidationError(violations)
    return record


def encode_record(record: EventRecord, header: TraceHeader | None = None) -> str:
    """Encode a well-formed record as one trace line (no newline).

    Exact inverse of decode_line; when a header is given, timestamps on the
    header's base date use the short time-only form.
    """
    kind = record.kind
    if isinstance(kind, Annotation):
        args = f"{kind.key}={kind.value}"
    elif isinstance(kind, Irp):
        args = _MODE_ENCODE[kind.mode]
    else:
        args = record.args
    fields = (
        op_label(kind),
        format_timestamp(record.time, header.base_date if header else None),
        "" if record.duration_us is None else str(record.duration_us),
        str(record.global_seq),
        str(record.ppid),
        str(record.pid),
        str(record.tid),
        escape_field(record.image_path),
        escape_field(args),
        escape_field(record.file_path),
        "" if record.result == RESULT_OK else escape_field(record.result),
    )
    return "\t".join(fields)


def _encode_header(header: TraceHeader) -> str:
    d = header.base_date
    lines = [MAGIC, f"#date\t{d.year:04d}/{d.month:02d}/{d.day:02d}"]
    if header.host_label:
        lines.append(f"#host\t{escape_field(header.host_label)}")
    lines.append(f"#env\t{header.environment}")
    return "\n".join(lines) + "\n"


def _parse_header_line(line: str, header_kv: dict, line_no: int) -> None:
    key, _, value = line[1:].partition("\t")
    if key == "date":
        match = _DATE_RE.fullmatch(value)
        try:
            if match is None:
                raise ValueError(value)
            header_kv["base_date"] = date(*map(int, match.groups()))
        except ValueError:
            raise TraceSyntaxError(f"bad header date {value!r}", column="date", line_no=line_no) from None
    elif key == "host":
        header_kv["host_label"] = unescape_field(value)
    elif key == "env":
        if value not in ENVIRONMENTS:
            raise TraceSyntaxError(f"bad environment {value!r}", column="env", line_no=line_no)
        header_kv["environment"] = value
    # unknown header keys are ignored for forward compatibility


class _Prefixed(io.RawIOBase):
    """Raw stream that replays already-consumed sniff bytes before the rest."""

    def __init__(self, inner: IO[bytes], head: bytes):
        self._inner = inner
        self._head = head

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        if self._head:
            n = min(len(b), len(self._head))
            b[:n] = self._head[:n]
            self._head = self._head[n:]
            return n
        data = self._inner.read(len(b))
        if not data:
            return 0
        b[: len(data)] = data
        return len(data)


def _open_for_read(source) -> IO[bytes]:
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(bytes(source))
    head = source.read(2)
    buffered = io.BufferedReader(_Prefixed(source, head))
    if head == b"\x1f\x8b":
        return gzip.GzipFile(fileobj=buffered)  # type: ignore[return-value]
    return buffered


_BLOCK = 65536  # bytes read (and decoded) at a time


def _decoded(data: bytes, end: int, line_no: int) -> Iterator[list[str]]:
    """The lines of data[:end], decoded as UTF-8; line_no is the number of
    the line before data.

    At the first line that is not valid UTF-8, yields the lines before it
    and then raises TraceSyntaxError(column="encoding") for that line, so an
    earlier bad line is still reported first.
    """
    try:
        lines = data[:end].decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1
        if start:
            yield data[:start - 1].decode("utf-8").split("\n")
        raise TraceSyntaxError(f"invalid UTF-8 ({exc.reason})", column="encoding",
                               line_no=line_no + data.count(b"\n", 0, start) + 1) from None
    yield lines


def _blocks(stream: IO[bytes]) -> Iterator[list[str]]:
    """The complete lines of each block read from stream, decoded at once."""
    pending, line_no = b"", 0
    while chunk := stream.read(_BLOCK):
        data = pending + chunk
        end = data.rfind(b"\n")
        pending = data[end + 1:]
        if end >= 0:
            yield from _decoded(data, end, line_no)
            line_no += data.count(b"\n", 0, end) + 1
    if pending:
        yield from _decoded(pending, len(pending), line_no)


def _next_block(blocks: Iterator[list[str]], line_no: int) -> list[str] | None:
    try:
        return next(blocks, None)
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise TraceSyntaxError(f"corrupt compressed stream: {exc}",
                               column="gzip", line_no=line_no) from None


def _read_header(blocks: Iterator[list[str]]) -> tuple[TraceHeader, list[str] | None, int]:
    """The header, the lines of the current block that follow it, and the
    number of the last header line."""
    lines = _next_block(blocks, 0)
    if lines is None:
        raise BadMagic("empty stream")
    if lines[0] != MAGIC:
        raise BadMagic(f"expected {MAGIC!r} magic line, got {lines[0][:32]!r}", line_no=1)
    line_no, kv = 1, {}
    del lines[0]
    while lines is not None:
        for i, line in enumerate(lines):
            if not line.startswith("#"):
                return TraceHeader(**kv), lines[i:], line_no
            line_no += 1
            _parse_header_line(line, kv, line_no)
        lines = _next_block(blocks, line_no)
    return TraceHeader(**kv), None, line_no


def _records(blocks: Iterator[list[str]], lines: list[str] | None, header: TraceHeader,
             line_no: int, file: IO[bytes] | None) -> Iterator[EventRecord]:
    """Decode the record lines; closes file (if any) once iteration ends."""
    last_seq = -1
    try:
        while lines is not None:
            for line in lines:
                line_no += 1
                if not line:
                    continue
                try:
                    record = decode_line(line, header)
                except TraceSyntaxError as exc:
                    raise TraceSyntaxError(str(exc), column=exc.column, line_no=line_no) from None
                except TraceValidationError as exc:
                    raise TraceValidationError(exc.violations, line_no=line_no) from None
                except UnknownIrp as exc:
                    raise UnknownIrp(exc.name, line_no=line_no) from None
                if record.global_seq <= last_seq:
                    raise NonMonotonicSequence(record.global_seq, line_no=line_no)
                last_seq = record.global_seq
                yield record
            lines = _next_block(blocks, line_no)
    finally:
        if file is not None:
            file.close()


class TraceReader:
    """Streaming reader: exposes the header up front, then iterates records.

    Memory use is bounded by line length, not trace size. Sequence
    monotonicity and per-record validation are enforced on the fly. The
    reader is a single pass over the trace: every iter() returns the same
    iterator, so a later loop resumes where an earlier one stopped. A file
    the reader opened from a path is closed once iteration ends, or by
    close().
    """

    def __init__(self, source):
        file = open(source, "rb") if isinstance(source, (str, Path)) else None
        try:
            blocks = _blocks(_open_for_read(source if file is None else file))
            self.header, lines, line_no = _read_header(blocks)
        except BaseException:
            if file is not None:
                file.close()
            raise
        self._file = file
        self._records = _records(blocks, lines, self.header, line_no, file)
        if file is not None:
            # A generator that never started runs no finally block, so a
            # reader dropped before its first record would leak the file.
            weakref.finalize(self._records, file.close)

    def close(self) -> None:
        """End iteration and close the file the reader opened; a caller's
        stream stays open."""
        self._records.close()
        if self._file is not None:
            self._file.close()

    def __iter__(self) -> Iterator[EventRecord]:
        return self._records


def read_trace(source) -> Trace:
    """Read a full trace (plain or gzip) into memory."""
    reader = TraceReader(source)
    return Trace(reader.header, tuple(reader))


class _CountingWriter:
    def __init__(self, inner):
        self._inner = inner
        self.count = 0

    def write(self, data: bytes) -> int:
        self._inner.write(data)
        self.count += len(data)
        return len(data)

    def flush(self) -> None:
        self._inner.flush()


_WRITE_BATCH = 1024  # lines encoded per write to the sink


def write_trace(trace: Trace, sink, compress: bool = False) -> int:
    """Write a trace; returns the number of bytes written to the sink."""
    if isinstance(sink, (str, Path)):
        with open(sink, "wb") as fh:
            return write_trace(trace, fh, compress=compress)
    counter = _CountingWriter(sink)
    out = gzip.GzipFile(fileobj=counter, mode="wb") if compress else counter
    header, records = trace.header, trace.records
    out.write(_encode_header(header).encode("utf-8"))
    for start in range(0, len(records), _WRITE_BATCH):
        lines = [encode_record(r, header) for r in records[start:start + _WRITE_BATCH]]
        out.write(("\n".join(lines) + "\n").encode("utf-8"))
    if compress:
        out.close()
    return counter.count


def trace_from_records(records: Iterable[EventRecord], header: TraceHeader | None = None) -> Trace:
    """Convenience constructor; header defaults to the first record's date."""
    recs = tuple(records)
    if header is None:
        base = recs[0].time.date() if recs else _DEFAULT_DATE
        header = TraceHeader(base_date=base)
    return Trace(header, recs)


def resequence(records: Iterable[EventRecord], start: int = 1) -> list[EventRecord]:
    """Re-stamp global sequence numbers 1..N in the given order."""
    return [r.with_seq(start + i) for i, r in enumerate(records)]
