"""Reader/writer for the text trace format and its gzip container.

A trace file is a "#LASEv1" magic line, "#key<TAB>value" header lines, then
one tab-separated record per line in the fixed column order: operation
label, time, duration (empty unless an I/O event), global sequence, ppid,
pid, tid, image path, args, file path, result (empty means OK). Text
fields escape raw tabs and newlines, and double a backslash only before
't', 'n', a backslash, a tab or a newline, so plain Windows paths are
stored verbatim. Files ending in .lase.gz (or any stream starting with
the gzip magic) are transparently decompressed.
"""

from __future__ import annotations

import functools
import gzip
import io
import re
import zlib
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import IO, Iterable, Iterator

from .errors import BadMagic, NonMonotonicSequence, TraceSyntaxError, TraceValidationError, UnknownIrp
from .events import (
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
from .irp import parse_irp_code

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


def escape_field(text: str) -> str:
    return _ESCAPE_RE.sub(_escape_match, text)


def unescape_field(text: str) -> str:
    return _UNESCAPE_RE.sub(_unescape_match, text)


def parse_timestamp(text: str, base_date: date) -> datetime:
    """Parse "HH:MM:SS:mmm" (date from header) or "YYYY/MM/DD-HH:MM:SS:mmm".

    Field widths are fixed (zero-padded), so every accepted line re-encodes
    byte-identically.
    """
    try:
        if "-" in text:
            date_part, time_part = text.split("-", 1)
            y, mo, d = date_part.split("/")
            if (len(y), len(mo), len(d)) != (4, 2, 2):
                raise ValueError("date field widths")
            day = date(int(y), int(mo), int(d))
        else:
            time_part = text
            day = base_date
        h, mi, s, ms = time_part.split(":")
        if (len(h), len(mi), len(s), len(ms)) != (2, 2, 2, 3):
            raise ValueError("time field widths")
        return datetime(day.year, day.month, day.day, int(h), int(mi), int(s), int(ms) * 1000)
    except (ValueError, IndexError):
        raise TraceSyntaxError(f"bad timestamp {text!r}", column="time") from None


def format_timestamp(when: datetime, base_date: date | None = None) -> str:
    ms = when.microsecond // 1000
    clock = f"{when.hour:02d}:{when.minute:02d}:{when.second:02d}:{ms:03d}"
    if base_date is not None and when.date() == base_date:
        return clock
    return f"{when.year:04d}/{when.month:02d}/{when.day:02d}-{clock}"


_UINT64_MAX = 2**64 - 1


def _parse_uint(text: str, column: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise TraceSyntaxError(f"expected unsigned integer, got {text!r}", column=column)
    value = int(text)
    if value > _UINT64_MAX:
        raise TraceSyntaxError(f"{column} exceeds 64 bits", column=column)
    return value


# Bounded: case and spacing variants of a label are distinct keys, so an
# adversarial file could otherwise grow the cache without limit.
@functools.lru_cache(maxsize=1024)
def _irp_kind(op: str, mode_token: str) -> Irp:
    """Shared Irp kind for an operation label and I/O mode token."""
    code = parse_irp_code(op)
    mode = _MODE_TOKENS.get(mode_token)
    if mode is None:
        raise TraceSyntaxError(f"bad I/O mode token {mode_token!r}", column="args")
    return Irp(code, mode)


def decode_line(line: str, header: TraceHeader) -> EventRecord:
    """Decode one record line into a validated EventRecord.

    Raises TraceSyntaxError for malformed fields, TraceValidationError when
    the decoded record breaks a structural invariant, and UnknownIrp for an
    unregistered operation label.
    """
    fields = line.split("\t")
    if len(fields) != len(_COLUMNS):
        raise TraceSyntaxError(
            f"expected {len(_COLUMNS)} tab-separated fields, got {len(fields)}",
            column="line",
        )
    op, time_text, dur_text, seq_text, ppid_text, pid_text, tid_text = fields[:7]
    image = unescape_field(fields[7])
    args = unescape_field(fields[8])
    file_path = unescape_field(fields[9])
    result = fields[10] or RESULT_OK

    when = parse_timestamp(time_text, header.base_date)
    seq = _parse_uint(seq_text, "global_seq")
    ppid = _parse_uint(ppid_text, "ppid")
    pid = _parse_uint(pid_text, "pid")
    tid = _parse_uint(tid_text, "tid")
    duration = _parse_uint(dur_text, "duration_us") if dur_text else None

    if op == "Annot":
        key, sep, value = args.partition("=")
        if not sep or not key:
            raise TraceSyntaxError("annotation args must be key=value", column="args")
        kind = Annotation(key, value)
        args = ""
    elif op in _KIND_BY_LABEL:
        kind = _KIND_BY_LABEL[op]
    else:
        kind = _irp_kind(op, args)
        args = ""

    record = EventRecord(
        global_seq=seq, time=when, kind=kind, pid=pid, ppid=ppid, tid=tid,
        duration_us=duration, image_path=image, args=args,
        file_path=file_path, result=result,
    )
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
        "" if record.result == RESULT_OK else record.result,
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
        try:
            y, mo, d = value.split("/")
            header_kv["base_date"] = date(int(y), int(mo), int(d))
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
    if isinstance(source, (str, Path)):
        raw: IO[bytes] = open(source, "rb")
    elif isinstance(source, (bytes, bytearray)):
        raw = io.BytesIO(bytes(source))
    else:
        raw = source
    head = raw.read(2)
    buffered = io.BufferedReader(_Prefixed(raw, head))
    if head == b"\x1f\x8b":
        return gzip.GzipFile(fileobj=buffered)  # type: ignore[return-value]
    return buffered


class TraceReader:
    """Streaming reader: exposes the header up front, then iterates records.

    Memory use is bounded by line length, not trace size. Sequence
    monotonicity and per-record validation are enforced on the fly.
    """

    def __init__(self, source):
        self._stream = _open_for_read(source)
        self._lines = self._read_lines()
        self._line_no = 0
        self._last_seq: int | None = None
        self._pending_line: str | None = None
        self.header = self._read_header()

    def _read_lines(self) -> Iterator[str]:
        pending = b""
        while True:
            try:
                chunk = self._stream.read(65536)
            except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
                raise TraceSyntaxError(f"corrupt compressed stream: {exc}",
                                       column="gzip", line_no=self._line_no) from None
            if not chunk:
                break
            lines = (pending + chunk).split(b"\n")
            pending = lines.pop()
            for line in lines:
                yield line.decode("utf-8", errors="replace")
        if pending:
            yield pending.decode("utf-8", errors="replace")

    def _read_header(self) -> TraceHeader:
        try:
            first = next(self._lines)
        except StopIteration:
            raise BadMagic("empty stream") from None
        self._line_no = 1
        if first != MAGIC:
            raise BadMagic(f"expected {MAGIC!r} magic line, got {first[:32]!r}")
        kv: dict = {}
        for line in self._lines:
            self._line_no += 1
            if line.startswith("#"):
                _parse_header_line(line, kv, self._line_no)
            else:
                self._pending_line = line
                break
        return TraceHeader(**kv)

    def _next_line(self) -> str | None:
        if self._pending_line is not None:
            line, self._pending_line = self._pending_line, None
            return line
        try:
            line = next(self._lines)
        except StopIteration:
            return None
        self._line_no += 1
        return line

    def __iter__(self) -> Iterator[EventRecord]:
        while True:
            line = self._next_line()
            if line is None:
                return
            if line == "":
                continue
            try:
                record = decode_line(line, self.header)
            except TraceSyntaxError as exc:
                raise TraceSyntaxError(str(exc), column=exc.column, line_no=self._line_no) from None
            except TraceValidationError as exc:
                raise TraceValidationError(exc.violations, line_no=self._line_no) from None
            except UnknownIrp as exc:
                raise UnknownIrp(exc.name, line_no=self._line_no) from None
            if self._last_seq is not None and record.global_seq <= self._last_seq:
                raise NonMonotonicSequence(record.global_seq, line_no=self._line_no)
            self._last_seq = record.global_seq
            yield record


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
