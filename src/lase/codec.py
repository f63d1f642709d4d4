"""Reader/writer for the text trace format and its gzip container.

A trace file is a "#LASEv1" magic line, "#key<TAB>value" header lines,
then one tab-separated record per line (a blank line is a malformed
record) in the fixed column order: operation label, time, duration (empty
unless an I/O event), global sequence, ppid, pid, tid, image path, args,
file path, result (empty means OK). Text fields (the paths, args and
result) escape raw tabs and newlines, and double a backslash only before
't', 'n', a backslash, a tab or a newline, so plain Windows paths are
stored verbatim. Numbers follow one strict grammar (ASCII digits, fixed
time widths, no sign or leading zero), so every accepted line re-encodes
to the same bytes; for the same reason an I/O label must be its exact
display form, a result is never the literal "OK", a text field holds only
escapes the rule above writes, and the text must be UTF-8. Files ending in
.lase.gz (or any stream starting with the gzip magic) are transparently
decompressed.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import re
import zlib
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NoReturn

from .errors import BadMagic, NonMonotonicSequence, TraceError, TraceSyntaxError, TraceValidationError
from .events import (
    ANNOTATION_KEYS,
    IMAGE_LOAD,
    KIND_BY_LABEL,
    KIND_NAMES,
    PROCESS_CREATE,
    PROCESS_EXIT,
    RESULT_OK,
    THREAD_CREATE,
    THREAD_EXIT,
    Annotation,
    EventRecord,
    IoMode,
    Irp,
    kind_name,
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

_ANNOTATION_LABEL = Annotation.label

# The selector name (events.KIND_NAMES) of each operation label; every
# other label is an I/O request's.
_SELECTOR_BY_LABEL = {label: kind_name(kind) for label, kind in KIND_BY_LABEL.items()}
_SELECTOR_BY_LABEL[_ANNOTATION_LABEL] = Annotation.__name__
_IRP_SELECTOR = Irp.__name__

_MODE_TOKENS = {
    "": IoMode.SYNCHRONOUS,
    "async": IoMode.ASYNCHRONOUS,
    "fastio": IoMode.FAST_IO,
    "paging": IoMode.PAGING_IO,
}
_MODE_ENCODE = {mode: token for token, mode in _MODE_TOKENS.items()}


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


# The one bound on every memo: a text key longer than MEMO_TEXT_CHARS is
# never kept, and a full memo is emptied before it keeps another key, so no
# input of distinct or long values can grow one past its size.
MEMO_TEXT_CHARS = 1024


class Memo(dict):
    """key -> fn(key), computed on a miss and kept under the bound above; a
    key whose fn raises is not kept. A hit is a plain dict subscript. fn
    gives each key one value, so threads sharing a memo need no lock: a race
    only computes a value twice or lets the memo pass its size by one per
    thread."""

    __slots__ = ("fn", "size")

    def __init__(self, fn: Callable, size: int = 4096):
        super().__init__()
        self.fn, self.size = fn, size

    def __missing__(self, key):
        value = self.fn(key)
        if not (isinstance(key, str) and len(key) > MEMO_TEXT_CHARS):
            if len(self) >= self.size:
                self.clear()
            self[key] = value
        return value


def _unescape(text: str) -> str:
    """The plain text of an escaped field, the inverse of escape_field.
    Raises ValueError for text escape_field never writes (a doubled
    backslash not followed by 't', 'n' or a backslash), which would
    re-encode to other bytes."""
    if "\\t" in text or "\\n" in text or "\\\\" in text:
        plain = _UNESCAPE_RE.sub(_unescape_match, text)
        if escape_field(plain) != text:
            raise ValueError(f"non-canonical escape in {text!r}")
        return plain
    return text


# Decoded records share one string per distinct text (a process's image
# path repeats on each of its records). The memo outlives every reader.
unescape_field = Memo(_unescape).__getitem__


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
_ESCAPED = r"([^\t\n]*)"  # a text field: a raw newline is always escaped
_UINT_RE = re.compile(_UINT)
_DATE_RE = re.compile(_DATE)
_TIME_RE = re.compile(_TIME)
_LINE_RE = re.compile("\t".join(
    [_TEXT, _TIME, f"({_UINT})?", *[f"({_UINT})"] * 4, *[_ESCAPED] * 4]))
_UINT64_MAX = 2**64 - 1
_UINT64_DIGITS = 19  # every integer this wide or narrower is at most _UINT64_MAX

_iso_date = Memo(date.isoformat, 16).__getitem__

# Per read_trace call: the records of one held trace share one int per
# distinct pid, ppid, tid and duration value (a process's pid repeats on each
# of its records, and I/O durations repeat across a trace). The table maps
# each value to the first int of it the read built and holds no text: a
# canonical id text and its value map one to one. It is freed when the call
# returns. A streaming TraceReader keeps none: its records die one at a time,
# so a table would only hold ints that nothing reads.
_ID_MEMO = 16384


def _same(value: int) -> int:
    return value


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


def _irp_kind(key: tuple[str, str]) -> Irp:
    """The Irp kind of an (operation label, I/O mode token) pair; an
    unregistered label is refused before a bad token."""
    op, mode_token = key
    code = irp_code_from_label(op)
    mode = _MODE_TOKENS.get(mode_token)
    if mode is None:
        raise TraceSyntaxError(f"bad I/O mode token {mode_token!r}", column="args")
    return Irp(code, mode)


# One shared Irp kind per (operation label, I/O mode token); only canonical
# pairs enter.
_IRP_KINDS = Memo(_irp_kind)


def _reject(line: str, header: TraceHeader) -> NoReturn:
    """Raise the error for a line that _check's line pattern, range checks
    or unescaping refused.

    Runs the per-field checks in decode order, so the error class and
    column are those of the first bad field; a raw newline in any text
    field comes before a non-canonical escape in any of them.
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
    for text, column in zip(fields[7:], _COLUMNS[7:]):
        if "\n" in text:
            raise TraceSyntaxError("raw newline in a text field", column=column)
    for text, column in zip(fields[7:], _COLUMNS[7:]):
        try:
            unescape_field(text)
        except ValueError as exc:
            raise TraceSyntaxError(str(exc), column=column) from None
    raise AssertionError(f"line pattern and field checks disagree on {line!r}")


def _check(line: str, header: TraceHeader,
           read_id: Callable[[int], int] = int) -> tuple[tuple, EventRecord | None]:
    """Run every test that can refuse a record line; return the fields
    _build makes the record from, and the record if validating built it
    (sharing its ids through read_id).

    Raises TraceSyntaxError for malformed fields, TraceValidationError when
    the record the line describes breaks a structural invariant, and
    UnknownIrp for an unregistered operation label.
    """
    match = _LINE_RE.fullmatch(line)
    if match is None:
        _reject(line, header)
    (op, year, month, day, clock, millis, duration, seq, ppid, pid, tid,
     image, args, file_path, result) = match.groups()
    # The pattern holds the clock's ranges and the header date is valid, so
    # only a dated line's own date can be out of range.
    if year is not None:
        try:
            _datetime(year, month, day, clock, millis, header.base_date)
        except ValueError:
            _reject(line, header)
    if (len(seq) > _UINT64_DIGITS or len(ppid) > _UINT64_DIGITS or len(pid) > _UINT64_DIGITS
            or len(tid) > _UINT64_DIGITS or duration is not None and len(duration) > _UINT64_DIGITS):
        if max(int(seq), int(ppid), int(pid), int(tid), int(duration or 0)) > _UINT64_MAX:
            _reject(line, header)

    try:
        image, args, file_path = unescape_field(image), unescape_field(args), unescape_field(file_path)
        text_result = unescape_field(result) if result else RESULT_OK
    except ValueError:
        _reject(line, header)

    # Each branch sets `proven` where the line leaves validate_record
    # nothing to find: the pattern already rules out NEGATIVE_ID and
    # NEGATIVE_DURATION, and a text field is empty exactly when its escaped
    # form is. Any other line is built and checked, so errors carry the
    # full list.
    if op == _ANNOTATION_LABEL:
        key, sep, value = args.partition("=")
        if not sep or not key:
            raise TraceSyntaxError("annotation args must be key=value", column="args")
        kind = Annotation(key, value)
        args = ""
        proven = duration is None and key in ANNOTATION_KEYS
    elif op in KIND_BY_LABEL:
        kind = KIND_BY_LABEL[op]
        proven = duration is None and (
            kind is PROCESS_EXIT or kind is IMAGE_LOAD and file_path != ""
            or kind is PROCESS_CREATE and image != "" and tid == "0"
            or (kind is THREAD_CREATE or kind is THREAD_EXIT) and tid != "0")
    else:
        kind = _IRP_KINDS[op, args]
        args = ""
        proven = file_path != "" and kind.mode is not IoMode.FAST_IO
    if result == RESULT_OK:
        raise TraceSyntaxError("a result of OK is written as an empty column", column="result")

    checked = (year, month, day, clock, millis, duration, seq, ppid, pid, tid, kind, image, args,
               file_path, text_result)
    if proven:
        return checked, None
    record = _build(checked, header, read_id)
    violations = validate_record(record)
    if violations:
        raise TraceValidationError(violations)
    return checked, record


_CHECKED_SEQ = 6  # where _check's tuple holds the sequence number


def _build(checked: tuple, header: TraceHeader, read_id: Callable[[int], int] = int) -> EventRecord:
    """The record of a line _check accepted; read_id maps the value of each
    pid, ppid, tid and duration to the int the record holds."""
    (year, month, day, clock, millis, duration, seq, ppid, pid, tid, kind, image, args, file_path,
     result) = checked
    return EventRecord(int(seq), _datetime(year, month, day, clock, millis, header.base_date), kind,
                       read_id(int(pid)), read_id(int(ppid)), read_id(int(tid)),
                       None if duration is None else read_id(int(duration)),
                       image, args, file_path, result)


def decode_line(line: str, header: TraceHeader, read_id: Callable[[int], int] = int) -> EventRecord:
    """Decode one record line into a validated EventRecord; raises what
    _check raises. read_id maps the value of each pid, ppid, tid and
    duration to the int the record holds (a reader passes its shared
    table's lookup; the default keeps each value's own int)."""
    checked, record = _check(line, header, read_id)
    return _build(checked, header, read_id) if record is None else record


def encode_record(record: EventRecord, header: TraceHeader | None = None) -> str:
    """Encode a well-formed record as one trace line (no newline).

    Exact inverse of decode_line; when a header is given, timestamps on the
    header's base date use the short time-only form.
    """
    return _encode(record, format_timestamp(record.time, header.base_date if header else None))


def _encode(record: EventRecord, time_text: str) -> str:
    """The line of a record whose time column reads time_text."""
    kind = record.kind
    if isinstance(kind, Annotation):
        args = f"{kind.key}={kind.value}"
    elif isinstance(kind, Irp):
        args = _MODE_ENCODE[kind.mode]
    else:
        args = record.args
    fields = (
        op_label(kind),
        time_text,
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


def _timestamp_formatter(base_date: date) -> Callable[[datetime], str]:
    """format_timestamp(when, base_date) for one write: the text up to the
    milliseconds is formatted once per second and reused while the records
    stay in that second."""
    last_second, prefix = None, ""

    def stamp(when: datetime) -> str:
        nonlocal last_second, prefix
        second = (when.second, when.minute, when.hour, when.day, when.month, when.year)
        if second != last_second:
            last_second = second
            prefix = format_timestamp(when, base_date)[:-3]  # up to and with the last ':'
        return f"{prefix}{when.microsecond // 1000:03d}"

    return stamp


def _encode_header(header: TraceHeader) -> str:
    d = header.base_date
    lines = [MAGIC, f"#date\t{d.year:04d}/{d.month:02d}/{d.day:02d}"]
    if header.host_label:
        lines.append(f"#host\t{escape_field(header.host_label)}")
    lines.append(f"#env\t{header.environment}")
    return "\n".join(lines) + "\n"


def _parse_header_line(line: str, header_kv: dict) -> None:
    key, _, value = line[1:].partition("\t")
    if key == "date":
        match = _DATE_RE.fullmatch(value)
        try:
            if match is None:
                raise ValueError(value)
            header_kv["base_date"] = date(*map(int, match.groups()))
        except ValueError:
            raise TraceSyntaxError(f"bad header date {value!r}", column="date") from None
    elif key == "host":
        try:
            header_kv["host_label"] = unescape_field(value)
        except ValueError as exc:
            raise TraceSyntaxError(str(exc), column="host") from None
    elif key == "env":
        if value not in ENVIRONMENTS:
            raise TraceSyntaxError(f"bad environment {value!r}", column="env")
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


def _decoded(data: bytes, end: int) -> Iterator[list[str]]:
    """The lines of data[:end], decoded as UTF-8.

    At the first line that is not valid UTF-8, yields the lines before it
    and then raises TraceSyntaxError(column="encoding"), so an earlier bad
    line is still reported first.
    """
    try:
        lines = data[:end].decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1
        if start:
            yield data[:start - 1].decode("utf-8").split("\n")
        raise TraceSyntaxError(f"invalid UTF-8 ({exc.reason})", column="encoding") from None
    yield lines


def _blocks(stream: IO[bytes]) -> Iterator[list[str]]:
    """The complete lines of each block read from stream, decoded at once.

    Only each new chunk is searched for a newline; chunks without one are
    kept apart and joined once a newline comes, so a long line costs time
    linear in its length."""
    pending = b""
    unfinished: list[bytes] = []  # chunks with no newline, read after pending
    try:
        while chunk := stream.read(_BLOCK):
            end = chunk.rfind(b"\n")
            if end < 0:
                unfinished.append(chunk)
                continue
            if unfinished:
                pending += b"".join(unfinished)
                unfinished = []
            data = pending + chunk
            end += len(pending)
            pending = data[end + 1:]
            yield from _decoded(data, end)
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise TraceSyntaxError(f"corrupt compressed stream: {exc}", column="gzip") from None
    pending += b"".join(unfinished)
    if pending:
        yield from _decoded(pending, len(pending))


def _read(source, kinds: frozenset[str] | None, counted: list[int],
          read_id: Callable[[int], int]) -> Iterator[TraceHeader | EventRecord]:
    """The header, then the records (with kinds, those of the selected kinds
    and the first, checking the rest), each id mapped through read_id; counts
    every record line in counted[0]. Closes a file opened from a path however
    the read ends, and gives every TraceError the number of the line being
    read."""
    file = open(source, "rb") if isinstance(source, (str, Path)) else None
    line_no = 1  # counted up once a line is done, so a failed stream names the next
    try:
        lines = itertools.chain.from_iterable(_blocks(_open_for_read(source if file is None else file)))
        line = next(lines, None)
        if line != MAGIC:
            if line is None:
                line_no = None  # an empty stream has no line to name
            raise BadMagic("empty stream" if line is None else
                           f"expected {MAGIC!r} magic line, got {line[:32]!r}")
        line_no += 1
        kv: dict = {}
        records = lines  # the lines from the first record line on
        for line in lines:
            if not line.startswith("#"):
                records = itertools.chain([line], lines)
                break
            _parse_header_line(line, kv)
            line_no += 1
        header = TraceHeader(**kv)
        yield header

        last_seq = -1
        for line in records:
            # last_seq < 0 until the first record line, which is built.
            if (kinds is None or last_seq < 0
                    or _SELECTOR_BY_LABEL.get(line.partition("\t")[0], _IRP_SELECTOR) in kinds):
                record = decode_line(line, header, read_id)
                seq = record.global_seq
            else:
                record, seq = None, int(_check(line, header)[0][_CHECKED_SEQ])
            if seq <= last_seq:
                raise NonMonotonicSequence(seq)
            last_seq = seq
            counted[0] += 1
            line_no += 1
            if record is not None:
                yield record
    except TraceError as exc:
        exc.line_no = line_no
        raise
    finally:
        if file is not None:
            file.close()


class TraceReader:
    """Streaming reader: exposes the header up front, then iterates records.

    Memory use is bounded by line length and by the text memo, not by
    trace size. Each record keeps its own id ints: records read one at a
    time are freed one at a time, so the reader keeps no id table (see
    read_trace). Sequence monotonicity and per-record validation are
    enforced on the fly. The reader is a single pass over the trace: every
    iter() returns the same iterator, so a later loop resumes where an
    earlier one stopped. A file the reader opened from a path is closed
    once iteration ends, by close(), or when the reader is dropped.

    kinds, a set of selector names from events.KIND_NAMES, limits the
    records built: a line of any other kind is checked as strictly and
    counted, but yields nothing. The first record line is always built, as
    it dates the trace. len() is the number of record lines read so far.
    Trace(reader.header, reader) streams the records into an analysis that
    loops over trace.records once: each is freed unless the analysis keeps it.
    """

    def __init__(self, source, kinds: Iterable[str] | None = None):
        if kinds is not None:
            kinds = frozenset(kinds)
            if not kinds <= KIND_NAMES:
                raise ValueError(f"unknown event kinds {sorted(kinds - KIND_NAMES)}")
        self._counted = [0]
        self._records = _read(source, kinds, self._counted, int)
        # Taking the header starts the generator: its finally runs however the reader ends.
        self.header: TraceHeader = next(self._records)

    def __len__(self) -> int:
        return self._counted[0]

    def close(self) -> None:
        """End iteration and close the file the reader opened; a caller's
        stream stays open."""
        self._records.close()

    def __iter__(self) -> Iterator[EventRecord]:
        return self._records


def read_trace(source) -> Trace:
    """Read a full trace (plain or gzip) into memory. The records share one
    int per distinct id value, through a table of at most _ID_MEMO ints that
    is freed when the call returns."""
    records = _read(source, None, [0], Memo(_same, _ID_MEMO).__getitem__)
    header = next(records)
    return Trace(header, tuple(records))


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
# zlib's default level, not GzipFile's 9: about twice as fast to write, for
# files about 5% larger.
_GZIP_LEVEL = 6


def write_trace(trace: Trace, sink, compress: bool = False) -> int:
    """Write a trace; returns the number of bytes written to the sink."""
    if isinstance(sink, (str, Path)):
        with open(sink, "wb") as fh:
            return write_trace(trace, fh, compress=compress)
    counter = _CountingWriter(sink)
    # The gzip stream is closed even when the sink fails, so that no
    # finalizer writes to the sink later.
    with (gzip.GzipFile(fileobj=counter, mode="wb", compresslevel=_GZIP_LEVEL, mtime=0)
          if compress else contextlib.nullcontext(counter)) as out:
        header, records = trace.header, trace.records
        stamp = _timestamp_formatter(header.base_date)
        out.write(_encode_header(header).encode("utf-8"))
        for start in range(0, len(records), _WRITE_BATCH):
            lines = [_encode(r, stamp(r.time)) for r in records[start:start + _WRITE_BATCH]]
            out.write(("\n".join(lines) + "\n").encode("utf-8"))
    return counter.count


def trace_from_records(records: Iterable[EventRecord], header: TraceHeader | None = None) -> Trace:
    """Convenience constructor; header defaults to the first record's date."""
    recs = tuple(records)
    if header is None:
        base = recs[0].time.date() if recs else _DEFAULT_DATE
        header = TraceHeader(base_date=base)
    return Trace(header, recs)


def resequence(records: Iterable[EventRecord]) -> list[EventRecord]:
    """Re-stamp global sequence numbers 1..N in the given order."""
    return [r.with_seq(seq) for seq, r in enumerate(records, 1)]
