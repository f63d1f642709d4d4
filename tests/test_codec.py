from __future__ import annotations

import contextlib
import dataclasses
import gc
import gzip
import io
import random
import time
import tracemalloc
import weakref
import zlib
from datetime import date, datetime, timedelta
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_record, random_trace

from lase import codec
from lase.codec import (
    MAGIC,
    MEMO_TEXT_CHARS,
    Memo,
    Trace,
    TraceHeader,
    TraceReader,
    decode_line,
    encode_record,
    escape_field,
    format_timestamp,
    parse_timestamp,
    read_trace,
    resequence,
    unescape_field,
    write_trace,
)
from lase.errors import (
    BadMagic,
    LaseError,
    NonMonotonicSequence,
    TraceError,
    TraceSyntaxError,
    TraceValidationError,
    UnknownIrp,
)
from lase.events import (
    KIND_BY_LABEL,
    KIND_NAMES,
    PROCESS_CREATE,
    Annotation,
    EventRecord,
    IoMode,
    Irp,
    ProcessCreate,
    Violation,
    kind_name,
    validate_record,
)
from lase.irp import MAJOR_REGISTRY, MINOR_REGISTRY, IrpCode
from lase.pipeline import WorkloadSpec, run_synthetic

HEADER = TraceHeader(base_date=date(2018, 10, 1))

# Transcribed fixture lines (first process row; file-plane write row).
LINE_PR_CREATE = (
    "Pr Create\t20:51:45:628\t\t183668\t5480\t10092\t0"
    "\t%MSOffice%\\EXCEL.EXE\t/dde\t\t"
)
LINE_IRP_WRITE = (
    "IRP_Write\t20:57:44:237\t3432\t708409\t0\t10464\t2844"
    "\t%SysWOW64%\\cscript.exe\t\tC:\\ProgramData\\Podaliri4.exe\t"
)


def test_decode_process_create_line():
    record = decode_line(LINE_PR_CREATE, HEADER)
    assert isinstance(record.kind, ProcessCreate)
    assert record.global_seq == 183668
    assert record.ppid == 5480
    assert record.pid == 10092
    assert record.tid == 0
    assert record.args == "/dde"
    assert record.image_path == "%MSOffice%\\EXCEL.EXE"
    assert record.duration_us is None
    assert record.result == "OK"
    assert record.time == datetime(2018, 10, 1, 20, 51, 45, 628000)


def test_decode_irp_write_line():
    record = decode_line(LINE_IRP_WRITE, HEADER)
    assert isinstance(record.kind, Irp)
    assert record.kind.code.major == "IRP_MJ_WRITE"
    assert record.kind.mode is IoMode.SYNCHRONOUS
    assert record.duration_us == 3432
    assert record.file_path == "C:\\ProgramData\\Podaliri4.exe"
    assert record.tid == 2844


@pytest.mark.parametrize("line", [LINE_PR_CREATE, LINE_IRP_WRITE])
def test_encode_is_inverse_on_fixture_lines(line):
    assert encode_record(decode_line(line, HEADER), HEADER) == line


def test_fixture_file_round_trips_byte_identically(fixture_path, fixture_trace):
    out = io.BytesIO()
    write_trace(fixture_trace, out)
    assert out.getvalue() == fixture_path.read_bytes()


def test_fixture_has_38_records(fixture_trace):
    assert len(fixture_trace) == 38


def test_annotation_line_round_trip():
    header = TraceHeader(base_date=date(2024, 1, 2))
    line = "Annot\t09:00:00:000\t\t5\t0\t44\t0\tC:\\x.exe\tapi=RDTSC\t\t"
    record = decode_line(line, header)
    assert record.kind == Annotation("api", "RDTSC")
    assert encode_record(record, header) == line
    for label, kind in KIND_BY_LABEL.items():
        tid = "0" if kind is PROCESS_CREATE else "3"
        line = f"{label}\t09:00:00:000\t\t5\t0\t44\t{tid}\tC:\\x.exe\t/c\tC:\\f\t"
        record = decode_line(line, header)
        assert record.kind is kind
        assert encode_record(record, header) == line


def test_io_mode_tokens_round_trip():
    header = TraceHeader(base_date=date(2024, 1, 2))
    line = "IRP_Read\t09:00:00:000\t12\t5\t0\t44\t0\tC:\\x.exe\tasync\tC:\\f\t"
    record = decode_line(line, header)
    assert record.kind.mode is IoMode.ASYNCHRONOUS
    assert encode_record(record, header) == line
    with pytest.raises(TraceSyntaxError):
        decode_line(line.replace("async", "sideways"), header)
    codes = [IrpCode(major) for major in MAJOR_REGISTRY]
    codes += [IrpCode("IRP_MJ_DIRECTORY_CONTROL", minor) for minor in MINOR_REGISTRY]
    for code in codes:
        for token in ("", "async", "fastio", "paging"):
            line = f"{code.label}\t09:00:00:000\t12\t5\t0\t44\t0\tC:\\x.exe\t{token}\tC:\\f\t"
            if token == "fastio" and code.minor is not None:
                with pytest.raises(TraceValidationError):
                    decode_line(line, header)
                continue
            record = decode_line(line, header)
            assert record.kind.code == code
            assert encode_record(record, header) == line


def test_minor_code_round_trips_in_operation_column():
    header = TraceHeader(base_date=date(2024, 1, 2))
    line = ("IRP_Directory_Control/Query_Directory\t09:00:00:000\t12\t5\t0\t44\t0"
            "\tC:\\x.exe\t\tC:\\dir\t")
    record = decode_line(line, header)
    assert record.kind.code.minor == "IRP_MN_QUERY_DIRECTORY"
    assert encode_record(record, header) == line


def test_result_token_round_trip():
    header = TraceHeader(base_date=date(2024, 1, 2))
    line = "IRP_Write\t09:00:00:000\t\t5\t0\t44\t0\tC:\\x.exe\t\t\tACCESS_DENIED"
    record = decode_line(line, header)
    assert record.result == "ACCESS_DENIED"
    assert record.file_path == ""
    assert encode_record(record, header) == line


@pytest.mark.parametrize("result", ["A\tB", "A\nB", "A\\tB", "TAIL\\", "\\\\n"])
def test_result_text_round_trips_like_other_fields(result):
    record = EventRecord(5, datetime(2024, 1, 2, 9), Irp(IrpCode("IRP_MJ_WRITE")), pid=44,
                         image_path="C:\\x.exe", result=result)
    header = TraceHeader(base_date=date(2024, 1, 2))
    line = encode_record(record, header)
    assert line.count("\t") == 10 and "\n" not in line
    assert line.rsplit("\t", 1)[1] == escape_field(result)
    assert decode_line(line, header) == record


def test_decode_rejects_negative_duration():
    bad = LINE_IRP_WRITE.replace("\t3432\t", "\t-1\t")
    with pytest.raises(TraceSyntaxError):
        decode_line(bad, HEADER)


def test_decode_rejects_wrong_column_count():
    with pytest.raises(TraceSyntaxError):
        decode_line("Pr Create\tonly\tthree", HEADER)


def test_decode_flags_invariant_violations():
    no_image = "Pr Create\t10:00:00:000\t\t1\t4\t10\t0\t\t\t\t"
    with pytest.raises(TraceValidationError):
        decode_line(no_image, HEADER)


def test_timestamp_forms():
    base = date(2018, 10, 1)
    short = parse_timestamp("20:51:45:628", base)
    assert short == datetime(2018, 10, 1, 20, 51, 45, 628000)
    full = parse_timestamp("2023/04/24-16:57:24:297", base)
    assert full == datetime(2023, 4, 24, 16, 57, 24, 297000)
    assert format_timestamp(short, base) == "20:51:45:628"
    assert format_timestamp(full, base) == "2023/04/24-16:57:24:297"


@pytest.mark.parametrize("bad", [
    "20:51:45", "20:51:45:62", "9:51:45:628", "20:51:45:6281",
    "2023/4/24-16:57:24:297", "23/04/24-16:57:24:297", "x", "::::",
])
def test_timestamp_rejects_non_canonical_widths(bad):
    with pytest.raises(TraceSyntaxError):
        parse_timestamp(bad, date(2018, 10, 1))


def test_uint_fields_bounded_to_64_bits():
    line = LINE_IRP_WRITE.replace("\t708409\t", f"\t{2**64}\t")
    with pytest.raises(TraceSyntaxError):
        decode_line(line, HEADER)


def test_encode_off_date_record_uses_full_timestamp():
    header = TraceHeader(base_date=date(2024, 1, 2))
    record = decode_line("Pr Exit\t2024/01/03-01:02:03:004\t\t9\t0\t5\t0\tC:\\x.exe\t\t\t", header)
    line = encode_record(record, header)
    assert line.startswith("Pr Exit\t2024/01/03-01:02:03:004")
    assert decode_line(line, header) == record


def test_random_records_round_trip_through_lines():
    rng = random.Random(99)
    header = TraceHeader(base_date=date(2024, 5, 6))
    for seq in range(1, 301):
        record = random_record(rng, seq)
        line = encode_record(record, header)
        assert "\n" not in line
        assert decode_line(line, header) == record


def test_random_traces_round_trip_through_files():
    rng = random.Random(5)
    for _ in range(5):
        trace = random_trace(rng, 60)
        for compress in (False, True):
            buf = io.BytesIO()
            write_trace(trace, buf, compress=compress)
            again = read_trace(buf.getvalue())
            assert again == trace


def test_compressed_fixture_is_smaller(fixture_trace):
    plain, packed = io.BytesIO(), io.BytesIO()
    n_plain = write_trace(fixture_trace, plain)
    n_packed = write_trace(fixture_trace, packed, compress=True)
    assert n_packed < n_plain
    assert read_trace(packed.getvalue()) == fixture_trace


def test_compressed_output_does_not_depend_on_the_clock(fixture_trace, monkeypatch):
    """The gzip header holds no time of writing, so the same trace
    compresses to the same bytes whenever it is written."""
    outputs = []
    for now in (0.0, 1_700_000_000.0):
        monkeypatch.setattr(gzip, "time", SimpleNamespace(time=lambda: now))
        packed = io.BytesIO()
        write_trace(fixture_trace, packed, compress=True)
        outputs.append(packed.getvalue())
    assert outputs[0] == outputs[1]


# Steps between consecutive times: within a second, across a few seconds,
# and across days (so off the base date and over midnight and New Year).
_TIME_STEPS_US = st.one_of(st.integers(-1500, 1500), st.integers(-3_000_000, 3_000_000),
                           st.integers(-2 * 86_400_000_000, 2 * 86_400_000_000))


@settings(max_examples=400, deadline=None)
@given(st.datetimes(min_value=datetime(1, 6, 1), max_value=datetime(9999, 8, 1)),
       st.integers(-2, 2), st.lists(_TIME_STEPS_US, max_size=40))
@example(datetime(1999, 12, 31, 23, 59, 59, 998_500), 0, [500, 1000, -1000, 1000, 86_400_000_000])
@example(datetime(999, 3, 1, 0, 0, 0, 1), 1, [-1, 999, 1000, 86_400_000_000, -3])
@example(datetime(2024, 3, 1, 9, 0, 0), 0,
         [1000] * 5 + [-1000] * 5 + [1_000_000, 1, -1_000_000, 60_000_000, 3_600_000_000])
@example(datetime(2021, 1, 1, 12, 0, 0, 5000), 0, [31 * 86_400_000_000, 365 * 86_400_000_000])
def test_per_second_formatter_is_format_timestamp(start, base_offset, steps):
    base_date = start.date() + timedelta(days=base_offset)
    stamp = codec._timestamp_formatter(base_date)
    when = start
    for step in [0, *steps]:
        when += timedelta(microseconds=step)
        assert stamp(when) == format_timestamp(when, base_date)


def test_write_trace_writes_the_lines_encode_record_writes():
    rng = random.Random(23)
    start = when = datetime(2024, 5, 6, 23, 59, 58)
    records = []
    for record in random_trace(rng, 400).records:
        when += timedelta(microseconds=rng.choice([0, 1, 999, 1000, 400_000, -1000, 3_600_000_000]))
        records.append(dataclasses.replace(record, time=when))
    trace = Trace(TraceHeader(base_date=start.date()), tuple(records))
    buf = io.BytesIO()
    write_trace(trace, buf)
    lines = buf.getvalue().decode().split("\n")
    assert lines[-len(records) - 1:] == [encode_record(r, trace.header) for r in records] + [""]


def test_compressed_output_is_gzip_level_6(fixture_trace):
    """Level 6 writes about twice as fast as GzipFile's default 9, for
    files about 5% larger; the text inside is the same."""
    plain, packed = io.BytesIO(), io.BytesIO()
    write_trace(fixture_trace, plain)
    write_trace(fixture_trace, packed, compress=True)
    level_6 = io.BytesIO()
    with gzip.GzipFile(fileobj=level_6, mode="wb", compresslevel=6, mtime=0) as out:
        out.write(plain.getvalue())
    assert packed.getvalue() == level_6.getvalue()


def test_empty_trace_is_header_only():
    trace = Trace(TraceHeader(base_date=date(2024, 1, 1)), ())
    buf = io.BytesIO()
    write_trace(trace, buf)
    body = buf.getvalue().decode()
    assert body.startswith("#LASEv1\n")
    assert all(line.startswith("#") for line in body.strip().splitlines())
    assert len(read_trace(buf.getvalue())) == 0


def test_bad_magic():
    with pytest.raises(BadMagic):
        read_trace(b"not a trace\n")
    with pytest.raises(BadMagic):
        read_trace(b"")


def test_swapped_lines_raise_non_monotonic(fixture_path):
    lines = fixture_path.read_bytes().decode().splitlines()
    header_len = sum(1 for line in lines if line.startswith("#"))
    body = lines[header_len:]
    body[0], body[1] = body[1], body[0]
    data = "\n".join(lines[:header_len] + body) + "\n"
    with pytest.raises(NonMonotonicSequence):
        read_trace(data.encode())


_IRP_LINE = "IRP_Read\t09:00:00:000\t5\t{seq}\t0\t44\t0\tC:\\x.exe\t\tC:\\f\t"


def _trace_text(*body: str) -> bytes:
    return ("#LASEv1\n#date\t2024/01/01\n" + "\n".join(body) + "\n").encode()


def test_non_monotonic_error_carries_line_number():
    data = _trace_text(_IRP_LINE.format(seq=1), _IRP_LINE.format(seq=5), _IRP_LINE.format(seq=5))
    with pytest.raises(NonMonotonicSequence) as exc:
        read_trace(data)
    assert exc.value.at_seq == 5
    assert exc.value.line_no == 5
    assert "line 5" in str(exc.value)


def test_unknown_irp_error_carries_line_number():
    bogus = _IRP_LINE.format(seq=2).replace("IRP_Read", "IRP_Bogus")
    data = _trace_text(_IRP_LINE.format(seq=1), bogus)
    with pytest.raises(UnknownIrp) as exc:
        read_trace(data)
    assert exc.value.name == "IRP_Bogus"
    assert exc.value.line_no == 4
    assert "line 4" in str(exc.value)


def test_gzip_autodetected_regardless_of_name(tmp_path, fixture_trace):
    path = tmp_path / "oddname.bin"
    write_trace(fixture_trace, path, compress=True)
    assert path.read_bytes()[:2] == b"\x1f\x8b"
    assert read_trace(path) == fixture_trace


def test_reader_is_streaming(fixture_path):
    reader = TraceReader(fixture_path)
    first = next(iter(reader))
    assert first.global_seq == 183668  # header available before full scan
    assert reader.header.base_date == date(2018, 10, 1)


class _MeteredStream:
    """Serves a header plus a very long body, counting bytes handed out."""

    def __init__(self, total_lines: int):
        header = b"#LASEv1\n#date\t2024/01/01\n"
        body = (f"IRP_Read\t09:00:00:000\t5\t{seq}\t0\t44\t0\tC:\\x.exe\t\tC:\\f\t\n"
                for seq in range(1, total_lines + 1))
        self._chunks = iter([header] + [line.encode() for line in body])
        self._buffer = b""
        self.served = 0

    def read(self, n: int) -> bytes:
        while len(self._buffer) < n:
            try:
                self._buffer += next(self._chunks)
            except StopIteration:
                break
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        self.served += len(out)
        return out


def test_reader_memory_bounded_by_chunk_not_trace_size():
    stream = _MeteredStream(total_lines=500_000)  # ~25 MB if fully read
    reader = TraceReader(stream)
    it = iter(reader)
    for _ in range(10):
        next(it)
    assert stream.served <= 3 * 65536  # a few read buffers, not the trace


def test_a_long_line_costs_linear_time():
    """Each block is searched for a newline once, so a stream with no
    newline reaches its BadMagic in a fraction of a second. Searching all
    the pending bytes at every block is quadratic: several seconds here."""
    stream = io.BytesIO(MAGIC.encode() + b"x" * (32 << 20))
    started = time.process_time()
    with pytest.raises(BadMagic):
        TraceReader(stream)
    assert time.process_time() - started < 3.0


@pytest.mark.parametrize("compress", [False, True])
def test_a_line_longer_than_several_blocks_round_trips(compress):
    trace = random_trace(random.Random(8), 40)
    long_path = "C:\\" + "x" * (3 * codec._BLOCK + 17)
    records = list(trace.records)
    records[20] = dataclasses.replace(records[20], image_path=long_path)
    trace = Trace(trace.header, tuple(records))
    buf = io.BytesIO()
    write_trace(trace, buf, compress=compress)
    assert read_trace(buf.getvalue()) == trace


def test_resequence():
    rng = random.Random(3)
    trace = random_trace(rng, 10)
    reseq = resequence(trace.records)
    assert [r.global_seq for r in reseq] == list(range(1, 11))


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60))
def test_escape_round_trip(text):
    escaped = escape_field(text)
    assert "\t" not in escaped and "\n" not in escaped
    assert unescape_field(escaped) == text


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="ab\\tn\t\n", max_size=16))
@example("\\\n")
@example("\\\t")
def test_escape_round_trip_backslash_alphabet(text):
    # A backslash before a raw TAB or LF must survive; the full-Unicode
    # round trip above rarely draws that pair.
    escaped = escape_field(text)
    assert "\t" not in escaped and "\n" not in escaped
    assert unescape_field(escaped) == text


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="ab\\tnT", max_size=12))
@example("\\\\T")
@example("C:\\\\")
def test_unescape_accepts_only_what_escape_writes(escaped):
    # A text unescape_field accepts must re-encode to the same bytes.
    try:
        text = unescape_field(escaped)
    except ValueError:
        with pytest.raises(ValueError):
            unescape_field(escaped)  # the refusal is not cached as a result
        return
    assert escape_field(text) == escaped


def _memo_value(key):
    """A value per key, refused for some keys of each type."""
    if key in (-1, "!", (0, "!")):
        raise ValueError(key)
    return ("value", key)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.text(alphabet="ab!", max_size=2),
    st.text(alphabet="ab", max_size=2).map(lambda tail: "x" * MEMO_TEXT_CHARS + tail),
    st.integers(-1, 6),
    st.tuples(st.integers(0, 1), st.sampled_from(["", "!", "a"])),
), max_size=40))
def test_memo_keeps_values_under_its_one_bound(keys):
    size = 4
    memo = Memo(_memo_value, size)
    for key in keys:
        held, had = len(memo), key in memo
        try:
            want = _memo_value(key)
        except ValueError:
            with pytest.raises(ValueError):
                memo[key]
            assert key not in memo and len(memo) == held
            continue
        assert memo[key] == want
        long = isinstance(key, str) and len(key) > MEMO_TEXT_CHARS
        assert (key in memo) == (not long)
        if not had and not long:
            assert len(memo) == (1 if held == size else held + 1)  # a full memo is emptied first
        assert len(memo) <= size
        assert not any(isinstance(k, str) and len(k) > MEMO_TEXT_CHARS for k in memo)


def test_header_host_with_a_non_canonical_escape_is_refused():
    with pytest.raises(TraceSyntaxError) as exc:
        read_trace(b"#LASEv1\n#date\t2024/01/01\n#host\tlab\\\\x\n")
    assert (exc.value.column, exc.value.line_no) == ("host", 3)


def test_escape_keeps_plain_windows_paths_verbatim():
    for path in ("%MSOffice%\\EXCEL.EXE", "C:\\Users\\grace\\AppData\\Local\\Temp\\xx",
                 "mp\\q v& WSCrIpT mp\\v?..wsf C"):
        assert escape_field(path) == path


def test_escape_handles_backslash_t_lookalikes():
    assert escape_field("C:\\temp") == "C:\\\\temp"
    assert unescape_field("C:\\\\temp") == "C:\\temp"
    assert unescape_field(escape_field("a\tb")) == "a\tb"


def test_fuzz_decode_line_never_crashes():
    rng = random.Random(2024)
    for _ in range(5000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        line = raw.decode("latin-1")
        try:
            decode_line(line, HEADER)
        except LaseError:
            pass


def test_fuzz_read_trace_structured_errors_only(fixture_trace):
    rng = random.Random(7)
    packed = io.BytesIO()
    write_trace(fixture_trace, packed, compress=True)
    gz = packed.getvalue()
    blobs = [
        b"", b"\x1f\x8b", b"\x1f\x8b\x08\x00garbage",
        gz[: len(gz) // 2],                      # truncated gzip
        gz[:10] + b"\x00\xff" + gz[12:],         # corrupted gzip body
    ]
    blobs += [bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
              for _ in range(200)]
    for blob in blobs:
        try:
            read_trace(blob)
        except LaseError:
            pass


# Decode errors, pinned by class and column (None for errors without one).
# Columns in order: operation, time, duration_us, global_seq, ppid, pid, tid,
# image_path, args, file_path, result.
_COLS = ("operation", "time", "duration_us", "global_seq", "ppid", "pid", "tid",
         "image_path", "args", "file_path", "result")
_BASE_IRP = ("IRP_Read", "09:00:00:000", "5", "7", "1", "44", "3", "C:\\x.exe", "", "C:\\f", "")


def _line(**fields) -> str:
    row = dict(zip(_COLS, _BASE_IRP))
    row.update(fields)
    return "\t".join(row[c] for c in _COLS)


_TIME_ERRORS = [
    # short form: bad text and out-of-range values in each sub-field
    "x9:00:00:000", "09:x0:00:000", "09:00:x0:000", "09:00:00:x00",
    "24:00:00:000", "09:60:00:000", "09:00:60:000", "9:00:00:000", "09:00:00:00",
    "09:00:00", "09-00-00-000", "",
    # dated form
    "202x/01/01-09:00:00:000", "2024/x1/01-09:00:00:000", "2024/01/x1-09:00:00:000",
    "0000/01/01-09:00:00:000", "2024/13/01-09:00:00:000", "2024/00/01-09:00:00:000",
    "2024/02/30-09:00:00:000", "2024/01/00-09:00:00:000", "24/01/01-09:00:00:000",
    "2024/01/01-25:00:00:000", "2024/01/01-09:61:00:000", "2024/01/01-09:00:61:000",
    "2024/01/01-09:00:00:0x0", "2024/01/01-09:00:00", "2024/01/01", "2024/01/01-",
]

_NON_CANONICAL_LABELS = (
    "irp_read", "IRP_READ", "IRP_MJ_READ", "IRP_Read ", " IRP_Read", "IRP_Read/",
    "IRP_Directory_Control/query_directory", "IRP_Directory_Control/IRP_MN_QUERY_DIRECTORY",
    "IRP_Directory_Control/ Query_Directory", "IRP_Directory_Control/Query_Directory/Query_Directory",
)

_DECODE_ERRORS = (
    [("a\tb\tc", TraceSyntaxError, "line"),
     (_line() + "\textra", TraceSyntaxError, "line"),
     ("", TraceSyntaxError, "line")]
    + [(_line(time=t), TraceSyntaxError, "time") for t in _TIME_ERRORS]
    + [(_line(**{col: bad}), TraceSyntaxError, col)
       for col in ("duration_us", "global_seq", "ppid", "pid", "tid")
       for bad in ("x", "-1", str(2**64), "1x", "")
       if not (col == "duration_us" and bad == "")]
    + [(_line(args="sideways"), TraceSyntaxError, "args"),
       (_line(operation="IRP_Bogus"), UnknownIrp, None),
       (_line(operation="IRP_Bogus", args="sideways"), UnknownIrp, None),
       (_line(operation="Annot", duration_us="", args="apiRDTSC", file_path=""), TraceSyntaxError, "args"),
       (_line(operation="Annot", duration_us="", args="=RDTSC", file_path=""), TraceSyntaxError, "args"),
       (_line(operation="Pr Create", duration_us="", tid="0", image_path=""), TraceValidationError, None),
       (_line(file_path=""), TraceValidationError, None),
       # with two faults in one line, the earlier check wins
       (_line(time="x", pid="x"), TraceSyntaxError, "time"),
       (_line(global_seq="x", tid="x"), TraceSyntaxError, "global_seq"),
       (_line(tid="x", duration_us="x"), TraceSyntaxError, "tid"),
       (_line(duration_us=str(2**64), operation="IRP_Bogus"), TraceSyntaxError, "duration_us"),
       (_line(time="24:00:00:000", ppid=str(2**64)), TraceSyntaxError, "time"),
       (_line(ppid=str(2**64), pid="x"), TraceSyntaxError, "ppid"),
       (_line(operation="IRP_Bogus", file_path=""), UnknownIrp, None),
       (_line(args="sideways", file_path=""), TraceSyntaxError, "args"),
       # a literal OK result would re-encode as an empty column
       (_line(result="OK"), TraceSyntaxError, "result"),
       (_line(result="OK", file_path=""), TraceSyntaxError, "result"),
       (_line(operation="IRP_READ", result="OK"), UnknownIrp, None)]
    # only the canonical display label (IrpCode.label) names an I/O request
    + [(_line(operation=label), UnknownIrp, None) for label in _NON_CANONICAL_LABELS]
    # a doubled backslash escape_field would not write (not before t, n or
    # a backslash) decodes to text that re-encodes differently
    + [(_line(image_path="C:\\\\Temp"), TraceSyntaxError, "image_path"),
       (_line(operation="Annot", duration_us="", args="note=a\\\\b", file_path=""),
        TraceSyntaxError, "args"),
       (_line(file_path="C:\\f\\\\"), TraceSyntaxError, "file_path"),
       (_line(result="E\\\\x"), TraceSyntaxError, "result"),
       (_line(image_path="\\\\\\\\X", file_path="\\\\"), TraceSyntaxError, "image_path")]
    # a raw newline ends a line in a file, so a line never holds one
    + [(_line(**{col: "a\nb"}), TraceSyntaxError, col)
       for col in ("image_path", "args", "file_path", "result")]
    + [(_line(operation="Pr Create", duration_us="", tid="0", args="a\nb", result="x\ny"),
        TraceSyntaxError, "args")]
)


@pytest.mark.parametrize("line, error, column", _DECODE_ERRORS,
                         ids=[repr(line)[:70] for line, _, _ in _DECODE_ERRORS])
def test_decode_error_class_and_column(line, error, column):
    with pytest.raises(LaseError) as exc:
        decode_line(line, HEADER)
    assert type(exc.value) is error
    assert getattr(exc.value, "column", None) == column


# Strict numeric grammar: the decoder must refuse, not rewrite, any number
# that would not re-encode to the same bytes.
@pytest.mark.parametrize("fields, column", [
    ({"time": " 9:00:00:000"}, "time"),
    ({"time": "+9:00:00:000"}, "time"),
    ({"time": "09:00:00:+12"}, "time"),
    ({"time": "09:00:00:1_2"}, "time"),
    ({"time": "09: 0:00:000"}, "time"),
    ({"time": "\uff10\uff19:00:00:000"}, "time"),  # full-width digits
    ({"time": "2024/ 1/01-09:00:00:000"}, "time"),
    ({"time": "+024/01/01-09:00:00:000"}, "time"),
    ({"global_seq": "0009"}, "global_seq"),
    ({"global_seq": "00"}, "global_seq"),
    ({"ppid": "01"}, "ppid"),
    ({"pid": "044"}, "pid"),
    ({"tid": "03"}, "tid"),
    ({"duration_us": "05"}, "duration_us"),
])
def test_decode_rejects_non_canonical_numbers(fields, column):
    with pytest.raises(TraceSyntaxError) as exc:
        decode_line(_line(**fields), HEADER)
    assert exc.value.column == column
    if column == "time":
        with pytest.raises(TraceSyntaxError):
            parse_timestamp(fields["time"], HEADER.base_date)


class _HourTwentyFourDatetime(datetime):
    """A datetime whose fromisoformat reads hour 24 as midnight of the next
    day, so the test holds whatever the running Python's parser accepts."""

    @classmethod
    def fromisoformat(cls, text):
        day, _, clock = text.partition("T")
        if clock.startswith("24:"):
            return datetime.fromisoformat(f"{day}T00{clock[2:]}") + timedelta(days=1)
        return datetime.fromisoformat(text)


@pytest.mark.parametrize("time", ["24:00:00:000", "2024/01/01-24:00:00:000"])
def test_clock_range_is_in_the_grammar_not_the_datetime_parser(monkeypatch, time):
    monkeypatch.setattr(codec, "datetime", _HourTwentyFourDatetime)
    assert _HourTwentyFourDatetime.fromisoformat("2024-01-01T24:00:00.000") == datetime(2024, 1, 2)
    with pytest.raises(TraceSyntaxError) as exc:
        decode_line(_line(time=time), HEADER)
    assert exc.value.column == "time"
    with pytest.raises(TraceSyntaxError):
        parse_timestamp(time, HEADER.base_date)


def test_zero_and_64_bit_values_stay_valid():
    top = str(2**64 - 1)
    line = _line(duration_us="0", global_seq=top, ppid="0", pid=top, tid="0")
    record = decode_line(line, HEADER)
    assert (record.duration_us, record.ppid, record.tid) == (0, 0, 0)
    assert encode_record(record, HEADER) == line


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["time", "duration_us", "global_seq", "ppid", "pid", "tid"]),
       st.text(alphabet="019 +_-\uff11", min_size=1, max_size=3),
       st.sampled_from(["09:00:00:000", "2024/01/01-23:59:59:999"]), st.integers(0, 22))
def test_accepted_lines_re_encode_byte_identically(column, text, time, at):
    # The number is `text`, or for the time column `text` replaces one character.
    value = time[:at] + text + time[at + 1:] if column == "time" else text
    line = _line(**{column: value})
    try:
        record = decode_line(line, HEADER)
    except LaseError:
        return
    assert encode_record(record, HEADER) == line


def test_text_memo_is_bounded_and_round_trips():
    memo = unescape_field.__self__
    n = memo.size + 500
    records = tuple(
        decode_line(_line(global_seq=str(i), image_path=f"C:\\\\tools\\p{i}.exe",
                          file_path=f"C:\\f{i}\\tx\\ty.dat"), HEADER)
        for i in range(1, n + 1))
    assert len({r.image_path for r in records}) == n
    trace = Trace(HEADER, records)
    first = io.BytesIO()
    write_trace(trace, first)
    again = read_trace(first.getvalue())
    assert again == trace
    second = io.BytesIO()
    write_trace(again, second)
    assert second.getvalue() == first.getvalue()
    assert len(memo) <= memo.size


# 400 distinct texts of 10,000 characters each: 4 MB if a memo keeps them.
_LONG_TEXT, _LONG_TEXTS = 10_000, 400


def _long_field_trace(shape: str) -> bytes:
    """Process creates with distinct long args, or image loads with
    distinct long paths."""
    lines = []
    for seq in range(1, _LONG_TEXTS + 1):
        text = f"{shape}{seq:05d}".ljust(_LONG_TEXT, "a")
        if shape == "create":
            lines.append(_line(operation="Pr Create", duration_us="", global_seq=str(seq),
                               pid=str(1000 + seq), tid="0", args=text))
        else:
            lines.append(_line(operation="Ld Image", duration_us="", global_seq=str(seq),
                               file_path="C:\\" + text))
    return _trace_text(*lines)


@pytest.mark.parametrize("shape", ["create", "image"])
def test_a_check_only_read_keeps_no_long_text(tmp_path, shape):
    path = tmp_path / "long.lase"
    path.write_bytes(_long_field_trace(shape))
    gc.collect()
    tracemalloc.start()
    try:
        reader = TraceReader(path, kinds=frozenset())
        assert len(list(reader)) == 1 and len(reader) == _LONG_TEXTS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A few read blocks and their lines, not every text read.
    assert peak < _LONG_TEXT * _LONG_TEXTS / 4


def _encoded(trace: Trace) -> bytes:
    out = io.BytesIO()
    write_trace(trace, out)
    return out.getvalue()


def _watch_id_tables(monkeypatch) -> tuple[list, list]:
    """Weak references to every id table (the one Memo a read_trace call
    makes) from now on, and each table's size after each entry it adds."""
    tables, sizes = [], []

    class Watched(Memo):
        def __init__(self, fn, size):
            super().__init__(fn, size)
            tables.append(weakref.ref(self))

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            sizes.append(len(self))

    monkeypatch.setattr(codec, "Memo", Watched)
    return tables, sizes


def test_records_of_one_reader_share_their_id_ints():
    # Generated pids start at 4000, tids at 9001 and most durations above
    # 256, outside the interpreter's own small-int cache, so only the
    # reader's table can make them shared.
    trace = run_synthetic(WorkloadSpec(events_per_producer=2000, seed=3))
    records = read_trace(_encoded(trace)).records
    assert records == trace.records
    shared: dict[int, int] = {}
    for r in records:
        for value in (r.pid, r.ppid, r.tid):
            assert shared.setdefault(value, value) is value
    assert sum(1 for value in shared if value > 256) > 100
    durations = [r.duration_us for r in records if r.duration_us is not None and r.duration_us > 256]
    assert len(durations) > len(set(durations)) > 200  # some repeat
    for value in durations:
        assert shared.setdefault(value, value) is value
    first, again = (read_trace(_encoded(trace)).records[0] for _ in range(2))
    assert first.pid == again.pid and first.pid is not again.pid  # one table per reader


def test_id_table_empties_at_its_bound(monkeypatch):
    monkeypatch.setattr(codec, "_ID_MEMO", 50)
    _, sizes = _watch_id_tables(monkeypatch)
    trace = run_synthetic(WorkloadSpec(events_per_producer=2000, seed=3))
    distinct = {v for r in trace.records for v in (r.pid, r.ppid, r.tid)}
    assert len(distinct) > 3 * 50
    assert read_trace(_encoded(trace)) == trace
    assert max(sizes) == 50
    assert sizes.count(1) > 3  # emptied once per 50 new values


def test_no_id_table_outlives_its_reader(monkeypatch, fixture_path):
    # A streaming reader's records die one at a time, so it builds no table,
    # whether read whole, partly or with kinds. Each read_trace builds one,
    # which is dead once the call returns.
    tables, _ = _watch_id_tables(monkeypatch)
    data = _encoded(run_synthetic(WorkloadSpec(events_per_producer=500, seed=3)))
    for source in (data, fixture_path):
        for kinds in (None, {"ProcessCreate", "ThreadCreate"}):
            assert len(tuple(TraceReader(source, kinds))) > 1
    partly = iter(TraceReader(data))
    next(partly)
    assert tables == []
    del partly
    for count, source in enumerate((data, fixture_path), 1):
        read_trace(source)
        assert len(tables) == count
        assert tables[-1]() is None


def _twenty_digit_ids() -> bytes:
    """A trace whose pids, tids and durations have 20 digits, each value
    on more than one record."""
    top = 2**64 - 1
    ids = [(top, top - 1, top), (top - 1, top, 10**19), (top, top - 1, top), (10**19, 10**19, top - 1)]
    lines = "".join(_line(global_seq=str(seq), pid=str(pid), tid=str(tid), duration_us=str(duration)) + "\n"
                    for seq, (pid, tid, duration) in enumerate(ids, 1))
    return f"{MAGIC}\n#date\t2018/10/01\n{lines}".encode()


@pytest.mark.parametrize("source", ["fixture", "injections", "twenty_digits"])
def test_read_trace_holds_what_a_streaming_reader_yields(source, fixture_path):
    if source == "fixture":
        data = fixture_path
    elif source == "injections":
        data = _encoded(run_synthetic(WorkloadSpec(events_per_producer=2000, seed=3, injection_templates=2)))
    else:
        data = _twenty_digit_ids()
    records = read_trace(data).records
    assert len(records) > 3
    assert records == tuple(TraceReader(data))


def test_decoded_records_cost_at_most_221_bytes_each():
    # About 214 B each here; 228 B with a table of ids but not durations,
    # and 261 B without the table.
    data = _encoded(run_synthetic(WorkloadSpec(events_per_producer=20_000, seed=1)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = read_trace(data)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 20_000
    assert held / len(trace) <= 221


def test_generated_records_cost_at_most_216_bytes_each():
    # About 206 B each here; 284 B when every I/O record held its own path
    # and duration and every zero tick its own time.
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_synthetic(WorkloadSpec(events_per_producer=20_000, seed=1))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 20_000
    assert held / len(trace) <= 216


@pytest.mark.filterwarnings("error::ResourceWarning",
                            "error::pytest.PytestUnraisableExceptionWarning")
def test_reader_closes_the_file_it_opened(tmp_path, fixture_path, fixture_trace):
    assert read_trace(fixture_path) == fixture_trace
    records = list(TraceReader(fixture_path))
    assert len(records) == len(fixture_trace)
    partly = iter(TraceReader(fixture_path))
    next(partly)
    del partly
    bad = tmp_path / "bad.lase"
    bad.write_bytes(fixture_path.read_bytes().replace(b"\t183668\t", b"\tx\t"))
    with pytest.raises(TraceSyntaxError):
        read_trace(bad)
    wrong = tmp_path / "wrong.lase"
    wrong.write_bytes(b"#LASEv0\n")
    with pytest.raises(BadMagic):
        read_trace(wrong)
    gc.collect()


def test_reader_resumes_where_an_earlier_loop_stopped(fixture_path, fixture_trace):
    for source in (fixture_path, io.BytesIO(fixture_path.read_bytes())):
        reader = TraceReader(source)
        assert iter(reader) is iter(reader)
        first = next(iter(reader))
        for second in reader:
            break
        rest = list(reader)
        assert (first, second, *rest) == fixture_trace.records
        assert list(reader) == []


def test_resumed_reader_keeps_line_numbers_and_sequence_check():
    data = _trace_text(*[_IRP_LINE.format(seq=s) for s in (1, 2, 3, 3)])
    reader = TraceReader(data)
    assert [r.global_seq for _, r in zip(range(2), reader)] == [1, 2]
    with pytest.raises(NonMonotonicSequence) as exc:
        list(reader)
    assert exc.value.line_no == 6


def _watch_opened(monkeypatch) -> list:
    """Every file the codec opens from now on."""
    opened = []

    def watched(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(codec, "open", watched, raising=False)
    return opened


def test_closed_reader_yields_nothing_more(fixture_path, monkeypatch):
    opened = _watch_opened(monkeypatch)
    reader = TraceReader(fixture_path)
    next(iter(reader))
    reader.close()
    [file] = opened
    assert file.closed
    assert list(reader) == []


def test_reader_leaves_a_callers_stream_open(fixture_path):
    with open(fixture_path, "rb") as fh:
        read_trace(fh)
        assert not fh.closed


def test_reader_with_kinds_builds_only_those_and_the_first(fixture_path, fixture_trace):
    first, *rest = fixture_trace.records
    for kinds in (frozenset(), {"ProcessCreate"}, {"Irp", "ThreadExit"}, KIND_NAMES):
        reader = TraceReader(fixture_path, kinds=kinds)
        assert len(reader) == 0
        built = list(reader)
        assert built == [first] + [r for r in rest if kind_name(r.kind) in kinds]
        assert len(reader) == len(fixture_trace) == 38


@pytest.mark.parametrize("kinds", [None, frozenset(), {"ProcessCreate"}])
@pytest.mark.parametrize("compress", [False, True])
def test_reader_len_is_the_record_lines_read(fixture_trace, kinds, compress):
    buf = io.BytesIO()
    write_trace(fixture_trace, buf, compress=compress)
    reader = TraceReader(buf.getvalue(), kinds=kinds)
    assert len(reader) == 0  # the header is read, no record line yet
    next(iter(reader))
    assert len(reader) == 1
    for _ in reader:
        pass
    assert len(reader) == len(fixture_trace) == 38


def test_reader_refuses_unknown_kinds(fixture_path):
    with pytest.raises(ValueError, match=r"unknown event kinds \['ProcessCreat'\]"):
        TraceReader(fixture_path, kinds={"ProcessCreate", "ProcessCreat"})


def test_records_are_built_through_the_module_decode_line(monkeypatch, fixture_path,
                                                          fixture_trace):
    # perfbench's traced run wraps codec.decode_line and divides its time by
    # the calls; a reader that decoded some other way would leave it 0.
    built = []
    decode = codec.decode_line

    def counting(line, header, read_id=int):
        built.append(decode(line, header, read_id))
        return built[-1]

    monkeypatch.setattr(codec, "decode_line", counting)
    assert read_trace(fixture_path).records == tuple(built)
    assert len(built) == 38
    built.clear()
    reader = TraceReader(fixture_path, kinds={"ProcessCreate"})
    assert list(reader) == built
    assert 1 < len(built) < len(reader) == 38


def test_a_line_validate_record_checks_is_built_once(monkeypatch):
    # A fast-I/O line is one the grammar does not prove valid, so _check
    # builds its record to validate it; decode_line returns that record.
    line = _line(args="fastio")
    built = []
    monkeypatch.setattr(codec, "EventRecord",
                        lambda *fields: built.append(EventRecord(*fields)) or built[-1])
    assert codec.decode_line(line, HEADER) is built[0]
    assert len(built) == 1 and built[0].kind.mode is IoMode.FAST_IO


def test_bad_magic_carries_line_number():
    with pytest.raises(BadMagic) as exc:
        read_trace(b"#LASEv0\n#date\t2024/01/01\n")
    assert exc.value.line_no == 1
    assert "line 1" in str(exc.value)
    with pytest.raises(BadMagic) as exc:
        read_trace(b"")
    assert exc.value.line_no is None


@pytest.mark.parametrize("value", [
    "2024/1/1", "2024/01/ 1", "2024/+1/01", "2024/01/01 ", "\uff12024/01/01",  # full-width 2
    "24/01/01", "2024-01-01", "2024/13/01",
])
def test_header_date_is_strict(value):
    with pytest.raises(TraceSyntaxError) as exc:
        read_trace(f"#LASEv1\n#date\t{value}\n#env\tbaremetal\n".encode())
    assert exc.value.column == "date"
    assert exc.value.line_no == 2


def test_rejected_labels_leave_the_irp_kind_table_alone():
    decode_line(_line(), HEADER)
    known = dict(codec._IRP_KINDS)
    for i in range(1, 2000):
        label = "IRP_Read" + " " * (i % 7) + "/" * (i // 7 % 2) + "x" * (i // 14)
        with pytest.raises(UnknownIrp) as exc:
            decode_line(_line(operation=label), HEADER)
        assert exc.value.name == label
    assert codec._IRP_KINDS == known


def _encoding_error(data: bytes) -> TraceSyntaxError:
    with pytest.raises(TraceSyntaxError) as exc:
        read_trace(data)
    assert exc.value.column == "encoding"
    return exc.value


def _with_bad_byte(text: str) -> bytes:
    return text.encode("utf-8").replace(b"@", b"\xff")


@pytest.mark.parametrize("compress", [False, True])
def test_invalid_utf8_is_rejected_not_rewritten(compress):
    lines = [_IRP_LINE.format(seq=s) for s in range(1, 4)]
    lines[1] = lines[1].replace("C:\\x.exe", "C:\\x@.exe")  # \xff in an image path
    data = _with_bad_byte(_trace_text(*lines).decode())
    if compress:
        data = gzip.compress(data)
    assert _encoding_error(data).line_no == 4


def test_invalid_utf8_line_number_in_header_and_in_later_blocks():
    assert _encoding_error(_with_bad_byte("#LASEv1\n#host\tlab@\n")).line_no == 2
    assert _encoding_error(_with_bad_byte("#LASEv1\n#host\tlab@")).line_no == 2  # no final newline
    body = [_IRP_LINE.format(seq=s) for s in range(1, 3001)]  # several 64 KiB blocks
    body[2500] = body[2500].replace("C:\\f", "C:\\@")
    assert _encoding_error(_with_bad_byte(_trace_text(*body).decode())).line_no == 2503


def test_an_earlier_bad_line_wins_over_a_later_bad_byte():
    body = [_IRP_LINE.format(seq=s) for s in range(1, 7)]
    body[1] = body[1].replace("\t2\t", "\tx\t")
    body[3] = body[3].replace("C:\\f", "C:\\@")  # same block, not its last line
    with pytest.raises(TraceSyntaxError) as exc:
        read_trace(_with_bad_byte(_trace_text(*body).decode()))
    assert (exc.value.column, exc.value.line_no) == ("global_seq", 4)


_SECOND_LINE = _IRP_LINE.format(seq=2)
# (trace bytes, error class, column or None, line number) for each error the
# reader raises.
_READER_ERRORS = [
    (_trace_text(_IRP_LINE.format(seq=1), _SECOND_LINE.replace("09:00", "x9:00")),
     TraceSyntaxError, "time", 4),
    (_trace_text(_IRP_LINE.format(seq=1), "Tr Create\t09:00:00:000\t\t2\t0\t44\t0\tC:\\x.exe\t\t\t"),
     TraceValidationError, None, 4),
    (_trace_text(_IRP_LINE.format(seq=1), _SECOND_LINE.replace("IRP_Read", "IRP_Bogus")),
     UnknownIrp, None, 4),
    (_trace_text(_IRP_LINE.format(seq=1), _IRP_LINE.format(seq=1)), NonMonotonicSequence, None, 4),
    (b"#LASEv0\n#date\t2024/01/01\n", BadMagic, None, 1),
    (b"#LASEv1\n#date\t2024/1/1\n", TraceSyntaxError, "date", 2),
    (b"#LASEv1\n#date\t2024/01/01\n#host\tlab\\\\x\n", TraceSyntaxError, "host", 3),
    (b"#LASEv1\n#date\t2024/01/01\n#env\tcloud\n", TraceSyntaxError, "env", 3),
    (_with_bad_byte(_trace_text(_IRP_LINE.format(seq=1), _SECOND_LINE.replace("C:\\f", "C:\\@")).decode()),
     TraceSyntaxError, "encoding", 4),
    # the line being read when the corrupt block was found: the first here
    (gzip.compress(_trace_text(_IRP_LINE.format(seq=1)))[:-12], TraceSyntaxError, "gzip", 1),
]


@pytest.mark.parametrize("data, error, column, line_no", _READER_ERRORS,
                         ids=[f"{e.__name__}-{c}-{n}" for _, e, c, n in _READER_ERRORS])
def test_reader_errors_write_their_location_once(data, error, column, line_no):
    with pytest.raises(error) as exc:
        read_trace(data)
    text = str(exc.value)
    assert (exc.value.column, exc.value.line_no) == (column, line_no)
    assert text.count("(column") == (column is not None)
    place = "" if column is None else f" (column {column})"
    assert text == f"{exc.value.message}{place} at line {line_no}"


def _gzip_error_line(data: bytes) -> int:
    with pytest.raises(TraceSyntaxError) as exc:
        read_trace(data)
    assert exc.value.column == "gzip"
    return exc.value.line_no


_BIG_TEXT = _trace_text(*(_IRP_LINE.format(seq=s) for s in range(1, 6001)))  # > 3 blocks


def test_a_corrupt_first_gzip_block_names_line_1():
    assert _gzip_error_line(gzip.compress(_trace_text(_IRP_LINE.format(seq=1)))[:-12]) == 1
    assert len(_BIG_TEXT) > 3 * codec._BLOCK
    assert _gzip_error_line(gzip.compress(_BIG_TEXT)[:200]) == 1


def test_a_corrupt_later_gzip_block_names_its_first_line():
    compressed = gzip.compress(_BIG_TEXT)
    for blocks in (1, 2):
        # the shortest cut that still decompresses `blocks` whole blocks:
        # the read of the next block is the one that fails
        def recoverable(n: int) -> int:
            return len(zlib.decompressobj(31).decompress(compressed[:n]))

        cut = next(n for n in range(0, len(compressed), 64) if recoverable(n) >= blocks * codec._BLOCK)
        assert recoverable(cut) < (blocks + 1) * codec._BLOCK
        read = _BIG_TEXT[:blocks * codec._BLOCK]
        assert _gzip_error_line(compressed[:cut]) == read.count(b"\n") + 1
        # the line the failed block starts in, begun in the block before
        assert not read.endswith(b"\n")


@pytest.mark.filterwarnings("error::ResourceWarning",
                            "error::pytest.PytestUnraisableExceptionWarning")
def test_reader_dropped_before_iteration_closes_its_file(fixture_path, monkeypatch):
    TraceReader(fixture_path)
    opened = _watch_opened(monkeypatch)
    reader = TraceReader(fixture_path)
    [file] = opened
    del reader
    gc.collect()
    assert file.closed


_GOOD_TEXT = _trace_text(*(_IRP_LINE.format(seq=s) for s in (1, 2, 3)))
# Each way a read can end: (trace bytes, what the caller does with the
# reader, the error the read ends with or None).
_ENDINGS = {
    "exhausted": (_GOOD_TEXT, list, None),
    "closed-before-first": (_GOOD_TEXT, TraceReader.close, None),
    "closed-after-first": (_GOOD_TEXT, lambda reader: (next(iter(reader)), reader.close()), None),
    "dropped-before-iteration": (_GOOD_TEXT, lambda reader: None, None),
    "bad-magic": (b"#LASEv0\n" + _GOOD_TEXT[8:], list, BadMagic),
    "bad-header-line": (b"#LASEv1\n#date\t2024/1/1\n", list, TraceSyntaxError),
    "bad-record": (_GOOD_TEXT.replace(b"\t2\t", b"\tx\t"), list, TraceSyntaxError),
    "sequence-order": (_GOOD_TEXT.replace(b"\t3\t", b"\t2\t"), list, NonMonotonicSequence),
    "utf8": (_GOOD_TEXT.replace(b"C:\\f\t\n", b"C:\\\xff\t\n", 1), list, TraceSyntaxError),
    "gzip": (gzip.compress(_GOOD_TEXT)[:-12], list, TraceSyntaxError),
}


@pytest.mark.filterwarnings("error::ResourceWarning",
                            "error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize("ending", list(_ENDINGS))
def test_every_ending_closes_the_opened_file_and_not_a_callers_stream(ending, tmp_path, monkeypatch):
    data, finish, error = _ENDINGS[ending]
    path = tmp_path / "trace.lase"
    path.write_bytes(data)
    opened = _watch_opened(monkeypatch)
    with open(path, "rb") as stream:
        for source in (path, stream):
            with pytest.raises(error) if error else contextlib.nullcontext():
                finish(TraceReader(source))
            gc.collect()
        [file] = opened
        assert file.closed
        assert not stream.closed


# Every reader error with the line number it carries, None for an empty
# stream, whatever kinds the reader builds.
_ERROR_LINES = [*_READER_ERRORS, (b"", BadMagic, None, None)]


@pytest.mark.parametrize("kinds", [None, frozenset(), {"ProcessCreate"}])
@pytest.mark.parametrize("data, error, column, line_no", _ERROR_LINES,
                         ids=[f"{e.__name__}-{c}-{n}" for _, e, c, n in _ERROR_LINES])
def test_each_reader_error_carries_its_line_number(data, error, column, line_no, kinds):
    with pytest.raises(TraceError) as exc:
        list(TraceReader(data, kinds=kinds))
    assert type(exc.value) is error
    assert (exc.value.column, exc.value.line_no) == (column, line_no)


# Every decoded line that can break an invariant: decode_line must raise
# exactly validate_record's list for the record the line describes.
_VIOLATING_LINES = [
    (_line(operation="Tr Create", duration_us="", tid="0", file_path=""), [Violation.MISSING_TID]),
    (_line(operation="Tr Exit", duration_us="", tid="0", file_path=""), [Violation.MISSING_TID]),
    (_line(operation="Pr Create", duration_us="", tid="0", image_path=""),
     [Violation.MISSING_IMAGE_PATH]),
    (_line(operation="Pr Create", duration_us=""), [Violation.PROCESS_EVENT_TID]),
    (_line(operation="Pr Create", tid="0", image_path=""),
     [Violation.MISSING_IMAGE_PATH, Violation.DURATION_ON_NON_IO]),
    (_line(operation="Ld Image", duration_us="", file_path=""), [Violation.MISSING_FILE_PATH]),
    (_line(file_path=""), [Violation.MISSING_FILE_PATH]),
    (_line(args="async", file_path=""), [Violation.MISSING_FILE_PATH]),
    (_line(operation="IRP_Mdl_Read/Complete", args="fastio"), [Violation.FAST_IO_WITH_MINOR]),
    (_line(operation="IRP_Mdl_Read/Complete", args="fastio", file_path=""),
     [Violation.MISSING_FILE_PATH, Violation.FAST_IO_WITH_MINOR]),
    (_line(operation="Pr Exit"), [Violation.DURATION_ON_NON_IO]),
    (_line(operation="Tr Create"), [Violation.DURATION_ON_NON_IO]),
    (_line(operation="Tr Exit", tid="0"), [Violation.MISSING_TID, Violation.DURATION_ON_NON_IO]),
    (_line(operation="Ld Image"), [Violation.DURATION_ON_NON_IO]),
    (_line(operation="Annot", args="api=RDTSC", file_path=""), [Violation.DURATION_ON_NON_IO]),
    (_line(operation="Annot", duration_us="", args="bogus=RDTSC"),
     [Violation.UNKNOWN_ANNOTATION_KEY]),
    (_line(operation="Annot", args="bogus=RDTSC"),
     [Violation.UNKNOWN_ANNOTATION_KEY, Violation.DURATION_ON_NON_IO]),
]


@pytest.mark.parametrize("line, expected", _VIOLATING_LINES,
                         ids=[repr(line)[:60] for line, _ in _VIOLATING_LINES])
def test_decoded_violations_are_validate_records_list(monkeypatch, line, expected):
    with pytest.raises(TraceValidationError) as exc:
        decode_line(line, HEADER)
    monkeypatch.setattr(codec, "validate_record", lambda record: [])
    record = decode_line(line, HEADER)  # the record the line describes, unchecked
    assert exc.value.violations == validate_record(record) == expected


_LABELS = ("Pr Create", "Pr Exit", "Tr Create", "Tr Exit", "Ld Image", "Annot", "IRP_Read",
           "IRP_Write", "IRP_Mdl_Read", "IRP_Mdl_Read/Complete",
           "IRP_Directory_Control/Query_Directory", "IRP_READ")


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_LABELS), st.sampled_from(["", "0", "17"]), st.sampled_from(["0", "3"]),
       st.sampled_from(["", "C:\\x.exe"]),
       st.sampled_from(["", "async", "fastio", "paging", "api=RDTSC", "note=x", "bogus=1", "/c"]),
       st.sampled_from(["", "C:\\f"]), st.sampled_from(["", "ACCESS_DENIED", "OK"]))
def test_accepted_lines_validate_and_re_encode(op, duration, tid, image, args, file_path, result):
    line = _line(operation=op, duration_us=duration, tid=tid, image_path=image, args=args,
                 file_path=file_path, result=result)
    try:
        record = decode_line(line, HEADER)
    except LaseError:
        return
    assert validate_record(record) == []
    assert encode_record(record, HEADER) == line


# Decoder round-trip over mutated tokens: valid lines with one to three
# tokens changed the ways a hand-edited or foreign trace differs from ours.
_OTHER_DIGITS = ("٠", "۰", "०", "０", "\U0001d7ce")  # each a zero
_INVALID_UTF8 = (b"\xff", b"\x80", b"\xc3", b"\xc0\xaf", b"\xed\xa0\x80", b"\xf4\x90\x80\x80")


def _other_digits(token: str, which: int) -> str:
    """token with its ASCII digits written in another script's digits."""
    zero = ord(_OTHER_DIGITS[which % len(_OTHER_DIGITS)])
    return "".join(chr(zero + int(c)) if "0" <= c <= "9" else c for c in token)


_MUTATIONS = {
    "swapcase": lambda t, at, n: t.swapcase(),
    "upper": lambda t, at, n: t.upper(),
    "lower": lambda t, at, n: t.lower(),
    "space": lambda t, at, n: t[:at] + " " * (n % 3 + 1) + t[at:],
    "tab": lambda t, at, n: t[:at] + "\t" + t[at:],
    "cr": lambda t, at, n: t[:at] + "\r" + t[at:],
    "lf": lambda t, at, n: t[:at] + "\n" + t[at:],
    "strip": lambda t, at, n: t.strip(),
    "drop": lambda t, at, n: t[:at] + t[at + 1:],
    "sign": lambda t, at, n: "+-"[n % 2] + t,
    "inner sign": lambda t, at, n: t[:at] + "+-"[n % 2] + t[at:],
    "leading zero": lambda t, at, n: "0" * (n % 2 + 1) + t,
    "digits": lambda t, at, n: _other_digits(t, n),
    "one digit": lambda t, at, n: t[:at] + _other_digits(t[at:at + 1], n) + t[at + 1:],
    "non-ascii": lambda t, at, n: t[:at] + "é \x85١"[n % 4] + t[at:],
    "empty": lambda t, at, n: "",
}


@st.composite
def _mutated_lines(draw):
    """(header, line text, invalid UTF-8 to splice into its bytes or None)."""
    record = random_record(random.Random(draw(st.integers(0, 2**32 - 1))),
                           draw(st.sampled_from([1, 7, 1000, 10**6])))
    header = draw(st.sampled_from([HEADER, TraceHeader(base_date=record.time.date())]))
    fields = encode_record(record, header).split("\t")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(fields) - 1))
        mutate = _MUTATIONS[draw(st.sampled_from(sorted(_MUTATIONS)))]
        fields[i] = mutate(fields[i], draw(st.integers(0, len(fields[i]))), draw(st.integers(0, 99)))
    bad = draw(st.one_of(st.none(), st.tuples(st.sampled_from(_INVALID_UTF8), st.integers(0, 10**6))))
    return header, "\t".join(fields), bad


def _names_its_column(exc: LaseError, line: str) -> bool:
    if isinstance(exc, TraceSyntaxError):
        return exc.column in _COLS + ("line", "encoding")
    if isinstance(exc, UnknownIrp):  # the operation column, by class
        return exc.name == line.split("\t")[0]
    return isinstance(exc, TraceValidationError) and exc.violations != []


_FIRST_LINE = b"Pr Exit\t00:00:00:000\t\t0\t0\t1\t0\tC:\\x.exe\t\t\t\n"


def _checked_count(data: bytes) -> int:
    reader = TraceReader(data, kinds=frozenset())
    assert len(list(reader)) == 1
    return len(reader)


def _outcome(read):
    """read()'s value, or the class, text and line number of its error."""
    try:
        return read()
    except LaseError as exc:
        return type(exc), str(exc), exc.line_no


@settings(max_examples=1500, deadline=None)
@given(_mutated_lines())
def test_mutated_lines_round_trip_or_name_their_column(case):
    header, line, bad = case
    data = line.encode("utf-8")
    if bad is not None:
        splice, at = bad
        at %= len(data) + 1
        data = data[:at] + splice + data[at:]
    else:
        try:
            record = decode_line(line, header)
        except LaseError as exc:
            assert _names_its_column(exc, line), repr(exc)
        else:
            assert encode_record(record, header) == line
    if "\n" in line:
        return  # in a file, a raw newline ends the line
    head = io.BytesIO()
    write_trace(Trace(header, ()), head)
    text = head.getvalue() + data + b"\n"
    # A reader that builds only the first record only checks the second
    # line, and must refuse it exactly as read_trace does.
    second = head.getvalue() + _FIRST_LINE + data + b"\n"
    assert _outcome(lambda: _checked_count(second)) == _outcome(lambda: len(read_trace(second)))
    record_line_no = text.count(b"\n")  # the last line
    try:
        trace = read_trace(text)
    except LaseError as exc:
        assert exc.line_no == record_line_no, repr(exc)
        if bad is not None:
            assert exc.column == "encoding"
        else:
            assert _names_its_column(exc, line), repr(exc)
    else:
        assert bad is None
        again = io.BytesIO()
        write_trace(trace, again)
        assert again.getvalue() == text


def _small_trace_text() -> str:
    return _encoded(run_synthetic(WorkloadSpec(events_per_producer=20, seed=5))).decode("utf-8")


@pytest.mark.parametrize("where", ["after the header", "between records", "at the end"])
def test_a_blank_record_line_is_refused(where):
    # Skipped, the blank line would pass and re-encode without it: no
    # byte-exact round trip.
    lines = _small_trace_text().split("\n")[:-1]
    first_record = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    at = {"after the header": first_record, "between records": first_record + 5,
          "at the end": len(lines)}[where]
    data = "\n".join(lines[:at] + [""] + lines[at:]) + "\n"
    for read in (read_trace, lambda d: list(TraceReader(d, frozenset()))):
        with pytest.raises(TraceSyntaxError) as exc:
            read(data.encode("utf-8"))
        assert (exc.value.column, exc.value.line_no) == ("line", at + 1)


class _BreaksAfter:
    """A sink that takes limit bytes, then raises BrokenPipeError."""

    def __init__(self, limit: int):
        self.left = limit

    def write(self, data: bytes) -> int:
        if len(data) > self.left:
            raise BrokenPipeError(32, "Broken pipe")
        self.left -= len(data)
        return len(data)

    def flush(self) -> None:
        pass


def test_a_failing_sink_leaves_no_gzip_stream_to_finalize():
    # An open GzipFile left behind would write its trailer from its
    # finalizer, raising an unraisable BrokenPipeError (an error under this
    # suite's warning filters).
    trace = run_synthetic(WorkloadSpec(events_per_producer=5_000, seed=1))
    try:
        write_trace(trace, _BreaksAfter(1024), compress=True)
    except BrokenPipeError:
        pass  # its traceback, and the frames it holds, are freed here
    else:
        pytest.fail("the sink did not fail")
    gc.collect()


def test_the_id_table_keys_ints_by_their_own_value(monkeypatch):
    tables = []

    class Kept(Memo):
        def __init__(self, fn, size):
            super().__init__(fn, size)
            tables.append(self)

    monkeypatch.setattr(codec, "Memo", Kept)
    trace = run_synthetic(WorkloadSpec(events_per_producer=2000, seed=3, injection_templates=2))
    assert read_trace(_encoded(trace)) == trace
    (table,) = tables
    assert len(table) > 100
    assert all(type(key) is int and table[key] is key for key in table)
