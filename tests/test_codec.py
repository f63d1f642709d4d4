from __future__ import annotations

import gc
import gzip
import io
import random
from datetime import date, datetime, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_record, random_trace

from lase import codec
from lase.codec import (
    _FIELD_MEMO,
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
    TraceSyntaxError,
    TraceValidationError,
    UnknownIrp,
)
from lase.events import (
    Annotation,
    EventRecord,
    IoMode,
    Irp,
    ProcessCreate,
    Violation,
    validate_record,
)
from lase.irp import IrpCode

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


def test_io_mode_tokens_round_trip():
    header = TraceHeader(base_date=date(2024, 1, 2))
    line = "IRP_Read\t09:00:00:000\t12\t5\t0\t44\t0\tC:\\x.exe\tasync\tC:\\f\t"
    record = decode_line(line, header)
    assert record.kind.mode is IoMode.ASYNCHRONOUS
    assert encode_record(record, header) == line
    with pytest.raises(TraceSyntaxError):
        decode_line(line.replace("async", "sideways"), header)


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
    n = _FIELD_MEMO + 500
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
    assert unescape_field.cache_info().currsize <= _FIELD_MEMO


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


def test_closed_reader_yields_nothing_more(fixture_path):
    reader = TraceReader(fixture_path)
    next(iter(reader))
    reader.close()
    assert reader._file.closed
    assert list(reader) == []


def test_reader_leaves_a_callers_stream_open(fixture_path):
    with open(fixture_path, "rb") as fh:
        read_trace(fh)
        assert not fh.closed


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


@pytest.mark.filterwarnings("error::ResourceWarning",
                            "error::pytest.PytestUnraisableExceptionWarning")
def test_reader_dropped_before_iteration_closes_its_file(fixture_path):
    TraceReader(fixture_path)
    reader = TraceReader(fixture_path)
    file = reader._file
    del reader
    gc.collect()
    assert file.closed


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
