from __future__ import annotations

import io
import random
from datetime import date, datetime

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_record, random_trace

from lase.codec import (
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
from lase.events import Annotation, IoMode, Irp, ProcessCreate

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
