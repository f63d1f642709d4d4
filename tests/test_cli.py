from __future__ import annotations

import gzip
import io
import json
import random
import re
from dataclasses import replace

import pytest

from helpers import build_trace, chain, fan_out, run_lase

from lase import cli, forest
from lase.cli import main
from lase.codec import _COLUMNS, read_trace, trace_from_records, write_trace
from lase.errors import LaseError
from lase.events import IMAGE_LOAD, PROCESS_CREATE, THREAD_CREATE, Annotation
from lase.fingerprint import DEFAULT_SIGNATURE_TEXT


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_fixture(fixture_path, capsys):
    code, out, _ = run_cli(capsys, "validate", str(fixture_path))
    assert code == 0
    assert out.strip().endswith("38 records OK")


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "nope.lase"))
    assert code == 2
    assert "error" in err


def test_validate_corrupt_file(capsys, tmp_path):
    bad = tmp_path / "bad.lase"
    bad.write_text("#LASEv1\n#date\t2024/01/01\ngarbage line\n")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2


def test_validate_names_the_bad_column_once(capsys, tmp_path):
    bad = tmp_path / "bad.lase"
    bad.write_text("#LASEv1\n#date\t2024/01/01\n"
                   "IRP_Read\tx9:00:00:000\t5\t1\t0\t44\t0\tC:\\x.exe\t\tC:\\f\t\n")
    assert run_cli(capsys, "validate", str(bad)) == (
        2, "", "error: bad timestamp 'x9:00:00:000' (column time) at line 3\n")


def test_validate_refuses_a_blank_line(fixture_path, capsys, tmp_path):
    bad = tmp_path / "blank.lase"
    bad.write_bytes(fixture_path.read_bytes() + b"\n")
    lines = bad.read_bytes().count(b"\n")
    assert run_cli(capsys, "validate", str(bad)) == (
        2, "", f"error: expected 11 tab-separated fields, got 1 (column line) at line {lines}\n")


def test_validate_corrupt_gzip_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.lase.gz"
    bad.write_bytes(b"\x1f\x8b\x08\x00not really gzip data")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "error" in err


def test_usage_error_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "not-a-command")
    assert code == 1
    code, _, err = run_cli(capsys, "tree")  # missing trace argument
    assert code == 1


def test_usage_error_does_not_touch_filesystem(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "gen", "--badflag")
    assert code == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", ["3", "41", "2024"])
def test_gen_then_validate_via_stdin(capsys, monkeypatch, tmp_path, seed):
    out_path = tmp_path / "gen.lase"
    code, _, _ = run_cli(capsys, "gen", "--seed", seed, "--events", "50",
                         "--out", str(out_path))
    assert code == 0
    data = out_path.read_bytes()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, _ = run_cli(capsys, "validate", "-")
    assert code == 0
    assert "records OK" in out


def test_gen_deterministic_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.lase", tmp_path / "b.lase"
    assert run_cli(capsys, "gen", "--seed", "9", "--events", "40", "--out", str(a))[0] == 0
    assert run_cli(capsys, "gen", "--seed", "9", "--events", "40", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_compressed_output(capsys, tmp_path):
    packed = tmp_path / "packed.lase.gz"
    assert run_cli(capsys, "gen", "--seed", "1", "--events", "30",
                   "--out", str(packed))[0] == 0
    assert packed.read_bytes()[:2] == b"\x1f\x8b"
    assert len(read_trace(packed)) > 0


def test_tree_dot_output(fixture_path, capsys):
    code, out, _ = run_cli(capsys, "tree", str(fixture_path), "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.rstrip().endswith("}")
    assert out.count(" -> ") == 15


def test_tree_json_output(fixture_path, capsys):
    code, out, _ = run_cli(capsys, "tree", str(fixture_path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["created"] == 15
    assert doc["preexisting"] == 2


def one_instant(trace):
    """The trace with every record stamped at its first record's time."""
    instant = trace.records[0].time
    return trace_from_records([replace(r, time=instant) for r in trace.records], trace.header)


@pytest.mark.parametrize("source", ["fixture", "generated", "pid reuse"])
def test_tree_reads_no_record_time(source, fixture_trace, tmp_path, capsys):
    from lase.pipeline import WorkloadSpec, run_synthetic
    from test_injection import random_rows, trace_of

    if source == "fixture":
        trace = fixture_trace
    elif source == "generated":
        trace = run_synthetic(WorkloadSpec(seed=1, events_per_producer=1000, injection_templates=2))
    else:  # warnings on stderr
        trace = trace_of(random_rows(random.Random(3)), False)
    root = str(trace.records[-1].pid)
    runs = []
    for name, fed in (("timed.lase", trace), ("one_instant.lase", one_instant(trace))):
        path = tmp_path / name
        write_trace(fed, path)
        runs.append([run_cli(capsys, "tree", str(path), *flags)
                     for flags in ([], ["--format", "json"], ["--root", root], ["--root", root, "--format", "json"])])
    assert (tmp_path / "timed.lase").read_bytes() != (tmp_path / "one_instant.lase").read_bytes()
    assert runs[0] == runs[1]
    assert all(code == 0 for code, _, _ in runs[0])
    if source == "pid reuse":
        assert "warning: " in runs[0][0][2]


def test_tree_subtree_by_root(fixture_path, capsys):
    code, out, _ = run_cli(capsys, "tree", str(fixture_path), "--root", "916",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["root"][0] == doc["nodes"][0]["pid"] == 916
    pids = {node["pid"] for node in doc["nodes"]}
    assert {7028, 11916, 7660, 10464} <= pids
    assert 10092 not in pids  # other tree


def test_tree_unknown_root_is_input_error(fixture_path, capsys):
    code, _, err = run_cli(capsys, "tree", str(fixture_path), "--root", "31337")
    assert code == 2


@pytest.mark.parametrize("spec", ["10092:", " 10092", "10092 ", "+10092", "-5", "1_0",
                                  "10092:+0", "10092:-0", ":0", "", "١٠٠٩٢", "10092:0:0"])
def test_tree_root_takes_only_digits(fixture_path, capsys, spec):
    code, out, err = run_cli(capsys, "tree", str(fixture_path), f"--root={spec}")
    assert (code, out, err) == (2, "", f"error: --root takes PID[:BIRTH_SEQ], got {spec!r}\n")


def test_inject_scan_jsonl(tmp_path, capsys):
    from lase.pipeline import WorkloadSpec, run_synthetic
    trace = run_synthetic(WorkloadSpec(seed=5, events_per_producer=50,
                                       injection_templates=2))
    path = tmp_path / "inj.lase"
    write_trace(trace, path)
    code, out, _ = run_cli(capsys, "inject-scan", str(path))
    assert code == 0
    lines = [json.loads(x) for x in out.splitlines()]
    assert len(lines) == 2
    assert {x["confidence"] for x in lines} == {"RemoteThread", "RemoteThreadPlusLoadLibrary"}


def test_fingerprint_fixture(fixture_path, capsys):
    code, out, _ = run_cli(capsys, "fingerprint", str(fixture_path))
    assert code == 0
    docs = [json.loads(x) for x in out.splitlines()]
    assert [d["signature"] for d in docs] == ["calls-wmi"]


def test_fingerprint_reads_no_environment_variable(fixture_path, tmp_path, capsys, monkeypatch):
    sig = tmp_path / "every_create.sig"
    sig.write_text("any-create\tProcessCreate\timage_path\t.\n")
    monkeypatch.delenv("LASE_SIGNATURES", raising=False)
    expected = run_cli(capsys, "fingerprint", str(fixture_path))
    monkeypatch.setenv("LASE_SIGNATURES", str(sig))
    assert run_cli(capsys, "fingerprint", str(fixture_path)) == expected


def test_signatures_default_is_a_file_name(fixture_path, tmp_path, capsys, monkeypatch):
    # Only a missing --signatures means the built-ins; any value is a path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "default").write_text("any-create\tProcessCreate\timage_path\t.\n")
    code, out, _ = run_cli(capsys, "fingerprint", str(fixture_path), "--signatures", "default")
    assert code == 0
    assert {json.loads(x)["signature"] for x in out.splitlines()} == {"any-create"}


@pytest.mark.parametrize("argv", [["fingerprint", "--signatures="], ["intrude", "--rules="]])
def test_an_empty_rule_file_path_is_an_input_error(fixture_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, str(fixture_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_fingerprint_json_round_trips(fixture_path, capsys):
    code, out, _ = run_cli(capsys, "fingerprint", str(fixture_path), "--format", "json")
    assert code == 0
    assert isinstance(json.loads(out), list)


def test_diff_files_tsv(fixture_path, tmp_path, capsys):
    other = tmp_path / "other.lase"
    write_trace(build_trace([(PROCESS_CREATE, 10, 4, 0, "C:\\x.exe")]), other)
    code, out, _ = run_cli(capsys, "diff", "--bare", str(fixture_path),
                           "--vm", str(other), "--format", "tsv")
    assert code == 0
    assert out.startswith("Extension\tBare\tVM\tDifference (# | %)")
    assert "∞" in out  # vm side has no drops at all


@pytest.mark.parametrize("side", ["bare", "vm"])
def test_diff_reads_either_side_from_stdin(fixture_path, tmp_path, capsys, monkeypatch, side):
    other = tmp_path / "other.lase"
    write_trace(build_trace([(PROCESS_CREATE, 10, 4, 0, "C:\\x.exe")]), other)
    paths = {"bare": fixture_path, "vm": other}
    from_files = run_cli(capsys, "diff", "--bare", str(paths["bare"]), "--vm", str(paths["vm"]))
    assert from_files[0] == 0
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(paths[side].read_bytes())))
    paths[side] = "-"
    assert run_cli(capsys, "diff", "--bare", str(paths["bare"]), "--vm", str(paths["vm"])) == from_files


def test_diff_reads_stdin_once(fixture_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(fixture_path.read_bytes())))
    assert run_cli(capsys, "diff", "--bare", "-", "--vm", "-") == (2, "", "error: empty stream\n")


def test_diff_requires_matching_kinds(fixture_path, tmp_path, capsys):
    code, _, err = run_cli(capsys, "diff", "--bare", str(fixture_path), "--vm", str(tmp_path))
    assert code == 2


def test_diff_directories_json(fixture_path, tmp_path, capsys):
    bare, vm = tmp_path / "bare", tmp_path / "vm"
    bare.mkdir()
    vm.mkdir()
    (bare / "s1.lase").write_bytes(fixture_path.read_bytes())
    write_trace(build_trace([(PROCESS_CREATE, 10, 4, 0, "C:\\x.exe")]), vm / "s1.lase")
    code, out, _ = run_cli(capsys, "diff", "--bare", str(bare), "--vm", str(vm),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["per_extension"]["exe"]["bare"] == 1
    assert doc["overlap"]["only_bare"] == 8


def test_intrude_jsonl_and_dwell(tmp_path, capsys):
    trace = build_trace([
        (PROCESS_CREATE, 10, 4, 0, "C:\\svc.exe"),
        (PROCESS_CREATE, 11, 10, 0, "C:\\Windows\\System32\\cmd.exe",
         "/c vssadmin delete shadows /all /quiet"),
    ])
    path = tmp_path / "intr.lase"
    write_trace(trace, path)
    code, out, _ = run_cli(capsys, "intrude", str(path), "--dwell")
    assert code == 0
    first, rest = out.split("\n", 1)
    assert json.loads(first)["category"] == "BackupErasure"
    stats = json.loads(rest)
    assert stats["clean_traces"] == 0
    assert stats["mean_latency_seconds"] == pytest.approx(0.01)


def test_intrude_dwell_scans_each_trace_once(fixture_path, fixture_trace, tmp_path, capsys,
                                             monkeypatch):
    from lase import intrusion

    empty = tmp_path / "empty.lase"
    empty.write_text("#LASEv1\n#date\t2024/01/01\n")
    scanned = []
    scan = intrusion.scan_commands

    def spy(trace, *args):
        scanned.append(len(trace.records))
        return scan(trace, *args)

    monkeypatch.setattr(intrusion, "scan_commands", spy)
    code, _, _ = run_cli(capsys, "intrude", str(fixture_path), str(empty), str(fixture_path),
                         "--dwell")
    assert code == 0
    # The scan is handed the first record and the creates after it.
    rest = fixture_trace.records[1:]
    built = 1 + sum(r.kind == PROCESS_CREATE for r in rest)
    assert len(fixture_trace) == 38 and built < 38
    assert scanned == [built, 0, built]


# `validate` and `intrude` check the lines whose records they do not build;
# each case breaks the fixture's last line, an I/O close that neither builds,
# and the error must be the one read_trace gives for the whole trace.
_LAST_LINE_ERRORS = {
    "syntax": {"pid": "+10464"},
    "impossible-date": {"time": "2024/02/30-20:57:44:248"},
    "id-above-64-bits": {"pid": "99999999999999999999"},
    "violations": {"operation": "Tr Exit", "duration_us": "20", "tid": "0", "file_path": ""},
}


def _with_last_line(trace, changes: dict) -> bytes:
    buf = io.BytesIO()
    write_trace(trace, buf)
    lines = buf.getvalue().decode("utf-8").split("\n")
    fields = dict(zip(_COLUMNS, lines[-2].split("\t")))
    lines[-2] = "\t".join({**fields, **changes}.values())
    return "\n".join(lines).encode("utf-8")


def _read_trace_error(data: bytes) -> LaseError:
    with pytest.raises(LaseError) as exc:
        read_trace(data)
    return exc.value


@pytest.mark.parametrize("case", sorted(_LAST_LINE_ERRORS))
@pytest.mark.parametrize("compress", [False, True])
def test_checked_lines_fail_like_read_trace(fixture_path, fixture_trace, tmp_path, capsys, case,
                                            compress):
    text = _with_last_line(fixture_trace, _LAST_LINE_ERRORS[case])
    data = gzip.compress(text, mtime=0) if compress else text
    bad = tmp_path / ("bad.lase.gz" if compress else "bad.lase")
    bad.write_bytes(data)
    error = _read_trace_error(data)
    assert error.line_no == text.count(b"\n")  # the last line
    assert f"at line {error.line_no}" in str(error)
    if case == "violations":
        assert "MissingTid" in str(error) and "DurationOnNonIo" in str(error)
    expected_err = f"error: {error}\n"
    for argv, out in ((["validate"], f"{fixture_path}: 38 records OK\n"), (["intrude"], ""),
                      (["intrude", "--dwell"], "")):
        assert run_cli(capsys, *argv[:1], str(fixture_path), str(bad), *argv[1:]) == (
            2, out, expected_err), argv


@pytest.mark.parametrize("case", sorted(_LAST_LINE_ERRORS))
def test_checked_lines_on_stdin_fail_like_read_trace(fixture_trace, capsys, monkeypatch, case):
    data = gzip.compress(_with_last_line(fixture_trace, _LAST_LINE_ERRORS[case]), mtime=0)
    expected_err = f"error: {_read_trace_error(data)}\n"
    for argv in (["validate", "-"], ["intrude", "-"], ["intrude", "-", "--dwell"]):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run_cli(capsys, *argv) == (2, "", expected_err), argv


# `tree`, `fingerprint` and `inject-scan` analyse each record as the reader
# yields it, and write nothing until the last line is read: a bad last line
# still fails them as read_trace fails, with empty stdout.
_STREAMED = (["tree"], ["tree", "--format", "json"], ["tree", "--root", "10092"],
             ["fingerprint"], ["inject-scan"])


@pytest.mark.parametrize("case", sorted(_LAST_LINE_ERRORS))
@pytest.mark.parametrize("source", ["plain", "gzip", "stdin"])
def test_streamed_commands_fail_like_read_trace(fixture_trace, tmp_path, capsys, monkeypatch,
                                                case, source):
    text = _with_last_line(fixture_trace, _LAST_LINE_ERRORS[case])
    data = text if source == "plain" else gzip.compress(text, mtime=0)
    bad = tmp_path / "bad.lase"
    bad.write_bytes(data)
    expected_err = f"error: {_read_trace_error(data)}\n"
    for command, *rest in _STREAMED:
        path = str(bad)
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            path = "-"
        assert run_cli(capsys, command, path, *rest) == (2, "", expected_err), (command, rest)


# The reader reads the header before the command checks its other arguments,
# and the record lines after: a bad header wins over a bad signature file or
# a negative window, and those win over a bad record line.
_BAD_SIGNATURES = "only\ttwo fields\n"
_BAD_ARGUMENTS = {
    "signatures": (["fingerprint", "--signatures", "{sigs}"],
                   "expected 4 or 5 tab-separated fields, got 2 (line 1)"),
    "window": (["inject-scan", "--window-ms", "-5"], "window_ms must be non-negative"),
}


@pytest.mark.parametrize("argument", sorted(_BAD_ARGUMENTS))
@pytest.mark.parametrize("flaw", ["header", "last line"])
def test_a_bad_header_then_a_bad_argument_then_a_bad_record_line(fixture_trace, tmp_path, capsys,
                                                                  argument, flaw):
    data = _with_last_line(fixture_trace, _LAST_LINE_ERRORS["syntax"])
    if flaw == "header":
        data = data.replace(b"#date\t2018/10/01", b"#date\t2018/13/01", 1)
    bad = tmp_path / "bad.lase"
    bad.write_bytes(data)
    sigs = tmp_path / "bad.sigs"
    sigs.write_text(_BAD_SIGNATURES, encoding="utf-8")
    error = _read_trace_error(data)
    assert error.line_no == (2 if flaw == "header" else data.count(b"\n"))
    command, *rest = _BAD_ARGUMENTS[argument][0]
    message = error if flaw == "header" else _BAD_ARGUMENTS[argument][1]
    assert run_cli(capsys, command, str(bad), *(a.format(sigs=sigs) for a in rest)) == (
        2, "", f"error: {message}\n")


def test_intrude_dwell_runs_from_a_first_record_that_is_no_create(tmp_path, capsys):
    trace = build_trace([
        (IMAGE_LOAD, 4, 0, 0, "C:\\svc.exe", "", "C:\\Windows\\ntdll.dll"),
        (PROCESS_CREATE, 10, 4, 0, "C:\\svc.exe"),
        (THREAD_CREATE, 10, 4, 12, "C:\\svc.exe"),
        (PROCESS_CREATE, 11, 10, 0, "C:\\Windows\\System32\\cmd.exe",
         "/c vssadmin delete shadows /all /quiet"),
    ])
    path = tmp_path / "intr.lase"
    write_trace(trace, path)
    code, out, _ = run_cli(capsys, "intrude", str(path), "--dwell")
    assert code == 0
    first, rest = out.split("\n", 1)
    assert json.loads(first)["seq"] == 4
    stats = json.loads(rest)
    assert stats["sessions"] == [{"label": str(path), "latency_seconds": 0.03}]
    assert stats["clean_traces"] == 0


def test_intrude_custom_rules(tmp_path, capsys):
    rules = tmp_path / "rules.tsv"
    rules.write_text("ScheduledTask\tProcessCreate\tcommand\tschtasks\\s+/create\n")
    trace = build_trace([
        (PROCESS_CREATE, 10, 4, 0, "C:\\Windows\\System32\\schtasks.exe", "/create /tn x /tr y"),
        (PROCESS_CREATE, 11, 4, 0, "C:\\Windows\\System32\\cmd.exe",
         "/c vssadmin delete shadows /all /quiet"),  # not covered by custom set
    ])
    path = tmp_path / "t.lase"
    write_trace(trace, path)
    code, out, _ = run_cli(capsys, "intrude", str(path), "--rules", str(rules))
    assert code == 0
    docs = [json.loads(x) for x in out.splitlines()]
    assert [d["category"] for d in docs] == ["ScheduledTask"]


def test_intrude_rules_take_no_flags_column(fixture_path, tmp_path, capsys):
    rules = tmp_path / "rules.tsv"
    rules.write_text("ScheduledTask\tProcessCreate\tcommand\tschtasks\\s+/create\tall\n")
    code, out, err = run_cli(capsys, "intrude", str(fixture_path), "--rules", str(rules))
    assert (code, out) == (2, "")
    assert err == "error: expected 4 tab-separated fields, got 5 (line 1)\n"


def test_bench_smoke_tsv(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bench", "--dir", str(tmp_path / "bench"),
                           "--files", "3", "--small", "1024", "--large", "4096",
                           "--reps", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "Operation\tSize\tBaseline KB/s\tInstrumented KB/s\tOverhead"
    assert len(lines) == 9  # header + 8 cells
    for line in lines[1:]:
        assert line.endswith("%")


def test_bench_always_runs_the_instrumented_half(tmp_path, capsys):
    # The instrumented half records its file operations to bench_events.lase,
    # so the overhead column compares two measured runs.
    target = tmp_path / "bench"
    code, _, _ = run_cli(capsys, "bench", "--dir", str(target), "--files", "2",
                         "--small", "64", "--large", "128", "--reps", "1")
    assert code == 0
    events = read_trace(target / "bench_events.lase")
    assert len(events.records) == 2 * 2 * 4  # files x sizes x operations


def test_bench_json_round_trips(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bench", "--dir", str(tmp_path / "bench"),
                           "--files", "2", "--small", "512", "--large", "1024",
                           "--reps", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {f"{op}/{size}" for op in ("write", "rewrite", "read", "reread")
                        for size in ("small", "large")}


def test_replay_round_trips_content(fixture_path, tmp_path, capsys):
    out_path = tmp_path / "replayed.lase"
    code, _, _ = run_cli(capsys, "replay", str(fixture_path), "--out", str(out_path))
    assert code == 0
    replayed = read_trace(out_path)
    assert len(replayed) == 38
    assert [r.global_seq for r in replayed.records] == list(range(1, 39))


def test_replay_with_pipeline_knobs(fixture_path, tmp_path, capsys):
    out_path = tmp_path / "replayed.lase"
    code, _, _ = run_cli(capsys, "replay", str(fixture_path), "--out", str(out_path),
                         "--producers", "2", "--consumers", "2", "--ring", "8",
                         "--chunk", "4", "--policy", "block")
    assert code == 0
    assert len(read_trace(out_path)) == 38


def test_replay_reports_loss_on_stderr(fixture_path, tmp_path, capsys):
    out_path = tmp_path / "replayed.lase"
    code, out, err = run_cli(capsys, "replay", str(fixture_path), "--out", str(out_path),
                             "--policy", "reject", "--ring", "8", "--chunk", "8")
    assert (code, out) == (0, "")
    assert err == "warning: replay kept 8 of 38 events (policy reject)\n"
    assert len(read_trace(out_path)) == 8
    code, out, err = run_cli(capsys, "replay", str(fixture_path), "--out", str(out_path))
    assert (code, out, err) == (0, "", "")  # a lossless replay stays silent


@pytest.mark.parametrize("producers, consumers", [(2, 0), (0, 2), (1, 0), (0, 1), (-1, 1), (1, -1)])
def test_replay_needs_a_producer_and_a_consumer(fixture_path, tmp_path, producers, consumers):
    # In a fresh interpreter: with no consumer the producers used to block
    # on a full ring forever.
    out_path = tmp_path / "replayed.lase"
    code, out, err = run_lase("replay", fixture_path, "--out", out_path,
                              "--producers", producers, "--consumers", consumers,
                              "--ring", "8", "--chunk", "4", timeout=30)
    assert (code, out) == (2, "")
    assert err == (f"error: replay needs at least one producer and one consumer, "
                   f"got {producers} and {consumers}\n")
    assert not out_path.exists()


def test_tree_of_a_deep_process_chain(tmp_path, capsys):
    # Each process is created by the one before; a recursive subtree walk
    # ran out of stack at about 1,000 generations.
    depth = 10_000
    path = tmp_path / "chain.lase"
    write_trace(build_trace([(PROCESS_CREATE, 4 + i, 3 + i) for i in range(1, depth)]), path)
    code, out, err = run_cli(capsys, "tree", str(path), "--root", "4")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert sum(" [label=" in line for line in lines) == depth
    assert sum(" -> " in line for line in lines) == depth - 1
    code, out, err = run_cli(capsys, "tree", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["nodes"]) == depth
    code, out, err = run_cli(capsys, "tree", str(path), "--root", "4", "--format", "json")
    assert (code, err) == (0, "")
    assert [node["pid"] for node in json.loads(out)["nodes"]] == list(range(4, 4 + depth))


def subtree_doc(built, key) -> dict:
    """The subtree document under key, built at once: the reference the
    JSON written node by node must print byte for byte through json.dumps."""
    return {
        "root": [key.pid, key.birth_seq],
        "nodes": [
            {
                "pid": node.key.pid,
                "birth_seq": node.key.birth_seq,
                "image_path": node.image_path,
                "args": node.args,
                "io_summary": {m: {"count": t.count, "duration_us": t.duration_us}
                               for m, t in sorted(node.io_summary.items())},
                "dropped_files": node.dropped_files,
                "children": [[c.pid, c.birth_seq] for c in node.children],
            }
            for _, node in forest.subtree(built, key)
        ],
    }


def forest_doc(built) -> dict:
    """The whole forest's document, built at once: the reference the JSON
    written node by node must print byte for byte through json.dumps."""
    return {
        "roots": [[k.pid, k.birth_seq] for k in built.roots],
        "created": built.created_count(),
        "preexisting": built.preexisting_count(),
        "warnings": built.warnings,
        "nodes": [
            {
                "pid": key.pid,
                "birth_seq": key.birth_seq,
                "parent": [node.parent.pid, node.parent.birth_seq] if node.parent else None,
                "image_path": node.image_path,
                "args": node.args,
                "threads": node.threads,
                "images": node.images,
                "io_summary": {m: {"count": t.count, "duration_us": t.duration_us}
                               for m, t in sorted(node.io_summary.items())},
                "children": [[c.pid, c.birth_seq] for c in node.children],
            }
            for key, node in sorted(built.index.items(), key=lambda kv: (kv[0].birth_seq, kv[0].pid))
        ],
    }


def reference_dot(built, root=None, name="trace") -> str:
    """DOT text as a list of every line, joined once, with its newline
    added after: the formula the batched render_dot must match."""
    lines = [f'digraph "{forest._dot_escape(name)}" {{', "  rankdir=LR;"]
    if root is None:
        keys = sorted(built.index, key=lambda k: (k.birth_seq, k.pid))
        lines += (forest._dot_node(built.index[key]).rstrip("\n") for key in keys)
        lines += [f"  {forest._node_id(key)} -> {forest._node_id(child)};"
                  for key in keys for child in built.index[key].children]
    else:
        for parent, node in forest.subtree(built, root):
            if parent is not None:
                lines.append(f"  {forest._node_id(parent.key)} -> {forest._node_id(node.key)};")
            lines.append(forest._dot_node(node).rstrip("\n"))
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source", ["fixture", "generated", "pid reuse"])
def test_tree_output_matches_the_one_shot_formulas(source, fixture_trace, tmp_path, capsys):
    # DOT is joined in batches and JSON written as it is encoded; the bytes
    # are those of one join and of json.dumps, whole and under --root.
    from lase.pipeline import WorkloadSpec, run_synthetic
    from test_injection import random_rows, trace_of

    if source == "fixture":
        trace = fixture_trace
    elif source == "generated":  # more lines than one batch
        trace = run_synthetic(WorkloadSpec(seed=2, events_per_producer=12_000, injection_templates=4))
    else:
        trace = trace_of(random_rows(random.Random(3)), False)
    path = tmp_path / "t.lase"
    write_trace(trace, path)
    built = forest.build_forest(trace)
    assert len(built.index) > 3 and (source != "generated" or len(built.index) * 2 > forest._DOT_BATCH)
    _, _, err = run_cli(capsys, "tree", str(path))
    assert err == "".join(f"warning: {w}\n" for w in built.warnings)
    assert (source == "pid reuse") == bool(built.warnings)
    assert run_cli(capsys, "tree", str(path)) == (0, reference_dot(built), err)
    whole = json.dumps(forest_doc(built), indent=2, sort_keys=True) + "\n"
    assert run_cli(capsys, "tree", str(path), "--format", "json") == (0, whole, err)
    for key in [*built.roots, max(built.index, key=lambda k: len(built.index[k].children))]:
        spec = f"{key.pid}:{key.birth_seq}"
        dot = reference_dot(built, key, name=f"subtree_{key.pid}")
        assert run_cli(capsys, "tree", str(path), "--root", spec) == (0, dot, err)
        doc = json.dumps(subtree_doc(built, key), indent=2, sort_keys=True) + "\n"
        assert run_cli(capsys, "tree", str(path), "--root", spec, "--format", "json") == (0, doc, err)


@pytest.mark.parametrize("depth", [None, 300])
def test_subtree_json_matches_json_dumps(fixture_trace, tmp_path, capsys, depth):
    trace = fixture_trace if depth is None else build_trace(
        [(PROCESS_CREATE, 4 + i, 3 + i, 0, f"C:\\p{i}.exe", f"-n {i}") for i in range(1, depth)])
    path = tmp_path / "t.lase"
    write_trace(trace, path)
    built = forest.build_forest(trace)
    # every fixture process; the chain's root, whose subtree is the whole chain
    for key in built.index if depth is None else [forest.ProcessKey(4, 0)]:
        expected = json.dumps(subtree_doc(built, key), indent=2, sort_keys=True)
        code, out, err = run_cli(capsys, "tree", str(path), "--root", f"{key.pid}:{key.birth_seq}",
                                 "--format", "json")
        assert (code, out, err) == (0, expected + "\n", "")


@pytest.mark.parametrize("shape", [chain, fan_out])
def test_tree_output_grows_linearly(shape, tmp_path, capsys):
    # A subtree nested each child in its parent, indented by its depth, so
    # a chain's --root JSON grew with the square of its length: 5.06 MB at
    # 500 processes and 80.3 MB at 2,000.
    sizes = {}
    for n in (500, 2000):
        path = tmp_path / f"{n}.lase"
        write_trace(shape(n), path)
        for flags in ([], ["--format", "json"], ["--root", "10"], ["--root", "10", "--format", "json"]):
            code, out, err = run_cli(capsys, "tree", str(path), *flags)
            assert (code, err) == (0, "")
            sizes.setdefault(" ".join(flags), []).append(len(out))
    assert {flags: big / small for flags, (small, big) in sizes.items() if big > 5 * small} == {}


@pytest.mark.parametrize("seed", [None, 3, 4, 5])
def test_subtree_json_and_dot_list_the_same_nodes(seed, fixture_trace, tmp_path, capsys):
    from test_injection import random_rows, trace_of

    trace = fixture_trace if seed is None else trace_of(random_rows(random.Random(seed)), False)
    path = tmp_path / "t.lase"
    write_trace(trace, path)
    built = forest.build_forest(trace)
    pids = [key.pid for key in built.index]
    assert seed is None or len(set(pids)) < len(pids)  # a pid is reused
    for key in built.index:
        spec = f"{key.pid}:{key.birth_seq}"
        dot = run_cli(capsys, "tree", str(path), "--root", spec)[1]
        dot_keys = [forest.ProcessKey(int(pid), int(birth))
                    for pid, birth in re.findall(r"^  n(\d+)_(\d+) \[label=", dot, re.M)]
        doc = json.loads(run_cli(capsys, "tree", str(path), "--root", spec, "--format", "json")[1])
        assert doc["root"] == [key.pid, key.birth_seq]
        assert [forest.ProcessKey(n["pid"], n["birth_seq"]) for n in doc["nodes"]] == dot_keys
        for node in doc["nodes"]:
            children = [forest.ProcessKey(*child) for child in node["children"]]
            assert children == built.index[forest.ProcessKey(node["pid"], node["birth_seq"])].children


def test_intrude_multiple_traces_parallel(tmp_path, capsys):
    t1 = build_trace([
        (PROCESS_CREATE, 10, 4, 0, "C:\\Windows\\System32\\cmd.exe",
         "/c vssadmin delete shadows /all /quiet"),
    ])
    t2 = build_trace([
        (PROCESS_CREATE, 20, 4, 0, "C:\\Windows\\System32\\schtasks.exe",
         "/create /tn x /tr y"),
    ])
    p1, p2 = tmp_path / "one.lase", tmp_path / "two.lase"
    write_trace(t1, p1)
    write_trace(t2, p2)
    code, out, _ = run_cli(capsys, "intrude", str(p1), str(p2))
    assert code == 0
    docs = [json.loads(x) for x in out.splitlines()]
    assert [d["category"] for d in docs] == ["BackupErasure", "ScheduledTask"]


def test_default_signature_text_loads():
    from lase.fingerprint import load_signatures
    assert len(load_signatures(DEFAULT_SIGNATURE_TEXT)) == 4


def test_annotation_trace_through_cli(tmp_path, capsys):
    trace = build_trace([
        (PROCESS_CREATE, 70, 4, 0, "C:\\mal\\sample.exe"),
        (Annotation("api", "RDTSC"), 70, 4, 0, "C:\\mal\\sample.exe"),
    ])
    path = tmp_path / "ann.lase"
    write_trace(trace, path)
    code, out, _ = run_cli(capsys, "fingerprint", str(path))
    assert code == 0
    assert json.loads(out.splitlines()[0])["signature"] == "direct-cpu-clock-access"
