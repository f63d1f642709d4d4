from __future__ import annotations

import io
import json

import pytest

from helpers import build_trace

from lase.cli import main
from lase.codec import read_trace, write_trace
from lase.events import PROCESS_CREATE, Annotation
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


def test_tree_subtree_by_root(fixture_path, capsys):
    code, out, _ = run_cli(capsys, "tree", str(fixture_path), "--root", "916",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pid"] == 916
    pids = set()

    def collect(node):
        pids.add(node["pid"])
        for child in node["children"]:
            collect(child)

    collect(doc)
    assert {7028, 11916, 7660, 10464} <= pids
    assert 10092 not in pids  # other tree


def test_tree_unknown_root_is_input_error(fixture_path, capsys):
    code, _, err = run_cli(capsys, "tree", str(fixture_path), "--root", "31337")
    assert code == 2


def test_inject_scan_jsonl(tmp_path, capsys):
    from lase.pipeline import WorkloadSpec, run_synthetic
    trace = run_synthetic(WorkloadSpec(seed=5, producers=1, events_per_producer=50,
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


def test_fingerprint_env_var_signatures(fixture_path, tmp_path, capsys, monkeypatch):
    sig = tmp_path / "only_wmi.sig"
    sig.write_text("calls-wmi\tProcessCreate\timage_path\twmiprvse\n")
    monkeypatch.setenv("LASE_SIGNATURES", str(sig))
    code, out, _ = run_cli(capsys, "fingerprint", str(fixture_path))
    assert code == 0
    assert len(out.splitlines()) == 1


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


def test_bench_smoke_tsv(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bench", "--dir", str(tmp_path / "bench"),
                           "--files", "3", "--small", "1024", "--large", "4096",
                           "--reps", "1", "--instrumented")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "Operation\tSize\tBaseline KB/s\tInstrumented KB/s\tOverhead"
    assert len(lines) == 9  # header + 8 cells
    for line in lines[1:]:
        assert line.endswith("%")


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
