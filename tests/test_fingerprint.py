from __future__ import annotations

import json
import tracemalloc
from datetime import timedelta

import pytest

from helpers import BASE_TIME, build_trace

from lase.codec import Trace, TraceHeader, trace_from_records
from lase.errors import SignatureParseError
from lase.events import (
    IMAGE_LOAD,
    PROCESS_CREATE,
    PROCESS_EXIT,
    Annotation,
    EventRecord,
    Irp,
    kind_name,
)
from lase import fingerprint
from lase.fingerprint import (
    FingerprintFinding,
    default_signatures,
    load_signatures,
    scan,
)
from lase.forest import ProcessKey, build_forest, findings_to_jsonl
from lase.irp import IrpCode
from lase.pipeline import WorkloadSpec, run_synthetic

READ = Irp(IrpCode("IRP_MJ_READ"))


def test_default_signature_set():
    sigs = default_signatures()
    assert [s.name for s in sigs] == [
        "calls-wmi", "direct-cpu-clock-access", "GetTickCount", "checks-bios"]
    assert all(not s.require_all and s.scope == "process" for s in sigs)


def test_empty_source_yields_empty_set():
    assert load_signatures("") == []
    assert load_signatures("# only a comment\n") == []


def test_malformed_regex_reports_line():
    with pytest.raises(SignatureParseError) as exc:
        load_signatures("ok\tIrp\tfile_path\t.*\nbad\tIrp\tfile_path\t(unclosed\n")
    assert exc.value.line_no == 2


def test_duplicate_name_rejected():
    text = ("a\tIrp\tfile_path\tx\n"
            "b\tIrp\tfile_path\ty\n"
            "a\tIrp\tfile_path\tz\n")  # non-consecutive reuse
    with pytest.raises(SignatureParseError):
        load_signatures(text)


def test_consecutive_lines_extend_one_signature():
    text = ("multi\tImageLoad\tfile_path\tfoo\n"
            "multi\tIrp\tfile_path\tbar\n")
    sigs = load_signatures(text)
    assert len(sigs) == 1
    assert len(sigs[0].matchers) == 2


def test_flags_parse():
    sigs = load_signatures("s\tIrp\tfile_path\tx\tall,trace\n")
    assert sigs[0].require_all and sigs[0].scope == "trace"
    with pytest.raises(SignatureParseError):
        load_signatures("s\tIrp\tfile_path\tx\tbogus\n")


def test_unknown_kind_and_field_rejected():
    with pytest.raises(SignatureParseError):
        load_signatures("s\tNotAKind\tfile_path\tx\n")
    with pytest.raises(SignatureParseError):
        load_signatures("s\tIrp\tnot_a_field\tx\n")


def test_fixture_wmi_finding(fixture_trace):
    findings = scan(fixture_trace, default_signatures())
    assert findings == [
        FingerprintFinding("calls-wmi", ProcessKey(11916, 381227), (381227,))
    ]
    assert findings[0].first_seq == 381227


def test_rdtsc_annotation_finding():
    trace = build_trace([
        (PROCESS_CREATE, 70, 4, 0, "C:\\mal\\sample.exe"),
        (Annotation("api", "RDTSC"), 70, 4, 0, "C:\\mal\\sample.exe"),
    ])
    findings = scan(trace, default_signatures())
    assert len(findings) == 1
    assert findings[0].signature == "direct-cpu-clock-access"
    assert findings[0].process == ProcessKey(70, 1)
    assert findings[0].evidence == (2,)


def test_scan_attributes_records_to_the_forests_process():
    # pid 9 has exited when pid 5 names it as parent, so the forest
    # synthesizes a pre-existing (9, 0); later records of pid 9 belong to it
    wmi_dll = "C:\\Windows\\System32\\wbem\\wbemcomn.dll"
    trace = build_trace([
        (PROCESS_CREATE, 9, 0, 0, "C:\\a\\nine.exe"),
        (PROCESS_EXIT, 9, 0, 0, "C:\\a\\nine.exe"),
        (PROCESS_CREATE, 5, 9, 0, "C:\\a\\five.exe"),
        (Annotation("api", "RDTSC"), 9, 0, 0, ""),
        (IMAGE_LOAD, 9, 0, 0, "", "", wmi_dll),
    ])
    forest = build_forest(trace)
    assert forest.node(ProcessKey(5, 3)).parent == ProcessKey(9, 0)
    assert forest.node(ProcessKey(9, 0)).images == 1
    assert forest.warnings == []
    findings = scan(trace, default_signatures())
    assert [(f.signature, f.process) for f in findings] == [
        ("direct-cpu-clock-access", ProcessKey(9, 0)), ("calls-wmi", ProcessKey(9, 0))]


def test_no_matching_events_yields_empty():
    trace = build_trace([
        (PROCESS_CREATE, 70, 4, 0, "C:\\plain\\app.exe"),
        (READ, 70, 4, 0, "C:\\plain\\app.exe", "", "C:\\data\\file.txt"),
    ])
    assert scan(trace, default_signatures()) == []


def template_trace(which: str):
    """Dedicated synthetic template per built-in signature."""
    rows = {
        "calls-wmi": [
            (PROCESS_CREATE, 80, 4, 0, "%SysWOW64%\\wbem\\WmiPrvSE.exe", "-secured -Embedding"),
        ],
        "direct-cpu-clock-access": [
            (PROCESS_CREATE, 81, 4, 0, "C:\\mal\\a.exe"),
            (Annotation("api", "QueryPerformanceCounter"), 81, 4, 0, "C:\\mal\\a.exe"),
        ],
        "GetTickCount": [
            (PROCESS_CREATE, 82, 4, 0, "C:\\mal\\b.exe"),
            (Annotation("api", "GetTickCount64"), 82, 4, 0, "C:\\mal\\b.exe"),
        ],
        "checks-bios": [
            (PROCESS_CREATE, 83, 4, 0, "C:\\mal\\c.exe"),
            (IMAGE_LOAD, 83, 4, 0, "C:\\mal\\c.exe", "", "%System32%\\smbios.dll"),
        ],
    }[which]
    return build_trace(rows)


@pytest.mark.parametrize("name", ["calls-wmi", "direct-cpu-clock-access",
                                  "GetTickCount", "checks-bios"])
def test_each_template_fires_only_its_signature(name):
    trace = template_trace(name)
    findings = scan(trace, default_signatures())
    assert [f.signature for f in findings] == [name]


def test_checks_bios_annotation_route():
    trace = build_trace([
        (PROCESS_CREATE, 84, 4, 0, "C:\\mal\\d.exe"),
        (Annotation("api", "GetSystemFirmwareTable"), 84, 4, 0, "C:\\mal\\d.exe"),
    ])
    findings = scan(trace, default_signatures())
    assert [f.signature for f in findings] == ["checks-bios"]


def test_matching_is_case_insensitive_and_separator_normalized():
    trace = build_trace([
        (PROCESS_CREATE, 85, 4, 0, "%SYSWOW64%/WBEM/WMIPRVSE.EXE"),
    ])
    findings = scan(trace, default_signatures())
    assert [f.signature for f in findings] == ["calls-wmi"]


def test_evidence_grouped_per_process_and_sorted():
    trace = build_trace([
        (PROCESS_CREATE, 90, 4, 0, "C:\\m\\x.exe"),
        (Annotation("api", "RDTSC"), 90, 4, 0, "C:\\m\\x.exe"),
        (PROCESS_CREATE, 91, 4, 0, "C:\\m\\y.exe"),
        (Annotation("api", "RDTSC"), 91, 4, 0, "C:\\m\\y.exe"),
        (Annotation("api", "RDTSC"), 90, 4, 0, "C:\\m\\x.exe"),
    ])
    findings = scan(trace, default_signatures())
    assert [(f.process.pid, f.evidence) for f in findings] == [(90, (2, 5)), (91, (4,))]


def test_require_all_semantics():
    text = ("combo\tImageLoad\tfile_path\tpayload\n"
            "combo\tAnnotation\tannotation[api]\t^RDTSC$\tall\n")
    sigs = load_signatures(text)
    only_load = build_trace([
        (PROCESS_CREATE, 92, 4, 0, "C:\\m\\z.exe"),
        (IMAGE_LOAD, 92, 4, 0, "C:\\m\\z.exe", "", "C:\\payload.dll"),
    ])
    assert scan(only_load, sigs) == []
    both = build_trace([
        (PROCESS_CREATE, 92, 4, 0, "C:\\m\\z.exe"),
        (IMAGE_LOAD, 92, 4, 0, "C:\\m\\z.exe", "", "C:\\payload.dll"),
        (Annotation("api", "RDTSC"), 92, 4, 0, "C:\\m\\z.exe"),
    ])
    findings = scan(both, sigs)
    assert len(findings) == 1
    assert findings[0].evidence == (2, 3)


def naive_scan_oracle(trace, signatures):
    """Filter-then-group reference: regex filter per matcher, then resolve
    each hit's owning process from create/exit intervals."""
    # liveness intervals per pid: [start, end or None while live, key]; at
    # most one is open, because a create closes the pid's live interval
    intervals: dict[int, list[list]] = {}

    def open_row(pid: int) -> list | None:
        return next((row for row in intervals.get(pid, ()) if row[1] is None), None)

    for r in trace.records:
        name = kind_name(r.kind)
        seq = r.global_seq
        rows = intervals.setdefault(r.pid, [])
        if name == "ProcessCreate":
            live = open_row(r.pid)
            if live is not None:
                live[1] = seq - 1
            if r.ppid != 0 and open_row(r.ppid) is None:
                # a parent that is not live becomes a live (ppid, 0)
                intervals.setdefault(r.ppid, []).append([seq, None, ProcessKey(r.ppid, 0)])
            rows.append([seq, None, ProcessKey(r.pid, seq)])
        elif not rows:  # a pid first seen here is the pre-existing (pid, 0)
            rows.append([0, seq if name == "ProcessExit" else None, ProcessKey(r.pid, 0)])
        elif name == "ProcessExit":
            live = open_row(r.pid)
            if live is not None:
                live[1] = seq

    def resolve(pid: int, seq: int) -> ProcessKey:
        rows = intervals.get(pid, [])
        open_rows = [(s, k) for s, e, k in rows if s <= seq and (e is None or seq <= e)]
        if open_rows:
            return max(open_rows)[1]
        ended = [(s, k) for s, e, k in rows if e is not None and e < seq]
        if ended:
            return max(ended)[1]  # stale attach, same as the builder
        return ProcessKey(pid, 0)

    grouped: dict[tuple[str, ProcessKey], list[int]] = {}
    for sig in signatures:
        for matcher in sig.matchers:
            for r in trace.records:
                if matcher.matches(r):
                    key = resolve(r.pid, r.global_seq)
                    grouped.setdefault((sig.name, key), []).append(r.global_seq)
    findings = [FingerprintFinding(name, key, tuple(sorted(set(seqs))))
                for (name, key), seqs in grouped.items()]
    findings.sort(key=lambda f: (f.first_seq, f.signature))
    return findings


# A child names the exited pid 9 as its parent, and 9 acts again.
EXITED_PARENT = [
    (PROCESS_CREATE, 9, 4, 0, "C:\\a\\nine.exe"),
    (PROCESS_EXIT, 9, 4, 0, "C:\\a\\nine.exe"),
    (PROCESS_CREATE, 5, 9, 0, "C:\\a\\five.exe"),
    (Annotation("api", "RDTSC"), 9, 0, 0, "C:\\a\\nine.exe"),
]
# Pid reuse: 9's first record synthesizes (9, 0), which exits; 9 is then
# created as (9, 3) and exits, and is named as a parent before it acts again.
REUSED_PARENT = [
    (Annotation("api", "RDTSC"), 9, 0, 0, "C:\\a\\nine.exe"),
    (PROCESS_EXIT, 9, 0, 0, "C:\\a\\nine.exe"),
    (PROCESS_CREATE, 9, 4, 0, "C:\\a\\nine.exe"),
    (PROCESS_EXIT, 9, 4, 0, "C:\\a\\nine.exe"),
    (PROCESS_CREATE, 5, 9, 0, "C:\\a\\five.exe"),
    (Annotation("api", "RDTSC"), 9, 0, 0, "C:\\a\\nine.exe"),
]


def test_oracle_takes_an_exited_parent_as_preexisting():
    # Naming the exited pid 9 as a parent makes (9, 0) its live instance,
    # also when (9, 0) already exists, so the later annotation belongs to
    # (9, 0), not to 9's exited created instance.
    sigs = default_signatures()
    for rows, evidence in ((EXITED_PARENT, (4,)), (REUSED_PARENT, (1, 6))):
        trace = build_trace(rows)
        want = [FingerprintFinding("direct-cpu-clock-access", ProcessKey(9, 0), evidence)]
        assert naive_scan_oracle(trace, sigs) == scan(trace, sigs) == want


@pytest.mark.parametrize("memo", [None, 2])
def test_scan_matches_naive_oracle_on_synthetic_traces(memo, monkeypatch):
    if memo is not None:  # a full memo searches each new text anew
        monkeypatch.setattr(fingerprint, "_TEXT_MEMO", memo)
    sigs = default_signatures()
    for seed in range(10):
        trace = run_synthetic(WorkloadSpec(seed=seed, producers=2, events_per_producer=300))
        assert scan(trace, sigs) == naive_scan_oracle(trace, sigs), f"seed {seed}"


def test_scan_searches_each_distinct_text_once_per_matcher(monkeypatch):
    searched = []
    hits = fingerprint.Matcher.hits
    monkeypatch.setattr(fingerprint.Matcher, "hits", lambda m, text: searched.append(text) or hits(m, text))
    bios = "C:\\Windows\\drivers\\" * 50 + "bios.sys"  # a path that backtracks, short enough to keep
    assert len(bios) <= fingerprint.MEMO_TEXT_CHARS
    trace = build_trace([(PROCESS_CREATE, 90, 4, 0, "C:\\m\\x.exe")]
                        + [(READ, 90, 0, 0, "C:\\m\\x.exe", "", bios)] * 50
                        + [(IMAGE_LOAD, 90, 0, 0, "C:\\m\\x.exe", "", bios)] * 50)
    [finding] = scan(trace, default_signatures())
    assert (finding.signature, len(finding.evidence)) == ("checks-bios", 100)
    # calls-wmi and checks-bios each have one ImageLoad matcher; checks-bios
    # has one Irp matcher; calls-wmi has one ProcessCreate matcher.
    assert sorted(searched) == sorted([bios] * 3 + ["C:\\m\\x.exe"])


def test_scan_searches_a_text_too_long_to_keep_on_every_record(monkeypatch):
    searched = []
    hits = fingerprint.Matcher.hits
    monkeypatch.setattr(fingerprint.Matcher, "hits", lambda m, text: searched.append(text) or hits(m, text))
    long = "C:\\" + "a" * fingerprint.MEMO_TEXT_CHARS
    scan(build_trace([(IMAGE_LOAD, 90, 0, 0, "C:\\m\\x.exe", "", long)] * 5), default_signatures())
    assert searched == [long] * 10  # the ImageLoad matchers of calls-wmi and checks-bios


def test_scan_keeps_no_long_text():
    """400 image loads, each with its own 10,000-character path, streamed
    through the scan: its memos keep none of them (4 MB if they did)."""
    def records():
        for seq in range(1, 401):
            yield EventRecord(global_seq=seq, time=BASE_TIME + timedelta(milliseconds=seq),
                              kind=IMAGE_LOAD, pid=90, ppid=4, tid=0, duration_us=None,
                              image_path="C:\\m\\x.exe", args="",
                              file_path=f"C:\\{seq:05d}".ljust(10_000, "a"))

    trace = Trace(TraceHeader(base_date=BASE_TIME.date()), records())
    tracemalloc.start()
    try:
        assert scan(trace, default_signatures()) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000 * 400 / 4


def test_scan_is_pure_and_idempotent(fixture_trace):
    sigs = default_signatures()
    first = scan(fixture_trace, sigs)
    second = scan(fixture_trace, sigs)
    assert first == second


def test_concatenating_traces_unions_findings():
    from dataclasses import replace
    sigs = default_signatures()
    t1 = template_trace("direct-cpu-clock-access")
    t2 = template_trace("GetTickCount")
    shift = len(t1.records)
    rebased = [replace(r, global_seq=r.global_seq + shift) for r in t2.records]
    combined = trace_from_records(list(t1.records) + rebased, t1.header)
    combined_findings = scan(combined, sigs)
    names = {f.signature for f in combined_findings}
    assert names == {"direct-cpu-clock-access", "GetTickCount"}
    f1 = scan(t1, sigs)
    assert combined_findings[0].evidence == f1[0].evidence  # first trace unshifted
    f2 = scan(t2, sigs)
    second = next(f for f in combined_findings if f.signature == "GetTickCount")
    assert second.evidence == tuple(s + shift for s in f2[0].evidence)  # re-based


def test_findings_jsonl(fixture_trace):
    findings = scan(fixture_trace, default_signatures())
    lines = findings_to_jsonl(findings).splitlines()
    assert [json.loads(x)["signature"] for x in lines] == ["calls-wmi"]
