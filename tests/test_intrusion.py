from __future__ import annotations

import json
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_trace

from lase.codec import trace_from_records
from lase.errors import SignatureParseError
from lase.events import PROCESS_CREATE, EventRecord, Irp
from lase.intrusion import (
    DEFAULT_RULES,
    Tactic,
    command_evidence,
    dwell_stats,
    find_system32_writes,
    load_rules,
    normalize_command,
    scan_commands,
)
from lase.forest import findings_to_jsonl
from lase.irp import IrpCode

# Verbatim attacker command lines with their expected tactic.
MALICIOUS = [
    ("powershell.exe", "vssadmin delete shadows /all /quiet", Tactic.BACKUP_ERASURE),
    ("cmd.exe", "/c wbadmin delete catalog -quiet", Tactic.BACKUP_ERASURE),
    ("wmic.exe", "shadowcopy delete", Tactic.BACKUP_ERASURE),
    ("net.exe", "user backdoor Hunter2! /add", Tactic.ACCOUNT_MANIPULATION),
    ("cmd.exe", "/c net localgroup administrators backdoor /add", Tactic.ACCOUNT_MANIPULATION),
    ("net.exe", "accounts /maxpwge:unlimited", Tactic.PASSWORD_POLICY),
    ("net.exe", "accounts /maxpwage:unlimited", Tactic.PASSWORD_POLICY),
    ("wmic.exe", "group where \"sid = 's-1-5-32-544'\" get name /value | find \"=\"",
     Tactic.GROUP_ENUMERATION),
    ("schtasks.exe", "/create /tn Updater /tr C:\\stage\\run.exe /sc onlogon",
     Tactic.SCHEDULED_TASK),
    ("reg.exe",
     "add \"HKLM\\Software\\Microsoft\\Windows NT\\CurrentVersion\\Winlogon"
     "\\SpecialAccounts\\Userlist\" /v support /t REG_DWORD /d 0",
     Tactic.HIDDEN_ACCOUNT),
]

BENIGN = [
    ("cmd.exe", "dir"),
    ("ipconfig.exe", "/all"),
    ("net.exe", "use \\\\server\\share"),
    ("whoami.exe", "/groups"),
    ("ping.exe", "-n 1 localhost"),
    ("tasklist.exe", "/v"),
    ("cmd.exe", "/c echo hello world"),
    ("cmd.exe", "/c type C:\\readme.txt"),
    ("hostname.exe", ""),
    ("schtasks.exe", "/query /fo list"),
]


def trace_of_commands(commands):
    rows = [(PROCESS_CREATE, 1000 + i, 4, 0, f"C:\\Windows\\System32\\{image}", args)
            for i, (image, args) in enumerate(commands)]
    return build_trace(rows)


@pytest.mark.parametrize("image,args,tactic", MALICIOUS)
def test_each_malicious_command_hits_its_tactic(image, args, tactic):
    trace = trace_of_commands([(image, args)])
    findings = scan_commands(trace)
    assert [f.category for f in findings] == [tactic]
    assert findings[0].matched_text in command_evidence(image, args)


def test_benign_templates_never_fire():
    assert scan_commands(trace_of_commands(BENIGN)) == []


def test_exact_match_counts_over_combined_trace():
    trace = trace_of_commands([(i, a) for i, a, _ in MALICIOUS] + BENIGN)
    findings = scan_commands(trace)
    assert len(findings) == len(MALICIOUS)
    assert [f.seq for f in findings] == sorted(f.seq for f in findings)
    assert [f.category for f in findings] == [t for _, _, t in MALICIOUS]


def test_finding_carries_process_key_and_seq():
    trace = trace_of_commands([("powershell.exe", "vssadmin delete shadows /all /quiet")])
    finding = scan_commands(trace)[0]
    assert finding.process.pid == 1000
    assert finding.process.birth_seq == finding.seq == 1


def test_whitespace_and_case_normalization():
    trace = trace_of_commands([("CMD.EXE", "/c   VSSADMIN   Delete   Shadows  /All /Quiet")])
    findings = scan_commands(trace)
    assert [f.category for f in findings] == [Tactic.BACKUP_ERASURE]
    assert findings[0].matched_text == "vssadmin delete shadows"


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_normalize_is_idempotent(text):
    once = normalize_command(text)
    assert normalize_command(once) == once


def test_evidence_strips_image_extension():
    assert command_evidence("C:\\Windows\\System32\\vssadmin.exe",
                            "delete shadows /all /quiet") == "vssadmin delete shadows /all /quiet"


def naive_rule_oracle(trace, rules=DEFAULT_RULES):
    hits = []
    for r in trace.records:
        if type(r.kind).__name__ != "ProcessCreate":
            continue
        base = r.image_path.replace("/", "\\").rsplit("\\", 1)[-1]
        base = base.rsplit(".", 1)[0] if "." in base else base
        text = " ".join(f"{base} {r.args}".split()).lower()
        for rule in rules:
            m = rule.pattern.search(text)
            if m:
                hits.append((r.global_seq, rule.category, m.group(0)))
    return hits


def test_scan_matches_naive_oracle():
    trace = trace_of_commands([(i, a) for i, a, _ in MALICIOUS] + BENIGN * 3)
    got = [(f.seq, f.category, f.matched_text) for f in scan_commands(trace)]
    assert got == naive_rule_oracle(trace)


def test_load_rules_validates():
    rules = load_rules("BackupErasure\tProcessCreate\tcommand\tvssadmin\\s+delete\n")
    assert rules[0].category is Tactic.BACKUP_ERASURE
    with pytest.raises(SignatureParseError):
        load_rules("NotATactic\tProcessCreate\tcommand\tx\n")
    with pytest.raises(SignatureParseError):
        load_rules("BackupErasure\tImageLoad\tcommand\tx\n")
    with pytest.raises(SignatureParseError):
        load_rules("BackupErasure\tProcessCreate\tcommand\t(unclosed\n")


# --- dwell-time statistics ---------------------------------------------------

def session(start: datetime, finding_offset: timedelta | None):
    rows = [EventRecord(1, start, PROCESS_CREATE, pid=10, ppid=4, image_path="C:\\svc.exe")]
    if finding_offset is not None:
        rows.append(EventRecord(
            2, start + finding_offset, PROCESS_CREATE, pid=11, ppid=10,
            image_path="C:\\Windows\\System32\\cmd.exe",
            args="/c vssadmin delete shadows /all /quiet"))
    rows.append(EventRecord(3, start + timedelta(hours=8), PROCESS_CREATE, pid=12,
                            ppid=10, image_path="C:\\idle.exe"))
    return trace_from_records(rows)


def test_single_session_thirty_minutes():
    start = datetime(2024, 1, 5, 0, 0, 0)
    stats = dwell_stats([session(start, timedelta(minutes=30))])
    assert stats.mean_latency == timedelta(minutes=30)
    assert stats.median_latency == timedelta(minutes=30)
    assert stats.n_clean == 0


def test_clean_sessions_counted_separately():
    start = datetime(2024, 1, 5)
    stats = dwell_stats([session(start, None), session(start, None)])
    assert stats.mean_latency is None
    assert stats.median_latency is None
    assert stats.n_clean == 2


def test_three_sessions_mean_and_median():
    start = datetime(2024, 1, 5)
    stats = dwell_stats([
        session(start, timedelta(hours=1)),
        session(start, timedelta(hours=2)),
        session(start, timedelta(hours=6)),
    ])
    assert stats.mean_latency == timedelta(hours=3)
    assert stats.median_latency == timedelta(hours=2)
    assert stats.n_clean == 0


def test_mixed_sessions():
    start = datetime(2024, 1, 5)
    stats = dwell_stats([session(start, timedelta(hours=1)), session(start, None)])
    assert stats.mean_latency == timedelta(hours=1)
    assert stats.n_clean == 1
    assert stats.sessions[1].latency is None


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        dwell_stats([trace_from_records([])])


def test_latency_runs_to_the_first_of_several_findings():
    start = datetime(2024, 1, 5)
    create, erase = session(start, timedelta(minutes=20)).records[:2]
    add_user = EventRecord(3, start + timedelta(hours=3), PROCESS_CREATE, pid=13, ppid=10,
                           image_path="C:\\Windows\\System32\\net.exe", args="user eve /add")
    trace = trace_from_records([create, erase, add_user])
    assert len(scan_commands(trace)) == 2
    assert dwell_stats([trace]).sessions[0].latency == timedelta(minutes=20)


def test_latency_never_negative():
    start = datetime(2024, 1, 5)
    stats = dwell_stats([session(start, timedelta(0))])
    assert stats.mean_latency == timedelta(0)


# --- system32 write heuristic -------------------------------------------------

def test_system32_write_heuristic():
    write = Irp(IrpCode("IRP_MJ_WRITE"))
    trace = build_trace([
        (PROCESS_CREATE, 10, 4, 0, "C:\\app.exe"),
        (write, 10, 0, 0, "C:\\app.exe", "", "C:\\Windows\\System32\\evil.dll"),
        (write, 10, 0, 0, "C:\\app.exe", "", "C:\\Users\\x\\ok.txt"),
    ])
    hits = find_system32_writes(trace)
    assert hits == [(2, "C:\\Windows\\System32\\evil.dll")]


def test_findings_jsonl_shape():
    trace = trace_of_commands([("wmic.exe", "shadowcopy delete")])
    doc = json.loads(findings_to_jsonl(scan_commands(trace)).splitlines()[0])
    assert doc["category"] == "BackupErasure"
    assert doc["matched_text"] == "wmic shadowcopy delete"
