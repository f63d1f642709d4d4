"""Shared test helpers: random record generation, trace builders, and the
oracles and reference tables that more than one test module checks against."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

from lase import cli
from lase.bench import CellStats
from lase.codec import Trace, TraceHeader, trace_from_records, write_trace
from lase.events import (
    IMAGE_LOAD,
    PROCESS_CREATE,
    PROCESS_EXIT,
    THREAD_CREATE,
    THREAD_EXIT,
    Annotation,
    EventRecord,
    IoMode,
    Irp,
    ProcessCreate,
    kind_name,
)
from lase.fingerprint import FingerprintFinding
from lase.forest import PRE_EXISTING_IMAGE, ProcessKey
from lase.intrusion import Tactic
from lase.irp import FAST_IO_MAJORS, MAJOR_REGISTRY, MINOR_REGISTRY, IrpCode
from lase.pipeline import EventPipeline

BASE_TIME = datetime(2024, 5, 6, 10, 0, 0)

SRC = Path(__file__).resolve().parent.parent / "src"

_PATH_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .%$()&-_"


def random_text(rng: random.Random, min_len: int = 1, max_len: int = 24) -> str:
    n = rng.randint(min_len, max_len)
    return "".join(rng.choice(_PATH_CHARS) for _ in range(n))


def random_path(rng: random.Random) -> str:
    parts = [random_text(rng, 1, 10) for _ in range(rng.randint(1, 4))]
    return "C:\\" + "\\".join(parts)


def random_record(rng: random.Random, seq: int) -> EventRecord:
    """Generate one well-formed record (validate_record must return [])."""
    when = BASE_TIME + timedelta(milliseconds=seq * 3 + rng.randint(0, 2))
    roll = rng.random()
    pid = rng.randint(1, 30000)
    if roll < 0.15:
        return EventRecord(seq, when, PROCESS_CREATE, pid=pid, ppid=rng.randint(0, 30000),
                           image_path=random_path(rng), args=rng.choice(["", random_text(rng)]))
    if roll < 0.25:
        return EventRecord(seq, when, PROCESS_EXIT, pid=pid, ppid=rng.randint(0, 30000),
                           image_path=random_path(rng))
    if roll < 0.35:
        kind = THREAD_CREATE if rng.random() < 0.5 else THREAD_EXIT
        return EventRecord(seq, when, kind, pid=pid, tid=rng.randint(1, 60000),
                           image_path=random_path(rng))
    if roll < 0.45:
        return EventRecord(seq, when, IMAGE_LOAD, pid=pid,
                           image_path=random_path(rng), file_path=random_path(rng))
    if roll < 0.52:
        return EventRecord(seq, when, Annotation("api", random_text(rng)), pid=pid,
                           tid=rng.choice([0, rng.randint(1, 60000)]))
    major = rng.choice(MAJOR_REGISTRY)
    if major in FAST_IO_MAJORS:
        mode = IoMode.FAST_IO
        minor = None
    else:
        mode = rng.choice([IoMode.SYNCHRONOUS, IoMode.ASYNCHRONOUS, IoMode.PAGING_IO])
        minor = rng.choice(MINOR_REGISTRY) if rng.random() < 0.1 else None
    error = rng.random() < 0.05
    return EventRecord(
        seq, when, Irp(IrpCode(major, minor), mode), pid=pid,
        tid=rng.choice([0, rng.randint(1, 60000)]),
        duration_us=rng.choice([None, rng.randint(0, 100000)]),
        image_path=random_path(rng),
        file_path="" if error else random_path(rng),
        result="ACCESS_DENIED" if error else "OK",
    )


def random_trace(rng: random.Random, n: int) -> Trace:
    records = [random_record(rng, seq) for seq in range(1, n + 1)]
    return trace_from_records(records, TraceHeader(base_date=BASE_TIME.date()))


def build_trace(rows: list[tuple], base: datetime = BASE_TIME) -> Trace:
    """Build a trace from (kind, pid, ppid, tid, image, args, file_path) rows.

    Sequence numbers are 1..N; each row advances time by 10 ms. Shorter
    tuples leave the remaining fields at defaults.
    """
    records = []
    for i, row in enumerate(rows):
        kind, pid, *rest = row
        ppid = rest[0] if len(rest) > 0 else 0
        tid = rest[1] if len(rest) > 1 else 0
        image = rest[2] if len(rest) > 2 else "C:\\bin\\proc.exe"
        args = rest[3] if len(rest) > 3 else ""
        file_path = rest[4] if len(rest) > 4 else ""
        duration = 50 if isinstance(kind, Irp) else None
        records.append(EventRecord(
            global_seq=i + 1, time=base + timedelta(milliseconds=10 * i), kind=kind,
            pid=pid, ppid=ppid, tid=tid, duration_us=duration,
            image_path=image, args=args, file_path=file_path,
        ))
    return trace_from_records(records, TraceHeader(base_date=base.date()))


# What the index rows of trace_of and random_rows pick from.
ROW_IMAGES = ["C:\\a\\one.exe", "C:\\A\\ONE.EXE", "C:/b/two.exe", "C:\\c\\three.exe",
              PRE_EXISTING_IMAGE, "<PRE-EXISTING>", ""]
_WRITE = Irp(IrpCode("IRP_MJ_WRITE"))
ROW_KINDS = [PROCESS_CREATE, PROCESS_CREATE, PROCESS_EXIT, THREAD_CREATE, THREAD_CREATE, THREAD_CREATE,
             THREAD_EXIT, IMAGE_LOAD, IMAGE_LOAD, _WRITE, Annotation("api", "RDTSC")]


def trace_of(rows: list[tuple[int, int, int, int, int]], self_parent_first: bool) -> Trace:
    """A trace from (kind, pid, ppid, image, time step in ms) index rows:
    pids are reused, time steps back as well as forward, and the creator
    image may be the placeholder's. With self_parent_first, the first record
    is a create at seq 0 whose ppid is its own pid."""
    records, when, seq = [], BASE_TIME, 0
    if self_parent_first:
        records.append(EventRecord(0, when, PROCESS_CREATE, pid=1, ppid=1, image_path=ROW_IMAGES[0]))
    for kind_i, pid, ppid, image_i, step in rows:
        seq += 1
        when += timedelta(milliseconds=step)
        kind = ROW_KINDS[kind_i]
        image = ROW_IMAGES[image_i]
        if isinstance(kind, ProcessCreate) and not image:
            image = ROW_IMAGES[0]
        records.append(EventRecord(seq, when, kind, pid=pid, ppid=ppid if kind is PROCESS_CREATE else 0,
                                   tid=pid * 10 + seq % 3 if kind in (THREAD_CREATE, THREAD_EXIT) else 0,
                                   duration_us=7 if kind is _WRITE else None, image_path=image,
                                   file_path="C:\\f.dll" if kind in (IMAGE_LOAD, _WRITE) else ""))
    return trace_from_records(records, TraceHeader(base_date=BASE_TIME.date()))


def random_rows(rng: random.Random) -> list[tuple[int, int, int, int, int]]:
    """Up to 80 random index rows for trace_of."""
    return [(rng.randrange(len(ROW_KINDS)), rng.randint(1, 6), rng.randint(0, 6),
             rng.randrange(len(ROW_IMAGES)), rng.choice([0, 5, 40, 400, 1500, 3000, -50, -2500]))
            for _ in range(rng.randint(1, 80))]


def _creates(pairs) -> Trace:
    """One process create per (pid, ppid), 7 ms apart, all of one image."""
    return trace_from_records(
        EventRecord(seq, BASE_TIME + timedelta(milliseconds=7 * seq), PROCESS_CREATE, pid=pid, ppid=ppid,
                    image_path="C:\\bin\\a.exe")
        for seq, (pid, ppid) in enumerate(pairs, 1))


def chain(depth: int) -> Trace:
    """A process chain depth long: the pre-existing pid 4 creates pid 10,
    and each process after it is created by the one before."""
    return _creates((10 + 2 * i, 10 + 2 * (i - 1) if i else 4) for i in range(depth))


def fan_out(n: int) -> Trace:
    """One parent with n children: the pre-existing pid 4 creates pid 10,
    which creates pids 12, 14, ... in turn."""
    return _creates([(10, 4)] + [(12 + 2 * i, 10) for i in range(n)])


def pid_churn(n: int) -> Trace:
    """One pid created and exited n times, each instance a WMI host whose
    command line adds a user (a fingerprint and an intrusion finding per
    instance)."""
    wmi = "C:\\Windows\\System32\\wbem\\wmiprvse.exe"
    rows = []
    for _ in range(n):
        rows += [(PROCESS_CREATE, 10, 4, 0, wmi, "net user lab /add"), (PROCESS_EXIT, 10, 0, 0, wmi)]
    return build_trace(rows)


def threads_in_one_process(n: int) -> Trace:
    """One process that starts n threads, then ends them in the same order."""
    tids = range(1000, 1000 + 4 * n, 4)
    return build_trace([(PROCESS_CREATE, 10, 4)] + [(THREAD_CREATE, 10, 0, tid) for tid in tids]
                       + [(THREAD_EXIT, 10, 0, tid) for tid in tids])


def remote_thread_pairs(n: int) -> Trace:
    """n remote-thread pairs into one target: each of n live processes of
    one image starts a thread in the target, which then loads a library."""
    target, injector = "C:\\victim\\service.exe", "C:\\bin\\injector.exe"
    rows = [(PROCESS_CREATE, 10, 4, 0, target), (THREAD_CREATE, 10, 0, 11, target)]
    for i in range(n):
        pid = 12 + 2 * i
        rows += [(PROCESS_CREATE, pid, 4, 0, injector),
                 (THREAD_CREATE, 10, 0, 100_000 + 4 * i, injector),
                 (IMAGE_LOAD, 10, 0, 0, target, "", "C:\\Windows\\System32\\wbem\\wbemcomn.dll")]
    return build_trace(rows)


def written_paths(n: int) -> Trace:
    """One process that writes n distinct file paths, each one a BIOS probe
    the built-in signatures flag."""
    write = Irp(IrpCode("IRP_MJ_WRITE"))
    return build_trace([(PROCESS_CREATE, 10, 4)]
                       + [(write, 10, 0, 0, "C:\\bin\\proc.exe", "", f"C:\\drop\\smbios{i}.bin")
                          for i in range(n)])


def evicted_seqs(pipeline: EventPipeline, taken: list[int]) -> list[int]:
    """The seqs a fully drained pipeline evicted: those in 1..accepted that
    no caller took out, by drain or through the priority sink.

    Asserts that the taken seqs are unique and in range, and that the rest
    number exactly stats.evicted.
    """
    accepted = pipeline.stats.accepted
    assert pipeline.buffered() == 0
    assert len(set(taken)) == len(taken)
    assert all(1 <= seq <= accepted for seq in taken)
    evicted = sorted(set(range(1, accepted + 1)).difference(taken))
    assert len(evicted) == pipeline.stats.evicted
    return evicted


def run_lase(*argv, timeout: float = 60) -> tuple[int, str, str]:
    """Run ``python -m lase.cli *argv`` in a fresh interpreter with src on
    PYTHONPATH; returns (exit code, stdout, stderr).

    A command still running after timeout seconds is killed and fails the
    calling test with the command line, instead of hanging the suite.
    """
    command = [sys.executable, "-m", "lase.cli", *map(str, argv)]
    try:
        done = subprocess.run(command, env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise AssertionError(f"{' '.join(command)} did not exit within {timeout} s") from None
    return done.returncode, done.stdout, done.stderr


def findings_jsonl(capsys, tmp_path: Path, command: str, trace: Trace) -> str:
    """The stdout of ``lase COMMAND TRACE`` run in process: the findings as
    JSON lines, written by the CLI. The trace is written under tmp_path."""
    path = tmp_path / "findings.lase"
    write_trace(trace, path)
    code = cli.main([command, str(path)])
    out = capsys.readouterr().out
    assert code == 0
    return out


def cells_of(means: dict) -> dict:
    """A bench cell map from one mean KB/s per cell, each its only sample."""
    return {key: CellStats(float(mean), (float(mean),)) for key, mean in means.items()}


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


def node_count_oracle(trace) -> int:
    """Single-pass brute-force counter of distinct keys: each create's
    (pid, seq), and the pre-existing (pid, 0) of a parent that is not live
    or of a pid that acts before any create. A create at seq 0 is its pid's
    (pid, 0) as well."""
    keys: set[tuple[int, int]] = set()
    live: set[int] = set()
    ever_created: set[int] = set()
    for r in trace.records:
        name = kind_name(r.kind)
        if name == "ProcessCreate":
            if r.ppid != 0 and r.ppid not in live:
                keys.add((r.ppid, 0))
            keys.add((r.pid, r.global_seq))
            live.add(r.pid)
            ever_created.add(r.pid)
        else:
            if r.pid not in live and r.pid not in ever_created:
                keys.add((r.pid, 0))
            if name == "ProcessExit":
                live.discard(r.pid)
    return len(keys)


def from_seq_zero(rows):
    """build_trace numbers records from 1; these start at 0."""
    trace = build_trace(rows)
    return trace_from_records([r.with_seq(r.global_seq - 1) for r in trace.records], trace.header)


# 7 is created at seq 0, so it is (7, 0); it exits and is named as a parent.
SEQ_ZERO_PARENT = [
    (PROCESS_CREATE, 7, 0, 0, "C:\\a\\seven.exe"),
    (PROCESS_EXIT, 7),
    (PROCESS_CREATE, 8, 7),
]


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


# Reference per-extension counts with their expected percentage cells,
# hand-checked against (bare - vm) / vm * 100.
REFERENCE_ROWS = [
    ("cab", 3504, 1989, 76.2), ("pak", 8805, 7206, 22.2),
    ("api", 22594, 7480, 202.1), ("appx", 2553, 557, 358.3),
    ("bin", 4891, 2053, 138.2), ("cur", 6772, 2070, 227.1),
    ("dat", 5600, 3156, 77.4), ("dll", 333946, 71361, 368.0),
    ("exe", 2160744, 1114617, 93.9), ("js", 586494, 197952, 196.3),
    ("pmp", 2674, 917, 191.6), ("pyd", 1278, 789, 62.0),
    ("sequ", 4879, 1555, 213.8), ("html", 32586, 13380, 143.5),
    ("mpp", 2888, 924, 212.6), ("pdf", 19595, 13321, 47.1),
    ("rtf", 1355, 910, 48.9), ("x3d", 4662, 1391, 235.2),
    ("xml", 13254, 4780, 177.3), ("eot", 2697, 871, 209.6),
    ("otf", 25360, 7586, 234.3), ("woff", 2662, 1707, 55.9),
    ("bmp", 1383, 169, 718.3), ("gif", 75298, 24718, 204.6),
    ("ico", 28806, 18479, 55.9), ("jpg", 16865, 5462, 208.8),
    ("png", 266327, 136027, 95.8), ("svg", 346531, 121429, 185.4),
    ("aapp", 35181, 10773, 226.6), ("css", 46271, 15218, 204.1),
    ("dic", 1873, 627, 198.7), ("ini", 13668, 4937, 176.8),
    ("json", 21681, 1430, 1416.2), ("lnk", 1160, 912, 27.2),
    ("log", 15285, 7987, 91.4), ("tmp", 84564, 34789, 143.1),
    ("txt", 109031, 29770, 266.2), ("wav", 2924, 81, 3509.9),
]
