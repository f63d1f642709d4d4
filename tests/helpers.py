"""Shared test helpers: random record generation and trace builders."""

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
)
from lase.forest import PRE_EXISTING_IMAGE
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
