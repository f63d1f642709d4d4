"""Shared test helpers: random record generation and trace builders."""

from __future__ import annotations

import random
from datetime import datetime, timedelta

from lase.codec import Trace, TraceHeader, trace_from_records
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
)
from lase.irp import FAST_IO_MAJORS, MAJOR_REGISTRY, MINOR_REGISTRY, IrpCode
from lase.pipeline import EventPipeline

BASE_TIME = datetime(2024, 5, 6, 10, 0, 0)

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
