"""File I/O throughput workload and overhead computation.

The workload creates a batch of files per size class, then times four
phases per repetition: write, rewrite (overwrite in place), read, and
reread (immediately after read, to exercise the page cache). A cell is the
mean KB/s across repetitions; per-repetition samples are kept so
run-to-run noise is inspectable. The workload runs twice: a baseline half,
then an instrumented half that submits one I/O event per file operation
through the recording pipeline, modeling the recording cost of an always-on
monitor. As in replay, the measuring thread submits and, whenever
the ring is full, drains it (pipeline.Recorder); no consumer thread runs.
The recorded events are written as a trace, bench_events.lase.

Overhead is |instrumented - baseline| / baseline * 100 per cell (absolute
value: a faster instrumented run still reports positive overhead).
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from .codec import TraceHeader, trace_from_records, write_trace
from .errors import MissingCell
from .events import EventRecord, Irp
from .irp import IrpCode
from .pipeline import PipelineConfig, Recorder

OPERATIONS = ("write", "rewrite", "read", "reread")
SIZE_LABELS = ("small", "large")
BLOCK_SIZE = 64 * 1024  # bytes per write and read call

_OP_MAJOR = {
    "write": "IRP_MJ_WRITE",
    "rewrite": "IRP_MJ_WRITE",
    "read": "IRP_MJ_READ",
    "reread": "IRP_MJ_READ",
}


@dataclass(frozen=True)
class BenchConfig:
    target_dir: Path | str
    file_count: int = 500
    small_size: int = 10 * 1024
    large_size: int = 10 * 1024 * 1024
    repetitions: int = 10

    def __post_init__(self):
        if self.small_size <= 0 or self.large_size <= 0:
            raise ValueError("file sizes must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.file_count < 1:
            raise ValueError("file_count must be >= 1")

    def size_of(self, label: str) -> int:
        return self.small_size if label == "small" else self.large_size

    def file_names(self, label: str) -> list[str]:
        return [f"bench_{label}_{i:04d}.bin" for i in range(self.file_count)]


@dataclass(frozen=True)
class CellStats:
    mean_kbps: float
    samples: tuple[float, ...]


@dataclass(frozen=True)
class BenchReport:
    baseline: dict[tuple[str, str], CellStats]
    instrumented: dict[tuple[str, str], CellStats]
    overhead: dict[tuple[str, str], float]


def _run_phase(op: str, paths: list[Path], size: int, block: bytes,
               recorder: Recorder | None) -> float:
    """Run one phase over all files; returns elapsed seconds."""
    started = time.perf_counter()
    for path in paths:
        op_start = time.perf_counter()
        if op in ("write", "rewrite"):
            with open(path, "wb") as fh:
                remaining = size
                while remaining > 0:
                    fh.write(block[: min(BLOCK_SIZE, remaining)])
                    remaining -= BLOCK_SIZE
        else:
            with open(path, "rb") as fh:
                while fh.read(BLOCK_SIZE):
                    pass
        if recorder is not None:
            recorder.submit(EventRecord(
                global_seq=0, time=datetime.now(), kind=Irp(IrpCode(_OP_MAJOR[op])),
                pid=os.getpid(), duration_us=int((time.perf_counter() - op_start) * 1e6),
                image_path="lase-bench", file_path=path.name,
            ))
    return time.perf_counter() - started


def _measure(config: BenchConfig, recorder: Recorder | None) -> dict[tuple[str, str], CellStats]:
    """Measure one half: KB/s per (operation, size) cell, all 8 but any
    whose phase failed."""
    target = Path(config.target_dir)
    block = os.urandom(BLOCK_SIZE)
    samples: dict[tuple[str, str], list[float]] = {
        (op, label): [] for op in OPERATIONS for label in SIZE_LABELS
    }
    failed: set[tuple[str, str]] = set()
    for _rep in range(config.repetitions):
        for label in SIZE_LABELS:
            size = config.size_of(label)
            paths = [target / name for name in config.file_names(label)]
            total_kib = config.file_count * size / 1024.0
            for op in OPERATIONS:
                try:
                    elapsed = _run_phase(op, paths, size, block, recorder)
                except OSError as exc:
                    # an I/O failure (e.g. no space) kills the cell only
                    failed.add((op, label))
                    print(f"bench: {op}/{label} failed: {exc}", file=sys.stderr)
                    continue
                samples[(op, label)].append(total_kib / max(elapsed, 1e-9))
            for path in paths:
                path.unlink(missing_ok=True)
    return {
        key: CellStats(statistics.fmean(vals), tuple(vals))
        for key, vals in samples.items()
        if vals and key not in failed
    }


def run_workload(config: BenchConfig) -> BenchReport:
    """Measure the baseline half, then the instrumented half, and compare
    them. The instrumented half's events are written to bench_events.lase
    in target_dir, also when that half fails."""
    target = Path(config.target_dir)
    target.mkdir(parents=True, exist_ok=True)
    baseline = _measure(config, None)
    recorder = Recorder(PipelineConfig(ring_capacity=1024, chunk_size=256))
    try:
        instrumented = _measure(config, recorder)
    finally:
        trace = trace_from_records(
            recorder.finish(), TraceHeader(base_date=datetime.now().date(), host_label="bench"))
        write_trace(trace, target / "bench_events.lase")
    return overhead(baseline, instrumented)


def overhead(baseline: dict[tuple[str, str], CellStats],
             instrumented: dict[tuple[str, str], CellStats]) -> BenchReport:
    """Per-cell |instrumented - baseline| / baseline * 100, 2 decimals."""
    if set(baseline) != set(instrumented):
        missing = set(baseline) ^ set(instrumented)
        raise MissingCell(f"cell keys differ: {sorted(missing)}")
    pct = {key: round(abs(instrumented[key].mean_kbps - base.mean_kbps) / base.mean_kbps * 100, 2)
           for key, base in baseline.items()}
    return BenchReport(baseline, instrumented, pct)


_OP_TITLES = {"write": "Writer", "rewrite": "Re-writer", "read": "Reader", "reread": "Re-Reader"}


def report_to_tsv(report: BenchReport) -> str:
    lines = ["Operation\tSize\tBaseline KB/s\tInstrumented KB/s\tOverhead"]
    for op in OPERATIONS:
        for label in SIZE_LABELS:
            key = (op, label)
            if key not in report.overhead:
                continue
            lines.append(
                f"{_OP_TITLES[op]}\t{label}\t"
                f"{report.baseline[key].mean_kbps:,.0f}\t"
                f"{report.instrumented[key].mean_kbps:,.0f}\t"
                f"{report.overhead[key]:.2f}%"
            )
    return "\n".join(lines) + "\n"


def report_to_json(report: BenchReport) -> str:
    import json

    doc = {}
    for op in OPERATIONS:
        for label in SIZE_LABELS:
            key = (op, label)
            if key not in report.overhead:
                continue
            doc[f"{op}/{label}"] = {
                "baseline_kbps": report.baseline[key].mean_kbps,
                "baseline_samples": list(report.baseline[key].samples),
                "instrumented_kbps": report.instrumented[key].mean_kbps,
                "instrumented_samples": list(report.instrumented[key].samples),
                "overhead_pct": report.overhead[key],
            }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
