"""File I/O throughput workload and overhead computation.

The workload creates a batch of files per size class, then times four
phases per repetition: write, rewrite (overwrite in place), read, and
reread (immediately after read, to exercise the page cache). A cell is the
mean KB/s across repetitions; per-repetition samples and variance are kept
so run-to-run noise is inspectable. Instrumented mode submits one I/O event
per file operation through the recording pipeline with a live consumer
writing a trace, modeling the recording cost of an always-on monitor.

Overhead is |instrumented - baseline| / baseline * 100 per cell (absolute
value: a faster instrumented run still reports positive overhead).
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from .codec import TraceHeader, trace_from_records, write_trace
from .errors import MissingCell, PipelineClosed
from .events import EventRecord, Irp
from .irp import IrpCode
from .pipeline import EventPipeline, PipelineConfig

OPERATIONS = ("write", "rewrite", "read", "reread")
SIZE_LABELS = ("small", "large")

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
    instrumented: bool = False
    block_size: int = 64 * 1024

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

    @property
    def variance(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        return statistics.variance(self.samples)


@dataclass(frozen=True)
class BenchRun:
    """One measured half (baseline or instrumented): cells of KB/s."""

    cells: dict[tuple[str, str], CellStats]
    instrumented: bool
    events_submitted: int = 0
    events_drained: int = 0


@dataclass(frozen=True)
class BenchReport:
    baseline: dict[tuple[str, str], CellStats]
    instrumented: dict[tuple[str, str], CellStats]
    overhead: dict[tuple[str, str], float]


class _Recorder:
    """Pipeline + consumer thread collecting events, written as a trace on finish."""

    def __init__(self, out_path: Path):
        self.pipeline = EventPipeline(PipelineConfig(ring_capacity=1024, chunk_size=256))
        self.out_path = out_path
        self.submitted = 0
        self._drained: list[EventRecord] = []
        self._thread = threading.Thread(target=self._consume, daemon=True)
        self._thread.start()

    def _consume(self) -> None:
        while True:
            try:
                self._drained.extend(self.pipeline.drain())
            except PipelineClosed:
                return

    def record(self, op: str, file_path: str, duration_us: int) -> None:
        proto = EventRecord(
            global_seq=0, time=datetime.now(), kind=Irp(IrpCode(_OP_MAJOR[op])),
            pid=os.getpid(), duration_us=duration_us,
            image_path="lase-bench", file_path=file_path,
        )
        self.pipeline.submit(0, proto)
        self.submitted += 1

    def finish(self) -> int:
        self.pipeline.close()
        self._thread.join()
        trace = trace_from_records(
            self._drained, TraceHeader(base_date=datetime.now().date(), host_label="bench"))
        write_trace(trace, self.out_path)
        return len(self._drained)


def _run_phase(op: str, paths: list[Path], size: int, block: bytes,
               recorder: _Recorder | None) -> float:
    """Run one phase over all files; returns elapsed seconds."""
    block_size = len(block)
    started = time.perf_counter()
    for path in paths:
        op_start = time.perf_counter()
        if op in ("write", "rewrite"):
            with open(path, "wb") as fh:
                remaining = size
                while remaining > 0:
                    fh.write(block[: min(block_size, remaining)])
                    remaining -= block_size
        else:
            with open(path, "rb") as fh:
                while fh.read(block_size):
                    pass
        if recorder is not None:
            recorder.record(op, path.name, int((time.perf_counter() - op_start) * 1e6))
    return time.perf_counter() - started


def run_workload(config: BenchConfig) -> BenchRun:
    """Measure all 8 cells (4 operations x 2 sizes) for one mode."""
    target = Path(config.target_dir)
    target.mkdir(parents=True, exist_ok=True)
    recorder = _Recorder(target / "bench_events.lase") if config.instrumented else None
    block = os.urandom(config.block_size)
    samples: dict[tuple[str, str], list[float]] = {
        (op, label): [] for op in OPERATIONS for label in SIZE_LABELS
    }
    failed: set[tuple[str, str]] = set()
    try:
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
    finally:
        drained = recorder.finish() if recorder else 0
    cells = {
        key: CellStats(statistics.fmean(vals), tuple(vals))
        for key, vals in samples.items()
        if vals and key not in failed
    }
    return BenchRun(
        cells=cells,
        instrumented=config.instrumented,
        events_submitted=recorder.submitted if recorder else 0,
        events_drained=drained,
    )


def overhead(baseline: BenchRun | dict, instrumented: BenchRun | dict) -> BenchReport:
    """Per-cell |instrumented - baseline| / baseline * 100, 2 decimals."""
    base_cells = baseline.cells if isinstance(baseline, BenchRun) else baseline
    inst_cells = instrumented.cells if isinstance(instrumented, BenchRun) else instrumented
    if set(base_cells) != set(inst_cells):
        missing = set(base_cells) ^ set(inst_cells)
        raise MissingCell(f"cell keys differ: {sorted(missing)}")
    pct: dict[tuple[str, str], float] = {}
    for key, base in base_cells.items():
        b = base.mean_kbps if isinstance(base, CellStats) else float(base)
        inst = inst_cells[key]
        i = inst.mean_kbps if isinstance(inst, CellStats) else float(inst)
        pct[key] = round(abs(i - b) / b * 100, 2)
    as_stats = lambda cells: {  # noqa: E731
        k: (v if isinstance(v, CellStats) else CellStats(float(v), (float(v),)))
        for k, v in cells.items()
    }
    return BenchReport(as_stats(base_cells), as_stats(inst_cells), pct)


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
