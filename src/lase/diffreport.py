"""Differential comparison of two traces or trace corpora.

Extracts dropped-file sets (the rule is events.drops_file), builds extension
histograms (with NTFS alternate-data-stream handling: the stream component
after ":" is what gets counted, matching how payloads hide inside benign
carrier files), and reports per-extension and set-overlap statistics
between a baremetal ("a"/bare) and a virtualized ("b"/vm) run.

Percentage convention: pct_diff = (bare - vm) / vm * 100, one decimal;
overlap percentages are relative to the union size, two decimals.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .codec import Trace, read_trace
from .events import Irp, drops_file, normalize_path, path_basename


def dropped_files(trace: Trace) -> set[str]:
    """Normalized paths of the files the trace drops (events.drops_file)."""
    return {normalize_path(r.file_path) for r in trace.records if drops_file(r)}


def path_extension(path: str) -> str:
    """Extension of the final path component; ADS stream name wins.

    "asc.txt:script1.vbs" counts as vbs; no extension -> "(none)".
    """
    component = path_basename(path).rsplit(":", 1)[-1]
    dot = component.rfind(".")
    if dot <= 0 or dot == len(component) - 1:
        return "(none)"
    return component[dot + 1:].lower()


def extension_histogram(paths: Iterable[str]) -> dict[str, int]:
    return dict(Counter(path_extension(p) for p in paths))


def operation_counts(trace: Trace) -> dict[str, int]:
    """I/O event count per major identifier."""
    counts: Counter[str] = Counter()
    for record in trace.records:
        if isinstance(record.kind, Irp):
            counts[record.kind.code.major] += 1
    return dict(counts)


@dataclass(frozen=True)
class ExtDiff:
    count_a: int
    count_b: int
    abs_diff: int
    pct_diff: float | None  # None = division by zero ("infinite" increase)


@dataclass(frozen=True)
class Overlap:
    only_a: int
    only_b: int
    both: int
    pct_only_a: float
    pct_only_b: float
    pct_both: float

    @property
    def union(self) -> int:
        return self.only_a + self.only_b + self.both


@dataclass(frozen=True)
class DiffReport:
    per_extension: dict[str, ExtDiff]
    per_operation: dict[str, tuple[int, int]]
    overlap: Overlap


def ext_diff(count_a: int, count_b: int) -> ExtDiff:
    if count_b == 0:
        pct = None
    else:
        pct = round((count_a - count_b) / count_b * 100, 1)
    return ExtDiff(count_a, count_b, abs(count_a - count_b), pct)


def overlap_from_sizes(only_a: int, only_b: int, both: int) -> Overlap:
    union = only_a + only_b + both
    if union == 0:
        return Overlap(0, 0, 0, 0.0, 0.0, 0.0)
    return Overlap(
        only_a, only_b, both,
        round(only_a / union * 100, 2),
        round(only_b / union * 100, 2),
        round(both / union * 100, 2),
    )


def overlap_from_sets(a: set[str], b: set[str]) -> Overlap:
    both = len(a & b)
    return overlap_from_sizes(len(a) - both, len(b) - both, both)


def diff_report(hist_a: dict[str, int], hist_b: dict[str, int],
                op_counts_a: dict[str, int], op_counts_b: dict[str, int],
                files_a: set[str], files_b: set[str]) -> DiffReport:
    extensions = sorted(set(hist_a) | set(hist_b))
    per_ext = {ext: ext_diff(hist_a.get(ext, 0), hist_b.get(ext, 0)) for ext in extensions}
    per_op = {major: (op_counts_a.get(major, 0), op_counts_b.get(major, 0))
              for major in sorted(set(op_counts_a) | set(op_counts_b))}
    return DiffReport(per_ext, per_op, overlap_from_sets(files_a, files_b))


PairSummary = tuple[set[str], dict[str, int], set[str], dict[str, int]]


def _summarize(trace_a: Trace, trace_b: Trace) -> PairSummary:
    """What a report reads of one pair: each side's dropped files and
    operation counts."""
    return (dropped_files(trace_a), operation_counts(trace_a),
            dropped_files(trace_b), operation_counts(trace_b))


def _fold(summaries: Iterable[PairSummary], nonempty_only: bool = False) -> DiffReport:
    """One report over pair summaries; nonempty_only skips the pairs where
    neither side dropped a file."""
    hist_a: Counter[str] = Counter()
    hist_b: Counter[str] = Counter()
    ops_a: Counter[str] = Counter()
    ops_b: Counter[str] = Counter()
    all_a: set[str] = set()
    all_b: set[str] = set()
    for fa, oa, fb, ob in summaries:
        if nonempty_only and not fa and not fb:
            continue
        hist_a.update(extension_histogram(fa))
        hist_b.update(extension_histogram(fb))
        ops_a.update(oa)
        ops_b.update(ob)
        all_a |= fa
        all_b |= fb
    return diff_report(dict(hist_a), dict(hist_b), dict(ops_a), dict(ops_b), all_a, all_b)


def compare_traces(trace_a: Trace, trace_b: Trace, nonempty_only: bool = False) -> DiffReport:
    """One pair's report, folded as compare_corpora folds each pair."""
    return _fold([_summarize(trace_a, trace_b)], nonempty_only)


# --- corpus mode ----------------------------------------------------------

def _stem(path: Path) -> str:
    name = path.name
    for suffix in (".lase.gz", ".lase"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return path.stem


def pair_directories(dir_a: Path | str, dir_b: Path | str) -> list[tuple[str, Path, Path]]:
    """Pair trace files by stem; only stems present on both sides count."""
    def index(d: Path) -> dict[str, Path]:
        out: dict[str, Path] = {}
        for p in sorted(d.iterdir()):
            if p.name.endswith((".lase", ".lase.gz")):
                out.setdefault(_stem(p), p)
        return out

    left, right = index(Path(dir_a)), index(Path(dir_b))
    return [(stem, left[stem], right[stem]) for stem in sorted(left.keys() & right.keys())]


def compare_corpora(dir_a: Path | str, dir_b: Path | str,
                    nonempty_only: bool = False, workers: int = 1) -> DiffReport:
    """Aggregate a paired corpus comparison (pairing key = file stem).

    nonempty_only keeps only sample pairs where at least one side dropped a
    file, mirroring a "samples with file write activity" filter. Pairs are
    read one at a time on the calling thread, and each pair's decoded traces
    are freed once they are summarized. workers stays only for callers that
    pass 1; any other count is refused.
    """
    if workers != 1:
        raise ValueError(f"compare_corpora reads pairs one at a time; workers must be 1, got {workers}")

    def load(pair: tuple[str, Path, Path]) -> PairSummary:
        _, pa, pb = pair
        return _summarize(read_trace(pa), read_trace(pb))

    return _fold(map(load, pair_directories(dir_a, dir_b)), nonempty_only)


# --- rendering ------------------------------------------------------------

def format_pct(pct: float | None) -> str:
    return "∞" if pct is None else f"{pct:.1f}%"


def report_to_tsv(report: DiffReport) -> str:
    lines = ["Extension\tBare\tVM\tDifference (# | %)"]
    for ext, cell in sorted(report.per_extension.items()):
        lines.append(f"{ext}\t{cell.count_a:,}\t{cell.count_b:,}\t"
                     f"{cell.abs_diff:,} | {format_pct(cell.pct_diff)}")
    if report.per_operation:
        lines.append("")
        lines.append("Operation\tBare\tVM")
        for major, (ca, cb) in sorted(report.per_operation.items()):
            lines.append(f"{major}\t{ca:,}\t{cb:,}")
    o = report.overlap
    lines.append("")
    lines.append("Overlap\tCount\tPercent")
    lines.append(f"only bare\t{o.only_a:,}\t{o.pct_only_a:.2f}%")
    lines.append(f"only vm\t{o.only_b:,}\t{o.pct_only_b:.2f}%")
    lines.append(f"both\t{o.both:,}\t{o.pct_both:.2f}%")
    return "\n".join(lines) + "\n"


def report_to_json(report: DiffReport) -> str:
    o = report.overlap
    doc = {
        "per_extension": {
            ext: {
                "bare": cell.count_a,
                "vm": cell.count_b,
                "abs_diff": cell.abs_diff,
                "pct_diff": cell.pct_diff,
            }
            for ext, cell in sorted(report.per_extension.items())
        },
        "per_operation": {
            major: {"bare": ca, "vm": cb}
            for major, (ca, cb) in sorted(report.per_operation.items())
        },
        "overlap": {
            "only_bare": o.only_a, "only_vm": o.only_b, "both": o.both,
            "pct_only_bare": o.pct_only_a, "pct_only_vm": o.pct_only_b,
            "pct_both": o.pct_both,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
