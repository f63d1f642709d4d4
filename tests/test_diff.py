from __future__ import annotations

import collections
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_trace

from lase import diffreport
from lase.diffreport import (
    compare_corpora,
    compare_traces,
    diff_report,
    dropped_files,
    ext_diff,
    extension_histogram,
    format_pct,
    operation_counts,
    overlap_from_sets,
    overlap_from_sizes,
    pair_directories,
    path_extension,
    report_to_json,
    report_to_tsv,
)
from lase.events import PROCESS_CREATE, Irp, normalize_path
from lase.irp import IrpCode
from lase.pipeline import WorkloadSpec, run_synthetic

WRITE = Irp(IrpCode("IRP_MJ_WRITE"))
READ = Irp(IrpCode("IRP_MJ_READ"))
CREATE = Irp(IrpCode("IRP_MJ_CREATE"))

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


def test_fixture_dropped_files(fixture_trace):
    dropped = dropped_files(fixture_trace)
    assert normalize_path("C:\\ProgramData\\Podaliri4.exe") in dropped
    assert normalize_path("C:\\ProgramData\\asc.txt:script1.vbs") in dropped
    assert len(dropped) == 8  # the eight write targets of the file plane
    # opening the lure workbook is not a drop
    assert normalize_path("C:\\Users\\grace\\Downloads\\ORDER SHEET & SPEC.xlsm") not in dropped


def test_dropped_files_read_only_trace_is_empty():
    trace = build_trace([
        (PROCESS_CREATE, 10, 4, 0, "C:\\app.exe"),
        (READ, 10, 0, 0, "C:\\app.exe", "", "C:\\data\\in.txt"),
    ])
    assert len(dropped_files(trace)) == 0


def test_duplicate_writes_merge_after_normalization():
    trace = build_trace([
        (PROCESS_CREATE, 10, 4, 0, "C:\\app.exe"),
        (WRITE, 10, 0, 0, "C:\\app.exe", "", "C:\\out\\A.BIN"),
        (WRITE, 10, 0, 0, "C:\\app.exe", "", "c:/out/a.bin"),  # same after normalization
    ])
    assert dropped_files(trace) == {"c:\\out\\a.bin"}


def test_create_counts_only_with_created_disposition():
    rows = [
        (PROCESS_CREATE, 10, 4, 0, "C:\\app.exe"),
        (CREATE, 10, 0, 0, "C:\\app.exe", "", "C:\\out\\opened.txt"),
    ]
    trace = build_trace(rows)
    assert len(dropped_files(trace)) == 0
    from dataclasses import replace
    records = list(trace.records)
    records[1] = replace(records[1], result="CREATED")
    from lase.codec import trace_from_records
    created = dropped_files(trace_from_records(records, trace.header))
    assert created == {"c:\\out\\opened.txt"}


@pytest.mark.parametrize("path,ext", [
    ("C:\\dir\\a.EXE", "exe"),
    ("C:\\dir\\archive.tar.gz", "gz"),
    ("C:\\dir\\noext", "(none)"),
    ("C:\\dir\\trailing.", "(none)"),
    ("C:\\dir\\.hidden", "(none)"),
    ("C:\\ProgramData\\asc.txt:script1.vbs", "vbs"),
    ("C:\\x\\carrier.doc:payload", "(none)"),
    ("relative.js", "js"),
])
def test_path_extension_rule(path, ext):
    assert path_extension(path) == ext


def test_extension_histogram_simple():
    assert extension_histogram({"a.EXE", "b.exe", "c.js"}) == {"exe": 2, "js": 1}


def test_extension_histogram_fixture_subset():
    subset = {"c:\\programdata\\podaliri4.exe", "c:\\programdata\\asc.txt:script1.vbs"}
    assert extension_histogram(subset) == {"exe": 1, "vbs": 1}


def test_extension_histogram_full_fixture(fixture_trace):
    # hand-derived from the eight dropped paths
    hist = extension_histogram(dropped_files(fixture_trace))
    assert hist == {"xlsm": 1, "emf": 2, "png": 1, "(none)": 2, "vbs": 1, "exe": 1}


@pytest.mark.parametrize("ext,bare,vm,pct", REFERENCE_ROWS)
def test_reference_percentages_reproduce(ext, bare, vm, pct):
    cell = ext_diff(bare, vm)
    assert cell.abs_diff == bare - vm
    assert cell.pct_diff == pytest.approx(pct, abs=0.05)


def test_division_by_zero_reports_infinity_sentinel():
    cell = ext_diff(5, 0)
    assert cell.pct_diff is None
    assert format_pct(cell.pct_diff) == "∞"


def test_reference_overlap_numbers():
    overlap = overlap_from_sizes(3_981_555, 884_301, 418_203)
    assert overlap.union == 5_284_059
    assert overlap.pct_only_a == 75.35
    assert overlap.pct_only_b == 16.74
    assert overlap.pct_both == 7.91


def test_overlap_from_sets():
    overlap = overlap_from_sets({"a", "b", "c"}, {"b", "c", "d"})
    assert (overlap.only_a, overlap.only_b, overlap.both) == (1, 1, 2)
    assert overlap.pct_both == 50.0


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(0, 400)), st.sets(st.integers(0, 400)))
def test_partition_identity(a, b):
    overlap = overlap_from_sets({str(x) for x in a}, {str(x) for x in b})
    assert overlap.only_a + overlap.only_b + overlap.both == len(a | b)
    if overlap.union:
        assert overlap.pct_only_a + overlap.pct_only_b + overlap.pct_both == pytest.approx(100, abs=0.03)


def test_antisymmetry_under_swap():
    hist_a = {"exe": 10, "js": 3}
    hist_b = {"exe": 4, "js": 9}
    fwd = diff_report(hist_a, hist_b, {}, {}, set(), set())
    rev = diff_report(hist_b, hist_a, {}, {}, set(), set())
    for ext in hist_a:
        assert fwd.per_extension[ext].count_a == rev.per_extension[ext].count_b
        assert fwd.per_extension[ext].count_b == rev.per_extension[ext].count_a
        assert fwd.per_extension[ext].abs_diff == rev.per_extension[ext].abs_diff
    files_a = {"x", "y"}
    files_b = {"y", "z"}
    fwd = diff_report(hist_a, hist_b, {}, {}, files_a, files_b)
    rev = diff_report(hist_b, hist_a, {}, {}, files_b, files_a)
    assert (fwd.overlap.only_a, fwd.overlap.only_b) == (rev.overlap.only_b, rev.overlap.only_a)


def op_count_oracle(trace) -> dict[str, int]:
    counts: collections.Counter[str] = collections.Counter()
    for r in trace.records:
        if isinstance(r.kind, Irp):
            counts[r.kind.code.major] += 1
    return dict(counts)


def test_operation_counts_match_grep_oracle():
    for seed in range(8):
        trace = run_synthetic(WorkloadSpec(seed=seed, events_per_producer=500))
        assert operation_counts(trace) == op_count_oracle(trace)


def test_compare_traces_end_to_end(fixture_trace):
    trace_b = build_trace([
        (PROCESS_CREATE, 10, 4, 0, "C:\\app.exe"),
        (WRITE, 10, 0, 0, "C:\\app.exe", "", "C:\\out\\sample.exe"),
    ])
    report = compare_traces(fixture_trace, trace_b)
    assert report.per_extension["exe"].count_a == 1
    assert report.per_extension["exe"].count_b == 1
    assert report.per_operation["IRP_MJ_WRITE"] == (8, 1)
    assert report.overlap.both == 0


def test_corpus_mode_pairs_by_stem(tmp_path, fixture_trace):
    from lase.codec import write_trace
    bare = tmp_path / "bare"
    vm = tmp_path / "vm"
    bare.mkdir()
    vm.mkdir()
    empty = build_trace([(PROCESS_CREATE, 10, 4, 0, "C:\\idle.exe")])
    write_trace(fixture_trace, bare / "sample1.lase")
    write_trace(empty, vm / "sample1.lase.gz", compress=True)
    write_trace(empty, bare / "sample2.lase")
    write_trace(empty, vm / "sample2.lase")
    write_trace(empty, bare / "unpaired.lase")

    pairs = pair_directories(bare, vm)
    assert [stem for stem, _, _ in pairs] == ["sample1", "sample2"]

    report = compare_corpora(bare, vm)
    assert report.per_extension["exe"].count_a == 1
    assert report.overlap.only_a == 8

    filtered = compare_corpora(bare, vm, nonempty_only=True)
    assert filtered.overlap.only_a == 8  # sample2 pair dropped, same totals


@pytest.mark.parametrize("nonempty_only", [False, True])
@pytest.mark.parametrize("sides", ["quiet-quiet", "fixture-quiet", "quiet-fixture"])
def test_a_file_pair_folds_like_a_one_pair_corpus(tmp_path, fixture_trace, sides, nonempty_only):
    from lase.codec import write_trace
    quiet = build_trace([(PROCESS_CREATE, 10, 4, 0, "C:\\idle.exe"),
                         (READ, 10, 0, 0, "C:\\idle.exe", "", "C:\\in.txt")])
    trace_a, trace_b = ({"quiet": quiet, "fixture": fixture_trace}[s] for s in sides.split("-"))
    for side, trace in (("bare", trace_a), ("vm", trace_b)):
        (tmp_path / side).mkdir()
        write_trace(trace, tmp_path / side / "s.lase")
    report = compare_traces(trace_a, trace_b, nonempty_only=nonempty_only)
    assert report == compare_corpora(tmp_path / "bare", tmp_path / "vm", nonempty_only=nonempty_only)
    # A pair that drops no file on either side is skipped whole, reads too.
    assert (report.per_operation == {}) == (nonempty_only and sides == "quiet-quiet")


@pytest.mark.parametrize("workers", [0, -1, 2])
def test_compare_corpora_refuses_any_worker_count_but_one(tmp_path, workers):
    with pytest.raises(ValueError, match=f"reads pairs one at a time; workers must be 1, got {workers}"):
        compare_corpora(tmp_path, tmp_path, workers=workers)


def test_compare_corpora_reads_every_pair_on_the_calling_thread(tmp_path, fixture_trace, monkeypatch):
    from lase.codec import write_trace
    for side in ("bare", "vm"):
        (tmp_path / side).mkdir()
        for stem in ("s1", "s2", "s3"):
            write_trace(fixture_trace, tmp_path / side / f"{stem}.lase")
    real_read_trace = diffreport.read_trace
    readers = []

    def read_trace(path):
        readers.append((Path(path).name, threading.get_ident()))
        return real_read_trace(path)

    monkeypatch.setattr(diffreport, "read_trace", read_trace)
    compare_corpora(tmp_path / "bare", tmp_path / "vm")
    assert readers == [(f"s{i}.lase", threading.get_ident()) for i in (1, 1, 2, 2, 3, 3)]


def test_tsv_report_difference_column(fixture_trace):
    report = diff_report({"exe": 2_160_744}, {"exe": 1_114_617}, {}, {}, set(), set())
    tsv = report_to_tsv(report)
    assert "exe\t2,160,744\t1,114,617\t1,046,127 | 93.9%" in tsv


def test_json_report_is_strict_json():
    import json
    report = diff_report({"exe": 5, "js": 0}, {"exe": 0, "js": 2},
                         {"IRP_MJ_WRITE": 3}, {"IRP_MJ_WRITE": 1},
                         {"a"}, {"a", "b"})
    doc = json.loads(report_to_json(report))
    assert doc["per_extension"]["exe"]["pct_diff"] is None
    assert doc["overlap"]["both"] == 1
