from __future__ import annotations

import math

import pytest

from helpers import cells_of

from lase import bench, cli
from lase.bench import (
    OPERATIONS,
    SIZE_LABELS,
    BenchConfig,
    overhead,
    report_to_json,
    report_to_tsv,
    run_workload,
)
from lase.codec import read_trace
from lase.errors import MissingCell

# Reference throughput pairs (baseline, instrumented) with their expected
# overhead percentages; pins the |delta|/baseline formula.
REFERENCE_CELLS = {
    ("write", "small"): (788_641, 808_474, 2.51),
    ("write", "large"): (893_921, 909_448, 1.74),
    ("rewrite", "small"): (1_036_665, 1_059_468, 2.20),
    ("rewrite", "large"): (1_054_297, 1_092_756, 3.65),
    ("read", "small"): (3_564_507, 3_492_892, 2.01),
    ("read", "large"): (2_841_287, 2_928_931, 3.08),
    ("reread", "small"): (4_228_550, 4_452_886, 5.31),
    ("reread", "large"): (3_643_169, 3_791_870, 4.08),
}


def tiny_config(tmp_path, reps=1):
    return BenchConfig(target_dir=tmp_path, file_count=4, small_size=2048,
                       large_size=8192, repetitions=reps)


def test_overhead_formula_reproduces_reference_cells():
    baseline = cells_of({key: pair[0] for key, pair in REFERENCE_CELLS.items()})
    instrumented = cells_of({key: pair[1] for key, pair in REFERENCE_CELLS.items()})
    report = overhead(baseline, instrumented)
    for key, (_, _, expected) in REFERENCE_CELLS.items():
        assert report.overhead[key] == pytest.approx(expected, abs=0.01)


def test_overhead_is_symmetric_in_direction():
    # a faster instrumented side still reports positive overhead
    report = overhead(cells_of({("read", "small"): 100.0}), cells_of({("read", "small"): 90.0}))
    assert report.overhead[("read", "small")] == 10.0
    report = overhead(cells_of({("read", "small"): 100.0}), cells_of({("read", "small"): 110.0}))
    assert report.overhead[("read", "small")] == 10.0


def test_overhead_identical_inputs_is_zero():
    cells = cells_of({key: pair[0] for key, pair in REFERENCE_CELLS.items()})
    report = overhead(cells, cells)
    assert all(v == 0.0 for v in report.overhead.values())


def test_overhead_missing_cell():
    with pytest.raises(MissingCell):
        overhead(cells_of({("write", "small"): 1.0}), cells_of({("write", "large"): 1.0}))


def test_smoke_workload_all_cells_finite(tmp_path):
    report = run_workload(tiny_config(tmp_path))
    for cells in (report.baseline, report.instrumented):
        assert set(cells) == {(op, size) for op in OPERATIONS for size in SIZE_LABELS}
        for cell in cells.values():
            assert cell.mean_kbps > 0
            assert math.isfinite(cell.mean_kbps)
            assert len(cell.samples) == 1


def test_repetitions_produce_same_cell_keys(tmp_path):
    one = run_workload(tiny_config(tmp_path, reps=1))
    many = run_workload(tiny_config(tmp_path, reps=3))
    assert set(one.overhead) == set(many.overhead)
    assert all(len(c.samples) == 3 for half in (many.baseline, many.instrumented)
               for c in half.values())


def test_file_names_deterministic():
    config = BenchConfig(target_dir=".", file_count=3)
    assert config.file_names("small") == config.file_names("small")
    assert config.file_names("small") == ["bench_small_0000.bin", "bench_small_0001.bin",
                                          "bench_small_0002.bin"]


def test_instrumented_event_count_matches_drained(tmp_path):
    config = tiny_config(tmp_path, reps=2)
    run_workload(config)
    expected = config.file_count * len(OPERATIONS) * len(SIZE_LABELS) * config.repetitions
    trace = read_trace(tmp_path / "bench_events.lase")
    assert len(trace) == expected
    majors = {r.kind.code.major for r in trace.records}
    assert majors == {"IRP_MJ_WRITE", "IRP_MJ_READ"}


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        BenchConfig(target_dir=tmp_path, repetitions=0)
    with pytest.raises(ValueError):
        BenchConfig(target_dir=tmp_path, small_size=0)


def test_reports_render(tmp_path):
    baseline = cells_of({key: pair[0] for key, pair in REFERENCE_CELLS.items()})
    instrumented = cells_of({key: pair[1] for key, pair in REFERENCE_CELLS.items()})
    report = overhead(baseline, instrumented)
    tsv = report_to_tsv(report)
    assert "Writer\tsmall\t788,641\t808,474\t2.51%" in tsv
    import json
    doc = json.loads(report_to_json(report))
    assert doc["reread/small"]["overhead_pct"] == 5.31


def test_failed_phase_drops_only_its_cell(tmp_path, monkeypatch, capsys):
    # Every read/large phase of the instrumented half fails as a full disk
    # would, before it touches a file or records an event.
    run_phase = bench._run_phase

    def phase(op, paths, size, block, recorder):
        if op == "read" and size == 128 and recorder is not None:
            raise OSError(28, "No space left on device")
        return run_phase(op, paths, size, block, recorder)

    monkeypatch.setattr(bench, "_run_phase", phase)
    code = cli.main(["bench", "--dir", str(tmp_path), "--files", "2", "--small", "64",
                     "--large", "128", "--reps", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("bench: read/large failed: [Errno 28] No space left on device\n"
                            "error: cell keys differ: [('read', 'large')]\n")
    # The recorder still writes the events of the seven phases that ran.
    assert cli.main(["validate", str(tmp_path / "bench_events.lase")]) == 0
    assert capsys.readouterr().out.strip().endswith("14 records OK")
