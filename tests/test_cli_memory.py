"""Commands that read many traces hold one trace (or one bare/vm pair) at a
time: their Python heap peak over 16 inputs stays near the peak over one.

Each command runs in process under tracemalloc, after one untraced run that
loads the modules and compiles the rules the command uses. The margin, 30%
of the one-input peak, leaves room for what the command prints (findings,
dwell sessions, the diff's running totals) and is below the size of one
more decoded trace, so keeping any earlier trace alive fails the test.
`inject-scan`'s peak per trace record is bounded the same way.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tracemalloc
from pathlib import Path

import pytest

from lase import cli
from lase.codec import write_trace
from lase.pipeline import WorkloadSpec, run_synthetic

COPIES = 16
MARGIN = 0.3


@pytest.fixture(scope="module")
def corpora(tmp_path_factory) -> Path:
    """n/bare and n/vm, for n in 1 and COPIES: n copies of one 2k-record
    trace on each side."""
    root = tmp_path_factory.mktemp("memory")
    trace = root / "trace.lase"
    write_trace(run_synthetic(WorkloadSpec(events_per_producer=2_000, seed=11)), trace)
    for n in (1, COPIES):
        for side in ("bare", "vm"):
            (root / str(n) / side).mkdir(parents=True)
            for i in range(n):
                shutil.copyfile(trace, root / str(n) / side / f"s{i:02d}.lase")
    return root


def _argv(command: str, root: Path) -> list[str]:
    bare, vm = root / "bare", root / "vm"
    if command == "diff":
        return ["diff", "--bare", str(bare), "--vm", str(vm)]
    paths = sorted(str(p) for p in bare.iterdir())
    return {"intrude": ["intrude", *paths, "--dwell"], "validate": ["validate", *paths]}[command]


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def _peak(argv: list[str]) -> int:
    tracemalloc.start()
    try:
        _run(argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["intrude", "validate", "diff"])
def test_many_traces_peak_near_one(command, corpora):
    one, many = _argv(command, corpora / "1"), _argv(command, corpora / str(COPIES))
    _run(one)
    peak_one, peak_many = _peak(one), _peak(many)
    assert peak_many < peak_one * (1 + MARGIN), (peak_one, peak_many)


INJECT_SCAN_BYTES_PER_RECORD = 60


def test_inject_scan_builds_only_the_records_it_reads(tmp_path):
    # inject-scan builds the creates, exits, thread creates and image loads
    # (about a quarter of a generated trace) and feeds each to the detector
    # as it is read: its heap peak is about 50 B per trace record. Holding
    # the records it built until the scan, it was about 72 B; building
    # every record, about 292 B.
    path = tmp_path / "trace.lase"
    trace = run_synthetic(WorkloadSpec(events_per_producer=20_000, seed=1, injection_templates=8))
    write_trace(trace, path)
    argv = ["inject-scan", str(path)]
    _run(argv)
    assert _peak(argv) / len(trace) < INJECT_SCAN_BYTES_PER_RECORD
