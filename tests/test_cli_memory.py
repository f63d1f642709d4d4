"""Commands that read many traces hold one trace (or one bare/vm pair) at a
time: their Python heap peak over 16 inputs stays near the peak over one.

Each command runs in process under tracemalloc, after one untraced run that
loads the modules and compiles the rules the command uses. The margin, 30%
of the one-input peak, leaves room for what the command prints (findings,
dwell sessions, the diff's running totals) and is below the size of one
more decoded trace, so keeping any earlier trace alive fails the test.
A streaming read's, `fingerprint`'s, `inject-scan`'s and `tree`'s (DOT and
JSON) peaks per trace record, and `render_dot`'s per node, are bounded on
one generated trace.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tracemalloc
from pathlib import Path

import pytest

from lase import cli, forest
from lase.codec import TraceReader, read_trace, write_trace
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


class _Discard(io.TextIOBase):
    """A text sink that keeps nothing it is given, so the output a command
    writes in pieces is not counted in its peak."""

    def write(self, text: str) -> int:
        return len(text)


def _run(argv: list[str], out: type[io.TextIOBase] = io.StringIO) -> None:
    with contextlib.redirect_stdout(out()):
        assert cli.main(argv) == 0


def _peak(argv: list[str], out: type[io.TextIOBase] = io.StringIO) -> int:
    tracemalloc.start()
    try:
        _run(argv, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["intrude", "validate", "diff"])
def test_many_traces_peak_near_one(command, corpora):
    one, many = _argv(command, corpora / "1"), _argv(command, corpora / str(COPIES))
    _run(one)
    peak_one, peak_many = _peak(one), _peak(many)
    assert peak_many < peak_one * (1 + MARGIN), (peak_one, peak_many)


@pytest.fixture(scope="module")
def generated(tmp_path_factory) -> tuple[Path, int]:
    """A 20k-record generated trace with 8 injections (1,220 processes),
    and its record count."""
    path = tmp_path_factory.mktemp("generated") / "trace.lase"
    trace = run_synthetic(WorkloadSpec(events_per_producer=20_000, seed=1, injection_templates=8))
    write_trace(trace, path)
    return path, len(trace)


STREAMING_READ_BYTES_PER_RECORD = 25


def test_streaming_read_keeps_no_id_table(generated):
    # A TraceReader read to its end holds a read block, its lines and the
    # text memo: about 16 B per trace record. With a table sharing the
    # records' id ints, which die one at a time, it was about 42 B.
    path, records = generated

    def read() -> None:
        for _ in TraceReader(path):
            pass

    read()
    tracemalloc.start()
    try:
        read()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / records < STREAMING_READ_BYTES_PER_RECORD


FINGERPRINT_BYTES_PER_RECORD = 45


def test_fingerprint_streams_its_records(generated):
    # fingerprint feeds each record to its matchers as it is read: about
    # 35 B per trace record. With the reader's id table, about 57 B.
    path, records = generated
    argv = ["fingerprint", str(path)]
    _run(argv, _Discard)
    assert _peak(argv, _Discard) / records < FINGERPRINT_BYTES_PER_RECORD


INJECT_SCAN_BYTES_PER_RECORD = 38


def test_inject_scan_builds_only_the_records_it_reads(generated):
    # inject-scan builds the creates, exits, thread creates and image loads
    # (about a quarter of a generated trace) and feeds each to the detector
    # as it is read, keeping one normalized string per distinct image: its
    # heap peak is about 34 B per trace record. With the reader's id table
    # and a normalized string per create, about 43 B; holding the records
    # it built until the scan, about 72 B; building every record, about
    # 292 B.
    path, records = generated
    argv = ["inject-scan", str(path)]
    _run(argv)
    assert _peak(argv) / records < INJECT_SCAN_BYTES_PER_RECORD


RENDER_DOT_BYTES_PER_NODE = 200


def test_render_dot_holds_no_list_of_its_lines(generated):
    # Batches joined from a generator: about 145 B per node, the text and
    # its batches. A list of every line, joined and then copied with its
    # last newline, was about 335 B.
    built = forest.build_forest(read_trace(generated[0]))
    assert len(built.index) == 1_220
    forest.render_dot(built)
    tracemalloc.start()
    try:
        forest.render_dot(built)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(built.index) < RENDER_DOT_BYTES_PER_NODE


TREE_DOT_BYTES_PER_RECORD = 55


@pytest.mark.parametrize("flags", [[], ["--root", "4"]])
def test_tree_dot_builds_no_activity(flags, generated):
    # DOT prints keys, images and edges, so its forest keeps no thread or
    # image counts, I/O rollups or dropped files: about 43 B per trace
    # record, whole or under the root process. With the reader's id table,
    # about 64 B; with the activity as well, about 97 B.
    path, records = generated
    argv = ["tree", str(path), *flags]
    _run(argv, _Discard)
    assert _peak(argv, _Discard) / records < TREE_DOT_BYTES_PER_RECORD


TREE_JSON_BYTES_PER_RECORD = 120


@pytest.mark.parametrize("flags", [[], ["--root", "4"]])
def test_tree_json_is_written_as_it_is_encoded(flags, generated):
    # About 75 B per trace record, whole or under the root process: the
    # forest as it is built, each node's JSON dict built as it is written
    # (96 B with the reader's id table). Building every node's dict before the first byte peaked at about
    # 143 B (145 B under --root); encoding the whole text before printing
    # it, at about 430 B (645 B under --root).
    path, records = generated
    argv = ["tree", str(path), *flags, "--format", "json"]
    _run(argv, _Discard)
    assert _peak(argv, _Discard) / records < TREE_JSON_BYTES_PER_RECORD
