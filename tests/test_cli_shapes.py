"""Cost grows linearly in the shape of a trace, through the command line.

Every command that reads a trace runs through cli.main, in process, in
each of its formats, on each structural shape of tests/helpers.py at N and
at 4N. Both the CPU time and the bytes written to stdout at 4N may be at
most 8 times those at N: linear output and work give about 4, and a writer
that indents each node by its depth, or a pass that rescans what it has
already seen, gives about 16. The CPU ratio is retaken, up to 3 runs a
side, only when one run reads above the bound. gen and bench read no
trace, so they are not here.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import time

import pytest

from helpers import chain, fan_out, pid_churn, remote_thread_pairs, threads_in_one_process, written_paths

from lase import cli
from lase.codec import write_trace

N = 1000
MAX_RATIO = 8.0
RUNS = 3

SHAPES = {
    "chain": chain,
    "fan_out": fan_out,
    "pid_churn": pid_churn,
    "threads_in_one_process": threads_in_one_process,
    "remote_thread_pairs": remote_thread_pairs,
    "written_paths": written_paths,
}

# Each command line, with TRACE for the trace's path. The pre-existing pid
# 4 is every shape's root.
COMMANDS = [
    "validate TRACE",
    "tree TRACE",
    "tree TRACE --format json",
    "tree TRACE --root 4",
    "tree TRACE --root 4 --format json",
    "inject-scan TRACE",
    "inject-scan TRACE --format json",
    "fingerprint TRACE",
    "fingerprint TRACE --format json",
    "intrude TRACE --dwell",
    "intrude TRACE --format json",
    "diff --bare TRACE --vm TRACE",
    "diff --bare TRACE --vm TRACE --format json",
    "replay TRACE",
    "replay TRACE --compress",
]


class _Counter(io.RawIOBase):
    """A byte sink that keeps only the count of what it was given."""

    def __init__(self):
        self.count = 0

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.count += len(data)
        return len(data)


def run(argv: list[str]) -> tuple[float, int]:
    """CPU seconds and stdout bytes of one in-process run of argv."""
    sink = _Counter()
    out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()):
        saved, sys.stdout = sys.stdout, out
        try:
            started = time.process_time()
            code = cli.main(argv)
            out.flush()
            seconds = time.process_time() - started
        finally:
            sys.stdout = saved
            out.close()
    assert code == 0, argv
    return seconds, sink.count


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Each shape at N and 4N, written once."""
    root = tmp_path_factory.mktemp("cli_shapes")
    found = {}
    for name, shape in SHAPES.items():
        found[name] = []
        for n in (N, 4 * N):
            path = root / f"{name}_{n}.lase"
            write_trace(shape(n), path)
            found[name].append(str(path))
    return found


@pytest.mark.parametrize("shape", list(SHAPES))
def test_every_command_grows_linearly_with_the_shape(paths, shape):
    too_steep = {}
    for command in COMMANDS:
        small, large = ([part.replace("TRACE", path) for part in command.split()] for path in paths[shape])
        best = [math.inf, math.inf]
        for _ in range(RUNS):
            (small_s, small_bytes), (large_s, large_bytes) = run(small), run(large)
            best = [min(best[0], small_s), min(best[1], large_s)]
            if best[1] <= MAX_RATIO * max(best[0], 1e-3):
                break
        ratios = {"cpu": best[1] / max(best[0], 1e-3), "bytes": large_bytes / max(small_bytes, 1)}
        too_steep.update({f"{command} ({what})": round(r, 1) for what, r in ratios.items() if r > MAX_RATIO})
    assert too_steep == {}, f"{shape}: from N = {N} to 4N"
