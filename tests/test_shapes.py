"""Cost grows linearly in whatever shape an attacker gives a trace.

Each structural shape of tests/helpers.py is built at N and at 4N, and every
analysis runs on both, in process with the cyclic GC off. The least CPU time
of 3 runs at 4N may be at most 8 times that at N: linear time gives about
4, and a fold that rescans what it has already seen gives about 16.
"""

from __future__ import annotations

import gc
import math
import time

import pytest

from helpers import chain, fan_out, pid_churn, remote_thread_pairs, threads_in_one_process, written_paths

from lase import diffreport, fingerprint, forest, intrusion

N = 4000
MAX_RATIO = 8.0

SHAPES = {
    "chain": chain,
    "fan_out": fan_out,
    "pid_churn": pid_churn,
    "threads_in_one_process": threads_in_one_process,
    "remote_thread_pairs": remote_thread_pairs,
    "written_paths": written_paths,
}

_SIGNATURES = fingerprint.default_signatures()

# name -> the timed analysis of a trace; render_dot's input is the forest,
# built untimed
ANALYSES = {
    "build_forest": lambda trace: forest.build_forest(trace, activity=False),
    "build_forest_activity": forest.build_forest,
    "render_dot": forest.render_dot,
    "detect_remote_thread_injection": forest.detect_remote_thread_injection,
    "fingerprint_scan": lambda trace: fingerprint.scan(trace, _SIGNATURES),
    "scan_commands": intrusion.scan_commands,
    "dropped_files": diffreport.dropped_files,
    "operation_counts": diffreport.operation_counts,
}


@pytest.fixture(scope="module")
def traces():
    """Each shape at N and 4N, built once."""
    return {name: (shape(N), shape(4 * N)) for name, shape in SHAPES.items()}


def cpu_seconds(analysis, arg) -> float:
    """The least CPU time of 3 runs of analysis(arg)."""
    best = math.inf
    for _ in range(3):
        started = time.process_time()
        analysis(arg)
        best = min(best, time.process_time() - started)
    return best


@pytest.mark.parametrize("analysis", list(ANALYSES))
@pytest.mark.parametrize("shape", list(SHAPES))
def test_cost_grows_linearly_with_the_shape(traces, shape, analysis):
    run = ANALYSES[analysis]
    small, large = traces[shape]
    if analysis == "render_dot":
        small, large = (forest.build_forest(trace, activity=False) for trace in (small, large))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ratio = cpu_seconds(run, large) / max(cpu_seconds(run, small), 1e-6)
    finally:
        if was_enabled:
            gc.enable()
    assert ratio <= MAX_RATIO, f"{analysis} on {shape}: {ratio:.1f}x from N = {N} to 4N"
