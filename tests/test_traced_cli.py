"""The benchmark's span tracer still fits the CLI: every workload command,
run in process with ``perfbench/tracing.Tracer`` installed, gives the output
its check expects.

The tracer wraps lase functions by name and reads ``len(trace.records)`` of
their first arguments, so a command that stops passing a ``Trace`` to a
wrapped analysis breaks the traced benchmark run; this test shows it first.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from workloads import WORKLOADS, check_step  # noqa: E402

SCALE = 0.05
SEED = 3


def test_every_workload_step_passes_under_the_tracer(tmp_path):
    inputs = {name: setup(tmp_path, SEED, SCALE) for name, setup in WORKLOADS.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, inp in inputs.items():
            for step in inp.steps:
                with tracer.command(f"cli.{step.name}"):
                    rc, out = tracing.run_cli(step.argv)
                assert check_step(name, step, rc, out, SEED, {}) is None, (name, step.name)
    finally:
        tracer.uninstall()
    assert tracer.spans


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    # The whole ``run.py --trace 1`` path at a small size: a command that
    # stops calling a wrapped function fails here, not in layer_metrics.
    import json
    import math

    import workloads

    for name, value in (("TRIAGE_RECORDS", 2_000), ("CORPUS_PAIRS", 4), ("CORPUS_RECORDS", 200),
                        ("RECORD_RECORDS", 1_000)):
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(tracing, "SWEEP_RECORDS", (500, 1_000, 2_000))
    monkeypatch.setattr(tracing, "SWEEP_REPS", 1)
    metrics, attempted, failures, _ = tracing.traced_run("triage", SEED, tmp_path)
    assert attempted and failures == []
    declared = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    for metric in declared["per_layer"]:
        assert math.isfinite(metrics[metric["name"]]), metric["name"]
