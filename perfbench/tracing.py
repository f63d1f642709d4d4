"""Traced run: spans around the calls into each lase layer, from outside lase.

``Tracer.install`` replaces lase's public functions, in every lase module
that binds them, with wrappers that record a span (name, start, end, parent,
command id, thread).  Per-record calls (``decode_line``, ``encode_record``,
``EventPipeline.submit``/``drain``) are kept as a count and a summed time per
command and thread instead of one span each.  Spans stay in memory; the
per-layer metrics are derived from them after the run, and the raw spans can
be written out with ``write_spans``.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import lase
from lase import cli, codec, diffreport, fingerprint, forest, intrusion, pipeline
from workloads import WORKLOADS, check_step, load_pins

MAIN_THREAD = threading.main_thread().ident


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    command: int
    thread: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _is_gz(source) -> bool:
    if isinstance(source, (bytes, bytearray)):
        return source[:2] == b"\x1f\x8b"
    return str(source).endswith(".gz")


def _records(trace) -> int:
    return len(trace.records)


# name -> (module, attribute, attrs(args, kwargs, result)) for span wrappers.
SPANNED = {
    "codec.read_trace": (codec, "read_trace",
                         lambda a, k, r: {"records": _records(r), "gz": _is_gz(a[0])}),
    "codec.write_trace": (codec, "write_trace",
                          lambda a, k, r: {"records": _records(a[0]), "bytes": r,
                                           "gz": bool(k.get("compress", a[2] if len(a) > 2 else False))}),
    "pipeline.run_synthetic": (pipeline, "run_synthetic", lambda a, k, r: {"records": _records(r)}),
    "pipeline.replay_fixture": (pipeline, "replay_fixture",
                                lambda a, k, r: {"records": _records(a[0]), "out": _records(r)}),
    "forest.build_forest": (forest, "build_forest",
                            lambda a, k, r: {"records": _records(a[0]), "nodes": len(r.index),
                                             "warnings": len(r.warnings)}),
    "forest.detect_remote_thread_injection": (forest, "detect_remote_thread_injection",
                                              lambda a, k, r: {"records": _records(a[0])}),
    "forest.render_dot": (forest, "render_dot",
                          lambda a, k, r: {"nodes": r.count(" [label=")}),
    "fingerprint.scan": (fingerprint, "scan",
                         lambda a, k, r: {"records": _records(a[0]), "findings": len(r)}),
    "intrusion.scan_commands": (intrusion, "scan_commands",
                                lambda a, k, r: {"records": _records(a[0]), "findings": len(r)}),
    "intrusion.dwell_stats": (intrusion, "dwell_stats",
                              lambda a, k, r: {"records": sum(map(_records, a[0]))}),
    "diffreport.compare_corpora": (diffreport, "compare_corpora", lambda a, k, r: {}),
    "diffreport.dropped_files": (diffreport, "dropped_files", lambda a, k, r: {"records": _records(a[0])}),
    "diffreport.operation_counts": (diffreport, "operation_counts", lambda a, k, r: {}),
    "diffreport.diff_report": (diffreport, "diff_report", lambda a, k, r: {}),
}

# name -> (owner, attribute, tally(args, result)) for per-record counters.
COUNTED = {
    "codec.decode_line": (codec, "decode_line", lambda a, r: {}),
    "codec.encode_record": (codec, "encode_record", lambda a, r: {}),
    "pipeline.submit": (pipeline.EventPipeline, "submit",
                        lambda a, r: {"accepted": r is pipeline.SubmitResult.ACCEPTED,
                                      "would_block": r is pipeline.SubmitResult.WOULD_BLOCK}),
    "pipeline.drain": (pipeline.EventPipeline, "drain",
                       lambda a, r: {"records": len(r), "fill": len(r) / a[0].config.chunk_size}),
}

LASE_MODULES = (lase, cli, codec, diffreport, fingerprint, forest, intrusion, pipeline)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: list[tuple[int, dict]] = []  # (thread, {(command, name): totals})
        self._ids = itertools.count()
        self._local = threading.local()
        self._command: Span | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._command
        span = Span(next(self._ids), name, 0.0, parent.id if parent else None,
                    self._command.id if self._command else -1, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def command(self, name: str):
        """Top-level span; spans opened on pool threads while it is open
        become its children."""
        span = self._command = self._open(name)
        span.command = span.id
        try:
            yield span
        finally:
            self._close(span)
            self._command = None

    def _tally(self) -> dict:
        table = getattr(self._local, "tally", None)
        if table is None:
            table = self._local.tally = {}
            self.counters.append((threading.get_ident(), table))
        return table

    # -- patching --

    def _span_wrapper(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.attrs = attrs(args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn, tally):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            command = self._command.id if self._command else -1
            totals = self._tally().setdefault((command, name), {"calls": 0, "seconds": 0.0})
            totals["calls"] += 1
            totals["seconds"] += elapsed
            for key, value in tally(args, result).items():
                totals[key] = totals.get(key, 0) + value
            return result
        return wrapper

    def _replace(self, original, wrapper) -> None:
        for module in LASE_MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for name, (module, attr, attrs) in SPANNED.items():
            self._replace(getattr(module, attr), self._span_wrapper(name, getattr(module, attr), attrs))
        for name, (owner, attr, tally) in COUNTED.items():
            original = getattr(owner, attr)
            wrapper = self._count_wrapper(name, original, tally)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._replace(original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "command": s.command,
                                     "thread": s.thread, **s.attrs}) + "\n")


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """Run ``lase.cli.main(argv)`` in this process with stdout captured."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    try:
        rc = cli.main(argv)
        out.flush()
        data = buf.getvalue()
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return rc, data


def self_seconds(tracer: Tracer, span: Span) -> float:
    """Span duration minus the part of it its child spans cover."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in tracer.spans if c.parent == span.id)
    covered, reach = 0.0, span.start
    for start, end in intervals:
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return span.seconds - covered


# --- the traced run ------------------------------------------------------------

PROBE_SCALE = 0.25
SWEEP_RECORDS = (16_000, 32_000, 64_000)
SWEEP_REPS = 3


def traced_run(selected: str, seed: int, work: Path):
    """Run every workload's commands in-process under the tracer, the
    selected one at full size and the others at PROBE_SCALE, plus a direct
    single-worker corpus comparison and the scaling sweep.  Returns
    (per-layer metrics, commands attempted, failure reasons, tracer)."""
    pins = load_pins()
    inputs = {name: setup(work, seed, 1.0 if name == selected else PROBE_SCALE)
              for name, setup in WORKLOADS.items()}
    failures: list[str] = []
    attempted = 0

    def check(name, step, rc, out):
        nonlocal attempted
        attempted += 1
        reason = check_step(name, step, rc, out, seed if name == selected else None, pins)
        if reason:
            failures.append(f"{name}.{step.name}: {reason}")

    untraced = 0.0
    for step in inputs[selected].steps:
        start = time.perf_counter()
        rc, out = run_cli(step.argv)
        untraced += time.perf_counter() - start
        check(selected, step, rc, out)

    tracer = Tracer()
    tracer.install()
    try:
        for name, inp in inputs.items():
            for step in inp.steps:
                with tracer.command(f"cli.{step.name}") as span:
                    rc, out = run_cli(step.argv)
                span.attrs = {"workload": name, "step": step.name}
                check(name, step, rc, out)
        with tracer.command("direct.compare_corpora_1w"):
            diffreport.compare_corpora(work / "corpus" / "bare", work / "corpus" / "vm", workers=1)
        # The host's speed drifts over seconds: each layer runs at every
        # size back to back, SWEEP_REPS times in alternating order, and
        # growth compares medians.
        for rep in range(SWEEP_REPS):
            with tracer.command("sweep"):
                _sweep([pipeline.WorkloadSpec(events_per_producer=n, seed=seed)
                        for n in SWEEP_RECORDS[::1 if rep % 2 == 0 else -1]])
    finally:
        tracer.uninstall()
    traced = sum(s.seconds for s in tracer.spans
                 if s.parent is None and s.attrs.get("workload") == selected)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = traced / untraced - 1
    return metrics, attempted, failures, tracer


COUNTS = {"forest.nodes", "forest.warnings", "pipeline.lost", "fingerprint.findings",
          "intrusion.findings"}


def layer_unit(name: str) -> str:
    if name in COUNTS:
        return "count"
    if name == "codec.bytes_per_record":
        return "B"
    if name.endswith((".us_per_record", ".us_per_node")):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio"


def _sweep(specs: list[pipeline.WorkloadSpec]) -> None:
    """One pass of the scaling sweep.  Garbage left by each call is
    collected before the next, outside the call's span."""
    def each(call, items):
        results = []
        for item in items:
            gc.collect()
            results.append(call(item))
        return results

    def encode(trace) -> bytes:
        buf = io.BytesIO()
        codec.write_trace(trace, buf)
        return buf.getvalue()

    traces = each(pipeline.run_synthetic, specs)
    each(codec.read_trace, each(encode, traces))
    each(forest.build_forest, traces)
    each(forest.detect_remote_thread_injection, traces)


def _us(spans, unit: str = "records") -> float:
    return sum(s.seconds for s in spans) / sum(s.attrs[unit] for s in spans) * 1e6


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    commands = {s.id: s for s in spans if s.parent is None}
    cli_ids = {i for i, s in commands.items() if s.name.startswith("cli.")}
    step_of = {i: commands[i].attrs["step"] for i in cli_ids}

    # A command whose work ran on more than one worker thread was contending
    # for the interpreter lock; its per-call times are left out of the rates.
    workers: dict[int, set] = {}
    for s in spans:
        if s.thread != MAIN_THREAD:
            workers.setdefault(s.command, set()).add(s.thread)
    for thread, table in tracer.counters:
        if thread != MAIN_THREAD:
            for command, _ in table:
                workers.setdefault(command, set()).add(thread)
    pooled = {c for c, threads in workers.items() if len(threads) > 1}

    def pick(name, steps=None, where=lambda s: True, solo=True):
        return [s for s in spans
                if s.name == name and s.command in cli_ids and s.parent is not None
                and by_id.get(s.parent, s).name != name
                and (steps is None or step_of[s.command] in steps)
                and (not solo or s.thread == MAIN_THREAD or s.command not in pooled)
                and where(s)]

    def counted(name, steps=None) -> dict:
        totals: dict = {}
        for thread, table in tracer.counters:
            for (command, key), values in table.items():
                if key != name or command not in cli_ids:
                    continue
                if steps is not None and step_of[command] not in steps:
                    continue
                if steps is None and thread != MAIN_THREAD and command in pooled:
                    continue
                for k, v in values.items():
                    totals[k] = totals.get(k, 0) + v
        return totals

    m: dict[str, float] = {}
    m["codec.decode.us_per_record"] = _us(pick("codec.read_trace", where=lambda s: not s.attrs["gz"]))
    line = counted("codec.decode_line")
    m["codec.decode_line.us_per_record"] = line["seconds"] / line["calls"] * 1e6
    one_worker = next(i for i, s in commands.items() if s.name == "direct.compare_corpora_1w")
    inside_1w = [s for s in spans if s.command == one_worker and s.parent is not None]
    m["codec.decode_gz.us_per_record"] = _us([s for s in inside_1w if s.name == "codec.read_trace"])
    plain_writes = pick("codec.write_trace", where=lambda s: not s.attrs["gz"])
    m["codec.encode.us_per_record"] = _us(plain_writes)
    m["codec.encode_gz.us_per_record"] = _us(pick("codec.write_trace", where=lambda s: s.attrs["gz"]))
    m["codec.bytes_per_record"] = (sum(s.attrs["bytes"] for s in plain_writes)
                                   / sum(s.attrs["records"] for s in plain_writes))
    m["pipeline.generate.us_per_record"] = _us(pick("pipeline.run_synthetic"))

    submit = counted("pipeline.submit", {"replay"})
    drain = counted("pipeline.drain", {"replay"})
    m["pipeline.submit.us_per_record"] = submit["seconds"] / submit["accepted"] * 1e6
    m["pipeline.drain.us_per_record"] = drain["seconds"] / drain["records"] * 1e6
    m["pipeline.would_block"] = submit["would_block"] / submit["accepted"]
    m["pipeline.chunk_fill"] = drain["fill"] / drain["calls"]
    replays = pick("pipeline.replay_fixture", solo=False)
    m["pipeline.lost"] = sum(s.attrs["records"] - s.attrs["out"] for s in replays)
    m["pipeline.replay.us_per_record"] = _us(pick("pipeline.replay_fixture", {"replay"}))
    m["pipeline.replay_mt.us_per_record"] = _us(pick("pipeline.replay_fixture", {"replay_mt"}, solo=False))

    m["forest.build.us_per_record"] = _us(pick("forest.build_forest"))
    tree_build = pick("forest.build_forest", {"tree"})
    m["forest.nodes"] = sum(s.attrs["nodes"] for s in tree_build)
    m["forest.warnings"] = sum(s.attrs["warnings"] for s in tree_build)
    m["forest.render_dot.us_per_node"] = _us(pick("forest.render_dot"), "nodes")
    m["forest.inject.us_per_record"] = _us(pick("forest.detect_remote_thread_injection"))
    m["cli.fingerprint.forest_s"] = sum(s.seconds for s in pick("forest.build_forest", {"fingerprint"}))
    scans = pick("fingerprint.scan")
    m["fingerprint.scan.us_per_record"] = _us(scans)
    m["fingerprint.findings"] = sum(s.attrs["findings"] for s in scans)

    m["intrusion.scan.us_per_record"] = _us(pick("intrusion.scan_commands"))
    m["intrusion.dwell.s"] = sum(s.seconds for s in pick("intrusion.dwell_stats", solo=False))
    m["intrusion.findings"] = sum(s.attrs["findings"]
                                  for s in pick("intrusion.scan_commands", solo=False)
                                  if s.parent in commands)

    compare = [s for s in inside_1w if s.name in
               ("diffreport.dropped_files", "diffreport.operation_counts", "diffreport.diff_report")]
    m["diffreport.compare.us_per_record"] = (
        sum(s.seconds for s in compare)
        / sum(s.attrs["records"] for s in compare if s.name == "diffreport.dropped_files") * 1e6)
    m["diffreport.corpus.s"] = sum(s.seconds for s in pick("diffreport.compare_corpora", solo=False))
    m["diffreport.corpus_1w.s"] = commands[one_worker].seconds

    sweep = {i for i, s in commands.items() if s.name == "sweep"}
    for metric, name in (("codec.decode.growth", "codec.read_trace"),
                         ("codec.encode.growth", "codec.write_trace"),
                         ("pipeline.generate.growth", "pipeline.run_synthetic"),
                         ("forest.build.growth", "forest.build_forest"),
                         ("forest.inject.growth", "forest.detect_remote_thread_injection")):
        rate = [statistics.median(_us([s]) for s in spans if s.command in sweep and s.name == name
                                  and s.parent == s.command and s.attrs["records"] == size)
                for size in (SWEEP_RECORDS[0], SWEEP_RECORDS[-1])]
        m[metric] = rate[1] / rate[0]

    for command in sorted(cli_ids):
        key = f"cli.{step_of[command]}.self_s"
        m[key] = m.get(key, 0.0) + self_seconds(tracer, commands[command])
    return m
