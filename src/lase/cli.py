"""Analyst-facing command line: one subcommand per analysis.

Exit codes: 0 success, 1 usage error, 2 input/validation error, 3 internal
failure. Reports go to stdout, diagnostics to stderr. "-" is accepted
wherever a trace path is expected and reads the trace from stdin. All
randomness flows through an explicit --seed.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import re
import sys
from pathlib import Path
from typing import Iterator

# Each command imports the modules it calls beyond the codec, so a process
# loads only what its command runs.
from .codec import Trace, TraceReader, read_trace, write_trace
from .errors import LaseError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# pipeline.BackpressurePolicy's values, spelled out so that the parser does
# not load the pipeline.
_POLICIES = ("block", "drop-oldest", "reject")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _source(path: str):
    """What a trace argument reads from: stdin for "-", else the path."""
    return sys.stdin.buffer if path == "-" else path


def build_parser() -> _Parser:
    parser = _Parser(prog="lase", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="decode and validate traces")
    p.set_defaults(run=_cmd_validate)
    p.add_argument("traces", nargs="+")

    p = sub.add_parser("gen", help="generate a deterministic synthetic trace")
    p.set_defaults(run=_cmd_gen)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events", type=int, default=100, help="events to generate")
    p.add_argument("--injections", type=int, default=0,
                   help="remote-thread injection templates to plant")
    p.add_argument("--out", default="-")
    p.add_argument("--compress", action="store_true")

    p = sub.add_parser("replay", help="replay a trace through the pipeline")
    p.set_defaults(run=_cmd_replay)
    p.add_argument("trace")
    p.add_argument("--out", default="-")
    p.add_argument("--compress", action="store_true")
    p.add_argument("--producers", type=int, default=1, help="at least 1; changes nothing")
    p.add_argument("--consumers", type=int, default=1, help="at least 1; changes nothing")
    p.add_argument("--ring", type=int, default=64)
    p.add_argument("--policy", choices=_POLICIES, default="block")

    p = sub.add_parser("tree", help="reconstruct the process forest")
    p.set_defaults(run=_cmd_tree)
    p.add_argument("trace")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--root", help="render only the subtree under PID[:BIRTH_SEQ]")

    p = sub.add_parser("inject-scan", help="flag remote-thread injection")
    p.set_defaults(run=_cmd_inject_scan)
    p.add_argument("trace")
    p.add_argument("--window-ms", type=int)  # None: the detector's own default
    p.add_argument("--format", choices=["jsonl", "json"], default="jsonl")

    p = sub.add_parser("fingerprint", help="scan for environment fingerprinting")
    p.set_defaults(run=_cmd_fingerprint)
    p.add_argument("trace")
    p.add_argument("--signatures", default=None, help="signature file (default: built-ins)")
    p.add_argument("--format", choices=["jsonl", "json"], default="jsonl")

    p = sub.add_parser("diff", help="differential comparison of two runs")
    p.set_defaults(run=_cmd_diff)
    p.add_argument("--bare", required=True, help="trace file or directory")
    p.add_argument("--vm", required=True, help="trace file or directory")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--nonempty-only", action="store_true",
                   help="keep only pairs with file write activity")

    p = sub.add_parser("intrude", help="scan command lines for intrusion tactics")
    p.set_defaults(run=_cmd_intrude)
    p.add_argument("traces", nargs="+")
    p.add_argument("--rules", default=None, help="rule file (default: built-ins)")
    p.add_argument("--dwell", action="store_true", help="append dwell-time statistics")
    p.add_argument("--format", choices=["jsonl", "json"], default="jsonl")

    p = sub.add_parser("bench", help="file I/O throughput benchmark")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--dir", required=True)
    p.add_argument("--files", type=int, default=500)
    p.add_argument("--small", type=int, default=10 * 1024)
    p.add_argument("--large", type=int, default=10 * 1024 * 1024)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")

    return parser


def _write_trace_out(trace, out: str, compress: bool) -> None:
    if out == "-":
        write_trace(trace, sys.stdout.buffer, compress=compress)
        sys.stdout.buffer.flush()
    else:
        write_trace(trace, out, compress=compress or out.endswith(".gz"))


def _cmd_validate(args) -> int:
    for path in args.traces:
        label = "stdin" if path == "-" else path
        # Every line is checked; only the first record is built.
        reader = TraceReader(_source(path), frozenset())
        for _ in reader:
            pass
        print(f"{label}: {len(reader)} records OK")
    return EXIT_OK


def _cmd_gen(args) -> int:
    from . import pipeline

    if args.events < 0:
        raise LaseError(f"--events must be non-negative, got {args.events}")
    if args.injections < 0:
        raise LaseError(f"--injections must be non-negative, got {args.injections}")
    spec = pipeline.WorkloadSpec(events_per_producer=args.events, seed=args.seed,
                                 injection_templates=args.injections)
    trace = pipeline.run_synthetic(spec)
    _write_trace_out(trace, args.out, args.compress)
    return EXIT_OK


def _cmd_replay(args) -> int:
    from . import pipeline

    trace = read_trace(_source(args.trace))
    config = pipeline.PipelineConfig(
        ring_capacity=args.ring, chunk_size=args.ring,
        backpressure_policy=pipeline.BackpressurePolicy(args.policy),
    )
    # Checked, then ignored: every replay records on this thread.
    if args.producers < 1 or args.consumers < 1:
        raise LaseError("replay needs at least one producer and one consumer, "
                        f"got {args.producers} and {args.consumers}")
    result = pipeline.replay_fixture(trace, config=config)
    _write_trace_out(result, args.out, args.compress)
    if len(result) < len(trace):
        print(f"warning: replay kept {len(result)} of {len(trace)} events (policy {args.policy})",
              file=sys.stderr)
    return EXIT_OK


def _parse_root(spec: str, built) -> forest.ProcessKey:
    from . import forest

    match = re.fullmatch(r"([0-9]+)(?::([0-9]+))?", spec)
    if match is None:
        raise LaseError(f"--root takes PID[:BIRTH_SEQ], got {spec!r}")
    pid = int(match[1])
    if match[2] is not None:
        key = forest.ProcessKey(pid, int(match[2]))
        if key not in built.index:
            raise LaseError(f"no process with pid {pid} and birth seq {key.birth_seq} in the forest"
                            " (--root PID[:BIRTH_SEQ])")
        return key
    first = min((k for k in built.index if k.pid == pid), key=lambda k: k.birth_seq, default=None)
    if first is None:
        raise LaseError(f"no process with pid {pid} in the forest")
    return first


def _node_doc(node: forest.ProcessNode, **extra) -> dict:
    """A node's JSON object: the keys it has in the whole forest's document
    and in a subtree's, and extra."""
    return {
        "pid": node.key.pid,
        "birth_seq": node.key.birth_seq,
        "image_path": node.image_path,
        "args": node.args,
        "io_summary": {major: {"count": t.count, "duration_us": t.duration_us}
                       for major, t in sorted(node.io_summary.items())},
        "children": [[c.pid, c.birth_seq] for c in node.children],
        **extra,
    }


def _tree_json(doc: dict, node_doc) -> Iterator[str]:
    """The text of json.dumps(doc, indent=2, sort_keys=True), in pieces;
    node_doc builds each ProcessNode's dict when the encoder reaches it.
    A tree document lists its nodes flat, each child as a [pid, birth_seq]
    pair, so its nesting is fixed and the encoder's recursion bounded."""
    return json.JSONEncoder(indent=2, sort_keys=True, default=node_doc).iterencode(doc)


def _forest_json(built: forest.ProcessForest) -> Iterator[str]:
    """The whole forest's JSON text: every node, by birth, with its parent,
    threads and images."""
    return _tree_json({
        "roots": [[k.pid, k.birth_seq] for k in built.roots],
        "created": built.created_count(),
        "preexisting": built.preexisting_count(),
        "warnings": built.warnings,
        "nodes": [built.index[k] for k in sorted(built.index, key=lambda k: (k.birth_seq, k.pid))],
    }, lambda node: _node_doc(node, threads=node.threads, images=node.images,
                              parent=[node.parent.pid, node.parent.birth_seq] if node.parent else None))


def _subtree_json(built: forest.ProcessForest, root: forest.ProcessKey) -> Iterator[str]:
    """The JSON text of the subtree under root, in the whole forest's shape:
    its nodes in the preorder render_dot prints, each with its dropped
    files."""
    from . import forest

    return _tree_json({
        "root": [root.pid, root.birth_seq],
        "nodes": [node for _, node in forest.subtree(built, root)],
    }, lambda node: _node_doc(node, dropped_files=node.dropped_files))


# json.dumps(value, indent=2, sort_keys=True), as pieces from iterencode.
_JSON = json.JSONEncoder(indent=2, sort_keys=True)
_JSON_BATCH = 1024  # pieces joined per write


def _print_json(pieces: Iterator[str]) -> None:
    """Write the pieces of a JSON text to stdout as they are encoded, joined
    in batches, then a newline."""
    while batch := "".join(itertools.islice(pieces, _JSON_BATCH)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _cmd_tree(args) -> int:
    from . import forest

    reader = TraceReader(_source(args.trace))
    built = forest.build_forest(Trace(reader.header, reader), activity=args.format == "json")
    for warning in built.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    root = None if args.root is None else _parse_root(args.root, built)
    if args.format == "dot":
        sys.stdout.write(forest.render_dot(built, root))
    else:
        _print_json(_forest_json(built) if root is None else _subtree_json(built, root))
    return EXIT_OK


def _write_findings(findings, fmt: str) -> None:
    """Findings (anything with to_dict) as one JSON object per line, or as
    one JSON array."""
    if fmt == "jsonl":
        for f in findings:
            sys.stdout.write(json.dumps(f.to_dict(), sort_keys=True) + "\n")
    else:
        _print_json(_JSON.iterencode([f.to_dict() for f in findings]))


def _cmd_inject_scan(args) -> int:
    from . import forest

    # Build only the records the detector reads, and the first.
    reader = TraceReader(_source(args.trace), forest.InjectionFold.kinds)
    window = {} if args.window_ms is None else {"window_ms": args.window_ms}
    findings = forest.detect_remote_thread_injection(Trace(reader.header, reader), **window)
    _write_findings(findings, args.format)
    return EXIT_OK


def _cmd_fingerprint(args) -> int:
    from . import fingerprint

    reader = TraceReader(_source(args.trace))
    if args.signatures is None:
        signatures = fingerprint.default_signatures()
    else:
        signatures = fingerprint.load_signatures(Path(args.signatures).read_text(encoding="utf-8"))
    _write_findings(fingerprint.scan(Trace(reader.header, reader), signatures), args.format)
    return EXIT_OK


def _cmd_diff(args) -> int:
    from . import diffreport

    bare, vm = Path(args.bare), Path(args.vm)
    if bare.is_dir() != vm.is_dir():
        raise LaseError("--bare and --vm must both be files or both directories")
    if bare.is_dir():
        report = diffreport.compare_corpora(bare, vm, nonempty_only=args.nonempty_only)
    else:
        report = diffreport.compare_traces(read_trace(_source(args.bare)), read_trace(_source(args.vm)),
                                           nonempty_only=args.nonempty_only)
    out = diffreport.report_to_tsv(report) if args.format == "tsv" else diffreport.report_to_json(report)
    sys.stdout.write(out)
    return EXIT_OK


def _cmd_intrude(args) -> int:
    from . import intrusion

    rules = intrusion.DEFAULT_RULES
    if args.rules is not None:
        rules = intrusion.load_rules(Path(args.rules).read_text(encoding="utf-8"))
    labels = ["stdin" if p == "-" else p for p in args.traces]

    def scan(path: str):
        # Build only the creates the scan reads and the first record the
        # dwell statistics read; both are freed before the next trace.
        reader = TraceReader(_source(path), intrusion.CommandScan.kinds)
        trace = Trace(reader.header, tuple(reader))
        return intrusion.scan_commands(trace, rules), Trace(trace.header, trace.records[:1])

    findings, heads = zip(*map(scan, args.traces))
    _write_findings([f for found in findings for f in found], args.format)
    if args.dwell:
        stats = intrusion.dwell_stats(heads, findings, labels)
        doc = {
            "sessions": [
                {
                    "label": s.label,
                    "latency_seconds": s.latency.total_seconds() if s.latency else None,
                }
                for s in stats.sessions
            ],
            "mean_latency_seconds": stats.mean_latency.total_seconds() if stats.mean_latency else None,
            "median_latency_seconds": stats.median_latency.total_seconds() if stats.median_latency else None,
            "clean_traces": stats.n_clean,
        }
        _print_json(_JSON.iterencode(doc))
    return EXIT_OK


def _cmd_bench(args) -> int:
    from . import bench

    report = bench.run_workload(bench.BenchConfig(
        target_dir=args.dir, file_count=args.files, small_size=args.small,
        large_size=args.large, repetitions=args.reps,
    ))
    out = bench.report_to_tsv(report) if args.format == "tsv" else bench.report_to_json(report)
    sys.stdout.write(out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # A command runs to completion and builds no reference cycles per record,
    # so the cyclic collector would only rescan the records it holds.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.run(args)
    except BrokenPipeError:
        return EXIT_OK
    except (LaseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
