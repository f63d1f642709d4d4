"""Analyst-facing command line: one subcommand per analysis.

Exit codes: 0 success, 1 usage error, 2 input/validation error, 3 internal
failure. Reports go to stdout, diagnostics to stderr. "-" is accepted
wherever a trace path is expected and reads the trace from stdin. All
randomness flows through an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from . import diffreport, fingerprint, forest, intrusion, pipeline
from .codec import read_trace, write_trace
from .errors import LaseError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _read_trace_arg(path: str):
    if path == "-":
        return read_trace(sys.stdin.buffer)
    return read_trace(path)


def _policy(name: str) -> pipeline.BackpressurePolicy:
    return pipeline.BackpressurePolicy(name)


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--producers", type=int, default=1)
    p.add_argument("--consumers", type=int, default=1)
    p.add_argument("--ring", type=int, default=64)
    p.add_argument("--chunk", type=int, default=16)
    p.add_argument("--policy", choices=[x.value for x in pipeline.BackpressurePolicy],
                   default="block")


def build_parser() -> _Parser:
    parser = _Parser(prog="lase", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="decode and validate traces")
    p.add_argument("traces", nargs="+")

    p = sub.add_parser("gen", help="generate a deterministic synthetic trace")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--producers", type=int, default=1)
    p.add_argument("--events", type=int, default=100, help="events per producer")
    p.add_argument("--injections", type=int, default=0,
                   help="remote-thread injection templates to plant")
    p.add_argument("--out", default="-")
    p.add_argument("--compress", action="store_true")

    p = sub.add_parser("replay", help="replay a trace through the pipeline")
    p.add_argument("trace")
    p.add_argument("--speed", type=float, default=0.0, help="0 = no pacing")
    p.add_argument("--out", default="-")
    p.add_argument("--compress", action="store_true")
    _add_pipeline_flags(p)

    p = sub.add_parser("tree", help="reconstruct the process forest")
    p.add_argument("trace")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--root", help="render only the subtree under PID[:BIRTH_SEQ]")

    p = sub.add_parser("inject-scan", help="flag remote-thread injection")
    p.add_argument("trace")
    p.add_argument("--window-ms", type=int, default=forest.DEFAULT_INJECTION_WINDOW_MS)
    p.add_argument("--format", choices=["jsonl", "json"], default="jsonl")

    p = sub.add_parser("fingerprint", help="scan for environment fingerprinting")
    p.add_argument("trace")
    p.add_argument("--signatures", default=None,
                   help="signature file ('default' = built-ins; also LASE_SIGNATURES)")
    p.add_argument("--format", choices=["jsonl", "json"], default="jsonl")

    p = sub.add_parser("diff", help="differential comparison of two runs")
    p.add_argument("--bare", required=True, help="trace file or directory")
    p.add_argument("--vm", required=True, help="trace file or directory")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--nonempty-only", action="store_true",
                   help="corpus mode: keep only pairs with file write activity")
    p.add_argument("--workers", type=int, default=4)

    p = sub.add_parser("intrude", help="scan command lines for intrusion tactics")
    p.add_argument("traces", nargs="+")
    p.add_argument("--rules", default=None, help="rule file (default: built-ins)")
    p.add_argument("--dwell", action="store_true", help="append dwell-time statistics")
    p.add_argument("--format", choices=["jsonl", "json"], default="jsonl")

    p = sub.add_parser("bench", help="file I/O throughput benchmark")
    p.add_argument("--dir", required=True)
    p.add_argument("--files", type=int, default=500)
    p.add_argument("--small", type=int, default=10 * 1024)
    p.add_argument("--large", type=int, default=10 * 1024 * 1024)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--instrumented", action="store_true",
                   help="also run the instrumented half and report overhead")
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
        trace = _read_trace_arg(path)
        label = "stdin" if path == "-" else path
        print(f"{label}: {len(trace)} records OK")
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = pipeline.WorkloadSpec(
        producers=args.producers,
        events_per_producer=args.events,
        seed=args.seed,
        injection_templates=args.injections,
    )
    trace = pipeline.run_synthetic(spec)
    _write_trace_out(trace, args.out, args.compress)
    return EXIT_OK


def _cmd_replay(args) -> int:
    trace = _read_trace_arg(args.trace)
    config = pipeline.PipelineConfig(
        ring_capacity=args.ring, chunk_size=args.chunk,
        backpressure_policy=_policy(args.policy),
    )
    speed = math.inf if args.speed <= 0 else args.speed
    result = pipeline.replay_fixture(trace, speed=speed, config=config,
                                     producers=args.producers, consumers=args.consumers)
    _write_trace_out(result, args.out, args.compress)
    if len(result) < len(trace):
        print(f"warning: replay kept {len(result)} of {len(trace)} events (policy {args.policy})",
              file=sys.stderr)
    return EXIT_OK


def _parse_root(spec: str, built) -> forest.ProcessKey:
    pid_text, _, seq_text = spec.partition(":")
    pid = int(pid_text)
    if seq_text:
        return forest.ProcessKey(pid, int(seq_text))
    candidates = sorted((k for k in built.index if k.pid == pid),
                        key=lambda k: k.birth_seq)
    if not candidates:
        raise LaseError(f"no process with pid {pid} in the forest")
    return candidates[0]


def _forest_to_json(built: forest.ProcessForest) -> dict:
    return {
        "roots": [[k.pid, k.birth_seq] for k in built.roots],
        "created": built.created_count(),
        "preexisting": built.preexisting_count(),
        "warnings": built.warnings,
        "nodes": [
            {
                "pid": node.key.pid,
                "birth_seq": node.key.birth_seq,
                "parent": [node.parent.pid, node.parent.birth_seq] if node.parent else None,
                "image_path": node.image_path,
                "args": node.args,
                "threads": len(node.threads),
                "images": len(node.images),
                "io_summary": {
                    major: {"count": t.count, "duration_us": t.duration_us}
                    for major, t in sorted(node.io_summary.items())
                },
                "children": [[c.pid, c.birth_seq] for c in node.children],
            }
            for _, node in sorted(built.index.items(), key=lambda kv: (kv[0].birth_seq, kv[0].pid))
        ],
    }


def _subtree_to_json(tree: forest.AttackTreeNode) -> dict:
    return {
        "pid": tree.key.pid,
        "birth_seq": tree.key.birth_seq,
        "image_path": tree.image_path,
        "args": tree.args,
        "io_summary": {
            major: {"count": t.count, "duration_us": t.duration_us}
            for major, t in sorted(tree.io_summary.items())
        },
        "dropped_files": tree.dropped_files,
        "children": [_subtree_to_json(c) for c in tree.children],
    }


def _cmd_tree(args) -> int:
    trace = _read_trace_arg(args.trace)
    built = forest.build_forest(trace)
    for warning in built.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.root:
        subtree = forest.attack_tree(built, _parse_root(args.root, built))
        if args.format == "dot":
            sys.stdout.write(forest.render_dot(subtree, name=f"subtree_{subtree.key.pid}"))
        else:
            print(json.dumps(_subtree_to_json(subtree), indent=2, sort_keys=True))
    else:
        if args.format == "dot":
            sys.stdout.write(forest.render_dot(built))
        else:
            print(json.dumps(_forest_to_json(built), indent=2, sort_keys=True))
    return EXIT_OK


def _write_findings(findings, fmt: str) -> None:
    if fmt == "jsonl":
        sys.stdout.write(forest.findings_to_jsonl(findings))
    else:
        print(json.dumps([f.to_dict() for f in findings], indent=2, sort_keys=True))


def _cmd_inject_scan(args) -> int:
    trace = _read_trace_arg(args.trace)
    _write_findings(forest.detect_remote_thread_injection(trace, window_ms=args.window_ms), args.format)
    return EXIT_OK


def _load_signatures_arg(arg: str | None):
    source = arg or os.environ.get("LASE_SIGNATURES") or "default"
    if source == "default":
        return fingerprint.default_signatures()
    return fingerprint.load_signatures(Path(source).read_text(encoding="utf-8"))


def _cmd_fingerprint(args) -> int:
    trace = _read_trace_arg(args.trace)
    signatures = _load_signatures_arg(args.signatures)
    _write_findings(fingerprint.scan(trace, signatures), args.format)
    return EXIT_OK


def _cmd_diff(args) -> int:
    bare, vm = Path(args.bare), Path(args.vm)
    if bare.is_dir() != vm.is_dir():
        raise LaseError("--bare and --vm must both be files or both directories")
    if bare.is_dir():
        report = diffreport.compare_corpora(bare, vm, nonempty_only=args.nonempty_only,
                                            workers=args.workers)
    else:
        report = diffreport.compare_traces(read_trace(bare), read_trace(vm))
    out = diffreport.report_to_tsv(report) if args.format == "tsv" else diffreport.report_to_json(report)
    sys.stdout.write(out)
    return EXIT_OK


def _cmd_intrude(args) -> int:
    rules = intrusion.DEFAULT_RULES
    if args.rules:
        rules = intrusion.load_rules(Path(args.rules).read_text(encoding="utf-8"))
    labels = ["stdin" if p == "-" else p for p in args.traces]
    traces = [_read_trace_arg(p) for p in args.traces]
    _write_findings([f for trace in traces for f in intrusion.scan_commands(trace, rules)], args.format)
    if args.dwell:
        nonempty = [(t, label) for t, label in zip(traces, labels) if t.records]
        stats = intrusion.dwell_stats([t for t, _ in nonempty], rules,
                                      [label for _, label in nonempty])
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
        print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_bench(args) -> int:
    base_config = bench_mod.BenchConfig(
        target_dir=args.dir, file_count=args.files, small_size=args.small,
        large_size=args.large, repetitions=args.reps, instrumented=False,
    )
    baseline = bench_mod.run_workload(base_config)
    if args.instrumented:
        inst_config = bench_mod.BenchConfig(
            target_dir=args.dir, file_count=args.files, small_size=args.small,
            large_size=args.large, repetitions=args.reps, instrumented=True,
        )
        instrumented = bench_mod.run_workload(inst_config)
        report = bench_mod.overhead(baseline, instrumented)
    else:
        report = bench_mod.overhead(baseline, baseline)
    out = bench_mod.report_to_tsv(report) if args.format == "tsv" else bench_mod.report_to_json(report)
    sys.stdout.write(out)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "gen": _cmd_gen,
    "replay": _cmd_replay,
    "tree": _cmd_tree,
    "inject-scan": _cmd_inject_scan,
    "fingerprint": _cmd_fingerprint,
    "diff": _cmd_diff,
    "intrude": _cmd_intrude,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return EXIT_OK
    except (LaseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
