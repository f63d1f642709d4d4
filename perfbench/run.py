"""lase benchmark: times the ``lase`` CLI on seeded, generated inputs.

Usage, from the root of a lase checkout:

    python3 perfbench/run.py --workload {triage,corpus,record} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the workload's inputs are generated SETUP_REPS times
(``setup_s`` is the median), then its commands run one at a time as
subprocesses, in rounds, until ``--seconds`` have passed: a closed loop with
a single client.  Each command's stdout is checked.  With ``--trace 1`` the
commands run in-process under the span tracer of ``tracing.py``, the
per-layer metrics are reported instead, and the spans are written to
``.bench_spans/<workload>-<seed>.jsonl`` when the run ends.

The last line of stdout is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.  Lines before it give the run's metadata and every
metric by name and unit.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPS = 3
WORK_DIR = Path(".bench_work")
SPANS_DIR = Path(".bench_spans")

END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
REPORT_UNITS = {"rounds": "count", "failed_frac": "frac", "records_per_s": "1/s"}


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "lase").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _host_steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over this
    host's CPUs (0 where /proc/stat has no steal column)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


class Launcher:
    """The small process that starts every timed command (see launcher.py)."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launcher.py"))],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, work: Path) -> dict:
        """Run one command to completion; its stdout, stderr tail, exit
        code, wall and CPU seconds and max RSS."""
        out, err = work / "stdout", work / "stderr"
        request = {"argv": argv, "env": env, "stdout": str(out), "stderr": str(err)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        result = json.loads(reply)
        result.update(out=out.read_bytes(), stderr=err.read_bytes()[-200:])
        return result

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


def untraced_run(workload: str, seed: int, seconds: float, root: Path, work: Path):
    from workloads import WORKLOADS, check_step, load_pins

    launcher = Launcher()
    try:
        setup, pins = WORKLOADS[workload], load_pins()
        setup_times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            inputs = setup(work, seed)
            setup_times.append(time.perf_counter() - start)

        env = {k: v for k, v in os.environ.items() if k != "LASE_SIGNATURES"}
        env["PYTHONPATH"] = str(root / "src")
        rounds, failures = [], []
        steal = _host_steal_s()
        start = time.perf_counter()
        while True:
            results = {}
            for step in inputs.steps:
                r = launcher.run([sys.executable, "-m", "lase.cli", *step.argv], env, work)
                reason = check_step(workload, step, r.pop("rc"), r.pop("out"), seed, pins)
                if reason:
                    failures.append(f"{step.name}: {reason} {r['stderr']!r}")
                results[step.name] = r
            rounds.append(results)
            if time.perf_counter() - start >= seconds:
                break

        walls = [sum(r["wall"] for r in rnd.values()) for rnd in rounds]
        wall = statistics.median(walls)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "cpu_s": statistics.median(sum(r["cpu"] for r in rnd.values()) for rnd in rounds),
            "peak_rss_mb": max(r["rss_kb"] for rnd in rounds for r in rnd.values()) / 1024,
        }
        report = {f"{name}_s": statistics.median(rnd[name]["wall"] for rnd in rounds)
                  for name in rounds[0]}
        report["wall_s"] = wall
        report["records_per_s"] = sum(step.records for step in inputs.steps) / wall
        report["rounds"] = len(rounds)
        report["failed_frac"] = len(failures) / (len(rounds) * len(inputs.steps))
        meta = {"input_records": inputs.records, "input_bytes": inputs.bytes,
                "setup_samples_s": setup_times, "round_walls_s": walls,
                "host_steal_s": _host_steal_s() - steal}
        return metrics, len(rounds) * len(inputs.steps), failures, report, meta
    finally:
        launcher.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["triage", "corpus", "record"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lase" / "cli.py").is_file():
        print("error: run from the root of a lase checkout (src/lase not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            from tracing import layer_unit, traced_run

            metrics, attempted, failures, tracer = traced_run(args.workload, args.seed, work)
            SPANS_DIR.mkdir(exist_ok=True)
            tracer.write_spans(SPANS_DIR / f"{args.workload}-{args.seed}.jsonl")
            units = {name: layer_unit(name) for name in metrics}
            report, meta = {}, {}
        else:
            metrics, attempted, failures, report, meta = untraced_run(
                args.workload, args.seed, args.seconds, root, work)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "python": platform.python_version(), "nproc": os.cpu_count(),
                 "commit": _commit(root), "src_sha256": _source_digest(root)})
    print("# meta " + json.dumps(meta))
    for name, value in report.items():
        print(f"# report\t{name}\t{value}\t{REPORT_UNITS.get(name, 's')}")
    for name, value in metrics.items():
        print(f"# metric\t{name}\t{value}\t{units[name]}")
    for reason in failures:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
