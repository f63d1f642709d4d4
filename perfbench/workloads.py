"""Seeded inputs, timed commands and output checks for the three workloads.

Each workload's ``setup`` generates its input files from a seed with lase's
own generator, plants known evidence into them (remote-thread injections,
tactic command lines, paired bare/vm headers) and returns the list of
``lase`` commands to time.  Every command carries a check that recomputes
what its stdout must contain from the generated records alone, so that a
wrong answer is counted as a failure whatever the seed.  At the default seed
the sha256 of each command's stdout is also compared with ``pins.json``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
import shutil
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from lase import codec, pipeline
from lase.events import Annotation, Irp, ProcessCreate

DEFAULT_SEED = 1
PINS_FILE = Path(__file__).with_name("pins.json")

# Sizes: chosen so one measured round of every workload takes 5-20 s on a
# 2-core host while the forest's superlinear cost still shows on triage.
TRIAGE_RECORDS = 80_000
TRIAGE_INJECTIONS = 8
TRIAGE_TACTICS = 12
CORPUS_PAIRS = 40
CORPUS_RECORDS = 1_000
RECORD_RECORDS = 50_000

# One command line per intrusion tactic; each matches exactly one default
# rule and contains no backslash followed by t, n or another backslash.
TACTIC_ARGS = {
    "BackupErasure": "/c vssadmin delete shadows /all /quiet",
    "AccountManipulation": "/c net user backdoor Passw0rd! /add",
    "PasswordPolicy": "/c net accounts /maxpwage:unlimited",
    "GroupEnumeration": "/c wmic group where \"sid='S-1-5-32-544'\" get name",
    "ScheduledTask": "/c schtasks /create /tn updater /tr updater.exe /sc onlogon",
    "HiddenAccount": ("/c reg add HKLM\\SOFTWARE\\Microsoft\\Windows NT\\CurrentVersion"
                      "\\Winlogon\\SpecialAccounts\\UserList /v backdoor /d 0 /f"),
}
# Annotation APIs the default fingerprint signatures match; the generator's
# other API (IsDebuggerPresent) and its file paths match none.
FINGERPRINT_APIS = {"RDTSC", "QueryPerformanceCounter", "GetTickCount", "GetSystemFirmwareTable"}
VICTIM_IMAGE = "%ProgramFiles%\\victim\\service.exe"

Check = Callable[[bytes], "str | None"]


@dataclass
class Step:
    """One timed ``lase`` command: argv after ``lase``, records it consumes
    or produces, a check of its stdout, and the form of stdout that is
    pinned (identity unless the bytes vary from run to run)."""

    name: str
    argv: list[str]
    records: int
    check: Check
    canon: Callable[[bytes], bytes] = lambda out: out


@dataclass
class Inputs:
    steps: list[Step]
    records: int
    bytes: int


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text()) if PINS_FILE.exists() else {}


def check_step(workload: str, step: Step, rc: int, out: bytes, seed: int, pins: dict) -> str | None:
    """Failure reason for one command's run, or None when it is correct."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        reason = step.check(out)
    except (ValueError, KeyError, IndexError, TypeError, OSError, EOFError) as exc:
        reason = f"unparseable output: {type(exc).__name__}: {exc}"
    if reason is None and seed == DEFAULT_SEED:
        pinned = pins.get(workload, {}).get(step.name)
        if pinned is None:
            reason = "no pinned sha256 for the default seed"
        elif sha256(step.canon(out)) != pinned:
            reason = "stdout differs from the pinned sha256"
    return reason


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


# --- planting ---------------------------------------------------------------

def plant_tactics(trace: codec.Trace, rng: random.Random, count: int):
    """Rewrite the args of ``count`` seeded process creates into tactic
    command lines. Only args change, so process identity is untouched.
    Returns the new trace and the planted {(pid, seq, category)}."""
    records = list(trace.records)
    creates = [i for i, r in enumerate(records) if isinstance(r.kind, ProcessCreate)]
    categories = list(TACTIC_ARGS)
    planted = set()
    for j, i in enumerate(sorted(rng.sample(creates, min(count, len(creates))))):
        category = categories[(j + rng.randrange(len(categories))) % len(categories)]
        records[i] = replace(records[i], args=TACTIC_ARGS[category])
        planted.add((records[i].pid, records[i].global_seq, category))
    return codec.Trace(trace.header, tuple(records)), planted


def planted_injections(trace: codec.Trace) -> set[tuple[int, int, int, int]]:
    """(target pid, birth seq, injector pid, birth seq) of every injection
    template the generator appended: an injector create followed by its
    victim's create."""
    out = set()
    previous = None
    for r in trace.records:
        if isinstance(r.kind, ProcessCreate):
            if r.image_path == VICTIM_IMAGE and previous is not None:
                out.add((r.pid, r.global_seq, previous.pid, previous.global_seq))
            previous = r
    return out


# --- output checks -----------------------------------------------------------

def _jsonl(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line]


def _intrude_output(out: bytes) -> tuple[list[dict], dict]:
    """Split ``intrude --dwell`` stdout into findings and the dwell document."""
    text = out.decode()
    head, sep, doc = text.partition("\n{\n")
    if not sep and text.startswith("{\n"):
        head, doc = "", text[2:]
    elif not sep:
        raise ValueError("no dwell document")
    return _jsonl(head), json.loads("{\n" + doc)


def check_intrude(planted: dict[str, set], total_clean: int) -> Check:
    """Every planted tactic is reported and nothing else; sessions without
    a plant have no latency and are counted clean.

    The latency of a planted session is not checked here: at this version
    ``intrude --dwell`` prints null for a zero latency (a tactic on the
    trace's first record), so only the pinned sha256 covers those values."""
    def check(out: bytes) -> str | None:
        findings, dwell = _intrude_output(out)
        sessions = {s["label"]: s["latency_seconds"] for s in dwell["sessions"]}
        if list(sessions) != list(planted):
            return "dwell sessions do not match the inputs"
        # Findings carry no file name, so they are compared as a multiset.
        got = Counter((f["pid"], f["seq"], f["category"]) for f in findings)
        want = Counter(p for seqs in planted.values() for p in seqs)
        if got != want:
            return f"tactics: {sum((got & want).values())}/{sum(want.values())} planted reported"
        for label, seqs in planted.items():
            if not seqs and sessions[label] is not None:
                return f"dwell latency for {label}, which has no tactic"
        if dwell["clean_traces"] != total_clean:
            return f"clean_traces {dwell['clean_traces']} != {total_clean}"
        return None
    return check


def _triage_steps(path: str, trace: codec.Trace, planted_tactics: set) -> list[Step]:
    n = len(trace.records)
    creates = [r for r in trace.records if isinstance(r.kind, ProcessCreate)]
    created, preexisting = set(), set()
    for r in trace.records:
        if isinstance(r.kind, ProcessCreate):
            if r.ppid and r.ppid not in created:
                preexisting.add(r.ppid)
            created.add(r.pid)
        elif r.pid not in created:
            preexisting.add(r.pid)
    injections = planted_injections(trace)
    fp_seqs = {r.global_seq for r in trace.records
               if isinstance(r.kind, Annotation) and r.kind.value in FINGERPRINT_APIS}

    def validate(out: bytes) -> str | None:
        want = f"{path}: {n} records OK\n"
        return None if out.decode() == want else f"expected {want!r}"

    def tree(out: bytes) -> str | None:
        text = out.decode()
        if not (text.startswith("digraph ") and text.endswith("}\n")):
            return "not a complete DOT graph"
        nodes = text.count(" [label=")
        edges = text.count(" -> ")
        if nodes != len(creates) + len(preexisting) or edges != len(creates):
            return f"{nodes} nodes/{edges} edges, want {len(creates) + len(preexisting)}/{len(creates)}"
        return None

    def inject_scan(out: bytes) -> str | None:
        got = {(f["target_pid"], f["target_birth_seq"], f["injector_pid"], f["injector_birth_seq"])
               for f in _jsonl(out.decode())}
        return None if got == injections else f"injections {len(got & injections)}/{len(injections)}"

    def fingerprint(out: bytes) -> str | None:
        evidence = [seq for f in _jsonl(out.decode()) for seq in f["evidence"]]
        if len(evidence) != len(fp_seqs) or set(evidence) != fp_seqs:
            return f"{len(evidence)} evidence records, want {len(fp_seqs)}"
        return None

    return [
        Step("validate", ["validate", path], n, validate),
        Step("tree", ["tree", path], n, tree),
        Step("inject_scan", ["inject-scan", path], n, inject_scan),
        Step("fingerprint", ["fingerprint", path], n, fingerprint),
        Step("intrude", ["intrude", path, "--dwell"], n,
             check_intrude({path: planted_tactics}, 0 if planted_tactics else 1)),
    ]


# --- workloads ---------------------------------------------------------------

def setup_triage(work: Path, seed: int, scale: float = 1.0) -> Inputs:
    rng = _rng("triage", seed)
    spec = pipeline.WorkloadSpec(events_per_producer=_scaled(TRIAGE_RECORDS, scale),
                                 seed=rng.randrange(2**31),
                                 injection_templates=TRIAGE_INJECTIONS)
    trace, tactics = plant_tactics(pipeline.run_synthetic(spec), rng, TRIAGE_TACTICS)
    path = str(_fresh(work / "triage") / "trace.lase")
    size = codec.write_trace(trace, path)
    return Inputs(_triage_steps(path, trace, tactics), len(trace.records), size)


def _op_counts(trace: codec.Trace) -> Counter:
    return Counter(r.kind.code.major for r in trace.records if isinstance(r.kind, Irp))


def check_diff(ops_bare: Counter, ops_vm: Counter) -> Check:
    """The per-operation table equals a Counter over the decoded records."""
    def check(out: bytes) -> str | None:
        text = out.decode()
        _, sep, rest = text.partition("\nOperation\tBare\tVM\n")
        if not sep:
            return "no per-operation table"
        got_bare, got_vm = Counter(), Counter()
        for line in rest.split("\n\n", 1)[0].splitlines():
            major, bare, vm = line.split("\t")
            got_bare[major] = int(bare.replace(",", ""))
            got_vm[major] = int(vm.replace(",", ""))
        if +got_bare != ops_bare or +got_vm != ops_vm:
            return "per-operation counts differ from the records"
        return None
    return check


def setup_corpus(work: Path, seed: int, scale: float = 1.0) -> Inputs:
    rng = _rng("corpus", seed)
    root = _fresh(work / "corpus")
    bare_dir, vm_dir = _fresh(root / "bare"), _fresh(root / "vm")
    per_file = _scaled(CORPUS_RECORDS, scale)
    ops_bare, ops_vm = Counter(), Counter()
    planted: dict[str, set] = {}
    records = size = 0
    for i in range(CORPUS_PAIRS):
        name = f"s{i:02d}.lase.gz"
        for env, directory, ops in (("baremetal", bare_dir, ops_bare), ("virtual", vm_dir, ops_vm)):
            spec = pipeline.WorkloadSpec(events_per_producer=per_file, seed=rng.randrange(2**31))
            trace = pipeline.run_synthetic(spec)
            header = replace(trace.header, host_label=f"{env}-lab-{i:02d}", environment=env)
            trace = codec.Trace(header, trace.records)
            if env == "baremetal":
                trace, tactics = plant_tactics(trace, rng, rng.randint(1, 3) if rng.random() < 0.5 else 0)
                planted[str(directory / name)] = tactics
            ops.update(_op_counts(trace))
            size += codec.write_trace(trace, str(directory / name), compress=True)
            records += len(trace.records)
    bare_files = sorted(planted)
    clean = sum(1 for seqs in planted.values() if not seqs)
    steps = [
        Step("diff", ["diff", "--bare", str(bare_dir), "--vm", str(vm_dir)], records,
             check_diff(ops_bare, ops_vm)),
        Step("intrude", ["intrude", *bare_files, "--dwell"], records // 2,
             check_intrude(planted, clean)),
    ]
    return Inputs(steps, records, size)


def _strip_seq(line: bytes) -> bytes:
    fields = line.split(b"\t")
    del fields[3]
    return b"\t".join(fields)


def _canon_multiset(out: bytes) -> bytes:
    """Header plus the sorted records without their sequence column: the
    part of a threaded replay that does not depend on thread interleaving."""
    lines = out.split(b"\n")
    head = [x for x in lines if x.startswith(b"#")]
    body = sorted(_strip_seq(x) for x in lines if x and not x.startswith(b"#"))
    return b"\n".join(head + body)


def _by_pid(lines: list[bytes]) -> dict[bytes, list[bytes]]:
    groups: dict[bytes, list[bytes]] = {}
    for line in lines:
        groups.setdefault(line.split(b"\t")[5], []).append(_strip_seq(line))
    return groups


def setup_record(work: Path, seed: int, scale: float = 1.0) -> Inputs:
    rng = _rng("record", seed)
    n = _scaled(RECORD_RECORDS, scale)
    gen_seed = rng.randrange(2**31)
    spec = pipeline.WorkloadSpec(events_per_producer=n, seed=gen_seed)
    trace = pipeline.run_synthetic(spec)
    path = _fresh(work / "record") / "trace.lase"
    size = codec.write_trace(trace, str(path))
    expected = path.read_bytes()
    want_lines = [x for x in expected.split(b"\n") if x and not x.startswith(b"#")]
    want_by_pid = _by_pid(want_lines)

    def same_as_input(out: bytes) -> str | None:
        return None if out == expected else "output differs from run_synthetic(spec)"

    def gen_gz(out: bytes) -> str | None:
        return same_as_input(gzip.decompress(out))

    def replay_mt(out: bytes) -> str | None:
        lines = [x for x in out.split(b"\n") if x and not x.startswith(b"#")]
        if len(lines) != len(want_lines):
            return f"lost {len(want_lines) - len(lines)} records"
        if [int(x.split(b"\t", 4)[3]) for x in lines] != list(range(1, len(lines) + 1)):
            return "sequence numbers are not 1..N"
        if _by_pid(lines) != want_by_pid:
            return "per-pid order or content changed"
        return None

    gen = ["gen", "--seed", str(gen_seed), "--events", str(n), "--out", "-"]
    replay = ["replay", str(path), "--policy", "block", "--out", "-"]
    steps = [
        Step("gen", gen, n, same_as_input),
        Step("gen_gz", gen + ["--compress"], n, gen_gz, canon=gzip.decompress),
        Step("replay", replay, n, same_as_input),
        Step("replay_mt", replay + ["--producers", "2", "--consumers", "1"], n, replay_mt,
             canon=_canon_multiset),
    ]
    return Inputs(steps, n, size)


WORKLOADS: dict[str, Callable[..., Inputs]] = {
    "triage": setup_triage,
    "corpus": setup_corpus,
    "record": setup_record,
}
