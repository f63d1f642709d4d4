"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary lines. Tolerances are pinned here, not calibrated elsewhere.
"""

from __future__ import annotations

import collections
import io
import random
import threading
import time

import pytest

from helpers import BASE_TIME, build_trace, cells_of, evicted_seqs

from test_fingerprint import EXITED_PARENT, REUSED_PARENT, naive_scan_oracle, template_trace
from test_forest import SEQ_ZERO_PARENT, from_seq_zero, node_count_oracle
from test_intrusion import BENIGN, MALICIOUS, trace_of_commands

from lase.bench import BenchConfig, overhead, run_workload
from lase.codec import decode_line, read_trace, write_trace
from lase.diffreport import (
    ext_diff,
    operation_counts,
    overlap_from_sizes,
)
from lase.errors import LaseError
from lase.events import PROCESS_CREATE, EventRecord, Irp
from lase.fingerprint import default_signatures, scan
from lase.fixtures import macro_malware, macro_malware_path
from lase.forest import ProcessKey, build_forest
from lase.intrusion import scan_commands
from lase.pipeline import (
    BackpressurePolicy,
    EventPipeline,
    PipelineConfig,
    WorkloadSpec,
    run_synthetic,
)

from test_diff import REFERENCE_ROWS


def report(criterion: int, text: str) -> None:
    print(f"PASS: criterion {criterion} - {text}")


def test_criterion_1_fixture_fidelity(capsys):
    started = time.perf_counter()
    trace = macro_malware()
    assert len(trace) == 38  # 25 process-plane + 13 file-plane rows

    buf = io.BytesIO()
    write_trace(trace, buf)
    assert buf.getvalue() == macro_malware_path().read_bytes()  # byte-identical

    forest = build_forest(trace)
    assert forest.created_count() == 15
    assert forest.preexisting_count() == 2

    key = next(k for k in forest.index if k.pid == 3800)
    chain = []
    node = forest.index[key]
    while node is not None:
        chain.append(node.key.pid)
        node = forest.index[node.parent] if node.parent else None
    assert chain[:5] == [3800, 4324, 12148, 6344, 7028]  # script-host lineage

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"fixture decodes, round-trips byte-identically, 15+2 process "
                  f"forest with 7028>6344>12148>4324>3800 chain ({elapsed:.3f}s)")


def test_criterion_2_differential_reproduction(capsys):
    started = time.perf_counter()
    for ext, bare, vm, expected in REFERENCE_ROWS:
        cell = ext_diff(bare, vm)
        assert cell.pct_diff == pytest.approx(expected, abs=0.05), ext
    spot = {r[0]: r[3] for r in REFERENCE_ROWS}
    assert (spot["exe"], spot["cab"], spot["wav"]) == (93.9, 76.2, 3509.9)

    overlap = overlap_from_sizes(3_981_555, 884_301, 418_203)
    assert overlap.pct_only_a == pytest.approx(75.35, abs=0.05)
    assert overlap.pct_only_b == pytest.approx(16.74, abs=0.05)
    assert overlap.both == 418_203
    assert overlap.union == 5_284_059  # partition identity

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    with capsys.disabled():
        report(2, f"{len(REFERENCE_ROWS)} extension cells within ±0.05 and the "
                  f"two overlap percentages with both=418,203 exact ({elapsed:.3f}s)")


def test_criterion_3_benchmark_formula_and_smoke(capsys, tmp_path):
    reference = {
        ("write", "small"): (788_641, 808_474, 2.51),
        ("write", "large"): (893_921, 909_448, 1.74),
        ("rewrite", "small"): (1_036_665, 1_059_468, 2.20),
        ("rewrite", "large"): (1_054_297, 1_092_756, 3.65),
        ("read", "small"): (3_564_507, 3_492_892, 2.01),
        ("read", "large"): (2_841_287, 2_928_931, 3.08),
        ("reread", "small"): (4_228_550, 4_452_886, 5.31),
        ("reread", "large"): (3_643_169, 3_791_870, 4.08),
    }
    result = overhead(cells_of({k: v[0] for k, v in reference.items()}),
                      cells_of({k: v[1] for k, v in reference.items()}))
    for key, (_, _, expected) in reference.items():
        assert result.overhead[key] == pytest.approx(expected, abs=0.01), key

    started = time.perf_counter()
    config = BenchConfig(target_dir=tmp_path / "bench", file_count=8,
                         small_size=4096, large_size=65536, repetitions=2)
    smoke = run_workload(config)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0  # < 5 min on commodity hardware
    for cells in (smoke.baseline, smoke.instrumented):
        assert len(cells) == 8
        for cell in cells.values():
            assert cell.mean_kbps > 0 and cell.mean_kbps != float("inf")
    assert len(read_trace(config.target_dir / "bench_events.lase")) == 8 * 4 * 2 * 2
    with capsys.disabled():
        report(3, f"all 8 reference overhead cells within ±0.01; smoke benchmark "
                  f"finished in {elapsed:.2f}s with positive finite cells in both halves")


def _drive_combo(producers: int, consumers: int, policy: BackpressurePolicy,
                 ring: int, total_events: int):
    config = PipelineConfig(ring_capacity=ring, chunk_size=min(16, ring),
                            backpressure_policy=policy)
    tick_lock = threading.Lock()
    tick_counter = iter(range(1, 10**9))
    sink_log: list[tuple[int, int, int]] = []  # (producer, seq, tick)

    def sink(producer_id: int, record: EventRecord) -> None:
        with tick_lock:
            sink_log.append((producer_id, record.global_seq, next(tick_counter)))

    pipeline = EventPipeline(config, priority_sink=sink)
    per = total_events // producers
    drained: list[tuple[EventRecord, int]] = []  # (record, tick)

    def producer(pid: int) -> None:
        for i in range(per):
            proto = EventRecord(0, BASE_TIME, PROCESS_CREATE, pid=100 + pid,
                                image_path="C:\\x.exe", args=str(i))
            pipeline.submit(pid, proto, priority=(i % 97 == 0))

    def consumer() -> None:
        local: list[tuple[EventRecord, int]] = []
        while chunk := pipeline.drain():
            with tick_lock:
                tick = next(tick_counter)
            local.extend((r, tick) for r in chunk)
        with tick_lock:
            drained.extend(local)

    consumer_threads = [threading.Thread(target=consumer) for _ in range(consumers)]
    producer_threads = [threading.Thread(target=producer, args=(p,)) for p in range(producers)]
    for t in consumer_threads + producer_threads:
        t.start()
    for t in producer_threads:
        t.join()
    pipeline.close()
    for t in consumer_threads:
        t.join()
    return pipeline, drained, sink_log


def test_criterion_4_pipeline_property_suite(capsys):
    started = time.perf_counter()
    combos = 0
    for producers in (1, 2, 3):
        for consumers in (1, 2, 3):
            for policy in (BackpressurePolicy.BLOCK, BackpressurePolicy.DROP_OLDEST,
                           BackpressurePolicy.REJECT):
                for ring in (8, 64):
                    combos += 1
                    submitted = (10_000 // producers) * producers
                    pipeline, drained, sink_log = _drive_combo(
                        producers, consumers, policy, ring, 10_000)
                    drained_seqs = [r.global_seq for r, _ in drained]
                    sink_seqs = [seq for _, seq, _ in sink_log]
                    # drained and sink seqs are unique and within the
                    # gap-free 1..accepted; the rest are the evictions,
                    # which only DropOldest makes
                    evicted = evicted_seqs(pipeline, drained_seqs + sink_seqs)
                    if policy is not BackpressurePolicy.DROP_OLDEST:
                        assert not evicted
                    if policy is BackpressurePolicy.BLOCK:
                        assert pipeline.stats.accepted == submitted  # lossless
                    # per-producer FIFO: submission index increases with seq
                    per_producer: dict[int, list[tuple[int, int]]] = {}
                    for r, _ in drained:
                        per_producer.setdefault(r.pid, []).append((r.global_seq, int(r.args)))
                    for rows in per_producer.values():
                        rows.sort()
                        indexes = [i for _, i in rows]
                        assert indexes == sorted(indexes)
                    # priority beats later same-producer non-priority events
                    drain_tick = {r.global_seq: tick for r, tick in drained}
                    producer_of = {r.global_seq: r.pid - 100 for r, _ in drained}
                    for producer_id, seq, tick in sink_log:
                        later = [t for s, t in drain_tick.items()
                                 if s > seq and producer_of[s] == producer_id]
                        assert all(t > tick for t in later)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    with capsys.disabled():
        report(4, f"{combos} producer/consumer/policy/ring combinations of 10k "
                  f"events verified against submission logs ({elapsed:.1f}s)")


def test_criterion_5_detector_suites(capsys):
    started = time.perf_counter()
    signatures = default_signatures()
    names = [s.name for s in signatures]

    fired: dict[str, list[str]] = {}
    for name in names:
        trace = template_trace(name)
        findings = scan(trace, signatures)
        fired[name] = [f.signature for f in findings]
    assert fired == {name: [name] for name in names}  # zero cross-fires

    fixture = macro_malware()
    fixture_findings = scan(fixture, signatures)
    assert [(f.signature, f.process) for f in fixture_findings] == \
        [("calls-wmi", ProcessKey(11916, 381227))]

    commands = trace_of_commands([(image, args) for image, args, _ in MALICIOUS] + BENIGN)
    findings = scan_commands(commands)
    assert len(findings) == len(MALICIOUS)  # exact match count
    assert [f.category for f in findings] == [t for _, _, t in MALICIOUS]
    assert scan_commands(trace_of_commands(BENIGN)) == []

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    with capsys.disabled():
        report(5, f"4 fingerprint templates + fixture WmiPrvSE fire exactly once "
                  f"each; {len(MALICIOUS)} attacker commands hit, 10 benign clean "
                  f"({elapsed:.3f}s)")


def test_criterion_6_oracle_equivalence(capsys):
    started = time.perf_counter()
    signatures = default_signatures()
    events = 10_000
    traces = 100

    def inputs():
        for seed in range(traces):
            yield f"seed {seed}", run_synthetic(WorkloadSpec(
                seed=seed, events_per_producer=events))
        yield "exited parent", build_trace(EXITED_PARENT)
        yield "reused parent", build_trace(REUSED_PARENT)
        yield "seq-0 parent", from_seq_zero(SEQ_ZERO_PARENT)

    for label, trace in inputs():
        forest = build_forest(trace)
        assert len(forest.index) == node_count_oracle(trace), label
        assert scan(trace, signatures) == naive_scan_oracle(trace, signatures), label
        naive_ops = collections.Counter(
            r.kind.code.major for r in trace.records if isinstance(r.kind, Irp))
        assert operation_counts(trace) == dict(naive_ops), label
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    with capsys.disabled():
        report(6, f"forest node counts, fingerprint scans and per-operation "
                  f"counts match brute-force oracles on {traces} traces of "
                  f"{events} events and three exited-parent traces ({elapsed:.1f}s)")


def test_criterion_7_decode_fuzzing(capsys):
    started = time.perf_counter()
    from lase.codec import TraceHeader
    header = TraceHeader()
    rng = random.Random(0xF0BE)
    crashes = 0
    tab = ord("\t")
    for i in range(100_000):
        length = rng.randrange(0, 64)
        raw = bytearray(rng.randrange(256) for _ in range(length))
        if i % 3 == 0:  # bias towards plausible column counts
            for pos in range(0, length, 7):
                raw[pos:pos + 1] = bytes([tab])
        line = raw.decode("latin-1")
        try:
            decode_line(line, header)
        except LaseError:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        report(7, f"100,000 fuzzed lines produced only structured errors "
                  f"({elapsed:.1f}s)")
