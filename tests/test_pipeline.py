from __future__ import annotations

import collections
import dataclasses
import gc
import io
import itertools
import random
import threading
import tracemalloc

import pytest

from helpers import BASE_TIME, evicted_seqs

from lase.codec import Trace, read_trace, write_trace
from lase.errors import UnknownIrp
from lase.events import PROCESS_CREATE, PROCESS_EXIT, EventRecord, Irp, kind_name
from lase.forest import build_forest
from lase.pipeline import (
    BackpressurePolicy,
    EventPipeline,
    PipelineConfig,
    PipelineStats,
    SubmitResult,
    WorkloadSpec,
    _draws,
    replay_fixture,
    run_synthetic,
)

PROTO = EventRecord(0, BASE_TIME, PROCESS_CREATE, pid=7, image_path="C:\\x.exe")


def drain_all(pipeline: EventPipeline) -> list[EventRecord]:
    out: list[EventRecord] = []
    while chunk := pipeline.drain(block=False):
        out.extend(chunk)
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(ring_capacity=12)  # not a power of two
    with pytest.raises(ValueError):
        PipelineConfig(ring_capacity=8, chunk_size=9)


def test_single_producer_fifo():
    pipeline = EventPipeline(PipelineConfig(ring_capacity=16, chunk_size=16))
    results = [pipeline.submit(1, PROTO) for _ in range(10)]
    assert results == [SubmitResult.ACCEPTED] * 10
    drained = drain_all(pipeline)
    assert [r.global_seq for r in drained] == list(range(1, 11))


def test_drop_oldest_evicts_exactly_one():
    pipeline = EventPipeline(PipelineConfig(
        ring_capacity=8, chunk_size=8, backpressure_policy=BackpressurePolicy.DROP_OLDEST))
    for _ in range(9):
        assert pipeline.submit(1, PROTO) is SubmitResult.ACCEPTED
    assert pipeline.stats.evicted == 1
    drained = [r.global_seq for r in drain_all(pipeline)]
    assert drained == list(range(2, 10))
    assert evicted_seqs(pipeline, drained) == [1]


def test_reject_policy_drops_new_event():
    pipeline = EventPipeline(PipelineConfig(
        ring_capacity=8, chunk_size=8, backpressure_policy=BackpressurePolicy.REJECT))
    for _ in range(8):
        assert pipeline.submit(1, PROTO) is SubmitResult.ACCEPTED
    assert pipeline.submit(1, PROTO) is SubmitResult.DROPPED
    assert pipeline.stats.rejected == 1
    assert [r.global_seq for r in drain_all(pipeline)] == list(range(1, 9))


def test_block_policy_nonblocking_submit_reports_would_block():
    pipeline = EventPipeline(PipelineConfig(ring_capacity=8, chunk_size=8))
    for _ in range(8):
        pipeline.submit(1, PROTO)
    assert pipeline.submit(1, PROTO, block=False) is SubmitResult.WOULD_BLOCK
    drain_all(pipeline)
    assert pipeline.submit(1, PROTO, block=False) is SubmitResult.ACCEPTED


def test_drain_on_empty_nonblocking_returns_empty_chunk():
    pipeline = EventPipeline()
    assert pipeline.drain(block=False) == ()


@pytest.mark.parametrize("block", [True, False])
def test_drain_after_close_returns_empty_when_empty(block):
    pipeline = EventPipeline()
    pipeline.submit(1, PROTO)
    pipeline.close()
    assert pipeline.submit(1, PROTO) is SubmitResult.DROPPED
    assert len(pipeline.drain(block=block)) == 1
    assert pipeline.drain(block=block) == ()


def test_close_wakes_a_blocked_drain():
    pipeline = EventPipeline()
    chunks: list[tuple[EventRecord, ...]] = []
    consumer = threading.Thread(target=lambda: chunks.append(pipeline.drain()))
    consumer.start()
    consumer.join(0.2)
    assert consumer.is_alive()  # blocked: the pipeline is open and empty
    pipeline.close()
    consumer.join(10)
    assert not consumer.is_alive()
    assert chunks == [()]


def test_chunk_respects_chunk_size():
    pipeline = EventPipeline(PipelineConfig(ring_capacity=64, chunk_size=4))
    for producer in (1, 2):
        for _ in range(6):
            pipeline.submit(producer, PROTO)
    chunk = pipeline.drain(block=False)
    assert isinstance(chunk, tuple)
    assert [r.global_seq for r in chunk] == [1, 2, 3, 4]
    assert [len(pipeline.drain(block=False)) for _ in range(3)] == [4, 4, 0]


def test_priority_delivered_before_later_nonpriority():
    sink: list[int] = []
    pipeline = EventPipeline(PipelineConfig(ring_capacity=16, chunk_size=16),
                             priority_sink=lambda producer, rec: sink.append(rec.global_seq))
    pipeline.submit(1, PROTO)
    pipeline.submit(1, PROTO, priority=True)
    pipeline.submit(1, PROTO)
    assert sink == [2]  # delivered synchronously, before seq 3 even existed
    drained = [r.global_seq for r in drain_all(pipeline)]
    assert drained == [1, 3]
    assert pipeline.stats.priority_delivered == 1


def test_priority_without_sink_raises_before_stamping():
    pipeline = EventPipeline()
    with pytest.raises(ValueError, match="priority sink"):
        pipeline.submit(1, PROTO, priority=True)
    assert pipeline.stats == PipelineStats()
    exit_event = EventRecord(0, BASE_TIME, PROCESS_EXIT, pid=7, image_path="C:\\x.exe")
    assert pipeline.submit(1, exit_event) is SubmitResult.ACCEPTED
    assert [r.global_seq for r in drain_all(pipeline)] == [1]  # no seq was spent


# --- deterministic single-threaded oracle scenarios -----------------------

def oracle_fifo(events: int, ring: int, policy: BackpressurePolicy,
                drain_every: int) -> tuple[list[int], list[int]]:
    """List-based reference queue: returns (drained seqs, evicted seqs)."""
    queue: list[int] = []
    drained: list[int] = []
    evicted: list[int] = []
    seq = 0
    for i in range(1, events + 1):
        full = len(queue) >= ring
        if not (full and policy is BackpressurePolicy.REJECT):
            if full and policy is BackpressurePolicy.DROP_OLDEST:
                evicted.append(queue.pop(0))
            elif full:  # BLOCK with an interleaved consumer: drain one first
                drained.append(queue.pop(0))
            seq += 1
            queue.append(seq)
        if i % drain_every == 0 and queue:
            drained.append(queue.pop(0))
    drained.extend(queue)
    return drained, evicted


@pytest.mark.parametrize("policy", list(BackpressurePolicy))
@pytest.mark.parametrize("ring", [8, 64])
@pytest.mark.parametrize("drain_every", [3, 7])
def test_single_threaded_matches_oracle(policy, ring, drain_every):
    events = 200
    config = PipelineConfig(ring_capacity=ring, chunk_size=1, backpressure_policy=policy)
    pipeline = EventPipeline(config)
    drained: list[int] = []
    for i in range(1, events + 1):
        result = pipeline.submit(1, PROTO, block=False)
        if result is SubmitResult.WOULD_BLOCK:  # BLOCK policy, full ring
            drained.extend(r.global_seq for r in pipeline.drain(block=False))
            assert pipeline.submit(1, PROTO, block=False) is SubmitResult.ACCEPTED
        if i % drain_every == 0:
            drained.extend(r.global_seq for r in pipeline.drain(block=False))
    drained.extend(r.global_seq for r in drain_all(pipeline))
    want_drained, want_evicted = oracle_fifo(events, ring, policy, drain_every)
    assert drained == want_drained
    assert evicted_seqs(pipeline, drained) == want_evicted


# --- threaded invariant suite ---------------------------------------------

def run_threaded(producers: int, consumers: int, policy: BackpressurePolicy,
                 ring: int, total_events: int, priority_every: int = 0):
    """Drive a pipeline with real threads; returns logs for invariant checks."""
    config = PipelineConfig(ring_capacity=ring, chunk_size=min(16, ring),
                            backpressure_policy=policy)
    sink_log: list[tuple[int, int]] = []
    sink_lock = threading.Lock()

    def sink(producer_id: int, record: EventRecord) -> None:
        with sink_lock:
            sink_log.append((producer_id, record.global_seq))

    pipeline = EventPipeline(config, priority_sink=sink)
    per_producer = total_events // producers
    submission_log: dict[int, list[int]] = {p: [] for p in range(producers)}
    drained: list[tuple[int, list[EventRecord]]] = []
    drained_lock = threading.Lock()

    def producer(pid: int) -> None:
        for i in range(per_producer):
            priority = priority_every and (i % priority_every == 0)
            result = pipeline.submit(pid, PROTO, priority=bool(priority))
            if result is SubmitResult.ACCEPTED:
                submission_log[pid].append(i)

    def consumer(cid: int) -> None:
        while chunk := pipeline.drain():
            with drained_lock:
                drained.append((cid, list(chunk)))

    consumer_threads = [threading.Thread(target=consumer, args=(c,)) for c in range(consumers)]
    producer_threads = [threading.Thread(target=producer, args=(p,)) for p in range(producers)]
    for t in consumer_threads + producer_threads:
        t.start()
    for t in producer_threads:
        t.join()
    pipeline.close()
    for t in consumer_threads:
        t.join()
    return pipeline, drained, sink_log


def check_invariants(pipeline: EventPipeline, drained, sink_log) -> None:
    drained_seqs = [r.global_seq for _, records in drained for r in records]
    sink_seqs = [seq for _, seq in sink_log]
    # conservation: every accepted event lands in exactly one place
    assert pipeline.stats.accepted == pipeline.stats.drained + pipeline.stats.evicted \
        + pipeline.stats.priority_delivered + pipeline.buffered()
    # drained and sink seqs: unique, within 1..accepted, the rest evicted
    evicted = evicted_seqs(pipeline, drained_seqs + sink_seqs)
    if pipeline.config.backpressure_policy is not BackpressurePolicy.DROP_OLDEST:
        assert evicted == []
    # chunks never exceed chunk_size and their union is seq-ordered per chunk
    for _, records in drained:
        seqs = [r.global_seq for r in records]
        assert len(seqs) <= pipeline.config.chunk_size
        assert seqs == sorted(seqs)


@pytest.mark.parametrize("policy", list(BackpressurePolicy))
@pytest.mark.parametrize("producers,consumers", [(1, 1), (3, 2), (2, 3)])
def test_threaded_no_loss_no_duplication(policy, producers, consumers):
    pipeline, drained, sink_log = run_threaded(producers, consumers, policy, 64, 3000)
    check_invariants(pipeline, drained, sink_log)
    if policy is BackpressurePolicy.BLOCK:
        assert pipeline.stats.accepted == 3000
        assert pipeline.stats.drained == 3000


def test_threaded_per_producer_order_preserved():
    # 4 producers x 1000 events, Block policy: every event accepted and each
    # producer's events appear in submission order when merged by seq.
    config = PipelineConfig(ring_capacity=64, chunk_size=16)
    pipeline = EventPipeline(config)
    producers, per = 4, 1000
    drained: list[EventRecord] = []
    lock = threading.Lock()

    def producer(pid: int) -> None:
        for i in range(per):
            proto = EventRecord(0, BASE_TIME, PROCESS_CREATE, pid=100 + pid,
                                image_path="C:\\x.exe", args=str(i))
            assert pipeline.submit(pid, proto) is SubmitResult.ACCEPTED

    def consumer() -> None:
        while chunk := pipeline.drain():
            with lock:
                drained.extend(chunk)

    consumers = [threading.Thread(target=consumer) for _ in range(3)]
    workers = [threading.Thread(target=producer, args=(p,)) for p in range(producers)]
    for t in consumers + workers:
        t.start()
    for t in workers:
        t.join()
    pipeline.close()
    for t in consumers:
        t.join()

    assert pipeline.stats.accepted == producers * per
    by_seq = sorted(drained, key=lambda r: r.global_seq)
    assert [r.global_seq for r in by_seq] == list(range(1, producers * per + 1))
    for pid in range(producers):
        submitted_order = [int(r.args) for r in by_seq if r.pid == 100 + pid]
        assert submitted_order == list(range(per))


def test_priority_beats_later_same_producer_nonpriority():
    # Ticks are taken inside the sink callback (at submit time) and right
    # after each drain; a priority event's tick must precede the drain tick
    # of every later-submitted non-priority event from the same producer.
    config = PipelineConfig(ring_capacity=32, chunk_size=8)
    tick_lock = threading.Lock()
    ticks = iter(range(10**9))
    sink_ticks: dict[int, int] = {}  # seq -> tick
    producer_of: dict[int, int] = {}

    def sink(producer_id: int, record: EventRecord) -> None:
        with tick_lock:
            sink_ticks[record.global_seq] = next(ticks)
            producer_of[record.global_seq] = producer_id

    pipeline = EventPipeline(config, priority_sink=sink)
    drain_ticks: dict[int, int] = {}

    def producer(pid: int) -> None:
        for i in range(500):
            proto = EventRecord(0, BASE_TIME, PROCESS_CREATE, pid=100 + pid,
                                image_path="C:\\x.exe")
            pipeline.submit(pid, proto, priority=(i % 25 == 0))

    def consumer() -> None:
        while chunk := pipeline.drain():
            with tick_lock:
                tick = next(ticks)
                for r in chunk:
                    drain_ticks[r.global_seq] = tick
                    producer_of[r.global_seq] = r.pid - 100

    workers = [threading.Thread(target=producer, args=(p,)) for p in range(2)]
    consumers = [threading.Thread(target=consumer) for _ in range(2)]
    for t in consumers + workers:
        t.start()
    for t in workers:
        t.join()
    pipeline.close()
    for t in consumers:
        t.join()

    drained_seqs = set(drain_ticks)
    assert not (set(sink_ticks) & drained_seqs)  # priority events bypass the ring
    # records drained per producer pid; sink seqs attributed via callback
    for prio_seq, prio_tick in sink_ticks.items():
        for seq, tick in drain_ticks.items():
            if seq > prio_seq and producer_of.get(seq) == producer_of.get(prio_seq):
                assert tick > prio_tick


def test_memory_bound_holds_under_load():
    config = PipelineConfig(ring_capacity=8, chunk_size=8)
    pipeline = EventPipeline(config)
    for _ in range(8):
        pipeline.submit(1, PROTO)
    assert pipeline.buffered() <= config.ring_capacity
    assert pipeline.submit(1, PROTO, block=False) is SubmitResult.WOULD_BLOCK


# --- synthetic workloads ---------------------------------------------------

def test_synthetic_is_deterministic():
    spec = WorkloadSpec(seed=7, events_per_producer=600)
    a, b = run_synthetic(spec), run_synthetic(spec)
    buf_a, buf_b = io.BytesIO(), io.BytesIO()
    write_trace(a, buf_a)
    write_trace(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


# n = 1, powers of two and their neighbours: where getrandbits' width
# changes and where a draw is redrawn most often.
_BOUNDS = sorted({1, 2, 3, 5, 10, 4991} | {2**k + d for k in range(2, 63, 6) for d in (-1, 0, 1)})


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_draw_helpers_draw_what_random_draws(seed):
    """The generator's helpers make the same draws as random.Random's own
    methods on a twin seeded alike, and leave the state where those leave
    it. A CPython whose _randbelow or choices draws differently fails here."""
    rng, twin = random.Random(seed), random.Random(seed)
    below, choice, weighted = _draws(rng)
    for n in _BOUNDS:
        for _ in range(20):
            assert below(n) == twin.randrange(n)
            assert choice(range(n)) == twin.choice(range(n))
            assert 10 + below(n) == twin.randint(10, 9 + n)
    for weights in ([1.0], [0.25, 0.45, 0.2, 0.1], [0.0, 0.5, 0.0, 0.5], [0.9, 0.07, 0.03]):
        items = [f"item{i}" for i in range(len(weights))]
        draw = weighted(items, weights)
        cum_weights = list(itertools.accumulate(weights))
        for _ in range(200):
            assert draw() == twin.choices(items, cum_weights=cum_weights, k=1)[0]
    assert rng.getrandbits(64) == twin.getrandbits(64)


def test_generated_records_hold_one_copy_of_what_repeats():
    records = run_synthetic(WorkloadSpec(events_per_producer=20_000, seed=1)).records
    io_records = [r for r in records if isinstance(r.kind, Irp)]
    assert len({id(r.file_path) for r in io_records}) <= 640  # stems x digits x extensions
    durations = [r.duration_us for r in io_records]
    assert len({id(d) for d in durations}) == len(set(durations))
    times = [r.time for r in records]
    assert len({id(t) for t in times}) == len(set(times))


def test_synthetic_zero_events_is_header_only():
    trace = run_synthetic(WorkloadSpec(seed=1, events_per_producer=0))
    assert len(trace) == 0


def test_synthetic_trace_validates_and_builds_clean_forest():
    trace = run_synthetic(WorkloadSpec(seed=42, events_per_producer=1200))
    buf = io.BytesIO()
    write_trace(trace, buf)
    again = read_trace(buf.getvalue())  # read_trace validates every record
    assert again == trace
    forest = build_forest(trace)
    assert forest.warnings == []
    # every non-root pid has an earlier create: only the bootstrap parent (4)
    # may be synthesized
    preexisting = [k for k in forest.index if k.birth_seq == 0]
    assert [k.pid for k in preexisting] == [4]


def test_synthetic_mix_must_sum_to_one():
    with pytest.raises(ValueError):
        WorkloadSpec(mix={"ProcessCreate": 0.5})


def test_synthetic_refuses_negative_injections():
    with pytest.raises(ValueError, match="injection_templates"):
        WorkloadSpec(injection_templates=-2)


@pytest.mark.parametrize("mix, error, match", [
    ({"ProcessCreate": 0.999999, "Irp:bogus": 0.000001}, UnknownIrp, "bogus"),
    ({"ProcessCreate": 0.5, "ProcessCreat": 0.5}, ValueError, "unknown mix token 'ProcessCreat'"),
    ({"ProcessCreate": 0.5, "Irp": 0.5}, ValueError, "unknown mix token 'Irp'"),
    ({"ProcessCreate": 2.0, "ImageLoad": -1.0}, ValueError, "'ImageLoad' must be non-negative"),
    ({"ProcessCreate": 1.0, "ImageLoad": float("nan")}, ValueError,
     "'ImageLoad' must be non-negative"),
])
def test_synthetic_refuses_bad_mix_tokens_and_weights(mix, error, match):
    # Each is refused when the spec is made, whether or not a draw would
    # have reached the token.
    with pytest.raises(error, match=match):
        WorkloadSpec(events_per_producer=200, mix=mix)


@pytest.mark.parametrize("branching, match", [
    ({-1: 0.5, 1: 0.5}, "child count, got -1"),
    ({1.5: 0.5, 1: 0.5}, "child count, got 1.5"),
    ({"2": 1.0}, "child count, got '2'"),
    ({0: 1.5, 1: -0.5}, "branching weight of 1 must be non-negative"),
])
def test_synthetic_refuses_bad_branching(branching, match):
    with pytest.raises(ValueError, match=match):
        WorkloadSpec(events_per_producer=200, branching=branching)


def test_synthetic_irp_tokens_parse_as_names():
    spec = WorkloadSpec(events_per_producer=50, mix={"Irp:irp_mj_write": 1.0})
    majors = {r.kind.code.major for r in run_synthetic(spec).records if isinstance(r.kind, Irp)}
    assert majors == {"IRP_MJ_WRITE"}
    # "ı" is the dotless i: str.upper() turns it into an ASCII "I".
    with pytest.raises(UnknownIrp):
        run_synthetic(WorkloadSpec(events_per_producer=50, mix={"Irp:ırp_mj_wrıte": 1.0}))


# --- fixture replay ---------------------------------------------------------

def record_content_key(record: EventRecord):
    return (record.time, kind_name(record.kind), str(record.kind), record.pid,
            record.ppid, record.tid, record.duration_us, record.image_path,
            record.args, record.file_path, record.result)


def test_replay_fixture_preserves_content(fixture_trace):
    replayed = replay_fixture(fixture_trace)
    assert len(replayed) == 38
    assert collections.Counter(map(record_content_key, replayed.records)) == \
        collections.Counter(map(record_content_key, fixture_trace.records))


def test_replay_preserves_per_pid_order(fixture_trace):
    replayed = replay_fixture(fixture_trace)
    for pid in {r.pid for r in fixture_trace.records}:
        original = [record_content_key(r) for r in fixture_trace.records if r.pid == pid]
        after = [record_content_key(r) for r in replayed.records if r.pid == pid]
        assert original == after


def test_replay_speed_does_not_change_content(fixture_trace):
    paced = replay_fixture(fixture_trace, speed=1e9)  # finite speed, negligible pacing
    unpaced = replay_fixture(fixture_trace)
    assert paced.records == unpaced.records


def test_replay_with_tiny_ring(fixture_trace):
    config = PipelineConfig(ring_capacity=4, chunk_size=2)
    replayed = replay_fixture(fixture_trace, config=config)
    assert len(replayed) == 38


def test_lossy_replay_is_resequenced(fixture_trace):
    config = PipelineConfig(ring_capacity=4, chunk_size=2,
                            backpressure_policy=BackpressurePolicy.DROP_OLDEST)
    replayed = replay_fixture(fixture_trace, config=config)
    # Only the last four survive eviction; they are re-stamped 1..4.
    assert [r.global_seq for r in replayed.records] == [1, 2, 3, 4]
    assert [record_content_key(r) for r in replayed.records] == \
        [record_content_key(r) for r in fixture_trace.records[-4:]]


def test_lossy_replay_memory_does_not_grow_with_input():
    # Drop-oldest keeps no copy of what it evicts: replaying twice the
    # records through a 64-slot ring must not raise the allocation peak.
    config = PipelineConfig(ring_capacity=64, backpressure_policy=BackpressurePolicy.DROP_OLDEST)
    full = run_synthetic(WorkloadSpec(seed=1, events_per_producer=40_000))
    peaks = []
    for n in (20_000, 40_000):
        trace = Trace(full.header, full.records[:n])
        tracemalloc.start()
        try:
            replayed = replay_fixture(trace, config=config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(replayed) == 64
    assert peaks[1] <= peaks[0] * 1.1


@pytest.mark.parametrize("priority", [False, True])
def test_submit_copies_only_a_record_with_another_sequence_number(priority):
    delivered: list[EventRecord] = []
    pipeline = EventPipeline(PipelineConfig(ring_capacity=8, chunk_size=8),
                             priority_sink=lambda producer_id, record: delivered.append(record))
    numbered = dataclasses.replace(PROTO, global_seq=1)
    stale = dataclasses.replace(PROTO, global_seq=1)  # it is given seq 2
    for record in (numbered, stale):
        assert pipeline.submit(0, record, priority=priority) is SubmitResult.ACCEPTED
    out = delivered if priority else drain_all(pipeline)
    assert out[0] is numbered
    assert out[1] is not stale and out[1] == stale.with_seq(2)


def test_lossless_single_replay_returns_the_records_it_was_given():
    trace = run_synthetic(WorkloadSpec(seed=1, events_per_producer=2000))
    replayed = replay_fixture(trace)
    assert len(replayed) == len(trace)
    assert all(out is given for out, given in zip(replayed.records, trace.records))


def test_lossless_single_replay_allocates_no_second_copy():
    # A copy of 20k records costs over 100 B each; the replay itself needs
    # only its output list and tuple (16 B per record) and a ring.
    trace = run_synthetic(WorkloadSpec(seed=1, events_per_producer=20_000))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        replayed = replay_fixture(trace)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(replayed) == len(trace)
    assert peak / len(trace) < 24


@pytest.mark.parametrize("seed", [3, 11])
def test_lossy_replay_keeps_an_ordered_subset_numbered_from_one(seed):
    trace = run_synthetic(WorkloadSpec(seed=seed, events_per_producer=3000))
    config = PipelineConfig(ring_capacity=8, chunk_size=4,
                            backpressure_policy=BackpressurePolicy.DROP_OLDEST)
    replayed = replay_fixture(trace, config=config)
    assert 0 < len(replayed) <= len(trace)
    assert [r.global_seq for r in replayed.records] == list(range(1, len(replayed) + 1))
    given = collections.Counter(map(record_content_key, trace.records))
    kept = collections.Counter(map(record_content_key, replayed.records))
    assert not kept - given  # no record twice, none made up
    for pid in {r.pid for r in trace.records}:
        remaining = iter([record_content_key(r) for r in trace.records if r.pid == pid])
        # Each kept record is found after the one before it: a subsequence.
        assert all(record_content_key(r) in remaining for r in replayed.records if r.pid == pid)


def test_a_gap_too_long_to_sleep_is_a_value_error(fixture_trace):
    with pytest.raises(ValueError, match="past the longest sleep"):
        replay_fixture(fixture_trace, speed=1e-300)
