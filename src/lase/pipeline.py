"""In-memory event recording pipeline: multi-producer/multi-consumer ring.

Producers submit proto-records (sequence number unassigned); the pipeline
stamps a global sequence under a single lock, so cross-producer ordering is
total and stable. Consumers drain chunks. Priority events bypass the ring
and are handed to a priority sink synchronously at submit time, which makes
the priority guarantee structural: a priority event reaches the sink before
any later submission from the same producer can even be enqueued.

Backpressure on a full ring is configurable: Block (lossless, default),
DropOldest (evict the oldest buffered event), or Reject (refuse the new
event). Also provides a deterministic synthetic workload generator used by
the analysis modules' tests, and a replay driver for recorded traces.
"""

from __future__ import annotations

import bisect
import math
import operator
import random
import threading
import time as _time
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Mapping

from .codec import Trace, TraceHeader, resequence
from .errors import PipelineClosed
from .events import (
    IMAGE_LOAD,
    PROCESS_CREATE,
    PROCESS_EXIT,
    THREAD_CREATE,
    THREAD_EXIT,
    Annotation,
    EventKind,
    EventRecord,
    IoMode,
    Irp,
    kind_name,
)
from .irp import FAST_IO_MAJORS, IrpCode


class BackpressurePolicy(Enum):
    BLOCK = "block"
    DROP_OLDEST = "drop-oldest"
    REJECT = "reject"


class SubmitResult(Enum):
    ACCEPTED = "accepted"
    DROPPED = "dropped"
    WOULD_BLOCK = "would-block"


@dataclass(frozen=True)
class PipelineConfig:
    ring_capacity: int = 64
    chunk_size: int = 16
    priority_kinds: frozenset[str] = frozenset()
    backpressure_policy: BackpressurePolicy = BackpressurePolicy.BLOCK

    def __post_init__(self):
        if self.ring_capacity <= 0 or self.ring_capacity & (self.ring_capacity - 1):
            raise ValueError("ring_capacity must be a positive power of two")
        if not 0 < self.chunk_size <= self.ring_capacity:
            raise ValueError("chunk_size must be in 1..ring_capacity")


@dataclass
class PipelineStats:
    accepted: int = 0
    drained: int = 0
    rejected: int = 0
    evicted: int = 0
    priority_delivered: int = 0


class EventPipeline:
    """Shareable MPMC pipeline; submit and drain are both thread-safe.

    It holds only the buffered ring and the counters in stats. Every
    accepted event is drained, handed to the priority sink or evicted, and
    sequence numbers are gap-free, so the seqs missing from what callers
    took out are exactly the evicted ones.
    """

    def __init__(self, config: PipelineConfig | None = None,
                 priority_sink: Callable[[int, EventRecord], None] | None = None):
        self.config = config or PipelineConfig()
        self.stats = PipelineStats()
        self._priority_sink = priority_sink
        self._ring: deque[EventRecord] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._next_seq = 1
        self._closed = False

    def submit(self, producer_id: int, proto_event: EventRecord,
               priority: bool = False, block: bool = True) -> SubmitResult:
        """Submit a proto-record (its global_seq is assigned here on accept).

        Returns DROPPED when the event was refused (Reject policy, or the
        pipeline is closed) and WOULD_BLOCK for a non-blocking submit
        against a full ring under the Block policy. Under DropOldest the
        new event is always accepted and the oldest buffered one discarded.
        A priority event goes to the priority sink with producer_id; a
        pipeline without a sink raises ValueError for it, before any
        sequence number is assigned.
        """
        is_priority = priority or kind_name(proto_event.kind) in self.config.priority_kinds
        if is_priority and self._priority_sink is None:
            raise ValueError("priority event submitted to a pipeline without a priority sink")
        with self._lock:
            if self._closed:
                self.stats.rejected += 1
                return SubmitResult.DROPPED
            if is_priority:
                record = proto_event.with_seq(self._next_seq)
                self._next_seq += 1
                self.stats.accepted += 1
                self.stats.priority_delivered += 1
                self._priority_sink(producer_id, record)
                return SubmitResult.ACCEPTED
            while len(self._ring) >= self.config.ring_capacity:
                policy = self.config.backpressure_policy
                if policy is BackpressurePolicy.REJECT:
                    self.stats.rejected += 1
                    return SubmitResult.DROPPED
                if policy is BackpressurePolicy.DROP_OLDEST:
                    self._ring.popleft()
                    self.stats.evicted += 1
                    break
                if not block:
                    return SubmitResult.WOULD_BLOCK
                self._not_full.wait()
                if self._closed:
                    self.stats.rejected += 1
                    return SubmitResult.DROPPED
            record = proto_event.with_seq(self._next_seq)
            self._next_seq += 1
            self.stats.accepted += 1
            self._ring.append(record)
            self._not_empty.notify()
            return SubmitResult.ACCEPTED

    def drain(self, block: bool = True) -> tuple[EventRecord, ...]:
        """Remove up to chunk_size buffered events, oldest first.

        Blocks while the ring is empty unless block=False, which returns
        an empty tuple instead. Raises PipelineClosed once the pipeline is
        closed and fully drained.
        """
        with self._lock:
            while not self._ring:
                if self._closed:
                    raise PipelineClosed("pipeline closed and empty")
                if not block:
                    return ()
                self._not_empty.wait()
            ring = self._ring
            taken = tuple([ring.popleft() for _ in range(min(self.config.chunk_size, len(ring)))])
            self.stats.drained += len(taken)
            self._not_full.notify_all()
            return taken

    def close(self) -> None:
        """Stop accepting submissions; drains continue until empty."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def buffered(self) -> int:
        with self._lock:
            return len(self._ring)


# --- synthetic workloads -------------------------------------------------

DEFAULT_MIX: Mapping[str, float] = {
    "ProcessCreate": 0.06,
    "ProcessExit": 0.02,
    "ThreadCreate": 0.05,
    "ThreadExit": 0.03,
    "ImageLoad": 0.10,
    "Annotation": 0.02,
    "Irp:IRP_MJ_CREATE": 0.16,
    "Irp:IRP_MJ_READ": 0.20,
    "Irp:IRP_MJ_WRITE": 0.20,
    "Irp:IRP_MJ_CLOSE": 0.10,
    "Irp:IRP_MJ_SET_INFORMATION": 0.03,
    "Irp:IRP_MJ_QUERY_INFORMATION": 0.03,
}

DEFAULT_BRANCHING: Mapping[int, float] = {0: 0.25, 1: 0.45, 2: 0.20, 3: 0.10}

_IMAGE_POOL = (
    "%System32%\\svchost.exe",
    "%System32%\\notepad.exe",
    "%SysWOW64%\\cmd.exe",
    "%SysWOW64%\\cscript.exe",
    "%ProgramFiles%\\updater\\updater.exe",
    "%ProgramFiles%\\viewer\\viewer.exe",
)
_DLL_POOL = (
    "%System32%\\kernel32.dll",
    "%System32%\\ntdll.dll",
    "%System32%\\ws2_32.dll",
    "%SysWOW64%\\urlmon.dll",
    "%SysWOW64%\\winhttp.dll",
)
_ARGS_POOL = ("", "/run", "-background", "/c start", "--once")
_API_POOL = ("RDTSC", "GetTickCount", "QueryPerformanceCounter", "GetSystemFirmwareTable", "IsDebuggerPresent")
_FILE_STEMS = ("report", "update", "cache", "settings", "payload", "readme", "data", "temp")
_FILE_EXTS = ("exe", "dll", "js", "tmp", "txt", "dat", "log", "vbs")


@dataclass(frozen=True)
class WorkloadSpec:
    """Deterministic synthetic workload description (same seed, same trace)."""

    producers: int = 1
    events_per_producer: int = 100
    mix: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    seed: int = 0
    branching: Mapping[int, float] = field(default_factory=lambda: dict(DEFAULT_BRANCHING))
    injection_templates: int = 0
    start_time: datetime = datetime(2024, 3, 1, 9, 0, 0)

    def __post_init__(self):
        if self.producers <= 0 or self.events_per_producer < 0:
            raise ValueError("producers must be positive, events_per_producer non-negative")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mix weights must sum to 1, got {total}")
        if abs(sum(self.branching.values()) - 1.0) > 1e-9:
            raise ValueError("branching weights must sum to 1")

    @property
    def total_events(self) -> int:
        return self.producers * self.events_per_producer


class _Proc:
    __slots__ = ("pid", "image", "tids", "want_children", "children")

    def __init__(self, pid: int, image: str, want_children: int):
        self.pid = pid
        self.image = image
        self.tids: list[int] = []
        self.want_children = want_children
        self.children = 0


_pid_of = operator.attrgetter("pid")


def _insert_by_pid(procs: list[_Proc], proc: _Proc) -> None:
    procs.insert(bisect.bisect(procs, proc.pid, key=_pid_of), proc)


def _remove_by_pid(procs: list[_Proc], proc: _Proc) -> None:
    del procs[bisect.bisect_left(procs, proc.pid, key=_pid_of)]


def _weighted_choice(rng: random.Random, items: list, cum_weights: list[float]):
    return rng.choices(items, cum_weights=cum_weights, k=1)[0]


_API_KINDS = tuple(Annotation("api", api) for api in _API_POOL)
_TICKS = tuple(timedelta(milliseconds=ms) for ms in range(5))
_IRP_MODES = (IoMode.SYNCHRONOUS, IoMode.ASYNCHRONOUS, IoMode.PAGING_IO)
_IRP_MODE_CUM_WEIGHTS = list(accumulate((0.9, 0.07, 0.03)))


def run_synthetic(spec: WorkloadSpec) -> Trace:
    """Generate a well-formed trace: every non-root pid has an earlier
    create event, every tid a thread-create, deterministic for a seed."""
    rng = random.Random(spec.seed)
    header = TraceHeader(base_date=spec.start_time.date(), host_label=f"synthetic-{spec.seed}")
    total = spec.total_events
    if total == 0 and spec.injection_templates == 0:
        return Trace(header, ())

    kinds = list(spec.mix.keys())
    kind_cum_weights = list(accumulate(spec.mix[k] for k in kinds))
    branch_vals = list(spec.branching.keys())
    branch_cum_weights = list(accumulate(spec.branching[v] for v in branch_vals))

    records: list[EventRecord] = []
    seq = 1
    now = spec.start_time
    next_pid = 4000
    next_tid = 9001
    # Live processes in pid (= spawn) order, and the two subsets that draws
    # pick from. Each subset keeps pid order, so it is the list a scan of
    # `live` would build, and every RNG draw picks the same process.
    live: list[_Proc] = []
    open_slots: list[_Proc] = []  # children < want_children
    threaded: list[_Proc] = []    # at least one live thread
    irp_kinds: dict[str, list[Irp]] = {}  # mix token -> kind per I/O mode draw

    def emit(kind: EventKind, pid: int, ppid: int = 0, tid: int = 0,
             duration: int | None = None, image: str = "", args: str = "",
             file_path: str = "", result: str = "OK") -> None:
        nonlocal seq, now
        now += _TICKS[rng.randrange(len(_TICKS))]
        records.append(EventRecord(seq, now, kind, pid, ppid, tid, duration, image, args,
                                   file_path, result))
        seq += 1

    def spawn(image: str | None = None) -> _Proc:
        nonlocal next_pid
        candidates = open_slots or live
        parent = rng.choice(candidates) if candidates else None
        pid = next_pid
        next_pid += 2
        proc = _Proc(pid, image or rng.choice(_IMAGE_POOL),
                     _weighted_choice(rng, branch_vals, branch_cum_weights))
        ppid = parent.pid if parent else 4  # 4 = pre-existing system root
        emit(PROCESS_CREATE, pid=pid, ppid=ppid, image=proc.image, args=rng.choice(_ARGS_POOL))
        if parent:
            parent.children += 1
            if parent.children == parent.want_children:
                _remove_by_pid(open_slots, parent)
        live.append(proc)
        if proc.want_children > 0:
            open_slots.append(proc)
        return proc

    def add_thread(proc: _Proc, tid: int) -> None:
        if not proc.tids:
            _insert_by_pid(threaded, proc)
        proc.tids.append(tid)

    def irp_kind(token: str) -> Irp:
        options = irp_kinds.get(token)
        if options is None:
            code = IrpCode(token[4:])
            modes = (IoMode.FAST_IO,) if code.major in FAST_IO_MAJORS else _IRP_MODES
            options = irp_kinds[token] = [Irp(code, mode) for mode in modes]
        if len(options) == 1:
            return options[0]
        return _weighted_choice(rng, options, _IRP_MODE_CUM_WEIGHTS)

    def rand_file(rng: random.Random) -> str:
        return (f"C:\\Users\\lab\\AppData\\{rng.choice(_FILE_STEMS)}"
                f"{rng.randint(0, 9)}.{rng.choice(_FILE_EXTS)}")

    budget = total
    if budget > 0:
        spawn()  # bootstrap root consumes one event
        budget -= 1
    while budget > 0:
        token = _weighted_choice(rng, kinds, kind_cum_weights)
        # Kinds that need unavailable state fall back to an image load so
        # the event budget always advances.
        if token == "ProcessExit" and len(live) <= 1:
            token = "ImageLoad"
        if token == "ThreadExit" and not threaded:
            token = "ImageLoad"
        if token == "ProcessCreate":
            spawn()
        elif token == "ProcessExit":
            proc = live.pop(1 + rng.randrange(len(live) - 1))  # keep the bootstrap root alive
            if proc.children < proc.want_children:
                _remove_by_pid(open_slots, proc)
            if proc.tids:
                _remove_by_pid(threaded, proc)
            emit(PROCESS_EXIT, pid=proc.pid, image=proc.image)
        elif token == "ThreadCreate":
            proc = rng.choice(live)
            tid = next_tid
            next_tid += 2
            add_thread(proc, tid)
            emit(THREAD_CREATE, pid=proc.pid, tid=tid, image=proc.image)
        elif token == "ThreadExit":
            proc = rng.choice(threaded)
            tid = proc.tids.pop(rng.randrange(len(proc.tids)))
            if not proc.tids:
                _remove_by_pid(threaded, proc)
            emit(THREAD_EXIT, pid=proc.pid, tid=tid, image=proc.image)
        elif token == "ImageLoad":
            proc = rng.choice(live)
            emit(IMAGE_LOAD, pid=proc.pid, image=proc.image, file_path=rng.choice(_DLL_POOL))
        elif token == "Annotation":
            proc = rng.choice(live)
            emit(rng.choice(_API_KINDS), pid=proc.pid)
        elif token.startswith("Irp:"):
            proc = rng.choice(live)
            kind = irp_kind(token)
            tid = rng.choice(proc.tids) if proc.tids else 0
            emit(kind, pid=proc.pid, tid=tid,
                 duration=rng.randint(10, 5000), image=proc.image, file_path=rand_file(rng))
        else:
            raise ValueError(f"unknown mix token {token!r}")
        budget -= 1

    for i in range(spec.injection_templates):
        injector = spawn(image="%System32%\\rundll32.exe")
        target = spawn(image="%ProgramFiles%\\victim\\service.exe")
        tid0 = next_tid
        next_tid += 2
        add_thread(target, tid0)
        emit(THREAD_CREATE, pid=target.pid, tid=tid0, image=target.image)  # initial thread
        tid1 = next_tid
        next_tid += 2
        add_thread(target, tid1)
        emit(THREAD_CREATE, pid=target.pid, tid=tid1, image=injector.image)  # remote
        if i % 2 == 0:
            emit(IMAGE_LOAD, pid=target.pid, image=target.image,
                 file_path="%System32%\\injected_payload.dll")

    return Trace(header, tuple(records))


def replay_fixture(trace: Trace, speed: float = math.inf,
                   config: PipelineConfig | None = None,
                   producers: int = 1, consumers: int = 1) -> Trace:
    """Push a recorded trace through submit/drain, re-sequencing it.

    Under a lossless policy the output multiset (ignoring global_seq)
    equals the input, and per-pid order is preserved: with several
    producers, records are sharded by pid so one pid never crosses
    producers (shard i submits as producer i), and the drained output is
    merged by assigned sequence.
    speed scales inter-event gaps (inf = no pacing). The single
    producer/consumer form is fully deterministic.
    """
    if producers <= 1 and consumers <= 1:
        return _replay_single(trace, speed, config)
    pipeline = EventPipeline(config or PipelineConfig())
    shards: list[list[EventRecord]] = [[] for _ in range(producers)]
    for record in trace.records:
        shards[record.pid % producers].append(record)
    out: list[EventRecord] = []
    out_lock = threading.Lock()

    def produce(producer_id: int, shard: list[EventRecord]) -> None:
        for record in _paced(shard, speed):
            pipeline.submit(producer_id, record)

    def consume() -> None:
        local: list[EventRecord] = []
        while True:
            try:
                local.extend(pipeline.drain())
            except PipelineClosed:
                break
        with out_lock:
            out.extend(local)

    consumer_threads = [threading.Thread(target=consume) for _ in range(consumers)]
    producer_threads = [threading.Thread(target=produce, args=(i, shard))
                        for i, shard in enumerate(shards)]
    for t in consumer_threads + producer_threads:
        t.start()
    for t in producer_threads:
        t.join()
    pipeline.close()
    for t in consumer_threads:
        t.join()
    out.sort(key=lambda r: r.global_seq)
    return Trace(trace.header, _resequenced(out))


def _replay_single(trace: Trace, speed: float, config: PipelineConfig | None) -> Trace:
    pipeline = EventPipeline(config or PipelineConfig())
    out: list[EventRecord] = []

    def pump() -> None:
        while chunk := pipeline.drain(block=False):
            out.extend(chunk)

    for record in _paced(trace.records, speed):
        while pipeline.submit(0, record, block=False) is SubmitResult.WOULD_BLOCK:
            pump()
    pump()
    pipeline.close()
    return Trace(trace.header, _resequenced(out))


def _paced(records: Iterable[EventRecord], speed: float) -> Iterator[EventRecord]:
    """Yield records, first sleeping each forward time gap divided by speed
    (inf = no pacing)."""
    prev_time: datetime | None = None
    for record in records:
        if speed != math.inf and prev_time is not None:
            gap = (record.time - prev_time).total_seconds()
            if gap > 0:
                _time.sleep(gap / speed)
        prev_time = record.time
        yield record


def _resequenced(records: list[EventRecord]) -> tuple[EventRecord, ...]:
    """Stamp 1..N on records sorted by their unique pipeline sequence.

    A lossless run already carries exactly 1..N, so it is not copied again.
    """
    if records and records[-1].global_seq != len(records):
        records = resequence(records)
    return tuple(records)
