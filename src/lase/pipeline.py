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
import itertools
import math
import operator
import random
import threading
import time as _time
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .codec import Trace, TraceHeader, resequence
from .errors import PipelineClosed
from .events import (
    IMAGE_LOAD,
    KIND_NAMES,
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
from .irp import parse_irp_code


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
        if unknown := set(self.priority_kinds) - KIND_NAMES:
            raise ValueError(f"unknown priority kinds {sorted(unknown)}")


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
        """Submit a proto-record (its global_seq is assigned here on accept;
        a record that already carries the assigned number is kept as is).

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
                record = self._stamp(proto_event)
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
            self._ring.append(self._stamp(proto_event))
            self._not_empty.notify()
            return SubmitResult.ACCEPTED

    def _stamp(self, proto_event: EventRecord) -> EventRecord:
        """Accept an event under the lock: the record stamped with the next
        sequence number, which is the event itself when it already carries
        that number (records are immutable, so nothing needs a copy)."""
        seq = self._next_seq
        self._next_seq += 1
        self.stats.accepted += 1
        return proto_event if proto_event.global_seq == seq else proto_event.with_seq(seq)

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

# Mix tokens: every kind's selector name but Irp's, which a token names as
# "Irp:" and an IRP code.
_MIX_KINDS = KIND_NAMES - {Irp.__name__}

DEFAULT_BRANCHING: Mapping[int, float] = {0: 0.25, 1: 0.45, 2: 0.20, 3: 0.10}
START_TIME = datetime(2024, 3, 1, 9, 0, 0)  # of every generated trace

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

    def __post_init__(self):
        if self.producers <= 0 or self.events_per_producer < 0:
            raise ValueError("producers must be positive, events_per_producer non-negative")
        if self.injection_templates < 0:
            raise ValueError("injection_templates must be non-negative")
        for token, weight in self.mix.items():
            if token.startswith("Irp:"):
                parse_irp_code(token[4:])
            elif token not in _MIX_KINDS:
                raise ValueError(f"unknown mix token {token!r}")
            if not weight >= 0:
                raise ValueError(f"mix weight of {token!r} must be non-negative, got {weight}")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mix weights must sum to 1, got {total}")
        for children, weight in self.branching.items():
            if not isinstance(children, int) or children < 0:
                raise ValueError(f"a branching key is a child count, got {children!r}")
            if not weight >= 0:
                raise ValueError(f"branching weight of {children} must be non-negative, got {weight}")
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


def _draws(rng: random.Random) -> tuple[Callable, Callable, Callable]:
    """below, choice and weighted: rng's draws in fewer Python frames.

    Each makes exactly the calls to rng's public getrandbits and random that
    random.Random makes for the same draw, so a seed still gives the same
    trace. below(n), for n > 0, is rng.randrange(n) (random's
    _randbelow_with_getrandbits); choice(seq) is rng.choice(seq), and
    a + below(b - a + 1) is rng.randint(a, b). weighted(items, weights)
    returns a function whose every call is rng.choices(items, weights,
    k=1)[0].
    """
    getrandbits, uniform = rng.getrandbits, rng.random

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def choice(seq: Sequence):
        return seq[below(len(seq))]

    def weighted(items: Sequence, weights: Iterable[float]) -> Callable[[], object]:
        cum_weights = list(itertools.accumulate(weights))
        total, hi = cum_weights[-1] + 0.0, len(cum_weights) - 1
        return lambda: items[bisect.bisect(cum_weights, uniform() * total, 0, hi)]

    return below, choice, weighted


_API_KINDS = tuple(Annotation("api", api) for api in _API_POOL)
_TICKS = tuple(timedelta(milliseconds=ms) for ms in range(5))
_IRP_MODES = (IoMode.SYNCHRONOUS, IoMode.ASYNCHRONOUS, IoMode.PAGING_IO)
_IRP_MODE_WEIGHTS = (0.9, 0.07, 0.03)


def run_synthetic(spec: WorkloadSpec) -> Trace:
    """Generate a well-formed trace: every non-root pid has an earlier
    create event, every tid a thread-create, deterministic for a seed."""
    below, choice, weighted = _draws(random.Random(spec.seed))
    header = TraceHeader(base_date=START_TIME.date(), host_label=f"synthetic-{spec.seed}")
    total = spec.total_events
    if total == 0 and spec.injection_templates == 0:
        return Trace(header, ())

    draw_token = weighted(list(spec.mix), spec.mix.values())
    draw_want_children = weighted(list(spec.branching), spec.branching.values())

    records: list[EventRecord] = []
    seq = 1
    now = START_TIME
    next_pid = 4000
    next_tid = 9001
    # Live processes in pid (= spawn) order, and the two subsets that draws
    # pick from. Each subset keeps pid order, so it is the list a scan of
    # `live` would build, and every RNG draw picks the same process.
    live: list[_Proc] = []
    open_slots: list[_Proc] = []  # children < want_children
    threaded: list[_Proc] = []    # at least one live thread
    irp_kinds: dict[str, Callable[[], Irp]] = {}  # mix token -> its kind draw

    # Every I/O record shares its path and duration objects with the others
    # that drew the same value. Built per call: at import they would add to
    # every command that loads this module.
    paths = tuple(f"C:\\Users\\lab\\AppData\\{stem}{digit}.{ext}"
                  for stem in _FILE_STEMS for digit in range(10) for ext in _FILE_EXTS)
    durations = tuple(range(10, 5001))

    def emit(kind: EventKind, pid: int, ppid: int = 0, tid: int = 0,
             duration: int | None = None, image: str = "", args: str = "",
             file_path: str = "", result: str = "OK") -> None:
        nonlocal seq, now
        if tick := choice(_TICKS):  # a zero tick keeps the same time object
            now += tick
        records.append(EventRecord(seq, now, kind, pid, ppid, tid, duration, image, args,
                                   file_path, result))
        seq += 1

    def spawn(image: str | None = None) -> _Proc:
        nonlocal next_pid
        candidates = open_slots or live
        parent = choice(candidates) if candidates else None
        pid = next_pid
        next_pid += 2
        proc = _Proc(pid, image or choice(_IMAGE_POOL), draw_want_children())
        ppid = parent.pid if parent else 4  # 4 = pre-existing system root
        emit(PROCESS_CREATE, pid=pid, ppid=ppid, image=proc.image, args=choice(_ARGS_POOL))
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
        draw = irp_kinds.get(token)
        if draw is None:
            code = parse_irp_code(token[4:])
            if code.is_fast_io():  # one mode, so no draw
                draw = itertools.repeat(Irp(code, IoMode.FAST_IO)).__next__
            else:
                draw = weighted([Irp(code, mode) for mode in _IRP_MODES], _IRP_MODE_WEIGHTS)
            irp_kinds[token] = draw
        return draw()

    def rand_file() -> str:
        # The draws of choice(_FILE_STEMS), randint(0, 9) and choice(_FILE_EXTS).
        return paths[(below(len(_FILE_STEMS)) * 10 + below(10)) * len(_FILE_EXTS)
                     + below(len(_FILE_EXTS))]

    budget = total
    if budget > 0:
        spawn()  # bootstrap root consumes one event
        budget -= 1
    while budget > 0:
        token = draw_token()
        # Kinds that need unavailable state fall back to an image load so
        # the event budget always advances.
        if token == "ProcessExit" and len(live) <= 1:
            token = "ImageLoad"
        if token == "ThreadExit" and not threaded:
            token = "ImageLoad"
        if token == "ProcessCreate":
            spawn()
        elif token == "ProcessExit":
            proc = live.pop(1 + below(len(live) - 1))  # keep the bootstrap root alive
            if proc.children < proc.want_children:
                _remove_by_pid(open_slots, proc)
            if proc.tids:
                _remove_by_pid(threaded, proc)
            emit(PROCESS_EXIT, pid=proc.pid, image=proc.image)
        elif token == "ThreadCreate":
            proc = choice(live)
            tid = next_tid
            next_tid += 2
            add_thread(proc, tid)
            emit(THREAD_CREATE, pid=proc.pid, tid=tid, image=proc.image)
        elif token == "ThreadExit":
            proc = choice(threaded)
            tid = proc.tids.pop(below(len(proc.tids)))
            if not proc.tids:
                _remove_by_pid(threaded, proc)
            emit(THREAD_EXIT, pid=proc.pid, tid=tid, image=proc.image)
        elif token == "ImageLoad":
            proc = choice(live)
            emit(IMAGE_LOAD, pid=proc.pid, image=proc.image, file_path=choice(_DLL_POOL))
        elif token == "Annotation":
            proc = choice(live)
            emit(choice(_API_KINDS), pid=proc.pid)
        elif token.startswith("Irp:"):
            proc = choice(live)
            kind = irp_kind(token)
            tid = choice(proc.tids) if proc.tids else 0
            emit(kind, pid=proc.pid, tid=tid,  # durations[below(4991)] is randint(10, 5000)
                 duration=durations[below(4991)], image=proc.image, file_path=rand_file())
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
    producer/consumer form is fully deterministic. A replay has no priority
    sink, so a config with priority kinds raises ValueError before any
    record is submitted.
    """
    if producers < 1 or consumers < 1:
        raise ValueError("replay needs at least one producer and one consumer, "
                         f"got {producers} and {consumers}")
    config = config or PipelineConfig()
    if config.priority_kinds:
        raise ValueError("replay has no priority sink for priority kinds "
                         f"{sorted(config.priority_kinds)}")
    if producers == 1 and consumers == 1:
        return _replay_single(trace, speed, config)
    pipeline = EventPipeline(config)
    shards: list[list[EventRecord]] = [[] for _ in range(producers)]
    for record in trace.records:
        shards[record.pid % producers].append(record)
    # Each record lands in its sequence slot. Assigned seqs are unique and at
    # most the number submitted; evicted or refused records leave holes.
    out: list[EventRecord | None] = [None] * len(trace.records)

    def produce(producer_id: int, shard: list[EventRecord]) -> None:
        for record in _paced(shard, speed):
            pipeline.submit(producer_id, record)

    def consume() -> None:
        while True:
            try:
                chunk = pipeline.drain()
            except PipelineClosed:
                break
            for record in chunk:
                out[record.global_seq - 1] = record

    consumer_threads = [threading.Thread(target=consume) for _ in range(consumers)]
    producer_threads = [threading.Thread(target=produce, args=(i, shard))
                        for i, shard in enumerate(shards)]
    for t in consumer_threads + producer_threads:
        t.start()
    for t in producer_threads:
        t.join()
    del shards  # free them before the output is built; each thread dropped its own
    pipeline.close()
    for t in consumer_threads:
        t.join()
    if pipeline.stats.drained < len(out):  # evicted or refused records left holes
        out = [r for r in out if r is not None]
    return Trace(trace.header, _resequenced(out))


def _replay_single(trace: Trace, speed: float, config: PipelineConfig) -> Trace:
    pipeline = EventPipeline(config)
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
                try:
                    _time.sleep(gap / speed)
                except OverflowError:
                    raise ValueError(f"speed {speed} stretches a {gap} s gap past the longest sleep") from None
        prev_time = record.time
        yield record


def _resequenced(records: list[EventRecord]) -> tuple[EventRecord, ...]:
    """Stamp 1..N on records sorted by their unique pipeline sequence.

    A lossless run already carries exactly 1..N, so it is not copied again.
    """
    if records and records[-1].global_seq != len(records):
        records = resequence(records)
    return tuple(records)
