"""Process/attack tree reconstruction and remote-thread injection flagging.

A forest is rebuilt from create/exit events. PID reuse is disambiguated by
(pid, birth_seq); processes that predate the trace are synthesized as roots
with birth_seq 0 and image "<pre-existing>", so parents that never appear
as create events (e.g. explorer/services hosts) are still representable.

Remote-thread attribution: a thread-create record carries the owning pid
and the creating process's image path. When that image is the image of a
different live created process, the thread was planted from outside; the
newest such process is named as the injector. A synthesized pre-existing
process is never named, since its image is unknown. The finding is
upgraded when the target loads a new image shortly afterwards (the
load-library tail of classic DLL injection). Each process's first observed
thread is exempt, since initial threads are always created externally.
Injection is its own fold over the INJECTION_KINDS records; the forest
keeps no injection state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum
from heapq import heappop, heappush
from typing import Iterator, NamedTuple

from .codec import Memo, Trace
from .errors import UnknownKey
from .events import (
    Annotation,
    EventRecord,
    ImageLoad,
    Irp,
    ProcessCreate,
    ProcessExit,
    ThreadCreate,
    ThreadExit,
    drops_file,
    normalize_path,
    path_basename,
)

PRE_EXISTING_IMAGE = "<pre-existing>"
DEFAULT_INJECTION_WINDOW_MS = 2000
_MAX_WINDOW_MS = timedelta.max // timedelta(milliseconds=1)  # the widest a timedelta holds

# The kinds injection findings are made from; a reader may skip building
# the others.
INJECTION_KINDS = frozenset(k.__name__ for k in (ProcessCreate, ProcessExit, ThreadCreate, ImageLoad))


class ProcessKey(NamedTuple):  # a tuple: the per-record node lookup hashes it in C
    pid: int
    birth_seq: int  # 0 = pre-existing


@dataclass(slots=True)
class IoTotals:
    count: int = 0
    duration_us: int = 0


@dataclass(eq=False, slots=True)
class ProcessNode:
    key: ProcessKey
    parent: ProcessKey | None
    image_path: str
    args: str = ""
    # The node's activity: None in a forest built without it (build_forest).
    threads: int | None = None  # thread creates seen
    images: int | None = None  # image loads seen
    io_summary: dict[str, IoTotals] | None = None
    dropped_files: list[str] | None = None  # in trace order, see events.drops_file
    children: list[ProcessKey] = field(default_factory=list)


@dataclass
class ProcessForest:
    roots: list[ProcessKey]
    index: dict[ProcessKey, ProcessNode]
    warnings: list[str] = field(default_factory=list)

    def node(self, key: ProcessKey) -> ProcessNode:
        try:
            return self.index[key]
        except KeyError:
            raise UnknownKey(f"no process node {key}") from None

    def created_count(self) -> int:
        return sum(1 for k in self.index if k.birth_seq > 0)

    def preexisting_count(self) -> int:
        return sum(1 for k in self.index if k.birth_seq == 0)


class InjectionConfidence(Enum):
    REMOTE_THREAD = "RemoteThread"
    REMOTE_THREAD_PLUS_LOAD_LIBRARY = "RemoteThreadPlusLoadLibrary"


@dataclass
class InjectionFinding:
    target: ProcessKey
    injector: ProcessKey
    thread_seq: int
    confidence: InjectionConfidence

    def to_dict(self) -> dict:
        return {
            "target_pid": self.target.pid,
            "target_birth_seq": self.target.birth_seq,
            "injector_pid": self.injector.pid,
            "injector_birth_seq": self.injector.birth_seq,
            "thread_seq": self.thread_seq,
            "confidence": self.confidence.value,
        }


class Resolver:
    """Which process instance each record belongs to: the one pid ->
    ProcessKey liveness model behind the forest, the injection scan and the
    fingerprint scan. Feed it records in trace order: every record, or any
    subset that keeps every create and exit. A record's key depends only on
    the creates and exits before it, so each record gets the same key from
    every such feed (the warnings may differ).

    A create starts (pid, global_seq) and closes a still-live instance of the
    same pid. An exit ends the pid's live instance. Any other record belongs
    to the live instance, or else to the pid's latest one (a stale attach,
    with a warning). A pid never seen before, and a parent that is not live,
    becomes the pre-existing (pid, 0), live: a pid named as a parent is live.
    """

    def __init__(self):
        self.warnings: list[str] = []
        self._live: dict[int, ProcessKey] = {}
        self._latest: dict[int, ProcessKey] = {}  # latest instance per pid, live or not

    def _preexisting(self, pid: int) -> ProcessKey:
        key = self._live[pid] = self._latest[pid] = ProcessKey(pid, 0)
        return key

    def resolve(self, record: EventRecord) -> ProcessKey:
        kind = record.kind
        if isinstance(kind, ProcessCreate):
            return self.create(record)[0]
        if isinstance(kind, ProcessExit):
            return self.exit(record)
        return self.actor(record)

    def is_live(self, key: ProcessKey) -> bool:
        """Whether the instance create returned as key is still its pid's
        live one: until the pid's next create or exit. Compared by identity,
        since a create at seq 0 makes (pid, 0), which equals the pre-existing
        instance a later parent of that pid makes live."""
        return self._live.get(key.pid) is key

    def create(self, record: EventRecord) -> tuple[ProcessKey, ProcessKey | None]:
        """Returns the new instance and its parent (None when ppid is 0, the
        unknown parent)."""
        if self._live.pop(record.pid, None) is not None:
            self.warnings.append(
                f"seq {record.global_seq}: create for already-live pid {record.pid}, closing stale node")
        parent = None
        if record.ppid != 0:
            parent = self._live.get(record.ppid) or self._preexisting(record.ppid)
        key = ProcessKey(record.pid, record.global_seq)
        self._live[record.pid] = self._latest[record.pid] = key
        return key, parent

    def exit(self, record: EventRecord) -> ProcessKey:
        """Returns the instance that ends here, or the pid's latest one
        when it had already exited."""
        pid = record.pid
        if pid in self._latest and pid not in self._live:
            self.warnings.append(f"seq {record.global_seq}: exit for already-exited pid {pid}")
            return self._latest[pid]
        key = self._live.get(pid) or self._preexisting(pid)
        del self._live[pid]
        return key

    def actor(self, record: EventRecord) -> ProcessKey:
        """The instance a record other than a create or an exit belongs to."""
        key = self._live.get(record.pid)
        if key is not None:
            return key
        key = self._latest.get(record.pid)
        if key is not None:
            self.warnings.append(
                f"seq {record.global_seq}: event for exited pid {record.pid}, attached to stale node")
            return key
        return self._preexisting(record.pid)


class _Builder:
    def __init__(self, activity: bool):
        self.activity = activity
        self.resolver = Resolver()
        self.roots: list[ProcessKey] = []
        self.index: dict[ProcessKey, ProcessNode] = {}
        self._live_threads: dict[tuple[ProcessKey, int], int] = {}  # (owner, tid) -> creates not yet exited

    def _new_node(self, key: ProcessKey, parent: ProcessKey | None, image_path: str,
                  args: str = "") -> ProcessNode:
        if self.activity:
            return ProcessNode(key, parent, image_path, args,
                               threads=0, images=0, io_summary={}, dropped_files=[])
        return ProcessNode(key, parent, image_path, args)

    def _node(self, key: ProcessKey) -> ProcessNode:
        node = self.index.get(key)
        if node is None:  # a pre-existing process the resolver just synthesized
            node = self.index[key] = self._new_node(key, None, PRE_EXISTING_IMAGE)
            self.roots.append(key)
        return node

    def _actor(self, record: EventRecord) -> ProcessNode:
        return self._node(self.resolver.actor(record))

    def feed(self, record: EventRecord) -> None:
        kind = record.kind
        if isinstance(kind, Irp):  # most records; tested first
            node = self._actor(record)
            if self.activity:
                totals = node.io_summary.get(kind.code.major)
                if totals is None:
                    totals = node.io_summary[kind.code.major] = IoTotals()
                totals.count += 1
                totals.duration_us += record.duration_us or 0
                if drops_file(record):
                    node.dropped_files.append(record.file_path)
        elif isinstance(kind, ProcessCreate):
            self._on_create(record)
        elif isinstance(kind, ProcessExit):
            self._node(self.resolver.exit(record))  # a pid never seen before is represented
        elif isinstance(kind, ThreadCreate):
            self._on_thread_create(record)
        elif isinstance(kind, ThreadExit):
            self._on_thread_exit(record)
        elif isinstance(kind, ImageLoad):
            node = self._actor(record)
            if self.activity:
                node.images += 1
        elif isinstance(kind, Annotation):
            self._actor(record)  # ensure the acting pid is represented

    def _on_create(self, record: EventRecord) -> None:
        key, parent_key = self.resolver.create(record)
        if parent_key is None:
            self.roots.append(key)
        else:
            self._node(parent_key).children.append(key)
        self.index[key] = self._new_node(key, parent_key, record.image_path, record.args)

    def _on_thread_create(self, record: EventRecord) -> None:
        owner = self._actor(record)
        if self.activity:
            owner.threads += 1
        if record.tid:  # tid 0 names no thread an exit could match
            thread = (owner.key, record.tid)
            self._live_threads[thread] = self._live_threads.get(thread, 0) + 1

    def _on_thread_exit(self, record: EventRecord) -> None:
        thread = (self._actor(record).key, record.tid)
        live = self._live_threads.pop(thread, 0)
        if live > 1:
            self._live_threads[thread] = live - 1
        elif not live:
            self.resolver.warnings.append(f"seq {record.global_seq}: thread exit for unknown tid {record.tid}")

    def result(self) -> ProcessForest:
        self.roots.sort(key=lambda k: (k.birth_seq, k.pid))
        return ProcessForest(self.roots, self.index, self.resolver.warnings)


class _Injections:
    """Remote-thread injection as a fold over the INJECTION_KINDS records.

    The injector is the newest live created process of the creator's image:
    the top of that image's stack, once dead entries are popped. A target's
    open findings sit in a min-heap on thread start; an image load pops
    every finding that started at or before it, upgrading those within the
    window. Each stack or heap entry is popped at most once, so the cost per
    record stays flat however many peers or open findings there are.

    Records of other kinds are skipped, also by the resolver, so the
    findings are the same whether or not a reader built them, and each
    record names the process the forest gives it.
    """

    def __init__(self, window_ms: int):
        self.window = timedelta(milliseconds=window_ms)
        self.resolver = Resolver()
        self.findings: list[InjectionFinding] = []
        self.examined = 0  # stack and heap entries looked at; read by the cost tests
        # One normalized string per distinct image, shared by _images and _by_image.
        self._normalized = Memo(normalize_path)
        self._images: dict[ProcessKey, str] = {}  # created process -> normalized image
        self._threaded: set[ProcessKey] = set()  # processes whose first thread was seen
        self._by_image: dict[str, list[ProcessKey]] = {}  # created processes per image, birth order
        self._pending: dict[ProcessKey, list[tuple[datetime, int, InjectionFinding]]] = {}

    def feed(self, record: EventRecord) -> None:
        kind = record.kind
        if isinstance(kind, ThreadCreate):
            self._on_thread_create(record)
        elif isinstance(kind, ImageLoad):
            self._on_image_load(record)
        elif isinstance(kind, ProcessCreate):
            key, _ = self.resolver.create(record)
            image = self._images[key] = self._normalized[record.image_path]
            self._by_image.setdefault(image, []).append(key)
        elif isinstance(kind, ProcessExit):
            self.resolver.exit(record)

    def _on_thread_create(self, record: EventRecord) -> None:
        owner = self.resolver.actor(record)
        if owner not in self._threaded:  # the first observed thread is always external
            self._threaded.add(owner)
            return
        image = self._normalized[record.image_path]
        if not image or image == self._images.get(owner, PRE_EXISTING_IMAGE):
            return
        # The owner is not on this stack: its image differs.
        stack = self._by_image.get(image, [])
        while stack:
            self.examined += 1
            if self.resolver.is_live(stack[-1]):
                finding = InjectionFinding(target=owner, injector=stack[-1],
                                           thread_seq=record.global_seq,
                                           confidence=InjectionConfidence.REMOTE_THREAD)
                self.findings.append(finding)
                heappush(self._pending.setdefault(owner, []), (record.time, record.global_seq, finding))
                return
            stack.pop()

    def _on_image_load(self, record: EventRecord) -> None:
        pending = self._pending.get(self.resolver.actor(record))
        when = record.time
        while pending:
            self.examined += 1
            started, _, finding = pending[0]
            if started > when:  # a thread stamped after this load stays open
                return
            heappop(pending)
            if when - started <= self.window:
                finding.confidence = InjectionConfidence.REMOTE_THREAD_PLUS_LOAD_LIBRARY


def build_forest(trace: Trace, activity: bool = True) -> ProcessForest:
    """Reconstruct the process forest from a trace (deterministic).

    With activity, each node also counts its thread creates and image loads
    and keeps its I/O rollup and dropped files. Without it those fields stay
    None; the keys, parents, children, images, arguments and warnings are
    the same, so a reader that prints only those (DOT) builds no more."""
    builder = _Builder(activity)
    for record in trace.records:
        builder.feed(record)
    return builder.result()


def detect_remote_thread_injection(trace: Trace,
                                   window_ms: int = DEFAULT_INJECTION_WINDOW_MS) -> list[InjectionFinding]:
    """Flag thread creations attributable to a different live created
    process. Reads only the INJECTION_KINDS records of the trace."""
    if window_ms < 0:
        raise ValueError("window_ms must be non-negative")
    if window_ms > _MAX_WINDOW_MS:
        raise ValueError(f"window_ms must be at most {_MAX_WINDOW_MS}")
    injections = _Injections(window_ms)
    for record in trace.records:
        injections.feed(record)
    return injections.findings


def subtree(forest: ProcessForest, root: ProcessKey) -> list[tuple[ProcessNode | None, ProcessNode]]:
    """(parent, node) for root and every descendant, in preorder with
    children in order (parent is None for root). A loop, not a recursion, so
    a deep process chain cannot overflow the stack."""
    pairs = []
    stack: list[tuple[ProcessNode | None, ProcessNode]] = [(None, forest.node(root))]
    while stack:
        parent, node = stack.pop()
        pairs.append((parent, node))
        stack.extend((node, forest.index[c]) for c in reversed(node.children))
    return pairs


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_id(key: ProcessKey) -> str:
    return f"n{key.pid}_{key.birth_seq}"


def _dot_node(node: ProcessNode) -> str:
    label = _dot_escape(f"{path_basename(node.image_path)} ({node.key.pid})")
    return f'  {_node_id(node.key)} [label="{label}"];\n'


def _dot_lines(forest: ProcessForest, root: ProcessKey | None) -> Iterator[str]:
    """The lines of render_dot's text, each with its newline."""
    name = "trace" if root is None else f"subtree_{root.pid}"
    yield f'digraph "{name}" {{\n  rankdir=LR;\n'
    if root is None:
        keys = sorted(forest.index, key=lambda k: (k.birth_seq, k.pid))
        for key in keys:
            yield _dot_node(forest.index[key])
        for key in keys:
            for child in forest.index[key].children:
                yield f"  {_node_id(key)} -> {_node_id(child)};\n"
    else:
        # Each node after the edge from its parent: the order of a recursive visit.
        for parent, node in subtree(forest, root):
            if parent is not None:
                yield f"  {_node_id(parent.key)} -> {_node_id(node.key)};\n"
            yield _dot_node(node)
    yield "}\n"


_DOT_BATCH = 1024  # lines joined at a time


def render_dot(forest: ProcessForest, root: ProcessKey | None = None) -> str:
    """Render the forest as the DOT digraph "trace", or the subtree under
    root as "subtree_<pid>", deterministically. The lines are joined in
    batches, so no list of every line is held beside the text."""
    lines = _dot_lines(forest, root)
    return "".join(iter(lambda: "".join(itertools.islice(lines, _DOT_BATCH)), ""))

