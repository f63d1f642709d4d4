"""Process/attack tree reconstruction and remote-thread injection flagging.

A forest is rebuilt from create/exit events. PID reuse is disambiguated by
(pid, birth_seq); processes that predate the trace are synthesized as roots
with birth_seq 0 and image "<pre-existing>", so parents that never appear
as create events (e.g. explorer/services hosts) are still representable.

Remote-thread attribution: a thread-create record carries the owning pid
and the creating process's image path. When that image maps onto a
different live process, the thread was planted from outside; the finding is
upgraded when the target loads a new image shortly afterwards (the
load-library tail of classic DLL injection). Each process's first observed
thread is exempt, since initial threads are always created externally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum
from typing import NamedTuple

from .codec import Trace
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
)
from .irp import IRP_MJ_CREATE, IRP_MJ_WRITE

PRE_EXISTING_IMAGE = "<pre-existing>"
DEFAULT_INJECTION_WINDOW_MS = 2000


class ProcessKey(NamedTuple):  # a tuple: the per-record node lookup hashes it in C
    pid: int
    birth_seq: int  # 0 = pre-existing


@dataclass(frozen=True)
class ThreadInfo:
    tid: int
    create_seq: int
    exit_seq: int | None
    creator: ProcessKey


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
    create_time: datetime | None = None
    exit_time: datetime | None = None
    exit_seq: int | None = None
    threads: list[ThreadInfo] = field(default_factory=list)
    images: list[tuple[str, int]] = field(default_factory=list)
    io_summary: dict[str, IoTotals] = field(default_factory=dict)
    writes: list[tuple[str, int]] = field(default_factory=list)
    children: list[ProcessKey] = field(default_factory=list)

    @property
    def basename(self) -> str:
        return self.image_path.replace("/", "\\").rsplit("\\", 1)[-1]


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


def _norm(path: str) -> str:
    return path.replace("/", "\\").lower()


class Resolver:
    """Which process instance each record belongs to: the one pid ->
    ProcessKey liveness model behind the forest, the injection scan and the
    fingerprint scan. Feed it every record in trace order.

    A create starts (pid, global_seq) and closes a still-live instance of the
    same pid. An exit ends the pid's live instance. Any other record belongs
    to the live instance, or else to the pid's latest one (a stale attach,
    with a warning). A pid never seen before, and a parent that is not live
    and has no (ppid, 0) yet, is synthesized as the pre-existing (pid, 0).
    """

    def __init__(self):
        self.warnings: list[str] = []
        self._live: dict[int, ProcessKey] = {}
        self._latest: dict[int, ProcessKey] = {}  # latest instance per pid, live or not
        self._zero: set[int] = set()  # pids whose (pid, 0) exists

    def _preexisting(self, pid: int) -> ProcessKey:
        key = ProcessKey(pid, 0)
        if pid not in self._zero:
            self._zero.add(pid)
            self._live[pid] = self._latest[pid] = key
        return key

    def resolve(self, record: EventRecord) -> ProcessKey:
        kind = record.kind
        if isinstance(kind, ProcessCreate):
            return self.create(record)[0]
        if isinstance(kind, ProcessExit):
            return self.exit(record)[0]
        return self.actor(record)

    def create(self, record: EventRecord) -> tuple[ProcessKey, ProcessKey | None, ProcessKey | None]:
        """Returns the new instance, its parent (None when ppid is 0, the
        unknown parent) and the still-live instance of the pid it closed."""
        stale = self._live.pop(record.pid, None)
        if stale is not None:
            self.warnings.append(
                f"seq {record.global_seq}: create for already-live pid {record.pid}, closing stale node")
        parent = None
        if record.ppid != 0:
            parent = self._live.get(record.ppid) or self._preexisting(record.ppid)
        key = ProcessKey(record.pid, record.global_seq)
        if record.global_seq == 0:  # a create at seq 0 takes the (pid, 0) key
            self._zero.add(record.pid)
        self._live[record.pid] = self._latest[record.pid] = key
        return key, parent, stale

    def exit(self, record: EventRecord) -> tuple[ProcessKey, bool]:
        """Returns the instance and whether it ended here (False when the
        pid had already exited)."""
        pid = record.pid
        if pid in self._latest and pid not in self._live:
            self.warnings.append(f"seq {record.global_seq}: exit for already-exited pid {pid}")
            return self._latest[pid], False
        key = self._live.get(pid) or self._preexisting(pid)
        del self._live[pid]
        return key, True

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
    def __init__(self, window_ms: int):
        self.window = timedelta(milliseconds=window_ms)
        self.resolver = Resolver()
        self.roots: list[ProcessKey] = []
        self.index: dict[ProcessKey, ProcessNode] = {}
        self.findings: list[InjectionFinding] = []
        self._live_by_image: dict[str, dict[ProcessKey, ProcessNode]] = {}
        # Findings still open to an upgrade, keyed by target, in finding order.
        self._pending: dict[ProcessKey, list[tuple[InjectionFinding, datetime]]] = {}
        self._synthetic_tid = -1

    def _add(self, node: ProcessNode) -> ProcessNode:
        self.index[node.key] = node
        self._live_by_image.setdefault(_norm(node.image_path), {})[node.key] = node
        return node

    def _ended(self, node: ProcessNode) -> None:
        self._live_by_image.get(_norm(node.image_path), {}).pop(node.key, None)

    def _node(self, key: ProcessKey) -> ProcessNode:
        node = self.index.get(key)
        if node is None:  # a pre-existing process the resolver just synthesized
            node = self._add(ProcessNode(key=key, parent=None, image_path=PRE_EXISTING_IMAGE))
            self.roots.append(key)
        return node

    def _actor(self, record: EventRecord) -> ProcessNode:
        return self._node(self.resolver.actor(record))

    def feed(self, record: EventRecord) -> None:
        kind = record.kind
        if isinstance(kind, Irp):  # most records; tested first
            node = self._actor(record)
            totals = node.io_summary.get(kind.code.major)
            if totals is None:
                totals = node.io_summary[kind.code.major] = IoTotals()
            totals.count += 1
            totals.duration_us += record.duration_us or 0
            if kind.code.major in (IRP_MJ_WRITE, IRP_MJ_CREATE):
                node.writes.append((record.file_path, record.global_seq))
        elif isinstance(kind, ProcessCreate):
            self._on_create(record)
        elif isinstance(kind, ProcessExit):
            self._on_exit(record)
        elif isinstance(kind, ThreadCreate):
            self._on_thread_create(record)
        elif isinstance(kind, ThreadExit):
            self._on_thread_exit(record)
        elif isinstance(kind, ImageLoad):
            node = self._actor(record)
            node.images.append((record.file_path, record.global_seq))
            self._check_upgrades(node, record.time)
        elif isinstance(kind, Annotation):
            self._actor(record)  # ensure the acting pid is represented

    def _on_create(self, record: EventRecord) -> None:
        key, parent_key, stale_key = self.resolver.create(record)
        if stale_key is not None:
            stale = self.index[stale_key]
            stale.exit_seq = record.global_seq
            self._ended(stale)
        if parent_key is None:
            self.roots.append(key)
        else:
            self._node(parent_key).children.append(key)
        self._add(ProcessNode(
            key=key,
            parent=parent_key,
            image_path=record.image_path,
            args=record.args,
            create_time=record.time,
        ))

    def _on_exit(self, record: EventRecord) -> None:
        key, ended = self.resolver.exit(record)
        if ended:
            node = self._node(key)
            node.exit_time = record.time
            node.exit_seq = record.global_seq
            self._ended(node)

    def _on_thread_create(self, record: EventRecord) -> None:
        owner = self._actor(record)
        tid = record.tid
        if tid == 0:
            tid = self._synthetic_tid
            self._synthetic_tid -= 1
        creator = owner.key
        if owner.threads:  # the first observed thread is always external
            image = _norm(record.image_path)
            if image and image != _norm(owner.image_path):
                peers = [p for p in self._live_by_image.get(image, {}).values() if p.key != owner.key]
                if peers:
                    injector = max(peers, key=lambda p: p.key.birth_seq)
                    creator = injector.key
                    finding = InjectionFinding(
                        target=owner.key, injector=injector.key,
                        thread_seq=record.global_seq,
                        confidence=InjectionConfidence.REMOTE_THREAD,
                    )
                    self.findings.append(finding)
                    self._pending.setdefault(owner.key, []).append((finding, record.time))
        owner.threads.append(ThreadInfo(tid, record.global_seq, None, creator))

    def _on_thread_exit(self, record: EventRecord) -> None:
        owner = self._actor(record)
        for i, info in enumerate(owner.threads):
            if info.tid == record.tid and info.exit_seq is None:
                owner.threads[i] = ThreadInfo(info.tid, info.create_seq, record.global_seq, info.creator)
                return
        self.resolver.warnings.append(f"seq {record.global_seq}: thread exit for unknown tid {record.tid}")

    def _check_upgrades(self, node: ProcessNode, when: datetime) -> None:
        pending = self._pending.get(node.key)
        if pending is None:
            return
        kept = []
        for finding, started in pending:
            delta = when - started
            if timedelta(0) <= delta <= self.window:
                finding.confidence = InjectionConfidence.REMOTE_THREAD_PLUS_LOAD_LIBRARY
                continue  # upgraded once; no longer pending
            if delta > self.window:
                continue  # window elapsed for this target
            kept.append((finding, started))
        if kept:
            self._pending[node.key] = kept
        else:
            del self._pending[node.key]

    def result(self) -> ProcessForest:
        self.roots.sort(key=lambda k: (k.birth_seq, k.pid))
        return ProcessForest(self.roots, self.index, self.resolver.warnings)


def _build(trace: Trace, window_ms: int) -> _Builder:
    builder = _Builder(window_ms)
    for record in trace.records:
        builder.feed(record)
    return builder


def build_forest(trace: Trace, injection_window_ms: int = DEFAULT_INJECTION_WINDOW_MS) -> ProcessForest:
    """Reconstruct the process forest from a trace (deterministic)."""
    return _build(trace, injection_window_ms).result()


def detect_remote_thread_injection(trace: Trace,
                                   window_ms: int = DEFAULT_INJECTION_WINDOW_MS) -> list[InjectionFinding]:
    """Flag thread creations attributable to a different live process."""
    return _build(trace, window_ms).findings


@dataclass
class AttackTreeNode:
    key: ProcessKey
    image_path: str
    args: str
    io_summary: dict[str, IoTotals]
    dropped_files: list[str]
    children: list["AttackTreeNode"]

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def attack_tree(forest: ProcessForest, root: ProcessKey) -> AttackTreeNode:
    """Depth-first subtree under root, annotated with I/O evidence."""
    node = forest.node(root)

    def build(n: ProcessNode) -> AttackTreeNode:
        return AttackTreeNode(
            key=n.key,
            image_path=n.image_path,
            args=n.args,
            io_summary=n.io_summary,
            dropped_files=[p for p, _ in n.writes],
            children=[build(forest.node(c)) for c in n.children],
        )

    return build(node)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_id(key: ProcessKey) -> str:
    return f"n{key.pid}_{key.birth_seq}"


def render_dot(forest_or_subtree: ProcessForest | AttackTreeNode, name: str = "trace") -> str:
    """Render a forest or attack subtree as a deterministic DOT digraph."""
    lines = [f'digraph "{_dot_escape(name)}" {{', "  rankdir=LR;"]
    if isinstance(forest_or_subtree, ProcessForest):
        forest = forest_or_subtree
        keys = sorted(forest.index, key=lambda k: (k.birth_seq, k.pid))
        for key in keys:
            node = forest.index[key]
            label = _dot_escape(f"{node.basename} ({key.pid})")
            lines.append(f'  {_node_id(key)} [label="{label}"];')
        for key in keys:
            for child in forest.index[key].children:
                lines.append(f"  {_node_id(key)} -> {_node_id(child)};")
    else:
        def visit(tn: AttackTreeNode) -> None:
            base = tn.image_path.replace("/", "\\").rsplit("\\", 1)[-1]
            label = _dot_escape(f"{base} ({tn.key.pid})")
            lines.append(f'  {_node_id(tn.key)} [label="{label}"];')
            for child in tn.children:
                lines.append(f"  {_node_id(tn.key)} -> {_node_id(child.key)};")
                visit(child)
        visit(forest_or_subtree)
    lines.append("}")
    return "\n".join(lines) + "\n"


def findings_to_jsonl(findings) -> str:
    """One JSON object per finding (anything with to_dict: injection,
    fingerprint or intrusion findings), newline-delimited."""
    return "".join(json.dumps(f.to_dict(), sort_keys=True) + "\n" for f in findings)
