"""Canonical event taxonomy and the record type every other module consumes.

An event is one of: process create/exit, thread create/exit, image load, an
I/O request (an IrpCode plus an I/O mode), or an annotation (a key/value
marker for API-level observations such as RDTSC that file and process
telemetry cannot express). All types are immutable values after
construction and safe to share between threads.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from datetime import datetime
from enum import Enum

from .irp import IRP_MJ_CREATE, IRP_MJ_WRITE, IrpCode

ANNOTATION_KEYS = frozenset({"api", "note"})


class IoMode(Enum):
    SYNCHRONOUS = "sync"
    ASYNCHRONOUS = "async"
    FAST_IO = "fastio"
    PAGING_IO = "paging"


@dataclass(frozen=True)
class ProcessCreate:
    label = "Pr Create"


@dataclass(frozen=True)
class ProcessExit:
    label = "Pr Exit"


@dataclass(frozen=True)
class ThreadCreate:
    label = "Tr Create"


@dataclass(frozen=True)
class ThreadExit:
    label = "Tr Exit"


@dataclass(frozen=True)
class ImageLoad:
    label = "Ld Image"


@dataclass(frozen=True)
class Irp:
    code: IrpCode
    mode: IoMode = IoMode.SYNCHRONOUS


@dataclass(frozen=True)
class Annotation:
    key: str
    value: str
    label = "Annot"


EventKind = ProcessCreate | ProcessExit | ThreadCreate | ThreadExit | ImageLoad | Irp | Annotation

PROCESS_CREATE = ProcessCreate()
PROCESS_EXIT = ProcessExit()
THREAD_CREATE = ThreadCreate()
THREAD_EXIT = ThreadExit()
IMAGE_LOAD = ImageLoad()

# Operation label -> the kind of every label but Annotation's (its key and
# value ride in the args column) and the I/O labels (IrpCode.label).
KIND_BY_LABEL = {k.label: k for k in (PROCESS_CREATE, PROCESS_EXIT, THREAD_CREATE, THREAD_EXIT,
                                      IMAGE_LOAD)}

# The selector names signatures and pipeline config key on (kind_name).
KIND_NAMES = frozenset(k.__name__ for k in typing.get_args(EventKind))

RESULT_OK = "OK"


def op_label(kind: EventKind) -> str:
    """Fixed display label for the trace "Operation" column."""
    if isinstance(kind, Irp):
        return kind.code.label
    return kind.label


def normalize_path(path: str) -> str:
    """Lowercase, separators unified to backslash; env-var prefixes kept."""
    return path.replace("/", "\\").lower()


def path_basename(path: str) -> str:
    """Final component of a Windows path, with either separator."""
    return path.replace("/", "\\").rsplit("\\", 1)[-1]


def kind_name(kind: EventKind) -> str:
    """Selector name used by signatures and pipeline config ("Irp", "ProcessCreate", ...)."""
    return type(kind).__name__


@dataclass(frozen=True, slots=True, init=False)
class EventRecord:
    """One timestamped forensic event with its global sequence number.

    ppid=0 and tid=0 mean "not applicable/unknown". duration_us is set on
    I/O events only. result is "OK" or an uppercase error token.
    """

    global_seq: int
    time: datetime
    kind: EventKind
    pid: int
    ppid: int = 0
    tid: int = 0
    duration_us: int | None = None
    image_path: str = ""
    args: str = ""
    file_path: str = ""
    result: str = RESULT_OK

    # The generated frozen __init__ stores each field with
    # object.__setattr__; writing through the slot descriptors directly
    # builds a record in about half the time. Same signature and defaults.
    def __init__(self, global_seq: int, time: datetime, kind: EventKind, pid: int,
                 ppid: int = 0, tid: int = 0, duration_us: int | None = None,
                 image_path: str = "", args: str = "", file_path: str = "",
                 result: str = RESULT_OK) -> None:
        _set_global_seq(self, global_seq)
        _set_time(self, time)
        _set_kind(self, kind)
        _set_pid(self, pid)
        _set_ppid(self, ppid)
        _set_tid(self, tid)
        _set_duration_us(self, duration_us)
        _set_image_path(self, image_path)
        _set_args(self, args)
        _set_file_path(self, file_path)
        _set_result(self, result)

    def with_seq(self, global_seq: int) -> EventRecord:
        """Copy of this record stamped with another global sequence number."""
        return EventRecord(global_seq, self.time, self.kind, self.pid, self.ppid, self.tid,
                           self.duration_us, self.image_path, self.args, self.file_path,
                           self.result)


_set_global_seq = EventRecord.global_seq.__set__
_set_time = EventRecord.time.__set__
_set_kind = EventRecord.kind.__set__
_set_pid = EventRecord.pid.__set__
_set_ppid = EventRecord.ppid.__set__
_set_tid = EventRecord.tid.__set__
_set_duration_us = EventRecord.duration_us.__set__
_set_image_path = EventRecord.image_path.__set__
_set_args = EventRecord.args.__set__
_set_file_path = EventRecord.file_path.__set__
_set_result = EventRecord.result.__set__


class Violation(Enum):
    MISSING_IMAGE_PATH = "MissingImagePath"
    PROCESS_EVENT_TID = "ProcessEventTid"
    MISSING_TID = "MissingTid"
    MISSING_FILE_PATH = "MissingFilePath"
    DURATION_ON_NON_IO = "DurationOnNonIo"
    NEGATIVE_DURATION = "NegativeDuration"
    FAST_IO_WITH_MINOR = "FastIoWithMinor"
    UNKNOWN_ANNOTATION_KEY = "UnknownAnnotationKey"
    ANNOTATION_ARGS_NOT_EMPTY = "AnnotationArgsNotEmpty"
    NEGATIVE_ID = "NegativeId"


def drops_file(record: EventRecord) -> bool:
    """Whether the record drops its file: an I/O request with a file path
    that writes data, or a create that made the file.

    The schema has no create-disposition field, so a create counts only
    when its result says CREATED; a plain open drops nothing. The forest's
    dropped files and the differential's dropped-file sets share this rule.
    """
    kind = record.kind
    if not isinstance(kind, Irp) or not record.file_path:
        return False
    major = kind.code.major
    return major == IRP_MJ_WRITE or major == IRP_MJ_CREATE and record.result == "CREATED"


def validate_record(record: EventRecord) -> list[Violation]:
    """Return all invariant violations; an empty list means well-formed.

    Violations are data, not failures: callers decide whether to reject.
    """
    out: list[Violation] = []
    kind = record.kind
    if isinstance(kind, ProcessCreate):
        if not record.image_path:
            out.append(Violation.MISSING_IMAGE_PATH)
        if record.tid != 0:
            out.append(Violation.PROCESS_EVENT_TID)
    elif isinstance(kind, (ThreadCreate, ThreadExit)):
        if record.tid <= 0:
            out.append(Violation.MISSING_TID)
    elif isinstance(kind, (ImageLoad, Irp)):
        if not record.file_path and record.result == RESULT_OK:
            out.append(Violation.MISSING_FILE_PATH)
    if isinstance(kind, Annotation):
        if kind.key not in ANNOTATION_KEYS:
            out.append(Violation.UNKNOWN_ANNOTATION_KEY)
        if record.args:
            out.append(Violation.ANNOTATION_ARGS_NOT_EMPTY)
    if record.duration_us is not None:
        if not isinstance(kind, Irp):
            out.append(Violation.DURATION_ON_NON_IO)
        if record.duration_us < 0:
            out.append(Violation.NEGATIVE_DURATION)
    if isinstance(kind, Irp) and kind.mode is IoMode.FAST_IO and kind.code.minor is not None:
        out.append(Violation.FAST_IO_WITH_MINOR)
    if record.pid < 0 or record.ppid < 0 or record.tid < 0 or record.global_seq < 0:
        out.append(Violation.NEGATIVE_ID)
    return out
