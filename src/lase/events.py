"""Canonical event taxonomy and the record type every other module consumes.

An event is one of: process create/exit, thread create/exit, image load, an
I/O request (an IrpCode plus an I/O mode), or an annotation (a key/value
marker for API-level observations such as RDTSC that file and process
telemetry cannot express). All types are immutable values after
construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from enum import Enum

from .irp import IrpCode

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

RESULT_OK = "OK"


def op_label(kind: EventKind) -> str:
    """Fixed display label for the trace "Operation" column."""
    if isinstance(kind, Irp):
        return kind.code.label
    return kind.label


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


def is_error_result(result: str) -> bool:
    return result != RESULT_OK


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
        if not record.file_path and not is_error_result(record.result):
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
