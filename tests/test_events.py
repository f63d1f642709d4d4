from __future__ import annotations

import dataclasses
import inspect
import pickle
import random
from datetime import datetime

import pytest

from helpers import random_record

from lase.events import (
    IMAGE_LOAD,
    PROCESS_CREATE,
    PROCESS_EXIT,
    THREAD_CREATE,
    Annotation,
    EventRecord,
    IoMode,
    Irp,
    Violation,
    kind_name,
    op_label,
    validate_record,
)
from lase.irp import IrpCode

T0 = datetime(2024, 5, 6, 10, 0, 0)


def test_op_labels_are_fixed():
    assert op_label(PROCESS_CREATE) == "Pr Create"
    assert op_label(THREAD_CREATE) == "Tr Create"
    assert op_label(IMAGE_LOAD) == "Ld Image"
    assert op_label(Irp(IrpCode("IRP_MJ_WRITE"))) == "IRP_Write"
    assert op_label(Irp(IrpCode("IRP_MJ_SET_INFORMATION"), IoMode.SYNCHRONOUS)) == "IRP_Set_Information"
    assert op_label(Annotation("api", "RDTSC")) == "Annot"


def test_kind_name_selectors():
    assert kind_name(PROCESS_CREATE) == "ProcessCreate"
    assert kind_name(Irp(IrpCode("IRP_MJ_READ"))) == "Irp"
    assert kind_name(Annotation("api", "x")) == "Annotation"


def test_table_first_row_is_well_formed():
    # Pr Create 20:51:45:628 seq 183668 ppid 5480 pid 10092 (fixture line 1)
    record = EventRecord(
        global_seq=183668, time=datetime(2018, 10, 1, 20, 51, 45, 628000),
        kind=PROCESS_CREATE, pid=10092, ppid=5480,
        image_path="%MSOffice%\\EXCEL.EXE", args="/dde",
    )
    assert validate_record(record) == []


def test_process_create_needs_image_path():
    record = EventRecord(1, T0, PROCESS_CREATE, pid=10)
    assert validate_record(record) == [Violation.MISSING_IMAGE_PATH]


def test_process_create_is_process_scoped():
    record = EventRecord(1, T0, PROCESS_CREATE, pid=10, tid=5, image_path="x.exe")
    assert Violation.PROCESS_EVENT_TID in validate_record(record)


def test_thread_events_need_tid():
    record = EventRecord(1, T0, THREAD_CREATE, pid=10, tid=0, image_path="x.exe")
    assert validate_record(record) == [Violation.MISSING_TID]


def test_io_events_need_target_or_error():
    write = Irp(IrpCode("IRP_MJ_WRITE"))
    missing = EventRecord(1, T0, write, pid=10, image_path="x.exe")
    assert Violation.MISSING_FILE_PATH in validate_record(missing)
    errored = EventRecord(1, T0, write, pid=10, image_path="x.exe", result="ACCESS_DENIED")
    assert validate_record(errored) == []
    with_path = EventRecord(1, T0, write, pid=10, image_path="x.exe", file_path="C:\\a")
    assert validate_record(with_path) == []


def test_duration_only_on_io():
    record = EventRecord(1, T0, PROCESS_CREATE, pid=10, image_path="x.exe", duration_us=5)
    assert Violation.DURATION_ON_NON_IO in validate_record(record)


def test_fast_io_never_carries_minor():
    bad = Irp(IrpCode("IRP_MJ_MDL_READ", "IRP_MN_COMPLETE"), IoMode.FAST_IO)
    record = EventRecord(1, T0, bad, pid=10, file_path="C:\\a")
    assert Violation.FAST_IO_WITH_MINOR in validate_record(record)
    ok = Irp(IrpCode("IRP_MJ_MDL_READ"), IoMode.FAST_IO)
    assert validate_record(EventRecord(1, T0, ok, pid=10, file_path="C:\\a")) == []


def test_annotation_key_must_be_registered():
    record = EventRecord(1, T0, Annotation("nonsense", "RDTSC"), pid=10)
    assert Violation.UNKNOWN_ANNOTATION_KEY in validate_record(record)


def test_fixture_records_all_validate(fixture_trace):
    for record in fixture_trace.records:
        assert validate_record(record) == []


def test_random_well_formed_records_validate():
    rng = random.Random(1234)
    for seq in range(1, 501):
        record = random_record(rng, seq)
        assert validate_record(record) == [], record


def _sample_record() -> EventRecord:
    return EventRecord(7, T0, Irp(IrpCode("IRP_MJ_WRITE")), 44, ppid=4, tid=3, duration_us=12,
                       image_path="C:\\x.exe", file_path="C:\\f", result="OK")


def test_record_is_frozen_and_slotted():
    record = _sample_record()
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.pid = 5
    # Not a field: no slot to store it in (CPython 3.11 raises TypeError here).
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        record.extra = 1
    assert not hasattr(record, "__dict__")


def test_record_equals_and_hashes_like_its_keyword_twin():
    record = _sample_record()
    twin = EventRecord(global_seq=7, time=T0, kind=Irp(IrpCode("IRP_MJ_WRITE")), pid=44, ppid=4,
                       tid=3, duration_us=12, image_path="C:\\x.exe", args="",
                       file_path="C:\\f", result="OK")
    assert record == twin and hash(record) == hash(twin)
    assert EventRecord(1, T0, PROCESS_EXIT, 9) == EventRecord(
        1, T0, PROCESS_EXIT, 9, 0, 0, None, "", "", "", "OK")
    assert record != dataclasses.replace(twin, tid=4)


def test_record_survives_replace_and_pickle():
    record = _sample_record()
    changed = dataclasses.replace(record, args="x", pid=45)
    assert (changed.args, changed.pid, changed.file_path) == ("x", 45, "C:\\f")
    assert pickle.loads(pickle.dumps(record)) == record


def test_with_seq_changes_only_global_seq():
    record = _sample_record()
    copy = record.with_seq(99)
    assert copy.global_seq == 99 and record.global_seq == 7
    assert dataclasses.replace(copy, global_seq=7) == record




def test_record_init_keeps_the_field_signature():
    names = [f.name for f in dataclasses.fields(EventRecord)]
    assert names == ["global_seq", "time", "kind", "pid", "ppid", "tid", "duration_us",
                     "image_path", "args", "file_path", "result"]
    params = inspect.signature(EventRecord).parameters
    assert list(params) == names
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params.values())
    defaults = {f.name: f.default for f in dataclasses.fields(EventRecord)
                if f.default is not dataclasses.MISSING}
    assert {n: p.default for n, p in params.items() if p.default is not p.empty} == defaults
    assert defaults == {"ppid": 0, "tid": 0, "duration_us": None, "image_path": "", "args": "",
                        "file_path": "", "result": "OK"}


def test_record_init_by_keyword_position_and_default():
    kind = Irp(IrpCode("IRP_MJ_WRITE"))
    by_keyword = EventRecord(result="DENIED", file_path="C:\\f", args="a", image_path="C:\\x.exe",
                             duration_us=5, tid=3, ppid=2, pid=1, kind=kind, time=T0, global_seq=9)
    by_position = EventRecord(9, T0, kind, 1, 2, 3, 5, "C:\\x.exe", "a", "C:\\f", "DENIED")
    assert by_keyword == by_position
    assert [getattr(by_keyword, f.name) for f in dataclasses.fields(EventRecord)] == [
        9, T0, kind, 1, 2, 3, 5, "C:\\x.exe", "a", "C:\\f", "DENIED"]
    short = EventRecord(4, T0, PROCESS_EXIT, 8)
    assert (short.ppid, short.tid, short.duration_us, short.image_path, short.args,
            short.file_path, short.result) == (0, 0, None, "", "", "", "OK")
    assert repr(short).startswith("EventRecord(global_seq=4, time=")


@pytest.mark.parametrize("args, kwargs", [
    ((1, T0, PROCESS_EXIT), {}),
    ((1, T0), {"pid": 3}),
    ((), {"time": T0, "kind": PROCESS_EXIT, "pid": 3}),
    ((1, T0, PROCESS_EXIT, 3), {"bogus": 1}),
    ((1, T0, PROCESS_EXIT, 3), {"pid": 3}),
    ((1, T0, PROCESS_EXIT, 3, 0, 0, None, "", "", "", "OK", "extra"), {}),
])
def test_record_init_rejects_bad_arguments(args, kwargs):
    with pytest.raises(TypeError):
        EventRecord(*args, **kwargs)
