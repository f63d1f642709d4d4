from __future__ import annotations

import pytest

from lase.errors import UnknownIrp
from lase.irp import (
    FAST_IO_MAJORS,
    FS_FILTER_MAJORS,
    IDENTIFIER_COUNT,
    MAJOR_COUNT,
    MAJOR_REGISTRY,
    MINOR_COUNT,
    MINOR_REGISTRY,
    IrpCode,
    irp_code_from_label,
    major_label,
    parse_irp_code,
)


def test_registry_sizes_are_fixed():
    assert MAJOR_COUNT == 45
    assert MINOR_COUNT == 48
    assert IDENTIFIER_COUNT == 93
    assert len(set(MAJOR_REGISTRY)) == 45
    assert len(set(MINOR_REGISTRY)) == 48


def test_registry_group_sizes():
    assert len(FAST_IO_MAJORS) == 9
    assert len(FS_FILTER_MAJORS) == 7
    assert MAJOR_REGISTRY[0] == "IRP_MJ_CREATE"
    assert MAJOR_REGISTRY[-1] == "IRP_MJ_NOTIFY_STREAM_FO_CREATION"
    assert MINOR_REGISTRY[0] == "IRP_MN_REGINFO"
    assert MINOR_REGISTRY[-1] == "IRP_MN_ENABLE_COLLECTION"


def test_parse_canonical_major():
    code = parse_irp_code("IRP_MJ_WRITE")
    assert code == IrpCode("IRP_MJ_WRITE")
    assert code.minor is None


def test_parse_is_case_insensitive():
    assert parse_irp_code("irp_mj_create") == IrpCode("IRP_MJ_CREATE")
    assert parse_irp_code("IRP_WRITE") == IrpCode("IRP_MJ_WRITE")


def test_parse_label_form():
    assert parse_irp_code("IRP_Write") == IrpCode("IRP_MJ_WRITE")
    assert parse_irp_code("IRP_Set_Information") == IrpCode("IRP_MJ_SET_INFORMATION")


def test_unknown_irp_rejected():
    with pytest.raises(UnknownIrp):
        parse_irp_code("IRP_MJ_BOGUS")
    with pytest.raises(UnknownIrp):
        parse_irp_code("")
    with pytest.raises(UnknownIrp):
        parse_irp_code("IRP_MN_REGINFO")  # a minor cannot stand alone


def test_label_examples():
    assert major_label("IRP_MJ_WRITE") == "IRP_Write"
    assert major_label("IRP_MJ_CREATE") == "IRP_Create"
    assert major_label("IRP_MJ_SET_INFORMATION") == "IRP_Set_Information"


def test_all_majors_round_trip_via_label():
    for major in MAJOR_REGISTRY:
        code = IrpCode(major)
        assert parse_irp_code(code.label) == code
        assert parse_irp_code(major) == code
        assert irp_code_from_label(code.label) == code
        with pytest.raises(UnknownIrp):
            irp_code_from_label(major)  # the trace form is the label only


def test_all_minors_round_trip_paired():
    for minor in MINOR_REGISTRY:
        code = IrpCode("IRP_MJ_DIRECTORY_CONTROL", minor)
        assert parse_irp_code(code.label) == code
        assert parse_irp_code(f"IRP_MJ_DIRECTORY_CONTROL/{minor}") == code
        assert irp_code_from_label(code.label) == code
        with pytest.raises(UnknownIrp):
            irp_code_from_label(code.label.upper())


def test_composite_parse_mixed_forms():
    code = parse_irp_code("IRP_Directory_Control/IRP_MN_QUERY_DIRECTORY")
    assert code.major == "IRP_MJ_DIRECTORY_CONTROL"
    assert code.minor == "IRP_MN_QUERY_DIRECTORY"
    with pytest.raises(UnknownIrp):
        parse_irp_code("IRP_MJ_WRITE/IRP_MN_BOGUS")


def test_irpcode_constructor_validates():
    with pytest.raises(UnknownIrp):
        IrpCode("IRP_MJ_NOT_A_THING")
    with pytest.raises(UnknownIrp):
        IrpCode("IRP_MJ_WRITE", "IRP_MN_NOT_A_THING")


# "ı" is the dotless i, which str.upper() turns into an ASCII "I".
@pytest.mark.parametrize("major, minor", [
    ("irp_mj_write", None), ("IRP_Write", None), ("ırp_mj_wrıte", None),
    ("IRP_MJ_DIRECTORY_CONTROL", "irp_mn_query_directory"),
    ("IRP_MJ_DIRECTORY_CONTROL", "Query_Directory"),
])
def test_irpcode_takes_only_canonical_identifiers(major, minor):
    with pytest.raises(UnknownIrp):
        IrpCode(major, minor)


def test_parse_reads_every_other_spelling_but_no_look_alike():
    write = IrpCode("IRP_MJ_WRITE")
    for name in ("irp_mj_write", "IRP_Write", "irp_write", "IRP_MJ_WRITE"):
        assert parse_irp_code(name) == write
    query = IrpCode("IRP_MJ_DIRECTORY_CONTROL", "IRP_MN_QUERY_DIRECTORY")
    assert parse_irp_code("irp_directory_control/query_directory") == query
    for name in ("ırp_mj_wrıte", "IRP_Wrıte"):
        with pytest.raises(UnknownIrp):
            parse_irp_code(name)


def test_fast_io_membership():
    assert IrpCode("IRP_MJ_NETWORK_QUERY_OPEN").is_fast_io()
    assert not IrpCode("IRP_MJ_WRITE").is_fast_io()
