"""I/O request packet taxonomy: the major/minor identifier registries.

The registry is fixed: 45 major identifiers (standard, fast-I/O and
filesystem-filter groups) and 48 minor identifiers, 93 identifiers total.
Identifiers parse case-insensitively, either in canonical form
("IRP_MJ_WRITE") or in the display form used in trace files ("IRP_Write");
a minor rides along as "MAJOR/MINOR" since a minor never stands alone.
Trace files themselves hold only the exact display form
(irp_code_from_label), so every label re-encodes to the same bytes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import UnknownIrp

_STANDARD_MAJORS = (
    "IRP_MJ_CREATE",
    "IRP_MJ_CREATE_NAMED_PIPE",
    "IRP_MJ_CLOSE",
    "IRP_MJ_READ",
    "IRP_MJ_WRITE",
    "IRP_MJ_QUERY_INFORMATION",
    "IRP_MJ_SET_INFORMATION",
    "IRP_MJ_QUERY_EA",
    "IRP_MJ_SET_EA",
    "IRP_MJ_FLUSH_BUFFERS",
    "IRP_MJ_QUERY_VOLUME_INFORMATION",
    "IRP_MJ_SET_VOLUME_INFORMATION",
    "IRP_MJ_DIRECTORY_CONTROL",
    "IRP_MJ_FILE_SYSTEM_CONTROL",
    "IRP_MJ_DEVICE_CONTROL",
    "IRP_MJ_INTERNAL_DEVICE_CONTROL",
    "IRP_MJ_SHUTDOWN",
    "IRP_MJ_LOCK_CONTROL",
    "IRP_MJ_CLEANUP",
    "IRP_MJ_CREATE_MAILSLOT",
    "IRP_MJ_QUERY_SECURITY",
    "IRP_MJ_SET_SECURITY",
    "IRP_MJ_POWER",
    "IRP_MJ_SYSTEM_CONTROL",
    "IRP_MJ_DEVICE_CHANGE",
    "IRP_MJ_QUERY_QUOTA",
    "IRP_MJ_SET_QUOTA",
    "IRP_MJ_PNP",
    "IRP_MJ_TRANSACTION_NOTIFY",
)

_FAST_IO_MAJORS = (
    "IRP_MJ_FAST_IO_CHECK_IF_POSSIBLE",
    "IRP_MJ_DETACH_DEVICE",
    "IRP_MJ_NETWORK_QUERY_OPEN",
    "IRP_MJ_MDL_READ",
    "IRP_MJ_MDL_READ_COMPLETE",
    "IRP_MJ_PREPARE_MDL_WRITE",
    "IRP_MJ_MDL_WRITE_COMPLETE",
    "IRP_MJ_VOLUME_MOUNT",
    "IRP_MJ_VOLUME_DISMOUNT",
)

_FS_FILTER_MAJORS = (
    "IRP_MJ_ACQUIRE_FOR_SECTION_SYNCHRONIZATION",
    "IRP_MJ_RELEASE_FOR_SECTION_SYNCHRONIZATION",
    "IRP_MJ_ACQUIRE_FOR_MOD_WRITE",
    "IRP_MJ_RELEASE_FOR_MOD_WRITE",
    "IRP_MJ_ACQUIRE_FOR_CC_FLUSH",
    "IRP_MJ_RELEASE_FOR_CC_FLUSH",
    "IRP_MJ_NOTIFY_STREAM_FO_CREATION",
)

MAJOR_REGISTRY: tuple[str, ...] = _STANDARD_MAJORS + _FAST_IO_MAJORS + _FS_FILTER_MAJORS

MINOR_REGISTRY: tuple[str, ...] = (
    "IRP_MN_REGINFO",
    "IRP_MN_QUERY_DIRECTORY",
    "IRP_MN_NOTIFY_CHANGE_DIRECTORY",
    "IRP_MN_USER_FS_REQUEST",
    "IRP_MN_MOUNT_VOLUME",
    "IRP_MN_VERIFY_VOLUME",
    "IRP_MN_LOAD_FILE_SYSTEM",
    "IRP_MN_TRACK_LINK",
    "IRP_MN_LOCK",
    "IRP_MN_UNLOCK_SINGLE",
    "IRP_MN_UNLOCK_ALL",
    "IRP_MN_UNLOCK_ALL_BY_KEY",
    "IRP_MN_NORMAL",
    "IRP_MN_DPC",
    "IRP_MN_MDL",
    "IRP_MN_COMPLETE",
    "IRP_MN_COMPRESSED",
    "IRP_MN_MDL_DPC",
    "IRP_MN_QUERY_ALL_DATA",
    "IRP_MN_COMPLETE_MDL_DPC",
    "IRP_MN_SCSI_CLASS",
    "IRP_MN_START_DEVICE",
    "IRP_MN_QUERY_REMOVE_DEVICE",
    "IRP_MN_REMOVE_DEVICE",
    "IRP_MN_CANCEL_REMOVE_DEVICE",
    "IRP_MN_STOP_DEVICE",
    "IRP_MN_QUERY_STOP_DEVICE",
    "IRP_MN_CANCEL_STOP_DEVICE",
    "IRP_MN_QUERY_DEVICE_RELATIONS",
    "IRP_MN_QUERY_INTERFACE",
    "IRP_MN_SET_LOCK",
    "IRP_MN_QUERY_CAPABILITIES",
    "IRP_MN_QUERY_RESOURCES",
    "IRP_MN_QUERY_RESOURCE_REQUIREMENTS",
    "IRP_MN_QUERY_DEVICE_TEXT",
    "IRP_MN_FILTER_RESOURCE_REQUIREMENTS",
    "IRP_MN_READ_CONFIG",
    "IRP_MN_WRITE_CONFIG",
    "IRP_MN_EJECT",
    "IRP_MN_DISABLE_COLLECTION",
    "IRP_MN_EXECUTE_METHOD",
    "IRP_MN_QUERY_ID",
    "IRP_MN_QUERY_PNP_DEVICE_STATE",
    "IRP_MN_QUERY_BUS_INFORMATION",
    "IRP_MN_DEVICE_USAGE_NOTIFICATION",
    "IRP_MN_SURPRISE_REMOVAL",
    "IRP_MN_QUERY_LEGACY_BUS_INFORMATION",
    "IRP_MN_ENABLE_COLLECTION",
)

MAJOR_COUNT = len(MAJOR_REGISTRY)
MINOR_COUNT = len(MINOR_REGISTRY)
IDENTIFIER_COUNT = MAJOR_COUNT + MINOR_COUNT

FAST_IO_MAJORS = frozenset(_FAST_IO_MAJORS)
FS_FILTER_MAJORS = frozenset(_FS_FILTER_MAJORS)

# Common majors, exported for callers that key on them.
IRP_MJ_CREATE = "IRP_MJ_CREATE"
IRP_MJ_CLOSE = "IRP_MJ_CLOSE"
IRP_MJ_READ = "IRP_MJ_READ"
IRP_MJ_WRITE = "IRP_MJ_WRITE"
IRP_MJ_SET_INFORMATION = "IRP_MJ_SET_INFORMATION"
IRP_MJ_QUERY_INFORMATION = "IRP_MJ_QUERY_INFORMATION"


def _label_token(identifier: str, prefix: str) -> str:
    words = identifier[len(prefix):].split("_")
    return "_".join(w[:1].upper() + w[1:].lower() for w in words)


def major_label(major: str) -> str:
    """Display form of a major identifier, e.g. IRP_MJ_WRITE -> "IRP_Write"."""
    return "IRP_" + _label_token(major, "IRP_MJ_")


def minor_label(minor: str) -> str:
    """Display form of a minor identifier, e.g. IRP_MN_REGINFO -> "Reginfo"."""
    return _label_token(minor, "IRP_MN_")


_MAJOR_LOOKUP: dict[str, str] = {}
for _m in MAJOR_REGISTRY:
    _MAJOR_LOOKUP[_m.upper()] = _m
    _MAJOR_LOOKUP[major_label(_m).upper()] = _m

_MINOR_LOOKUP: dict[str, str] = {}
for _n in MINOR_REGISTRY:
    _MINOR_LOOKUP[_n.upper()] = _n
    _MINOR_LOOKUP[minor_label(_n).upper()] = _n

# Exact display labels, one entry per registered identifier.
_MAJOR_BY_LABEL = {major_label(m): m for m in MAJOR_REGISTRY}
_MINOR_BY_LABEL = {minor_label(n): n for n in MINOR_REGISTRY}


@dataclass(frozen=True)
class IrpCode:
    """Validated (major, optional minor) I/O request identifier pair."""

    major: str
    minor: str | None = None

    def __post_init__(self):
        if self.major not in _MAJOR_LOOKUP.values() and self.major.upper() not in _MAJOR_LOOKUP:
            raise UnknownIrp(self.major)
        object.__setattr__(self, "major", _MAJOR_LOOKUP[self.major.upper()])
        if self.minor is not None:
            if self.minor.upper() not in _MINOR_LOOKUP:
                raise UnknownIrp(self.minor)
            object.__setattr__(self, "minor", _MINOR_LOOKUP[self.minor.upper()])

    @functools.cached_property
    def label(self) -> str:
        """Operation-column form: major label, plus "/minor" when present."""
        if self.minor is None:
            return major_label(self.major)
        return f"{major_label(self.major)}/{minor_label(self.minor)}"

    def is_fast_io(self) -> bool:
        return self.major in FAST_IO_MAJORS


def parse_irp_code(name: str) -> IrpCode:
    """Parse an IRP identifier into its canonical code.

    Accepts the canonical major ("IRP_MJ_WRITE"), its display form
    ("IRP_Write"), or a "MAJOR/MINOR" composite where each side may use
    either form. Matching is case-insensitive. Raises UnknownIrp for
    anything not in the registries.
    """
    if not name or not name.isascii():
        raise UnknownIrp(name)
    major_part, sep, minor_part = name.partition("/")
    major = _MAJOR_LOOKUP.get(major_part.strip().upper())
    if major is None:
        raise UnknownIrp(name)
    if not sep:
        return IrpCode(major)
    minor = _MINOR_LOOKUP.get(minor_part.strip().upper())
    if minor is None:
        raise UnknownIrp(name)
    return IrpCode(major, minor)


def irp_code_from_label(label: str) -> IrpCode:
    """The code whose display label (IrpCode.label) is exactly label.

    Unlike parse_irp_code, this accepts no other spelling: no canonical
    identifier, no case or spacing variant. Raises UnknownIrp otherwise.
    """
    major_text, sep, minor_text = label.partition("/")
    major = _MAJOR_BY_LABEL.get(major_text)
    minor = _MINOR_BY_LABEL.get(minor_text) if sep else None
    if major is None or (sep and minor is None):
        raise UnknownIrp(label)
    return IrpCode(major, minor)
