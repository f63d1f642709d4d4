"""Declarative signatures for environment-fingerprinting behavior.

A signature is a named set of matchers; each matcher selects an event kind,
one text field of the record, and a case-insensitive regular expression.
Path separators are normalized to backslash before matching. CPU-level
checks (RDTSC, tick counters, firmware table reads) are invisible to file
and process telemetry, so they match against annotation events produced by
external API tooling; WMI and BIOS probing have observable process/image
footprints and match those directly.

Signature file format, one matcher per line, "#" comments:

    name<TAB>kind<TAB>field<TAB>regex[<TAB>flags]

kind is one of ProcessCreate/ProcessExit/ThreadCreate/ThreadExit/ImageLoad/
Irp/Annotation or "*"; field is image_path, file_path, args, or
annotation[KEY]; flags (first line of a signature only) may include "all"
(every matcher must hit) and "trace" (trace-wide scope instead of
per-process). Consecutive lines with the same name extend one signature.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .codec import MEMO_TEXT_CHARS, Trace
from .errors import SignatureParseError
from .events import KIND_NAMES, Annotation, EventRecord, kind_name
from .forest import ProcessKey, Resolver

_FIELDS = ("image_path", "file_path", "args", "annotation")

# Per scan and matcher: hit or miss per distinct field text (a path repeats
# on many records), bounded like the codec's text memo: at most _TEXT_MEMO
# texts, each at most MEMO_TEXT_CHARS long.
_TEXT_MEMO = 4096

DEFAULT_SIGNATURE_TEXT = """\
# built-in environment fingerprinting checks
calls-wmi\tProcessCreate\timage_path\twbem[\\\\/]+wmiprvse\\.exe
calls-wmi\tImageLoad\tfile_path\twbem(comn|prox|svc)\\.dll
direct-cpu-clock-access\tAnnotation\tannotation[api]\t^(RDTSC|QueryPerformanceCounter)$
GetTickCount\tAnnotation\tannotation[api]\t^GetTickCount(64)?$
checks-bios\tImageLoad\tfile_path\t(smbios|firmware|\\\\drivers\\\\.*bios)
checks-bios\tIrp\tfile_path\t(smbios|firmware|\\\\drivers\\\\.*bios)
checks-bios\tAnnotation\tannotation[api]\t^(GetSystemFirmwareTable|EnumSystemFirmwareTables)$
"""


@dataclass(frozen=True)
class Matcher:
    kind: str              # selector name or "*"
    field: str             # image_path | file_path | args | annotation
    annotation_key: str    # set when field == "annotation"
    pattern: re.Pattern

    def text_of(self, record: EventRecord) -> str | None:
        """Field text of a record of the matcher's kind, or None when an
        annotation field does not apply to it."""
        if self.field == "annotation":
            kind = record.kind
            if not isinstance(kind, Annotation) or self.annotation_key and kind.key != self.annotation_key:
                return None
            return kind.value
        return getattr(record, self.field)

    def hits(self, text: str) -> bool:
        """Whether the pattern matches field text, separators normalized."""
        return self.pattern.search(text.replace("/", "\\")) is not None

    def matches(self, record: EventRecord) -> bool:
        if self.kind != "*" and kind_name(record.kind) != self.kind:
            return False
        text = self.text_of(record)
        return text is not None and self.hits(text)


@dataclass(frozen=True)
class FingerprintSignature:
    name: str
    matchers: tuple[Matcher, ...]
    require_all: bool = False
    scope: str = "process"  # or "trace"


@dataclass(frozen=True)
class FingerprintFinding:
    signature: str
    process: ProcessKey
    evidence: tuple[int, ...]  # sorted global_seq values

    @property
    def first_seq(self) -> int:
        return self.evidence[0]

    def to_dict(self) -> dict:
        return {
            "signature": self.signature,
            "pid": self.process.pid,
            "birth_seq": self.process.birth_seq,
            "evidence": list(self.evidence),
            "first_seq": self.first_seq,
        }


def _parse_matcher(kind: str, field_spec: str, regex: str, line_no: int) -> Matcher:
    if kind != "*" and kind not in KIND_NAMES:
        raise SignatureParseError(f"unknown event kind {kind!r}", line_no)
    ann_key = ""
    field = field_spec
    if field_spec.startswith("annotation"):
        field = "annotation"
        if field_spec != "annotation":
            m = re.fullmatch(r"annotation\[([^\]]+)\]", field_spec)
            if not m:
                raise SignatureParseError(f"bad field {field_spec!r}", line_no)
            ann_key = m.group(1)
    if field not in _FIELDS:
        raise SignatureParseError(f"unknown field {field_spec!r}", line_no)
    try:
        pattern = re.compile(regex, re.IGNORECASE)
    except re.error as exc:
        raise SignatureParseError(f"bad regex: {exc}", line_no) from None
    return Matcher(kind, field, ann_key, pattern)


def load_signatures(source: str) -> list[FingerprintSignature]:
    """Parse the text of a signature file."""
    groups: list[tuple[str, list[Matcher], set[str]]] = []
    seen: set[str] = set()
    for line_no, line in enumerate(source.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (4, 5):
            raise SignatureParseError(f"expected 4 or 5 tab-separated fields, got {len(parts)}", line_no)
        name, kind, field_spec, regex = parts[:4]
        flags = set(parts[4].split(",")) - {""} if len(parts) == 5 else set()
        if bad := flags - {"all", "trace"}:
            raise SignatureParseError(f"unknown flags {sorted(bad)}", line_no)
        matcher = _parse_matcher(kind, field_spec, regex, line_no)
        if groups and groups[-1][0] == name:
            groups[-1][1].append(matcher)
            groups[-1][2].update(flags)
        else:
            if name in seen:
                raise SignatureParseError(f"duplicate signature name {name!r}", line_no)
            seen.add(name)
            groups.append((name, [matcher], set(flags)))
    return [
        FingerprintSignature(
            name=name,
            matchers=tuple(matchers),
            require_all="all" in flags,
            scope="trace" if "trace" in flags else "process",
        )
        for name, matchers, flags in groups
    ]


def default_signatures() -> list[FingerprintSignature]:
    """The 4 built-in signatures."""
    return load_signatures(DEFAULT_SIGNATURE_TEXT)


def scan(trace: Trace, signatures: list[FingerprintSignature]) -> list[FingerprintFinding]:
    """One finding per (signature, process) carrying all matching evidence.

    Each record belongs to the process instance forest.Resolver gives it,
    the same one the process forest attributes it to. Deterministic order:
    (first evidence seq, signature name).
    """
    resolve = Resolver().resolve
    by_kind: dict[str, list[tuple[FingerprintSignature, int, Matcher, dict[str, bool]]]] = {}
    for sig in signatures:
        for mi, matcher in enumerate(sig.matchers):
            by_kind.setdefault(matcher.kind, []).append((sig, mi, matcher, {}))
    wildcard = by_kind.pop("*", [])
    # hits[sig_name][process][matcher_index] -> seqs
    hits: dict[str, dict[ProcessKey, dict[int, list[int]]]] = {s.name: {} for s in signatures}
    trace_key: dict[str, ProcessKey] = {}
    for record in trace.records:
        key = resolve(record)
        candidates = by_kind.get(kind_name(record.kind))
        for sig, mi, matcher, memo in (candidates + wildcard if candidates else wildcard):
            text = matcher.text_of(record)
            if text is None:
                continue
            hit = memo.get(text)
            if hit is None:
                hit = matcher.hits(text)
                if len(memo) < _TEXT_MEMO and len(text) <= MEMO_TEXT_CHARS:
                    memo[text] = hit
            if hit:
                group = key if sig.scope == "process" else trace_key.setdefault(sig.name, key)
                hits[sig.name].setdefault(group, {}).setdefault(mi, []).append(record.global_seq)
    findings = []
    for sig in signatures:
        for process, per_matcher in hits[sig.name].items():
            if sig.require_all and len(per_matcher) < len(sig.matchers):
                continue
            evidence = sorted(seq for seqs in per_matcher.values() for seq in seqs)
            findings.append(FingerprintFinding(sig.name, process, tuple(evidence)))
    findings.sort(key=lambda f: (f.first_seq, f.signature))
    return findings
