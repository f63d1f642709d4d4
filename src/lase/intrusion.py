"""Post-compromise tactic detection from process command lines.

Each process-create's command evidence is the image basename (extension
stripped) plus its arguments, whitespace-collapsed and lowercased, tested
against every rule. Detection is per process creation only: argument
fragments split across parent/child shells are not stitched together.

Rule file format matches the fingerprint signature grammar:

    category<TAB>ProcessCreate<TAB>command<TAB>regex

where category is one of the six fixed tactic categories.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum

from .codec import Trace
from .errors import SignatureParseError
from .events import Irp, ProcessCreate
from .forest import ProcessKey
from .irp import IRP_MJ_CREATE, IRP_MJ_WRITE


class Tactic(Enum):
    BACKUP_ERASURE = "BackupErasure"
    ACCOUNT_MANIPULATION = "AccountManipulation"
    PASSWORD_POLICY = "PasswordPolicy"
    GROUP_ENUMERATION = "GroupEnumeration"
    SCHEDULED_TASK = "ScheduledTask"
    HIDDEN_ACCOUNT = "HiddenAccount"


@dataclass(frozen=True)
class IntrusionRule:
    category: Tactic
    pattern: re.Pattern


@dataclass(frozen=True)
class IntrusionFinding:
    category: Tactic
    process: ProcessKey
    matched_text: str
    seq: int

    def to_dict(self) -> dict:
        return {
            "category": self.category.value,
            "pid": self.process.pid,
            "birth_seq": self.process.birth_seq,
            "matched_text": self.matched_text,
            "seq": self.seq,
        }


def normalize_command(text: str) -> str:
    """Collapse whitespace runs and lowercase; idempotent."""
    return " ".join(text.split()).lower()


def _rule(category: Tactic, pattern: str) -> IntrusionRule:
    return IntrusionRule(category, re.compile(pattern, re.IGNORECASE))


DEFAULT_RULES: tuple[IntrusionRule, ...] = (
    _rule(Tactic.BACKUP_ERASURE,
          r"vssadmin\s+delete\s+shadows|wbadmin\s+delete\s+catalog|wmic\s+shadowcopy\s+delete"),
    _rule(Tactic.ACCOUNT_MANIPULATION, r"\bnet\s+user\b|\bnet\s+localgroup\b"),
    _rule(Tactic.PASSWORD_POLICY, r"net\s+accounts\s+.*?/maxpwa?ge"),
    _rule(Tactic.GROUP_ENUMERATION, r"wmic\s+group\s+where\s+\"?sid"),
    _rule(Tactic.SCHEDULED_TASK, r"schtasks\s+(?:\S+\s+)*?/create"),
    _rule(Tactic.HIDDEN_ACCOUNT, r"reg\s+add\s+.*specialaccounts\\userlist"),
)


def command_evidence(image_path: str, args: str) -> str:
    """Image basename without extension, joined with args, normalized."""
    base = image_path.replace("/", "\\").rsplit("\\", 1)[-1]
    if "." in base:
        base = base.rsplit(".", 1)[0]
    return normalize_command(f"{base} {args}")


def scan_commands(trace: Trace,
                  rules: tuple[IntrusionRule, ...] = DEFAULT_RULES) -> list[IntrusionFinding]:
    """Test every process-create against every rule; all matches, seq order."""
    findings: list[IntrusionFinding] = []
    for record in trace.records:
        if not isinstance(record.kind, ProcessCreate):
            continue
        evidence = command_evidence(record.image_path, record.args)
        for rule in rules:
            match = rule.pattern.search(evidence)
            if match:
                findings.append(IntrusionFinding(
                    category=rule.category,
                    process=ProcessKey(record.pid, record.global_seq),  # forest.Resolver's key
                    matched_text=match.group(0),
                    seq=record.global_seq,
                ))
    return findings


def load_rules(source: str) -> tuple[IntrusionRule, ...]:
    """Parse a rule file (same line grammar as fingerprint signatures)."""
    categories = {t.value: t for t in Tactic}
    rules: list[IntrusionRule] = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise SignatureParseError(f"expected 4 tab-separated fields, got {len(parts)}", line_no)
        name, kind, field, regex = parts
        if name not in categories:
            raise SignatureParseError(f"unknown category {name!r}", line_no)
        if kind != "ProcessCreate" or field != "command":
            raise SignatureParseError("intrusion rules use kind=ProcessCreate field=command", line_no)
        try:
            rules.append(IntrusionRule(categories[name], re.compile(regex, re.IGNORECASE)))
        except re.error as exc:
            raise SignatureParseError(f"bad regex: {exc}", line_no) from None
    return tuple(rules)


@dataclass(frozen=True)
class SessionDwell:
    label: str
    first_event_time: datetime
    first_finding_time: datetime | None

    @property
    def latency(self) -> timedelta | None:
        if self.first_finding_time is None:
            return None
        return self.first_finding_time - self.first_event_time


@dataclass(frozen=True)
class DwellStats:
    sessions: tuple[SessionDwell, ...]
    mean_latency: timedelta | None
    median_latency: timedelta | None
    n_clean: int


def dwell_stats(traces: list[Trace],
                rules: tuple[IntrusionRule, ...] = DEFAULT_RULES,
                labels: list[str] | None = None) -> DwellStats:
    """Latency from trace start to first finding, aggregated across traces.

    Traces without findings are counted separately (n_clean). Every trace
    must be nonempty.
    """
    sessions: list[SessionDwell] = []
    for i, trace in enumerate(traces):
        if not trace.records:
            raise ValueError(f"trace {i} is empty")
        label = labels[i] if labels else f"trace-{i}"
        findings = scan_commands(trace, rules)
        first_finding = None
        if findings:  # in record order, so the first is the earliest
            first_seq = findings[0].seq
            first_finding = next(r.time for r in trace.records if r.global_seq == first_seq)
        sessions.append(SessionDwell(label, trace.records[0].time, first_finding))
    latencies = [s.latency for s in sessions if s.latency is not None]
    mean = sum(latencies, timedelta()) / len(latencies) if latencies else None
    median = statistics.median(latencies) if latencies else None
    return DwellStats(tuple(sessions), mean, median, len(sessions) - len(latencies))


SYSTEM32_WRITE_PATTERN = re.compile(r"\\windows\\system32\\", re.IGNORECASE)


def find_system32_writes(trace: Trace) -> list[tuple[int, str]]:
    """Experimental privilege-escalation heuristic: write-class I/O into
    the system32 tree. Returns (seq, path) pairs; not part of the default
    ruleset."""
    hits: list[tuple[int, str]] = []
    for record in trace.records:
        kind = record.kind
        if isinstance(kind, Irp) and kind.code.major in (IRP_MJ_WRITE, IRP_MJ_CREATE):
            if record.file_path and SYSTEM32_WRITE_PATTERN.search(record.file_path.replace("/", "\\")):
                hits.append((record.global_seq, record.file_path))
    return hits
