"""Post-compromise tactic detection from process command lines.

Each process-create's command evidence is the image basename (extension
stripped) plus its arguments, whitespace-collapsed and lowercased, tested
against every rule. Detection is per process creation only: argument
fragments split across parent/child shells are not stitched together.

Rule file format matches the fingerprint signature grammar, with no
flags column: a rule line has exactly four columns,

    category<TAB>ProcessCreate<TAB>command<TAB>regex

where category is one of the six fixed tactic categories.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum

from .codec import Trace
from .errors import SignatureParseError
from .events import EventRecord, ProcessCreate, path_basename
from .forest import ProcessKey, folded


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
    time: datetime  # of the process create; dwell latency runs to it

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
    base = path_basename(image_path).rsplit(".", 1)[0]
    return normalize_command(f"{base} {args}")


class CommandScan:
    """scan_commands as a fold; it reads only the creates."""

    kinds = frozenset({ProcessCreate.__name__})

    def __init__(self, rules: tuple[IntrusionRule, ...]):
        self.rules = rules
        self.findings: list[IntrusionFinding] = []

    def feed(self, record: EventRecord) -> None:
        if not isinstance(record.kind, ProcessCreate):
            return
        evidence = command_evidence(record.image_path, record.args)
        for rule in self.rules:
            if match := rule.pattern.search(evidence):
                self.findings.append(IntrusionFinding(  # the process is forest.Resolver's key
                    rule.category, ProcessKey(record.pid, record.global_seq), match.group(0),
                    record.global_seq, record.time))

    def result(self) -> list[IntrusionFinding]:
        return self.findings


def scan_commands(trace: Trace,
                  rules: tuple[IntrusionRule, ...] = DEFAULT_RULES) -> list[IntrusionFinding]:
    """Test every process-create against every rule; all matches, seq order."""
    return folded(CommandScan(rules), trace.records)


def load_rules(source: str) -> tuple[IntrusionRule, ...]:
    """Parse a rule file (the line grammar of fingerprint signatures, but
    exactly four columns: a rule takes no flags column)."""
    categories = {t.value: t for t in Tactic}
    rules: list[IntrusionRule] = []
    for line_no, line in enumerate(source.splitlines(), start=1):
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


def dwell_stats(traces: list[Trace], findings: list[list[IntrusionFinding]],
                labels: list[str] | None = None) -> DwellStats:
    """Latency from trace start to first finding, aggregated across traces.

    findings[i] is scan_commands(traces[i]), in record order, so its first
    finding is the earliest. Traces without findings are counted
    separately (n_clean). An empty trace is skipped: it is neither a
    session nor clean.
    """
    sessions: list[SessionDwell] = []
    for i, (trace, found) in enumerate(zip(traces, findings, strict=True)):
        if not trace.records:
            continue
        label = labels[i] if labels else f"trace-{i}"
        sessions.append(SessionDwell(label, trace.records[0].time,
                                     found[0].time if found else None))
    latencies = sorted(s.latency for s in sessions if s.latency is not None)
    mean = median = None
    if latencies:
        mean = sum(latencies, timedelta()) / len(latencies)
        # statistics.median's rule, without loading statistics for one call
        mid = len(latencies) // 2
        median = latencies[mid] if len(latencies) % 2 else (latencies[mid - 1] + latencies[mid]) / 2
    return DwellStats(tuple(sessions), mean, median, len(sessions) - len(latencies))
