"""The CLI contract: exit code, stdout and stderr of a fixed table of
invocations, each pinned by the sha256 of the three.

Every input is built at test time from the packaged fixture and fixed
seeds; no trace file is committed. Commands run in process, from the input
directory, so messages name relative paths. Gzip output is compared after
decompression; tests/test_codec.py checks that the compressed bytes do not
depend on the time of writing. `bench` times the host disk, so only its
exit code is pinned.

A changed digest is a change that users see: re-pin it only together with
a line in CHANGES.md that names the case and the reason.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import shutil
import sys
import threading
from datetime import timedelta
from pathlib import Path

import pytest

from helpers import BASE_TIME, chain

from lase import cli
from lase.codec import TraceHeader, resequence, trace_from_records, write_trace
from lase.events import (
    IMAGE_LOAD,
    PROCESS_CREATE,
    PROCESS_EXIT,
    THREAD_CREATE,
    THREAD_EXIT,
    Annotation,
    EventRecord,
    Irp,
)
from lase.fixtures import macro_malware_path
from lase.irp import IrpCode
from lase.pipeline import WorkloadSpec, run_synthetic

HEADER = "#LASEv1\n#date\t2024/01/01\n"
LINE = "IRP_Read\t09:00:00:000\t5\t{seq}\t0\t44\t0\tC:\\x.exe\t\tC:\\f\t"


def _bad_line(**fields: str) -> str:
    """LINE at seq 2 with some columns replaced."""
    columns = ("operation", "time", "duration_us", "global_seq", "ppid", "pid", "tid",
               "image_path", "args", "file_path", "result")
    row = dict(zip(columns, LINE.format(seq=2).split("\t")))
    row.update(fields)
    return "\t".join(row[c] for c in columns)


def _text(*lines: str) -> bytes:
    return (HEADER + "".join(line + "\n" for line in lines)).encode("utf-8")


def _after_good(line: str) -> bytes:
    return _text(LINE.format(seq=1), line)


# One invalid trace per error class and column the reader reports.
INVALID = {
    "fields": _after_good("IRP_Read\t09:00:00:000\t5"),
    "time": _after_good(_bad_line(time="x9:00:00:000")),
    "duration": _after_good(_bad_line(duration_us="-5")),
    "seq": _after_good(_bad_line(global_seq="x")),
    "ppid": _after_good(_bad_line(ppid="01")),
    "pid": _after_good(_bad_line(pid="4 4")),
    "tid": _after_good(_bad_line(tid="")),
    "seq64": _after_good(_bad_line(global_seq=str(2**64))),
    "mode": _after_good(_bad_line(args="turbo")),
    "annot": _after_good(_bad_line(operation="Annot", duration_us="", args="RDTSC")),
    "result-ok": _after_good(_bad_line(result="OK")),
    "escape-image": _after_good(_bad_line(image_path="C:\\\\q")),
    "escape-args": _after_good(_bad_line(operation="Pr Create", duration_us="",
                                         args="a\\\\", file_path="")),
    "escape-file": _after_good(_bad_line(file_path="C:\\\\q")),
    "escape-result": _after_good(_bad_line(result="E\\\\q")),
    "validation": _after_good("Tr Create\t09:00:00:000\t\t2\t0\t44\t0\tC:\\x.exe\t\t\t"),
    "irp": _after_good(_bad_line(operation="IRP_Bogus")),
    "order": _after_good(LINE.format(seq=1)),
    "magic": b"#LASEv0\n#date\t2024/01/01\n",
    "empty": b"",
    "date": b"#LASEv1\n#date\t2024/1/1\n",
    "host": b"#LASEv1\n#date\t2024/01/01\n#host\tlab\\\\x\n",
    "env": b"#LASEv1\n#date\t2024/01/01\n#env\tcloud\n",
    "utf8": _after_good(_bad_line(file_path="C:\\@")).replace(b"@", b"\xff"),
    "gzip": gzip.compress(_text(LINE.format(seq=1)), mtime=0)[:-12],
}


def _ev(seq: int, kind, pid: int, ppid: int = 0, tid: int = 0, image: str = "C:\\bin\\a.exe",
        args: str = "", file_path: str = "", result: str = "OK") -> EventRecord:
    duration = 40 if isinstance(kind, Irp) else None
    return EventRecord(seq, BASE_TIME + timedelta(milliseconds=7 * seq), kind, pid, ppid, tid,
                       duration, image, args, file_path, result)


def _irp(major: str) -> Irp:
    return Irp(IrpCode(major))


def _shapes():
    """Forest edge cases: a parent that exits before its child starts, a
    create for a live pid, events and an exit for an exited pid, an exit
    for an unknown tid, a remote thread that loads an image, pid reuse,
    creates that do and do not make a file, and an error without a path."""
    create, write, read = _irp("IRP_MJ_CREATE"), _irp("IRP_MJ_WRITE"), _irp("IRP_MJ_READ")
    svc, tool = "C:\\Windows\\System32\\svchost.exe", "C:\\Users\\u\\tool.exe"
    rows = [
        (PROCESS_CREATE, 100, 4, 0, svc, "-k netsvcs"),
        (PROCESS_CREATE, 200, 100, 0, tool, "/run"),
        (PROCESS_EXIT, 100, 0, 0, svc),
        (PROCESS_CREATE, 300, 100, 0, "C:\\victim.exe"),
        (THREAD_EXIT, 200, 0, 777, tool),
        (PROCESS_CREATE, 200, 4, 0, tool, "/again"),
        (write, 100, 0, 0, svc, "", "C:\\late.txt"),
        (PROCESS_EXIT, 100, 0, 0, svc),
        (THREAD_CREATE, 300, 0, 5, "C:\\victim.exe"),
        (THREAD_CREATE, 300, 0, 7, tool),
        (IMAGE_LOAD, 300, 0, 0, "C:\\victim.exe", "", "C:\\payload.dll"),
        (create, 300, 0, 0, "C:\\victim.exe", "", "C:\\Temp\\new.exe", "CREATED"),
        (create, 300, 0, 0, "C:\\victim.exe", "", "C:\\Temp\\old.doc"),
        (read, 300, 0, 0, "C:\\victim.exe", "", "", "ACCESS_DENIED"),
        (write, 300, 0, 7, "C:\\victim.exe", "", "C:\\Windows\\System32\\evil.dll"),
        (Annotation("api", "RDTSC"), 999, 0, 0, ""),
        (PROCESS_EXIT, 300, 0, 0, "C:\\victim.exe"),
        (PROCESS_CREATE, 300, 200, 0, "C:\\reborn.exe", "x"),
        (write, 300, 0, 0, "C:\\reborn.exe", "", "C:\\Temp\\new.exe:ads.vbs"),
    ]
    return trace_from_records([_ev(i + 1, *row) for i, row in enumerate(rows)])


def _reused_parent():
    """Pid reuse: pid 30's first record is its exit, so its (30, 0) exits;
    30 is then created, exits, and is named as a parent before it acts
    again, which makes (30, 0) live. A remote thread, an image load and a
    timing annotation then land in 30."""
    victim, tool = "C:\\apps\\victim.exe", "C:\\tools\\injector.exe"
    rows = [
        (PROCESS_CREATE, 500, 4, 0, "C:\\bin\\host.exe"),
        (PROCESS_EXIT, 30, 0, 0, victim),
        (PROCESS_CREATE, 40, 4, 0, tool),
        (PROCESS_CREATE, 30, 500, 0, victim),
        (THREAD_CREATE, 30, 0, 5, victim),
        (PROCESS_EXIT, 30, 0, 0, victim),
        (PROCESS_CREATE, 31, 30, 0, "C:\\apps\\child.exe"),
        (THREAD_CREATE, 30, 0, 6, victim),
        (THREAD_CREATE, 30, 0, 7, tool),
        (IMAGE_LOAD, 30, 0, 0, victim, "", "C:\\payload.dll"),
        (Annotation("api", "RDTSC"), 30, 0, 0, victim),
        (THREAD_EXIT, 30, 0, 7, victim),
        (PROCESS_EXIT, 30, 0, 0, victim),
        (_irp("IRP_MJ_WRITE"), 30, 0, 0, victim, "", "C:\\Temp\\late.txt"),
    ]
    return trace_from_records([_ev(i + 1, *row) for i, row in enumerate(rows)])


def _unique_paths(count: int):
    """One process that writes, reads and fails on paths that never repeat."""
    majors = ("IRP_MJ_WRITE", "IRP_MJ_READ", "IRP_MJ_WRITE", "IRP_MJ_SET_INFORMATION")
    rows = [_ev(1, PROCESS_CREATE, 70, 4, image="C:\\spray.exe")]
    for i in range(count):
        failed = i % 11 == 0
        path = f"C:\\Data\\d{i % 7}\\f{i}.{'bin' if i % 3 else 'Js'}"
        rows.append(_ev(i + 2, _irp(majors[i % 4]), 70, image="C:\\spray.exe",
                        file_path="" if failed else path,
                        result="ACCESS_DENIED" if failed else "OK"))
    return trace_from_records(rows)


TACTICS = ("vssadmin delete shadows /all /quiet", "net user eve P4ss /add",
           "schtasks /create /tn up /tr x.exe", "net accounts /maxpwage:unlimited")


def _with_tactics(seed: int, commands: tuple[str, ...], first: bool = False):
    """A generated trace with one cmd.exe create per command, spread over
    it (the first at the trace's first record when first is set)."""
    records = list(run_synthetic(WorkloadSpec(events_per_producer=300, seed=seed)).records)
    for i, command in enumerate(commands):
        at = 0 if first and i == 0 else (i + 1) * len(records) // (len(commands) + 1)
        records.insert(at, EventRecord(0, records[at].time, PROCESS_CREATE, 60_000 + 2 * i,
                                       4000, 0, None, "C:\\Windows\\System32\\cmd.exe",
                                       f"/c {command}"))
    return trace_from_records(resequence(records))


def build_inputs(root: Path) -> None:
    """Write every input the table names into root."""
    shutil.copy(macro_malware_path(), root / "fixture.lase")
    (root / "fixture.lase.gz").write_bytes(
        gzip.compress((root / "fixture.lase").read_bytes(), mtime=0))
    syn = run_synthetic(WorkloadSpec(events_per_producer=800, seed=11,
                                     injection_templates=4))
    write_trace(syn, root / "syn.lase")
    write_trace(syn, root / "syn.lase.gz", compress=True)
    write_trace(_shapes(), root / "shapes.lase")
    write_trace(_reused_parent(), root / "reuse.lase")
    write_trace(chain(2000), root / "chain.lase")
    write_trace(_unique_paths(600), root / "unique.lase")
    write_trace(_with_tactics(5, TACTICS), root / "tactics.lase")
    write_trace(_with_tactics(6, TACTICS[1:2], first=True), root / "tactic-first.lase")
    write_trace(_with_tactics(7, ()), root / "clean.lase")
    write_trace(trace_from_records([], TraceHeader(base_date=BASE_TIME.date())), root / "empty.lase")
    for name, data in INVALID.items():
        (root / f"bad-{name}.lase").write_bytes(data)
    for side, seeds in (("bare", (21, 22, 23, 24)), ("vm", (31, 32, 33))):
        (root / side).mkdir()
        for stem, seed in zip(("s1", "s2", "s3", "s4"), seeds):
            write_trace(run_synthetic(WorkloadSpec(events_per_producer=150, seed=seed)),
                   root / side / f"{stem}.lase.gz", compress=True)
        quiet = WorkloadSpec(events_per_producer=40, seed=seeds[0],
                             mix={"ProcessCreate": 0.3, "ImageLoad": 0.3,
                                  "Irp:IRP_MJ_READ": 0.4})
        write_trace(run_synthetic(quiet), root / side / "quiet.lase")
        write_trace(_shapes(), root / side / "shapes.lase.gz", compress=True)
    (root / "custom.sig").write_text(
        "vmtools\tImageLoad\tfile_path\t(?i)vmtools|payload\n"
        "timing\tAnnotation\tannotation[api]\tRDTSC\ttrace\n"
        "temp\tIrp\tfile_path\t(?i)\\\\(temp|data)\\\\\n", encoding="utf-8")
    (root / "bad.sig").write_text("vmtools\tImageLoad\tfile_path\n", encoding="utf-8")
    (root / "custom.rules").write_text(
        "# a comment\nAccountManipulation\tProcessCreate\tcommand\tnet\\s+user\n",
        encoding="utf-8")
    (root / "bad.rules").write_text("Nope\tProcessCreate\tcommand\tx\n", encoding="utf-8")


# name -> argv, with the input read on stdin where the argv has "-".
CASES: dict[str, str] = {
    # usage errors: exit 1
    "usage-none": "",
    "usage-command": "not-a-command",
    "usage-missing": "tree",
    "usage-choice": "tree fixture.lase --format xml",
    "usage-int": "gen --events many",
    "usage-gen-producers": "gen --seed 4 --events 60 --producers 2",
    "usage-diff-workers": "diff --bare bare --vm vm --workers 2",
    "usage-bench-instrumented": "bench --dir bench --files 1 --small 64 --large 64 --reps 1 --instrumented",
    # validate
    "validate-fixture": "validate fixture.lase",
    "validate-fixture-gz": "validate fixture.lase.gz",
    "validate-many": "validate fixture.lase syn.lase.gz empty.lase",
    "validate-stdin": "validate -",
    "validate-missing": "validate nope.lase",
    "validate-then-bad": "validate fixture.lase bad-time.lase syn.lase",
    **{f"validate-bad-{name}": f"validate bad-{name}.lase" for name in INVALID},
    # gen and replay
    "gen": "gen --seed 3 --events 50",
    "gen-injections": "gen --seed 4 --events 120 --injections 3",
    "gen-gzip": "gen --seed 5 --events 40 --compress",
    "gen-negative": "gen --events -1",
    "gen-injections-negative": "gen --events 3 --injections -2",
    "replay-fixture": "replay fixture.lase",
    "replay-syn-gz": "replay syn.lase.gz --compress",
    "replay-lossy": "replay syn.lase --ring 4 --chunk 2 --policy drop-oldest",
    "replay-syn-3x2": "replay syn.lase --producers 3 --consumers 2",
    "replay-lossy-3x2": "replay syn.lase --ring 4 --chunk 2 --policy drop-oldest --producers 3 --consumers 2",
    "replay-stdin": "replay -",
    "replay-no-consumers": "replay fixture.lase --consumers 0",
    "replay-fixture-speed-tiny": "replay fixture.lase --speed 1e-300",
    "replay-fixture-speed-tiny-threaded": "replay fixture.lase --speed 1e-300 --producers 2",
    "replay-fixture-speed-negative": "replay fixture.lase --speed -5",
    "replay-fixture-speed-nan": "replay fixture.lase --speed nan",
    "replay-fixture-speed-nan-threaded": "replay fixture.lase --speed nan --producers 2",
    "replay-empty-speed-nan": "replay empty.lase --speed nan",
    # tree
    "tree-fixture-dot": "tree fixture.lase",
    "tree-fixture-json": "tree fixture.lase --format json",
    "tree-fixture-root-json": "tree fixture.lase --root 10092 --format json",
    "tree-fixture-root-dot": "tree fixture.lase --root 10092",
    "tree-fixture-root-seq": "tree fixture.lase --root 5480:0 --format json",
    "tree-fixture-root-missing": "tree fixture.lase --root 99999",
    "tree-fixture-root-bad": "tree fixture.lase --root ten",
    "tree-fixture-root-key-missing": "tree fixture.lase --root 10092:1",
    "tree-fixture-root-empty-seq": "tree fixture.lase --root 10092:",
    "tree-fixture-root-plus": "tree fixture.lase --root +10092",
    "tree-fixture-root-negative": "tree fixture.lase --root -5",
    "tree-fixture-root-underscore": "tree fixture.lase --root 10_092",
    "tree-syn-dot": "tree syn.lase.gz",
    "tree-syn-json": "tree syn.lase --format json",
    "tree-syn-root-dot": "tree syn.lase --root 4000",
    "tree-shapes-dot": "tree shapes.lase",
    "tree-shapes-json": "tree shapes.lase --format json",
    "tree-reuse-json": "tree reuse.lase --format json",
    "tree-chain-json": "tree chain.lase --format json",
    "tree-chain-root-json": "tree chain.lase --root 3410 --format json",
    "tree-chain-root-dot": "tree chain.lase --root 10",
    "tree-unique-root-json": "tree unique.lase --root 70 --format json",
    "tree-stdin": "tree - --format json",
    "tree-bad": "tree bad-validation.lase",
    # inject-scan
    "inject-fixture": "inject-scan fixture.lase",
    "inject-syn": "inject-scan syn.lase",
    "inject-syn-json": "inject-scan syn.lase.gz --format json",
    "inject-syn-window": "inject-scan syn.lase --window-ms 0",
    "inject-syn-window-negative": "inject-scan syn.lase --window-ms -5",
    "inject-fixture-window-overflow": "inject-scan fixture.lase --window-ms 100000000000000000",
    "inject-shapes": "inject-scan shapes.lase --format json",
    "inject-reuse": "inject-scan reuse.lase --format json",
    "inject-bad": "inject-scan bad-order.lase",
    # fingerprint
    "fingerprint-fixture": "fingerprint fixture.lase",
    "fingerprint-syn": "fingerprint syn.lase",
    "fingerprint-syn-json": "fingerprint syn.lase --format json",
    "fingerprint-custom": "fingerprint shapes.lase --signatures custom.sig",
    "fingerprint-bad-sig": "fingerprint fixture.lase --signatures bad.sig",
    "fingerprint-missing-sig": "fingerprint fixture.lase --signatures nope.sig",
    "fingerprint-unique": "fingerprint unique.lase --signatures custom.sig",
    "fingerprint-reuse": "fingerprint reuse.lase --format json",
    "fingerprint-bad": "fingerprint bad-irp.lase",
    # intrude
    "intrude-tactics": "intrude tactics.lase",
    "intrude-dwell": "intrude tactics.lase tactic-first.lase clean.lase empty.lase --dwell",
    "intrude-json": "intrude tactics.lase --format json",
    "intrude-rules": "intrude tactics.lase --rules custom.rules --dwell",
    "intrude-bad-rules": "intrude tactics.lase --rules bad.rules",
    "intrude-fixture": "intrude fixture.lase --dwell",
    "intrude-stdin": "intrude - --dwell",
    "intrude-bad": "intrude tactics.lase bad-seq.lase --dwell",
    # diff
    "diff-files": "diff --bare fixture.lase --vm syn.lase",
    "diff-files-json": "diff --bare shapes.lase --vm fixture.lase.gz --format json",
    "diff-unique": "diff --bare unique.lase --vm shapes.lase --format json",
    "diff-corpus": "diff --bare bare --vm vm",
    "diff-corpus-json": "diff --bare bare --vm vm --format json",
    "diff-corpus-nonempty": "diff --bare bare --vm vm --nonempty-only",
    "diff-files-nonempty": "diff --bare bare/quiet.lase --vm vm/quiet.lase --nonempty-only --format json",
    "diff-stdin": "diff --bare - --vm syn.lase",
    "diff-stdin-twice": "diff --bare - --vm -",
    "diff-mixed": "diff --bare bare --vm fixture.lase",
    "diff-missing": "diff --bare nope.lase --vm fixture.lase",
    "diff-bad": "diff --bare fixture.lase --vm bad-host.lase",
}

STDIN = {
    "validate-stdin": "fixture.lase.gz",
    "replay-stdin": "fixture.lase",
    "tree-stdin": "shapes.lase",
    "intrude-stdin": "tactic-first.lase",
    "diff-stdin": "fixture.lase",
    "diff-stdin-twice": "fixture.lase",
}

# name -> (argv, exit code)
BENCH = {
    "bench": ("bench --dir bench --files 2 --small 64 --large 128 --reps 1", 0),
    "bench-json": ("bench --dir bench --files 1 --small 64 --large 64 --reps 1 --format json", 0),
    "bench-usage": ("bench --files 2", 1),
}

DIGESTS = {
    "usage-none":
        "9fad3f1aa2bb33d77e5ef12911dd3140b0da7682ef691b414912619f3e0d01af",
    "usage-command":
        "c98a2f68bca32e9cfde4a4c46eec8600f854491220f851371e910e327d074119",
    "usage-missing":
        "afc82489deb982adbc057dfd64ac2e8b270acb31aead903f5a9f8270665768c6",
    "usage-choice":
        "b4697edd1b5c1608cf0e93980c06d45992d605e22500efeac67263f7134ee99f",
    "usage-int":
        "6b3be03732e63e9de38284f9f0c9f0ab6876d14376641c48f6547edd8c70042b",
    "usage-gen-producers":
        "72e3d42498a1a3bf7557c48df9623eaca266da9e4cc331cd0d5062bbb795a4d7",
    "usage-diff-workers":
        "03ee71347f1aa1c71190d955860191d851f14ab818bf8e14c714935bad0f3a36",
    "usage-bench-instrumented":
        "bfd3f6911c1a92fb946ba68ae0484778bf74a6013752de9f0e8666a2e1feee1f",
    "validate-fixture":
        "c1bc50b4277cc583e792301cf782db294fd9efa424c51ac6015f222fdbe1cf69",
    "validate-fixture-gz":
        "d21c9abb53de694b5b7af0d7c8f947a918bd1b50b1fbe4abbff67973747d42e1",
    "validate-many":
        "e407660376a67bca24d55ae354e6429ad300625791c317239b71f7c06bb1faa8",
    "validate-stdin":
        "e7cc6ccbe5d0d07ba03769fccc3ff96ac47c559f6bc16b8a9f466d5717679e12",
    "validate-missing":
        "72c8d8cbfb2745b7379b34254d20a00cde1a129e6b34bcabbc33feb022900bab",
    "validate-then-bad":
        "f3bc5b2434a84138ce7050ea37ca137cb44e4d2bea1ef26924817be53cd70509",
    "validate-bad-fields":
        "144fa0a155c7336d250a1bef46e7ff03c6e8813632bb39bd4aad91dff8f0c97f",
    "validate-bad-time":
        "811d19d39804e43d6223374f9a2a22c0ce1826423d19032af50bf14b64204bee",
    "validate-bad-duration":
        "93d2af5840bacaeacc53bba071f2412b44f8936bc4b0299c41d4277869da028c",
    "validate-bad-seq":
        "4d4ee39eb558cdaec378c4910eee11440235056b4d3b993ac03ba1b5711785f8",
    "validate-bad-ppid":
        "590253aed948c943f8ca68a447242d6ef1e661dec5b716382c71d3b1eb5556ee",
    "validate-bad-pid":
        "3fbd67bd42ddca0fb5900816164cc8b87c5701e44697327c6a18b5ece22c15bb",
    "validate-bad-tid":
        "5074ed1ecacc824483700822e6e3f1ed780da8581a2da3847b98933d028580f5",
    "validate-bad-seq64":
        "4caecfefab8ba98dbeffff9df6d30ab789de6a4b19c9d8758e4ea99b0fae1f04",
    "validate-bad-mode":
        "de1dd2f08f7318390a02d4a1cdc2c62d18ffd318258892d88c2a88fd6e45ac48",
    "validate-bad-annot":
        "aff023bff9a2d91310dbd551cd0301167f282ee7d89dc6ab350c5a4f3822dcf4",
    "validate-bad-result-ok":
        "d49cea64c111e3307cedd15c1eb79ef2e0c2062e0e4475f9367b516b9c5af043",
    "validate-bad-escape-image":
        "626f86c036da53a59aeb133997d2f1a75bc9eb56fb86917e017b3391fa243f15",
    "validate-bad-escape-args":
        "689152045ff1beda76ac94b5c94e4751c45124e0022d72bffd52830ce0fac1f1",
    "validate-bad-escape-file":
        "f94330b3e237564fbf2c672f1531d0a8b0c880ec246c32f9c87fb293bf83ef07",
    "validate-bad-escape-result":
        "9f322d149f5300cb2fd8d59306c656351328baf8677ebda5c35d8cf464116cb8",
    "validate-bad-validation":
        "fc10c5e2cf0d4141cdc668ec09e26a36a80f1ce876b19a9ef654acdd92208cf2",
    "validate-bad-irp":
        "d4e885556080e715eb8a8ec2aadf1c1cc03eeba79f259fef5d6cf26287bd798c",
    "validate-bad-order":
        "a888178e3729488a6386eff8451563b05878cb86e9f22105954001965be1c320",
    "validate-bad-magic":
        "23e844cfc7a1fb4a2c719379543edafa3b35e106e87df3c03ba71cb348df06a9",
    "validate-bad-empty":
        "190cdec2b93bc5b71398ffb21420c42bf1208e930adfa4006b901f43ec59c0f1",
    "validate-bad-date":
        "7798e5e5a388c7b67cdee327af6fbdf4751c9eeae84af8e481046965445d5c27",
    "validate-bad-host":
        "9e92a2cfc0796254213e0e63b13187e2a7f5f6407448dbdac2a4205ac2e9fc9b",
    "validate-bad-env":
        "50af1f3bd04177bdb909adfd0104feea0acdc79d0de85a1904f46b19bf8da0fb",
    "validate-bad-utf8":
        "07fe6b01ecdc7456a0c06a035bde209c42dcadef52d517892f89f17dd675cc7a",
    "validate-bad-gzip":
        "2095f043327b9b89d92d1b2e85494b26b3da39b8f7cde587be3b6f43ea7dece5",
    "gen":
        "41297303c60d053dc049cb47e174dff3c7aa7ea52b0f20fbc4940ff26fa2dc05",
    "gen-injections":
        "ee08ea476026138289b5f7b6c2d1f8e76b53a29db2015fb136fc302d5397dd25",
    "gen-gzip":
        "535d31628fb9a1f1f92c475636f6d54cf007dc097025bc9d1c93cf74db1e66e7",
    "gen-negative":
        "8934da087ba054e3dd2c9ff1886e8fcf442b3d72980b1eddd19985679664a1f9",
    "gen-injections-negative":
        "91a6e6d1474978ba4cb5c3b8a1f25f795d8c2cf8619eb19e3376901e107a7a90",
    "replay-fixture":
        "fc2682b5e9eb911b7a285a617794713af1a52527dee9608536a09ab4da9fd9d3",
    "replay-syn-gz":
        "a64f8e7a96fa24e0b3e797af76bdeb94f67bc699583831d4a7c2d5f1c8b83d25",
    "replay-lossy":
        "1bd65b58d7afadf608b6d48523a8e027c89e0fcf98e184f301be927662ffc312",
    "replay-syn-3x2":
        "a64f8e7a96fa24e0b3e797af76bdeb94f67bc699583831d4a7c2d5f1c8b83d25",
    "replay-lossy-3x2":
        "1bd65b58d7afadf608b6d48523a8e027c89e0fcf98e184f301be927662ffc312",
    "replay-stdin":
        "fc2682b5e9eb911b7a285a617794713af1a52527dee9608536a09ab4da9fd9d3",
    "replay-no-consumers":
        "a1689633dfa495cab90a2f14c016ee0a7f1e40a05b64db9d4efdf93dead49f33",
    "replay-fixture-speed-tiny":
        "2f54623ff1c257cb035429cdd368d870321fc4e00b56efbf5c1e08e62d2bf397",
    "replay-fixture-speed-tiny-threaded":
        "2f54623ff1c257cb035429cdd368d870321fc4e00b56efbf5c1e08e62d2bf397",
    "replay-fixture-speed-negative":
        "515f2d9227fe78cd5a4713b352922794cd20314d9da81d1bf514ff4ca74da346",
    "replay-fixture-speed-nan":
        "84d5efd3b369c60985356bfc3d20476f94420752240bc8ff801987daea9979b7",
    "replay-fixture-speed-nan-threaded":
        "84d5efd3b369c60985356bfc3d20476f94420752240bc8ff801987daea9979b7",
    "replay-empty-speed-nan":
        "84d5efd3b369c60985356bfc3d20476f94420752240bc8ff801987daea9979b7",
    "tree-fixture-dot":
        "14c9b82485adac13143f520cb13ffde59f397da9ae900dac26a7e2fcd1296d39",
    "tree-fixture-json":
        "1d967236731ff58bd42ccbe235b112f2236366d2168206eae82afaaf348caf43",
    "tree-fixture-root-json":
        "d26c7e1989a16a5f36039597ff59a31ef4797a13bc5c7d3add2dff25fc2f8411",
    "tree-fixture-root-dot":
        "dbe7b0f6a377f766be36ed24afea2da31f9ca884cd55bcde0bf83906e678041c",
    "tree-fixture-root-seq":
        "e981eef13acb4d6af7b7d4c2b8612c1f4a4286b66ff9abff11d585cc3db985b4",
    "tree-fixture-root-missing":
        "eee0fe3e525cfe922657c86a0dd7aa6038d74bff6db151404d8c345e3961b9b7",
    "tree-fixture-root-bad":
        "57a0dfb7cc85542d19c5ca6601781d464371fd5a2d5e97dc947b63fd135c08fd",
    "tree-fixture-root-key-missing":
        "b7c49c2dc138c845b3bfcc5ea09edcffed1e8c6bef4596aee155cf037a91101f",
    "tree-fixture-root-empty-seq":
        "857d9d1f7aa7e1d1651d47df29e1037c345f961bfd2ce93d3824501f5fc339c0",
    "tree-fixture-root-plus":
        "7eb96ed55cbdd099d27c0a5d23a501785b22edba3a962946bfddb017d6c7a62e",
    "tree-fixture-root-negative":
        "0f254ff28f2a76f84a97488311ed2f52038d036cf7cc62ce8a9e2a336044e266",
    "tree-fixture-root-underscore":
        "37ef113442bb3a3c609af663a1e5c37e7e8fc036991e15fca8b3fe2af0f76571",
    "tree-syn-dot":
        "edc6589f9e164dece748e2ea90e9c49230941e070cced5bc049fb360e8d213d5",
    "tree-syn-json":
        "211b931a00d075e5b7dfe05b8d30a10f9c8743c9fcf1ddd24cc9f85ed29178fb",
    "tree-syn-root-dot":
        "c6da42e317b5577bdee268a2f9a4391f07e202257447552d6df35c71835ff282",
    "tree-shapes-dot":
        "207f6ed306542519e9a4f4b20052c3b8afec783fb60bc71b195b849a31527176",
    "tree-shapes-json":
        "fe813cefdccc03fad5ea0e50c0f99747c68968815584d4af6ac3d215223e3f28",
    "tree-reuse-json":
        "3551b9f8502d2c1c77669a3799be344f15237f07bc93238721d71ae9e01e0b67",
    "tree-chain-json":
        "12f9b82e7ce50a4be672036e536d6b3daa569f2df64bae5066fd7878c7221f77",
    "tree-chain-root-json":
        "34de30fc193d6a0d4814ec3c95ea38d551e04f3a12799c2c60a4e28f13f1ef49",
    "tree-chain-root-dot":
        "1ba7f351ad6e529d889701c7581610f45fc89da89de6df66aa3ba8a8dda0dae0",
    "tree-unique-root-json":
        "8083acc520feb68f732a2cc20153c4638b8318ce17906389530a0ae8e518f6b5",
    "tree-stdin":
        "fe813cefdccc03fad5ea0e50c0f99747c68968815584d4af6ac3d215223e3f28",
    "tree-bad":
        "fc10c5e2cf0d4141cdc668ec09e26a36a80f1ce876b19a9ef654acdd92208cf2",
    "inject-fixture":
        "36f1ef9a42c30a230261f4f607a01ca6ae608ca4043d37bc0c048e3bad41a2b2",
    "inject-syn":
        "4f520bc15da911d10f423d6c866d1b44f3560295bce49c6a979b5db913d4cf8e",
    "inject-syn-json":
        "d234b166a91a6bc130b922702650921fde4f1dd8510733ff648f3391558d2956",
    "inject-syn-window":
        "0b234dfd77f0dc17e5053bfb9e0f3d29e6f049c1885ae8c1793f8b7118cb3e30",
    "inject-syn-window-negative":
        "7bd6ed69cd38ab0d2203fe4faf15b88a1bef74355f3fe623a4ea12d12f02c5b9",
    "inject-fixture-window-overflow":
        "5f3145f9345ef272d9fcb7a8bda4d24aa19a0f038f6864e0095aaad7d0823759",
    "inject-shapes":
        "d7cf4c952f29ce61187c39bb8aef30d6215ceac57992355f63bba16757c51558",
    "inject-reuse":
        "f0d90f968f72fa754eb4a4829e11f4a1e4d8bf651b522a2e7a4a39dea9fa2759",
    "inject-bad":
        "a888178e3729488a6386eff8451563b05878cb86e9f22105954001965be1c320",
    "fingerprint-fixture":
        "d5e3b42d681267f1face7c6ea391bc2c02893d31868a16d0c0ec6a2ce0c71b9c",
    "fingerprint-syn":
        "c6a405cbbf06194a71c77e1865dd5928e3c7717942566af20acb83d0355d357f",
    "fingerprint-syn-json":
        "b68bffa5ca4f7af067ec0d1cbc9aa8fff49331384011466698b5e9df57744733",
    "fingerprint-custom":
        "c0c6181271556eeccc2c6852e5c01afd60f39e63b884ad10daeb3e9ade74aba1",
    "fingerprint-bad-sig":
        "abda98907794225670d50a389d8542f7e4917458a667cf06b4b8c8d3d826b391",
    "fingerprint-missing-sig":
        "d221f562c0a0045b2c9439996de36d95704bca7f9a6f704a59613c882015ef1f",
    "fingerprint-unique":
        "e06c2449778d410fde8d765c890afb4eacb436cf3055527151828e468a372e94",
    "fingerprint-reuse":
        "8a8042df7042af8a33a5712bd4c61bf78ae58f36abb3b7e0fe783e69958688e2",
    "fingerprint-bad":
        "d4e885556080e715eb8a8ec2aadf1c1cc03eeba79f259fef5d6cf26287bd798c",
    "intrude-tactics":
        "868219dd105467db84522681d699509bb314e9c3c2c5efc4868c22a5fbfef1df",
    "intrude-dwell":
        "b574f97af2e07796e4df2402a7f4fa5b8983cf94cacd3b6fc9080c06778d35ee",
    "intrude-json":
        "8c52e29785d9f7332d10da11b8a73a2327afe528c975bf2edab26918320d6afc",
    "intrude-rules":
        "2de89365bc1ab428dcdcff73e6abd92b5c8d5daf822d396593c308d7f5e26bcd",
    "intrude-bad-rules":
        "d7d6447abd643bc68639bc8199a785fe103c60667072df341cc4ee1500dbf8b3",
    "intrude-fixture":
        "b32f746a2e57935ec7b1e6320d13243e226b29433e1a2a6b8223355c8b8247f6",
    "intrude-stdin":
        "214977cb6e27eac6cc7432754bba0b91daf10109c17d3c11db80d1f5253d3534",
    "intrude-bad":
        "4d4ee39eb558cdaec378c4910eee11440235056b4d3b993ac03ba1b5711785f8",
    "diff-files":
        "9f243b284924cc542363bb2d48c64e7794f582b9f2f091769d509f89c0d55fe8",
    "diff-files-json":
        "54bf798ecffcc120c07588a2fc66c800a6cf5837b6711b13c281011b0b2ce7dd",
    "diff-unique":
        "079d4a899a5d166b4eef4367c9c1963d363dd22d51552d8afae0655146ec6d0c",
    "diff-corpus":
        "46b4cf274642cc52c9500a365110a9b88dcca3345074b42c400892b505c3c5e3",
    "diff-corpus-json":
        "269bff2143a4cac19ba8a2e39a7ec1aa555201ea8b4dd9396293ed739cadcf8a",
    "diff-corpus-nonempty":
        "895f0ba084ead901be7ea85ad740f150529356a16b3fa5724f73fc0c7edc4767",
    "diff-files-nonempty":
        "79a123758dd179230dabefbe3900ae90472857546078ff46f11af72d0ff19281",
    "diff-stdin":
        "9f243b284924cc542363bb2d48c64e7794f582b9f2f091769d509f89c0d55fe8",
    "diff-stdin-twice":
        "190cdec2b93bc5b71398ffb21420c42bf1208e930adfa4006b901f43ec59c0f1",
    "diff-mixed":
        "be86ad648a03ff37cc5e1e3c27e0b3a3cfb65a442ea33e648b07e8cc700c9bc0",
    "diff-missing":
        "72c8d8cbfb2745b7379b34254d20a00cde1a129e6b34bcabbc33feb022900bab",
    "diff-bad":
        "9e92a2cfc0796254213e0e63b13187e2a7f5f6407448dbdac2a4205ac2e9fc9b",
}


def outcome(argv: list[str], stdin: bytes = b"") -> tuple[int, bytes, bytes]:
    """(exit code, stdout, stderr) of one cli.main(argv) in this process."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.BytesIO(), io.BytesIO()
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8", write_through=True)
    try:
        code = cli.main(argv)
        sys.stdout.flush()
        sys.stderr.flush()
        return code, out.getvalue(), err.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def argv_digest(argv: list[str], stdin: bytes = b"") -> str:
    """The digest of one invocation, run from the input directory."""
    code, out, err = outcome(argv, stdin)
    if out[:2] == b"\x1f\x8b":
        out = gzip.decompress(out)
    return hashlib.sha256(repr((code, out, err)).encode()).hexdigest()


def digest(name: str) -> str:
    """The pinned digest of a case."""
    stdin = Path(STDIN[name]).read_bytes() if name in STDIN else b""
    return argv_digest(CASES[name].split(), stdin)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    build_inputs(root)
    return root


@pytest.fixture
def in_inputs(inputs, monkeypatch):
    monkeypatch.chdir(inputs)


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_cli_contract(name, in_inputs):
    assert digest(name) == DIGESTS[name], CASES[name]


@pytest.mark.parametrize("name", ["inject-fixture-window-overflow", "replay-fixture-speed-tiny",
                                  "replay-fixture-speed-tiny-threaded"])
def test_a_flag_value_too_large_to_use_is_an_input_error(name, in_inputs):
    code, out, err = outcome(CASES[name].split())
    assert (code, out) == (2, b"")
    assert err.startswith(b"error: ") and err.count(b"\n") == 1, err


@pytest.mark.parametrize("name", ["replay-fixture-speed-negative", "replay-fixture-speed-nan",
                                  "replay-fixture-speed-nan-threaded", "replay-empty-speed-nan"])
def test_a_speed_below_zero_or_not_a_number_is_an_input_error(name, in_inputs):
    code, out, err = outcome(CASES[name].split())
    assert (code, out) == (2, b"")
    assert err.startswith(b"error: --speed ") and err.count(b"\n") == 1, err


@pytest.mark.parametrize("name, flag", [("gen-negative", "--events"),
                                        ("gen-injections-negative", "--injections")])
def test_a_negative_gen_count_names_its_flag(name, flag, in_inputs):
    code, out, err = outcome(CASES[name].split())
    assert (code, out) == (2, b"")
    assert err.startswith(f"error: {flag} ".encode()) and err.count(b"\n") == 1, err


@pytest.mark.parametrize("name", list(BENCH))
def test_bench_exit_code(name, in_inputs):
    argv, code = BENCH[name]
    assert outcome(argv.split())[0] == code


def _threaded(argv: list[str]) -> bool:
    """Whether argv asks for more than one replay producer or consumer."""
    return any(flag in ("--producers", "--consumers") and int(value) > 1
               for flag, value in zip(argv, argv[1:]))


def _without_counts(argv: list[str]) -> list[str]:
    """argv without its --producers and --consumers flags and their values."""
    kept, args = [], iter(argv)
    for arg in args:
        if arg in ("--producers", "--consumers"):
            next(args)
        else:
            kept.append(arg)
    return kept


# Generated pids are even, so a replay sharded by pid % 3 would interleave
# three producers and change its bytes; by pid % 2 it would not.
@pytest.mark.parametrize("name", [name for name, argv in CASES.items()
                                  if argv.startswith("replay ") and _threaded(argv.split())])
def test_producer_and_consumer_counts_change_no_replay(name, in_inputs):
    assert digest(name) == argv_digest(_without_counts(CASES[name].split())), CASES[name]


def test_no_command_starts_a_thread(in_inputs, monkeypatch):
    # Every command runs on the calling thread, bench and replay with
    # several producers and consumers included: with Thread.start refusing,
    # each gives its pinned outcome.
    def refuse(thread):
        raise RuntimeError(f"{thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for name, argv in CASES.items():
        assert digest(name) == DIGESTS[name], argv
    for argv, code in BENCH.values():
        assert outcome(argv.split())[0] == code, argv
    assert argv_digest("replay fixture.lase --producers 2".split()) == DIGESTS["replay-fixture"]
