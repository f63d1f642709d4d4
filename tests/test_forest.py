from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, replace

import pytest

from helpers import (
    SEQ_ZERO_PARENT,
    build_trace,
    findings_jsonl,
    from_seq_zero,
    naive_scan_oracle,
    node_count_oracle,
    random_rows,
    trace_of,
)

from lase.codec import trace_from_records
from lase.errors import UnknownKey
from lase.events import (
    IMAGE_LOAD,
    PROCESS_CREATE,
    PROCESS_EXIT,
    THREAD_CREATE,
    THREAD_EXIT,
    Annotation,
    EventRecord,
    Irp,
    ProcessCreate,
    ThreadCreate,
    ThreadExit,
    kind_name,
    normalize_path,
)
from lase.forest import (
    InjectionConfidence,
    InjectionFold,
    ProcessKey,
    Resolver,
    build_forest,
    detect_remote_thread_injection,
    render_dot,
    subtree,
)
from lase.irp import IrpCode
from lase.pipeline import WorkloadSpec, run_synthetic

WRITE = Irp(IrpCode("IRP_MJ_WRITE"))


def ancestry(forest, pid: int) -> list[int]:
    keys = sorted((k for k in forest.index if k.pid == pid), key=lambda k: k.birth_seq)
    node = forest.index[keys[-1]]
    chain = []
    while node is not None:
        chain.append(node.key.pid)
        node = forest.index[node.parent] if node.parent else None
    return chain


def test_fixture_forest_counts(fixture_trace):
    forest = build_forest(fixture_trace)
    assert forest.created_count() == 15
    assert forest.preexisting_count() == 2
    assert {k.pid for k in forest.index if k.birth_seq == 0} == {5480, 916}
    assert forest.warnings == []


def test_fixture_ancestry_chain(fixture_trace):
    forest = build_forest(fixture_trace)
    assert ancestry(forest, 3800) == [3800, 4324, 12148, 6344, 7028, 916]


def test_fixture_excel_and_eqnedt_in_different_trees(fixture_trace):
    forest = build_forest(fixture_trace)
    assert ancestry(forest, 10092)[-1] == 5480
    assert ancestry(forest, 7028)[-1] == 916


def test_empty_trace_builds_empty_forest():
    forest = build_forest(build_trace([]))
    assert forest.roots == []
    assert forest.index == {}


def test_exit_closes_node(fixture_trace):
    # eqnedt32 (7028) exits at seq 376991. After that, a record of 7028
    # attaches to its node with a stale-attach warning, and a child naming
    # 7028 as its parent synthesizes a pre-existing (7028, 0).
    eqnedt = ProcessKey(7028, 346364)
    last = fixture_trace.records[-1]
    late = [EventRecord(last.global_seq + 1, last.time, IMAGE_LOAD, pid=7028, file_path="C:\\x.dll"),
            EventRecord(last.global_seq + 2, last.time, PROCESS_CREATE, pid=7100, ppid=7028,
                        image_path="C:\\late.exe")]
    before = build_forest(fixture_trace)
    forest = build_forest(trace_from_records([*fixture_trace.records, *late], fixture_trace.header))
    assert forest.warnings == [f"seq {last.global_seq + 1}: event for exited pid 7028, attached to stale node"]
    assert (before.node(eqnedt).images, forest.node(eqnedt).images) == (0, 1)
    assert forest.node(ProcessKey(7100, last.global_seq + 2)).parent == ProcessKey(7028, 0)
    assert len(forest.index) == len(before.index) + 2


def test_subtree_of_916(fixture_trace):
    forest = build_forest(fixture_trace)
    nodes = {node.key: node for _, node in subtree(forest, ProcessKey(916, 0))}
    images = {node.image_path.rsplit("\\", 1)[-1].lower() for node in nodes.values()}
    assert {"eqnedt32.exe", "wmiprvse.exe", "werfault.exe"} <= images
    cscript = nodes[ProcessKey(10464, 679047)]
    assert "C:\\ProgramData\\Podaliri4.exe" in cscript.dropped_files
    assert cscript.io_summary["IRP_MJ_WRITE"].count == 1
    assert cscript.io_summary["IRP_MJ_WRITE"].duration_us == 3432


def test_subtree_of_a_leaf_is_the_leaf(fixture_trace):
    forest = build_forest(fixture_trace)
    leaf = ProcessKey(3800, 359955)
    assert subtree(forest, leaf) == [(None, forest.index[leaf])]


def test_subtree_unknown_root_raises_at_call(fixture_trace):
    forest = build_forest(fixture_trace)
    with pytest.raises(UnknownKey):
        subtree(forest, ProcessKey(99999, 1))


def test_subtree_node_set_matches_naive_reachability(fixture_trace):
    forest = build_forest(fixture_trace)
    root = ProcessKey(916, 0)
    # naive reachability: repeatedly add nodes whose parent is in the set
    reach = {root}
    changed = True
    while changed:
        changed = False
        for key, node in forest.index.items():
            if key not in reach and node.parent in reach:
                reach.add(key)
                changed = True
    assert {n.key for _, n in subtree(forest, root)} == reach


# --- remote-thread injection -------------------------------------------------

INJECTOR = "C:\\tools\\injector.exe"
VICTIM = "C:\\apps\\victim.exe"


def injection_rows(with_load: bool):
    rows = [
        (PROCESS_CREATE, 50, 4, 0, INJECTOR),
        (PROCESS_CREATE, 60, 4, 0, VICTIM),
        (THREAD_CREATE, 60, 4, 501, VICTIM),      # initial thread, exempt
        (THREAD_CREATE, 60, 4, 502, INJECTOR),    # remote thread
    ]
    if with_load:
        rows.append((IMAGE_LOAD, 60, 4, 0, VICTIM, "", "C:\\tools\\payload.dll"))
    return rows


def test_remote_thread_detected():
    trace = build_trace(injection_rows(with_load=False))
    findings = detect_remote_thread_injection(trace)
    assert len(findings) == 1
    f = findings[0]
    assert f.target.pid == 60
    assert f.injector.pid == 50
    assert f.thread_seq == 4
    assert f.confidence is InjectionConfidence.REMOTE_THREAD
    assert f.injector != f.target


def test_remote_thread_upgraded_by_image_load_in_window():
    trace = build_trace(injection_rows(with_load=True))
    findings = detect_remote_thread_injection(trace)
    assert len(findings) == 1
    assert findings[0].confidence is InjectionConfidence.REMOTE_THREAD_PLUS_LOAD_LIBRARY


@pytest.mark.parametrize("window_ms, message", [
    (-5, "window_ms must be non-negative"),
    (10**17, "window_ms must be at most 86399999999999999"),  # the widest a timedelta holds
])
def test_a_window_the_fold_cannot_use_is_refused(window_ms, message):
    # The fold itself refuses it with a ValueError, which the CLI reports as
    # an input error (exit 2), before timedelta raises an OverflowError
    # (exit 3).
    trace = build_trace(injection_rows(with_load=True))
    for refuse in (InjectionFold, lambda w: detect_remote_thread_injection(trace, w)):
        with pytest.raises(ValueError) as raised:
            refuse(window_ms)
        assert str(raised.value) == message
    assert len(detect_remote_thread_injection(trace, window_ms=0)) == 1


def test_image_load_outside_window_does_not_upgrade():
    rows = injection_rows(with_load=True)
    trace = build_trace(rows)
    # stretch the load 10 s after the thread: build_trace spaces rows 10 ms
    # apart, so rebuild with an explicit late record
    records = list(trace.records)
    from dataclasses import replace
    from datetime import timedelta
    records[-1] = replace(records[-1], time=records[-2].time + timedelta(seconds=10))
    from lase.codec import trace_from_records
    late = trace_from_records(records, trace.header)
    findings = detect_remote_thread_injection(late)
    assert findings[0].confidence is InjectionConfidence.REMOTE_THREAD


def test_self_created_threads_are_clean(fixture_trace):
    assert detect_remote_thread_injection(fixture_trace) == []


def test_initial_thread_alone_is_exempt():
    trace = build_trace([
        (PROCESS_CREATE, 50, 4, 0, INJECTOR),
        (PROCESS_CREATE, 60, 4, 0, VICTIM),
        (THREAD_CREATE, 60, 4, 501, INJECTOR),  # first observed thread
    ])
    assert detect_remote_thread_injection(trace) == []


def test_synthetic_injection_templates_verified_by_hand_trace():
    trace = run_synthetic(WorkloadSpec(seed=11, events_per_producer=200,
                                       injection_templates=4))
    findings = detect_remote_thread_injection(trace)
    # hand-trace oracle: replay liveness, apply the attribution rule naively
    live_image: dict[int, str] = {}
    first_thread_seen: set[int] = set()
    expected = []
    for r in trace.records:
        name = kind_name(r.kind)
        if name == "ProcessCreate":
            live_image[r.pid] = r.image_path.lower()
            first_thread_seen.discard(r.pid)
        elif name == "ProcessExit":
            live_image.pop(r.pid, None)
        elif name == "ThreadCreate":
            if r.pid not in first_thread_seen:
                first_thread_seen.add(r.pid)
                continue
            image = r.image_path.lower()
            if image != live_image.get(r.pid) and any(
                    img == image and pid != r.pid for pid, img in live_image.items()):
                expected.append(r.global_seq)
    assert [f.thread_seq for f in findings] == expected
    assert len(findings) == 4
    confidences = [f.confidence for f in findings]
    assert confidences.count(InjectionConfidence.REMOTE_THREAD_PLUS_LOAD_LIBRARY) == 2


def test_findings_jsonl_round_trips(capsys, tmp_path):
    trace = build_trace(injection_rows(with_load=True))
    lines = findings_jsonl(capsys, tmp_path, "inject-scan", trace).splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["target_pid"] == 60
    assert doc["confidence"] == "RemoteThreadPlusLoadLibrary"


# --- node-count oracle and interleaving invariance ---------------------------

def test_node_count_oracle_counts_a_seq_zero_create_named_as_a_parent_once():
    trace = from_seq_zero(SEQ_ZERO_PARENT)
    forest = build_forest(trace)
    assert sorted(forest.index) == [ProcessKey(7, 0), ProcessKey(8, 2)]
    assert node_count_oracle(trace) == 2


def test_fixture_node_count_matches_oracle(fixture_trace):
    forest = build_forest(fixture_trace)
    assert len(forest.index) == node_count_oracle(fixture_trace) == 17


def test_random_trace_node_counts_match_oracle():
    for seed in range(20):
        trace = run_synthetic(WorkloadSpec(seed=seed, events_per_producer=500))
        forest = build_forest(trace)
        assert len(forest.index) == node_count_oracle(trace), f"seed {seed}"


@dataclass
class ThreadInfo:  # one entry per thread create, as the forest once stored them
    tid: int | None  # None: a create with tid 0 names no thread
    exit_seq: int | None = None


def thread_oracle(trace) -> tuple[list[str], dict[ProcessKey, list[ThreadInfo]]]:
    """The forest's warnings and each process's thread list, kept the naive
    way: an exit ends the first still-live thread of its tid, by a scan."""
    resolver = Resolver()  # the shared attribution model, warnings included
    threads: dict[ProcessKey, list[ThreadInfo]] = {}
    for r in trace.records:
        owner = resolver.resolve(r)
        if isinstance(r.kind, ThreadCreate):
            threads.setdefault(owner, []).append(ThreadInfo(r.tid or None))
        elif isinstance(r.kind, ThreadExit):
            live = [t for t in threads.get(owner, []) if t.tid == r.tid and t.exit_seq is None]
            if live:
                live[0].exit_seq = r.global_seq
            else:
                resolver.warnings.append(f"seq {r.global_seq}: thread exit for unknown tid {r.tid}")
    return resolver.warnings, threads


def test_thread_counts_and_warnings_match_the_thread_list_oracle():
    kinds = [PROCESS_CREATE, PROCESS_EXIT, THREAD_CREATE, THREAD_CREATE, THREAD_EXIT, THREAD_EXIT,
             WRITE]
    seen = set()
    for seed in range(60):
        rng = random.Random(seed)
        rows = []
        for _ in range(rng.randint(1, 200)):
            kind = rng.choice(kinds)
            tid = 0 if kind in (PROCESS_CREATE, PROCESS_EXIT) else rng.choice([0, 1, 2, 3, 40])
            rows.append((kind, rng.randint(1, 6), rng.randint(0, 6), tid,
                         rng.choice(["C:\\a.exe", "C:\\b.exe"]), "", "C:\\f"))
        trace = build_trace(rows)
        forest = build_forest(trace)
        warnings, threads = thread_oracle(trace)
        assert forest.warnings == warnings, f"seed {seed}"
        assert {k: n.threads for k, n in forest.index.items()} == {
            k: len(threads.get(k, [])) for k in forest.index}, f"seed {seed}"
        seen.update("tid 0 exit" if w.endswith(" tid 0") else "unknown tid exit"
                    for w in warnings if "thread exit" in w)
        seen.update("reused tid" for ts in threads.values()
                    if len({t.tid for t in ts if t.tid}) < sum(1 for t in ts if t.tid))
    assert seen == {"tid 0 exit", "unknown tid exit", "reused tid"}


def test_create_at_seq_zero_takes_the_preexisting_key():
    # the create at seq 0 is (7, 0); once it has exited, a child naming pid 7
    # as parent makes (7, 0) live again rather than synthesizing another, so
    # 7's next record belongs to it without a stale-attach warning
    forest = build_forest(from_seq_zero([*SEQ_ZERO_PARENT, (IMAGE_LOAD, 7, 0, 0, "", "", "C:\\x.dll")]))
    seven = forest.node(ProcessKey(7, 0))
    assert (seven.image_path, seven.images) == ("C:\\a\\seven.exe", 1)
    assert forest.node(ProcessKey(8, 2)).parent == ProcessKey(7, 0)
    assert len(forest.index) == 2
    assert forest.warnings == []


def test_scan_findings_name_forest_processes():
    from lase.fingerprint import default_signatures, load_signatures, scan
    from lase.intrusion import DEFAULT_RULES, IntrusionRule, Tactic, scan_commands

    # catch-all matchers, so every create and every record is checked
    rules = DEFAULT_RULES + (IntrusionRule(Tactic.SCHEDULED_TASK, re.compile("")),)
    sigs = default_signatures() + load_signatures("any\t*\timage_path\t")
    for seed in range(20):
        trace = run_synthetic(WorkloadSpec(seed=seed, events_per_producer=500))
        index = build_forest(trace).index
        tactics = scan_commands(trace, rules)
        fingerprints = scan(trace, sigs)
        assert tactics and fingerprints, f"seed {seed}"
        assert all(f.process in index for f in tactics), f"seed {seed}"
        assert all(f.process in index for f in fingerprints), f"seed {seed}"


def shape(forest) -> frozenset:
    """Forest shape ignoring sequence numbers: (pid, image, parent pid)."""
    out = []
    for key, node in forest.index.items():
        parent_pid = forest.index[node.parent].key.pid if node.parent else None
        out.append((key.pid, node.image_path, parent_pid, tuple(sorted(
            forest.index[c].key.pid for c in node.children))))
    return frozenset(out)


def test_interleaving_independent_trees_is_isomorphic():
    tree_a = [
        (PROCESS_CREATE, 10, 4, 0, "C:\\a\\root_a.exe"),
        (PROCESS_CREATE, 11, 10, 0, "C:\\a\\child_a.exe"),
        (WRITE, 11, 0, 0, "C:\\a\\child_a.exe", "", "C:\\out\\a.bin"),
    ]
    tree_b = [
        (PROCESS_CREATE, 20, 5, 0, "C:\\b\\root_b.exe"),
        (PROCESS_CREATE, 21, 20, 0, "C:\\b\\child_b.exe"),
        (WRITE, 21, 0, 0, "C:\\b\\child_b.exe", "", "C:\\out\\b.bin"),
    ]
    sequential = build_trace(tree_a + tree_b)
    interleaved = build_trace([tree_a[0], tree_b[0], tree_a[1], tree_b[1], tree_a[2], tree_b[2]])
    assert shape(build_forest(sequential)) == shape(build_forest(interleaved))


def test_pid_reuse_disambiguated_by_birth_seq():
    rows = [
        (PROCESS_CREATE, 10, 4, 0, "C:\\gen1.exe"),
        (PROCESS_EXIT, 10, 4, 0, "C:\\gen1.exe"),
        (PROCESS_CREATE, 10, 4, 0, "C:\\gen2.exe"),
    ]
    forest = build_forest(build_trace(rows))
    pids = sorted((k.pid, k.birth_seq) for k in forest.index)
    assert pids == [(4, 0), (10, 1), (10, 3)]
    assert forest.warnings == []


def test_double_exit_warns_without_synthesizing():
    rows = [
        (PROCESS_CREATE, 10, 4, 0, "C:\\gen1.exe"),
        (PROCESS_EXIT, 10, 4, 0, "C:\\gen1.exe"),
        (PROCESS_EXIT, 10, 4, 0, "C:\\gen1.exe"),  # anomaly: already exited
        (IMAGE_LOAD, 10, 0, 0, "", "", "C:\\x.dll"),
    ]
    trace = build_trace(rows)
    forest = build_forest(trace)
    assert forest.warnings == ["seq 3: exit for already-exited pid 10",
                               "seq 4: event for exited pid 10, attached to stale node"]
    assert len(forest.index) == node_count_oracle(trace) == 2  # no spurious node
    assert forest.index[ProcessKey(10, 1)].images == 1  # the first exit ended it


def test_create_over_live_pid_force_closes_with_warning():
    rows = [
        (PROCESS_CREATE, 10, 4, 0, "C:\\gen1.exe"),
        (PROCESS_CREATE, 10, 4, 0, "C:\\gen2.exe"),  # no exit in between
        (PROCESS_EXIT, 10, 4, 0, "C:\\gen2.exe"),
        (IMAGE_LOAD, 10, 0, 0, "", "", "C:\\x.dll"),
    ]
    forest = build_forest(build_trace(rows))
    # the exit ends gen2, so no instance of 10 is live after it: gen1 was
    # closed by the create
    assert forest.warnings == ["seq 2: create for already-live pid 10, closing stale node",
                               "seq 4: event for exited pid 10, attached to stale node"]
    assert len(forest.index) == 3
    assert (forest.index[ProcessKey(10, 1)].images, forest.index[ProcessKey(10, 2)].images) == (0, 1)


PATHOLOGICAL = [
    (PROCESS_CREATE, 10, 0, 0, "C:\\orphan\\root.exe"),        # ppid 0: its own root
    (PROCESS_CREATE, 20, 99, 0, "C:\\a\\one.exe"),             # parent synthesized
    (PROCESS_EXIT, 20, 99, 0, "C:\\a\\one.exe"),
    (PROCESS_EXIT, 20, 99, 0, "C:\\a\\one.exe"),               # double exit
    (WRITE, 20, 0, 0, "C:\\a\\one.exe", "", "C:\\late\\write.bin"),  # stale attach
    (PROCESS_CREATE, 20, 10, 0, "C:\\a\\two.exe"),             # pid reuse
    (PROCESS_CREATE, 20, 10, 0, "C:\\a\\three.exe"),           # create over live
    (THREAD_EXIT, 30, 0, 501, "C:\\b\\ghost.exe"),             # unseen actor + tid
    (Annotation("api", "RDTSC"), 20, 0, 0, "C:\\a\\three.exe"),
    (PROCESS_EXIT, 77, 0, 0, "C:\\b\\preexisting.exe"),        # pre-existing exit
]


def test_pathological_trace_consistency():
    """PID reuse, double exits, stale attaches, unknown parents and scans all
    at once; the builder, the fingerprint scanner and the brute-force
    counters must still agree on attribution."""
    from lase.fingerprint import default_signatures, scan
    trace = build_trace(PATHOLOGICAL)
    forest = build_forest(trace)
    assert len(forest.index) == node_count_oracle(trace)
    # warnings for: double exit, stale attach, create-over-live, ghost tid
    assert len(forest.warnings) == 4
    # annotation lands on the third incarnation of pid 20
    sigs = default_signatures()
    findings = scan(trace, sigs)
    assert [(f.signature, f.process) for f in findings] == [
        ("direct-cpu-clock-access", ProcessKey(20, 7))]
    assert findings == naive_scan_oracle(trace, sigs)
    # parent links survive the churn
    three = forest.index[ProcessKey(20, 7)]
    assert three.parent == ProcessKey(10, 1)
    assert forest.index[ProcessKey(20, 2)].parent == ProcessKey(99, 0)


def outline(forest) -> tuple:
    """What DOT prints and every forest keeps: roots, keys in index order,
    parents, children, images, arguments and warnings."""
    return (forest.roots, list(forest.index),
            [(n.parent, n.children, n.image_path, n.args) for n in forest.index.values()],
            forest.warnings)


def test_a_forest_built_without_activity_is_the_same_forest(fixture_trace):
    traces = [fixture_trace, build_trace(PATHOLOGICAL)]
    for seed in range(400):
        rng = random.Random(seed)
        traces.append(trace_of(random_rows(rng), rng.random() < 0.2))
    warned = 0
    for i, trace in enumerate(traces):
        full, bare = build_forest(trace), build_forest(trace, activity=False)
        assert outline(bare) == outline(full), i
        assert all((n.threads, n.images, n.io_summary, n.dropped_files) == (None,) * 4
                   for n in bare.index.values()), i
        warned += bool(full.warnings)
    assert warned > 300  # most of the random traces reuse pids and warn


def test_acyclic_and_parent_exists_on_synthetic_traces():
    for seed in (3, 17):
        trace = run_synthetic(WorkloadSpec(seed=seed, events_per_producer=400))
        forest = build_forest(trace)
        for key, node in forest.index.items():
            if node.parent is not None:
                assert node.parent in forest.index
            seen = {key}
            cursor = node
            while cursor.parent is not None:
                assert cursor.parent not in seen, "cycle detected"
                seen.add(cursor.parent)
                cursor = forest.index[cursor.parent]


# --- DOT rendering ------------------------------------------------------------

DOT_NODE = re.compile(r'^\s*n\d+_\d+ \[label="[^"]*"\];$')
DOT_EDGE = re.compile(r"^\s*n\d+_\d+ -> n\d+_\d+;$")


def assert_valid_dot(text: str) -> tuple[int, int]:
    lines = text.strip().splitlines()
    assert lines[0].startswith("digraph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    nodes = edges = 0
    for line in lines[1:-1]:
        if line.strip() in ("rankdir=LR;",):
            continue
        if DOT_NODE.match(line):
            nodes += 1
        elif DOT_EDGE.match(line):
            edges += 1
        else:
            raise AssertionError(f"unexpected DOT line: {line!r}")
    return nodes, edges


def test_render_dot_fixture(fixture_trace):
    forest = build_forest(fixture_trace)
    nodes, edges = assert_valid_dot(render_dot(forest))
    assert nodes == 17  # 15 created + 2 synthesized roots
    assert edges == 15  # every created node has a parent edge
    assert 'label="<pre-existing> (916)"' in render_dot(forest)


def test_render_dot_single_node():
    forest = build_forest(build_trace([(PROCESS_CREATE, 10, 0, 0, "C:\\solo.exe")]))
    nodes, edges = assert_valid_dot(render_dot(forest))
    assert (nodes, edges) == (1, 0)


def test_render_dot_is_deterministic(fixture_trace):
    forest = build_forest(fixture_trace)
    assert render_dot(forest) == render_dot(forest)


def test_render_dot_subtree(fixture_trace):
    forest = build_forest(fixture_trace)
    root = ProcessKey(916, 0)
    dot = render_dot(forest, root)
    assert dot.startswith('digraph "subtree_916" {\n')
    nodes, edges = assert_valid_dot(dot)
    assert nodes == len(subtree(forest, root))
    assert edges == nodes - 1


def synthetic_or_fixture(fixture_trace, seed):
    return fixture_trace if seed is None else run_synthetic(
        WorkloadSpec(events_per_producer=400, seed=seed))


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_subtree_rendering_is_part_of_the_forest_rendering(fixture_trace, seed):
    forest = build_forest(synthetic_or_fixture(fixture_trace, seed))
    whole = set(render_dot(forest).splitlines()[2:-1])
    for key in forest.index:
        lines = render_dot(forest, key).splitlines()[2:-1]
        assert lines and set(lines) <= whole, key


# The recursive forms the subtree walk replaced, over forest.index: the
# reference for its node set and visit order.
def recursive_walk(forest, key, parent=None):
    yield parent, key
    for child in forest.index[key].children:
        yield from recursive_walk(forest, child, key)


def recursive_dot(forest, key, name):
    lines = [f'digraph "{name}" {{', "  rankdir=LR;"]

    def visit(k):
        n = forest.index[k]
        base = n.image_path.replace("/", "\\").rsplit("\\", 1)[-1]
        lines.append(f'  n{k.pid}_{k.birth_seq} [label="{base} ({k.pid})"];')
        for child in n.children:
            lines.append(f"  n{k.pid}_{k.birth_seq} -> n{child.pid}_{child.birth_seq};")
            visit(child)

    visit(key)
    return "\n".join(lines + ["}"]) + "\n"


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_subtree_walks_match_the_recursive_order(fixture_trace, seed):
    forest = build_forest(synthetic_or_fixture(fixture_trace, seed))
    for key in forest.index:
        pairs = subtree(forest, key)
        assert [(p and p.key, n.key) for p, n in pairs] == list(recursive_walk(forest, key))
        assert all(n is forest.index[n.key] for _, n in pairs)  # the forest's own nodes
        assert render_dot(forest, key) == recursive_dot(forest, key, f"subtree_{key.pid}")


def test_subtree_walks_do_not_recurse_per_generation():
    depth = 10_000  # a chain: each process created by the one before
    forest = build_forest(build_trace([(PROCESS_CREATE, 4 + i, 3 + i) for i in range(1, depth)]))
    root = ProcessKey(4, 0)
    assert [n.key.pid for _, n in subtree(forest, root)] == list(range(4, 4 + depth))
    assert assert_valid_dot(render_dot(forest, root)) == (depth, depth - 1)


# --- dropped files: the forest and the differential share one rule -------------

def with_creates_and_errors(seed: int):
    """A generated trace where every third create makes its file and every
    seventh I/O request fails with no file path."""
    trace = run_synthetic(WorkloadSpec(events_per_producer=600, seed=seed))
    records, irps = [], 0
    for record in trace.records:
        if isinstance(record.kind, Irp):
            irps += 1
            if irps % 7 == 0:
                record = replace(record, file_path="", result="ACCESS_DENIED")
            elif record.kind.code.major == "IRP_MJ_CREATE" and irps % 3 == 0:
                record = replace(record, result="CREATED")
        records.append(record)
    return trace_from_records(records, trace.header)


def test_forest_and_diff_drop_the_same_files(fixture_trace, fixture_path, capsys):
    from lase.cli import main
    from lase.diffreport import dropped_files

    for trace in [fixture_trace] + [with_creates_and_errors(seed) for seed in (1, 2, 3)]:
        results = {(r.kind.code.major, r.result, bool(r.file_path))
                   for r in trace.records if isinstance(r.kind, Irp)}
        if trace is not fixture_trace:  # the cases the rule separates all occur
            assert {("IRP_MJ_CREATE", "CREATED", True), ("IRP_MJ_CREATE", "OK", True),
                    ("IRP_MJ_WRITE", "ACCESS_DENIED", False)} <= results
        forest = build_forest(trace)
        dropped = {normalize_path(p) for node in forest.index.values() for p in node.dropped_files}
        assert dropped == dropped_files(trace)

    assert main(["tree", str(fixture_path), "--root", "10092", "--format", "json"]) == 0
    excel = json.loads(capsys.readouterr().out)["nodes"][0]
    assert excel["pid"] == 10092
    assert not any("ORDER SHEET & SPEC.xlsm" in p for p in excel["dropped_files"])
    assert excel["dropped_files"] == [
        "C:\\Users\\grace\\AppData\\Local...\\Temp\\DED9E0FE.xlsm",
        "C:\\Users\\grace\\AppData\\Local\\Microsoft\\...\\1983A0E7.png",
        "C:\\Users\\grace\\AppData\\Local\\Microsoft\\Windows\\...\\1959A28D.emf",
        "C:\\Users\\grace\\AppData\\Local\\Temp\\q",
        "C:\\Users\\grace\\AppData\\Local\\Temp\\xx",
        "C:\\ProgramData\\asc.txt:script1.vbs",
    ]
