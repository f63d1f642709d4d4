"""Remote-thread injection as its own fold: the placeholder rule, findings
that depend only on InjectionFold.kinds, a brute-force reference, and
lookups whose cost per record stays flat."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from datetime import timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import BASE_TIME, ROW_IMAGES, ROW_KINDS, build_trace, random_rows, trace_of

from lase.codec import Trace, trace_from_records
from lase.events import (
    IMAGE_LOAD,
    PROCESS_CREATE,
    THREAD_CREATE,
    ImageLoad,
    ProcessCreate,
    ProcessExit,
    ThreadCreate,
    kind_name,
    normalize_path,
)
from lase.forest import (
    PRE_EXISTING_IMAGE,
    ForestFold,
    InjectionConfidence,
    InjectionFinding,
    InjectionFold,
    ProcessKey,
    ProcessNode,
    Resolver,
    build_forest,
    detect_remote_thread_injection,
    folded,
)

INJECTOR = "C:\\tools\\injector.exe"
VICTIM = "C:\\apps\\victim.exe"


def reference_injections(trace: Trace, window_ms: int) -> list:
    """Brute force: a Resolver fed the InjectionFold.kinds records attributes
    them, the injector is the live created process of the creator's image
    with the largest birth_seq, found by a scan of every created process,
    and every image load rechecks every open finding of its process. A
    created process is live until the next create or exit of its pid; the
    oracle tracks that itself, not asking the Resolver."""
    resolver = Resolver()
    window = timedelta(milliseconds=window_ms)
    created: list[list] = []  # [key, normalized image, live]
    threaded: set[ProcessKey] = set()
    findings, open_findings = [], []  # open: (finding, thread time)

    def end(pid):
        for row in created:
            if row[0].pid == pid:
                row[2] = False

    for r in trace.records:
        kind = r.kind
        if isinstance(kind, ProcessCreate):
            key, _ = resolver.create(r)
            end(r.pid)
            created.append([key, normalize_path(r.image_path), True])
        elif isinstance(kind, ProcessExit):
            resolver.exit(r)
            end(r.pid)
        elif isinstance(kind, ThreadCreate):
            owner = resolver.actor(r)
            images = {row[0]: row[1] for row in created}
            image = normalize_path(r.image_path)
            if owner in threaded and image and image != images.get(owner, PRE_EXISTING_IMAGE):
                peers = [row[0] for row in created if row[2] and row[1] == image]
                if peers:
                    finding = InjectionFinding(owner, max(peers, key=lambda k: k.birth_seq),
                                               r.global_seq, InjectionConfidence.REMOTE_THREAD)
                    findings.append(finding)
                    open_findings.append((finding, r.time))
            threaded.add(owner)
        elif isinstance(kind, ImageLoad):
            owner = resolver.actor(r)
            for item in list(open_findings):
                finding, started = item
                if finding.target == owner and started <= r.time:
                    open_findings.remove(item)
                    if r.time - started <= window:
                        finding.confidence = InjectionConfidence.REMOTE_THREAD_PLUS_LOAD_LIBRARY
    return findings


def injection_subset(trace: Trace) -> Trace:
    """The records a TraceReader built with InjectionFold.kinds: those kinds and
    the first record."""
    return Trace(trace.header, tuple(r for i, r in enumerate(trace.records)
                                     if i == 0 or kind_name(r.kind) in InjectionFold.kinds))


# --- random traces -------------------------------------------------------------

# An Irp as pid 3's first record synthesizes (3, 0); 3 is then created,
# exits, and is named as a parent; then 3 creates two threads.
REVIVED_PARENT = [(0, 5, 0, 0, 5), (9, 3, 0, 3, 5), (0, 2, 0, 2, 5), (0, 3, 0, 0, 5), (2, 3, 0, 0, 5),
                  (0, 4, 3, 3, 5), (3, 3, 0, 3, 5), (3, 3, 0, 2, 5)]


# 1 is created at seq 0 as (1, 0), exits, and is named as 2's parent, which
# makes the pre-existing (1, 0) live: a key equal to the created one's, but
# not a created process, so 2's second thread, from 1's image, names no
# injector.
SEQ_ZERO_REVIVED = [(2, 1, 0, 0, 5), (0, 2, 1, 2, 5), (3, 2, 0, 0, 5), (3, 2, 0, 0, 5)]


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, len(ROW_KINDS) - 1), st.integers(1, 6), st.integers(0, 6),
                               st.integers(0, len(ROW_IMAGES) - 1),
                               st.sampled_from([0, 5, 40, 400, 1500, 3000, -50, -2500])),
                     max_size=60),
       self_parent_first=st.booleans(), window_ms=st.integers(0, 5000))
@example(rows=REVIVED_PARENT, self_parent_first=False, window_ms=2000)
@example(rows=SEQ_ZERO_REVIVED, self_parent_first=True, window_ms=2000)
def test_findings_are_the_same_on_the_injection_kinds_alone(rows, self_parent_first, window_ms):
    trace = trace_of(rows, self_parent_first)
    findings = detect_remote_thread_injection(trace, window_ms)
    assert findings == reference_injections(trace, window_ms)
    subset = injection_subset(trace)
    assert detect_remote_thread_injection(subset, window_ms) == findings
    assert reference_injections(subset, window_ms) == findings
    assert all(f.injector != f.target for f in findings)


def test_a_preexisting_instance_equal_to_a_created_one_is_not_an_injector():
    trace = trace_of(SEQ_ZERO_REVIVED, True)
    assert detect_remote_thread_injection(trace) == []
    # The same thread with 1 still live names the created (1, 0).
    still_live = trace_of(SEQ_ZERO_REVIVED[1:], True)
    assert [(f.target, f.injector) for f in detect_remote_thread_injection(still_live)] == [
        (ProcessKey(2, 1), ProcessKey(1, 0))]


def test_the_detector_resolves_the_injection_kinds_alone():
    # The Irp synthesizes (3, 0); 3 is created as (3, 4), exits and is named
    # as a parent, which makes (3, 0) live again. So 3's threads belong to
    # (3, 0) in the forest and in the detector, with or without the Irp.
    trace = trace_of(REVIVED_PARENT, False)
    findings = detect_remote_thread_injection(trace)
    assert [(f.target, f.injector) for f in findings] == [(ProcessKey(3, 0), ProcessKey(2, 3))]
    assert findings == detect_remote_thread_injection(injection_subset(trace))
    for fed in (trace, injection_subset(trace)):
        forest = build_forest(fed)
        assert (forest.node(ProcessKey(3, 0)).threads, forest.node(ProcessKey(3, 4)).threads) == (2, 0)


def test_a_resolver_fed_any_kinds_with_the_creates_and_exits_gives_the_full_feed_keys():
    # A record's key depends only on the creates and exits before it, so a
    # pass may skip any other kind and still name the same processes.
    optional = sorted({kind_name(k) for k in ROW_KINDS} - {"ProcessCreate", "ProcessExit"})
    subsets = [{"ProcessCreate", "ProcessExit", *kept}
               for n in range(len(optional) + 1) for kept in itertools.combinations(optional, n)]
    assert len(subsets) == 32
    for seed in range(400):
        rng = random.Random(seed)
        trace = trace_of(random_rows(rng), rng.random() < 0.2)
        full = Resolver()
        keys = [(r, full.resolve(r)) for r in trace.records]
        for kinds in subsets:
            resolver = Resolver()
            for r, key in keys:
                if kind_name(r.kind) in kinds:
                    assert resolver.resolve(r) == key, f"seed {seed}, seq {r.global_seq}, kinds {sorted(kinds)}"


def test_findings_match_the_brute_force_reference_on_random_traces():
    seen = set()
    for seed in range(400):
        rng = random.Random(seed)
        trace = trace_of(random_rows(rng), rng.random() < 0.2)
        window_ms = rng.randint(0, 5000)
        findings = detect_remote_thread_injection(trace, window_ms)
        assert findings == reference_injections(trace, window_ms), f"seed {seed}"
        assert detect_remote_thread_injection(injection_subset(trace), window_ms) == findings, f"seed {seed}"
        for f in findings:
            seen.add(f.confidence)
            creator = next(r for r in trace.records if r.global_seq == f.thread_seq).image_path
            if normalize_path(creator) == PRE_EXISTING_IMAGE:
                seen.add("placeholder image")
        if trace.records[0].global_seq == 0 and findings:
            seen.add("seq-0 self-parent")
    assert seen == {*InjectionConfidence, "placeholder image", "seq-0 self-parent"}


# --- the placeholder rule --------------------------------------------------------

def test_a_placeholder_is_never_an_injector():
    # pid 4 is synthesized as 60's parent, with the placeholder image. A
    # thread created in 60 from that image names no injector, since the
    # placeholder stands for a process whose image is unknown.
    rows = [
        (PROCESS_CREATE, 60, 4, 0, VICTIM),
        (THREAD_CREATE, 60, 4, 501, VICTIM),
        (THREAD_CREATE, 60, 4, 502, "<PRE-EXISTING>"),
    ]
    assert detect_remote_thread_injection(build_trace(rows)) == []
    # A created process whose image path is that text is a candidate.
    rows[1:1] = [(PROCESS_CREATE, 70, 4, 0, PRE_EXISTING_IMAGE)]
    [finding] = detect_remote_thread_injection(build_trace(rows))
    assert (finding.target, finding.injector) == (ProcessKey(60, 1), ProcessKey(70, 2))


def test_no_process_is_its_own_injector():
    # At seq 0 a create whose ppid is its own pid gives the process and its
    # synthesized parent one key, (7, 0). That placeholder was the only
    # candidate an owner could share a key with; every created process on
    # the creator image's stack has that image, which differs from the
    # owner's. So the detector needs no owner filter.
    records = [r.with_seq(r.global_seq - 1) for r in build_trace([
        (PROCESS_CREATE, 7, 7, 0, "C:\\a\\seven.exe"),
        (THREAD_CREATE, 7, 0, 70, "C:\\a\\seven.exe"),
        (THREAD_CREATE, 7, 0, 71, PRE_EXISTING_IMAGE),
        (THREAD_CREATE, 7, 0, 72, "C:\\a\\seven.exe"),
    ]).records]
    trace = trace_from_records(records)
    assert build_forest(trace).node(ProcessKey(7, 0)).image_path == "C:\\a\\seven.exe"
    assert detect_remote_thread_injection(trace) == []


def test_the_forest_keeps_no_injection_state():
    assert set(vars(ForestFold(activity=True))) == {
        "activity", "resolver", "roots", "index", "_live_threads"}
    # a node keeps what `tree` prints, and nothing else
    assert set(ProcessNode.__dataclass_fields__) == {
        "key", "parent", "image_path", "args", "threads", "images", "io_summary", "dropped_files",
        "children"}


# --- cost per record ------------------------------------------------------------------

def same_image_peers(k: int) -> Trace:
    """k live processes share one image, then k thread creates with that
    image land in one other process."""
    rows = [(PROCESS_CREATE, 1000 + 4 * i, 4, 0, INJECTOR) for i in range(k)]
    rows += [(PROCESS_CREATE, 60, 4, 0, VICTIM), (THREAD_CREATE, 60, 4, 1, VICTIM)]
    rows += [(THREAD_CREATE, 60, 4, 2 + i, INJECTOR) for i in range(k)]
    return build_trace(rows)


def time_stepping_back(k: int) -> Trace:
    """One target gets k remote threads stamped an hour ahead, then k image
    loads at the earlier time."""
    trace = build_trace([(PROCESS_CREATE, 50, 4, 0, INJECTOR), (PROCESS_CREATE, 60, 4, 0, VICTIM),
                         (THREAD_CREATE, 60, 4, 1, VICTIM)]
                        + [(THREAD_CREATE, 60, 4, 2 + i, INJECTOR) for i in range(k)]
                        + [(IMAGE_LOAD, 60, 4, 0, VICTIM, "", "C:\\x.dll")] * k)
    records = [replace(r, time=r.time + timedelta(hours=1)) if r.kind is THREAD_CREATE
               else replace(r, time=BASE_TIME) for r in trace.records]
    return trace_from_records(records, trace.header)


def examined_per_record(shape, k: int) -> float:
    """Stack and heap entries the detector looks at per record of shape(k);
    each shape plants k findings."""
    trace = shape(k)
    injections = InjectionFold(2000)
    assert len(folded(injections, trace.records)) == k
    return injections.examined / len(trace.records)


def test_lookups_per_record_stay_flat_as_peers_and_open_findings_grow():
    for shape in (same_image_peers, time_stepping_back):
        small, large = examined_per_record(shape, 1_000), examined_per_record(shape, 8_000)
        assert 0 < large <= small * 1.01, (shape.__name__, small, large)
