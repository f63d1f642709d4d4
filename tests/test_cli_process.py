"""What one `lase` command costs its process: the cyclic collector is paused
while the command runs, the records it holds form no reference cycles, and
the process imports only the analysis modules the command calls."""

from __future__ import annotations

import gc
import itertools

import pytest

from helpers import run_lase

from lase import cli, forest
from lase.codec import TraceReader, write_trace
from lase.events import EventRecord
from lase.pipeline import BackpressurePolicy, WorkloadSpec, run_synthetic


def run_main(capsys, *argv) -> int:
    code = cli.main([str(a) for a in argv])
    capsys.readouterr()
    return code


# --- the collector's state ------------------------------------------------------

@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def caller_gc(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_command_runs_with_the_collector_paused(caller_gc, fixture_path, capsys, monkeypatch):
    seen = []

    def spy(args):
        seen.append(gc.isenabled())
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "_cmd_validate", spy)
    assert run_main(capsys, "validate", fixture_path) == 0
    assert seen == [False]
    assert gc.isenabled() is caller_gc


@pytest.mark.parametrize("argv, code", [
    (["validate", "{fixture}"], 0),
    (["validate", "{missing}"], 2),  # input error
    (["tree"], 1),  # usage error, before the command runs
])
def test_main_restores_the_callers_collector_state(caller_gc, fixture_path, tmp_path, capsys,
                                                   argv, code):
    argv = [a.format(fixture=fixture_path, missing=tmp_path / "nope.lase") for a in argv]
    assert run_main(capsys, *argv) == code
    assert gc.isenabled() is caller_gc


def test_internal_error_restores_the_collector_state(caller_gc, fixture_path, capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_validate", boom)
    assert run_main(capsys, "validate", fixture_path) == cli.EXIT_INTERNAL
    assert gc.isenabled() is caller_gc


# --- no reference cycles per record -----------------------------------------------

SMALL, LARGE = 2_000, 8_000


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """{records per producer: (trace path, second trace path)}"""
    out = {}
    for n in (SMALL, LARGE):
        paths = []
        for seed in (1, 2):
            path = tmp_path_factory.mktemp("traces") / f"t{n}_{seed}.lase"
            write_trace(run_synthetic(WorkloadSpec(events_per_producer=n, seed=seed,
                                                   injection_templates=4)), path)
            paths.append(path)
        out[n] = tuple(paths)
    return out


COMMANDS = {
    "validate": lambda n, t, t2, tmp: ["validate", t],
    "tree-dot": lambda n, t, t2, tmp: ["tree", t],
    "tree-json": lambda n, t, t2, tmp: ["tree", t, "--format", "json"],
    "inject-scan": lambda n, t, t2, tmp: ["inject-scan", t],
    "fingerprint": lambda n, t, t2, tmp: ["fingerprint", t],
    "intrude-dwell": lambda n, t, t2, tmp: ["intrude", t, t2, "--dwell"],
    "diff": lambda n, t, t2, tmp: ["diff", "--bare", t, "--vm", t2],
    "replay-1x1": lambda n, t, t2, tmp: ["replay", t, "--out", tmp / "r.lase"],
    "replay-2x1": lambda n, t, t2, tmp: ["replay", t, "--out", tmp / "r.lase", "--producers", "2"],
    "gen": lambda n, t, t2, tmp: ["gen", "--events", n, "--out", tmp / "g.lase"],
    "bench": lambda n, t, t2, tmp: ["bench", "--dir", tmp / "bench", "--files", n // 400,
                                    "--small", "64", "--large", "256", "--reps", "1"],
}


def cyclic_garbage_after(capsys, argv) -> int:
    """Objects the collector frees after one main(argv), none freed during it."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert run_main(capsys, *argv) == 0
        return gc.collect()
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_commands_leave_no_cyclic_garbage_per_record(command, traces, tmp_path, capsys):
    found = {}
    for n in (SMALL, LARGE):
        work = tmp_path / str(n)
        work.mkdir()
        found[n] = cyclic_garbage_after(capsys, COMMANDS[command](n, *traces[n], work))
    # What is found is the argument parser and per-run objects, not records:
    # one cyclic object per record would add thousands at the larger size.
    assert found[LARGE] <= found[SMALL] + 50, found
    assert found[LARGE] < 1_000, found


def live_records() -> int:
    gc.collect()
    return sum(isinstance(o, EventRecord) for o in gc.get_objects())


@pytest.fixture(scope="module")
def streamed_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("streamed") / "t.lase"
    write_trace(run_synthetic(WorkloadSpec(events_per_producer=5_000, seed=1,
                                           injection_templates=4)), path)
    return path


def test_tree_renders_after_the_records_are_freed(streamed_trace, capsys, monkeypatch):
    render_dot = forest.render_dot

    def spy(*args, **kwargs):
        alive.append(live_records() - before)
        return render_dot(*args, **kwargs)

    monkeypatch.setattr(forest, "render_dot", spy)
    alive, before = [], live_records()
    assert run_main(capsys, "tree", streamed_trace) == 0
    assert len(alive) == 1 and alive[0] < 100, alive  # none of the 5,000 read


@pytest.mark.parametrize("argv", [["tree"], ["tree", "--format", "json"], ["fingerprint"],
                                  ["inject-scan"]], ids=" ".join)
def test_streamed_commands_hold_few_records_at_once(argv, streamed_trace, capsys, monkeypatch):
    records = TraceReader.__iter__

    def sampled(reader):
        # Counts the live records before every 250th record is read and
        # after the last; holds none of them while it counts.
        it = records(reader)
        for i in itertools.count():
            if i % 250 == 0:
                alive.append(live_records() - before)
            record = next(it, None)
            if record is None:
                alive.append(live_records() - before)
                return
            yield record
            del record

    monkeypatch.setattr(TraceReader, "__iter__", sampled)
    alive, before = [], live_records()
    assert run_main(capsys, argv[0], streamed_trace, *argv[1:]) == 0
    assert len(alive) > 2 and max(alive) < 100, alive


# --- the modules a command imports ---------------------------------------------

# What every command loads: the package and the codec.
BASE = {"lase", "lase.errors", "lase.irp", "lase.events", "lase.codec"}

IMPORTS = {
    "validate": (lambda f, tmp: ["validate", f], set()),
    "tree": (lambda f, tmp: ["tree", f], {"lase.forest"}),
    "inject-scan": (lambda f, tmp: ["inject-scan", f], {"lase.forest"}),
    "gen": (lambda f, tmp: ["gen", "--events", "10", "--out", tmp / "g.lase"], {"lase.pipeline"}),
    "replay": (lambda f, tmp: ["replay", f, "--out", tmp / "r.lase"], {"lase.pipeline"}),
    "fingerprint": (lambda f, tmp: ["fingerprint", f], {"lase.fingerprint", "lase.forest"}),
    "intrude": (lambda f, tmp: ["intrude", f, "--dwell"], {"lase.intrusion", "lase.forest"}),
    "diff": (lambda f, tmp: ["diff", "--bare", f, "--vm", f], {"lase.diffreport"}),
    "bench": (lambda f, tmp: ["bench", "--dir", tmp / "bench", "--files", "2", "--small", "64",
                              "--large", "64", "--reps", "1"], {"lase.bench", "lase.pipeline"}),
}


def test_the_policy_choices_are_the_pipeline_policies():
    assert list(cli._POLICIES) == [p.value for p in BackpressurePolicy]


def imported_modules(stderr: str) -> set[str]:
    """Module names from the interpreter's -X importtime lines."""
    return {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


def imported_lase_modules(stderr: str) -> set[str]:
    return {name for name in imported_modules(stderr) if name == "lase" or name.startswith("lase.")}


@pytest.mark.parametrize("command", list(IMPORTS))
def test_a_command_imports_only_the_modules_it_calls(command, fixture_path, tmp_path, monkeypatch):
    argv, extra = IMPORTS[command]
    monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
    code, _, err = run_lase(*argv(fixture_path, tmp_path))
    assert code == 0, err
    assert imported_lase_modules(err) == BASE | extra


# A corpus diff reads its pairs on the main thread and the dwell median is
# computed in place: neither command starts a thread pool or loads statistics
# (with fractions and decimal).
@pytest.mark.parametrize("command", ["diff", "intrude"])
def test_diff_and_intrude_load_no_thread_pool_and_no_statistics(command, fixture_path, tmp_path,
                                                                 monkeypatch):
    for side in ("bare", "vm"):
        (tmp_path / side).mkdir()
        for stem in ("s1", "s2"):
            (tmp_path / side / f"{stem}.lase").write_bytes(fixture_path.read_bytes())
    argv = {"diff": ["diff", "--bare", tmp_path / "bare", "--vm", tmp_path / "vm"],
            "intrude": ["intrude", tmp_path / "bare" / "s1.lase", tmp_path / "vm" / "s2.lase", "--dwell"]}
    monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
    code, out, err = run_lase(*argv[command])
    assert code == 0 and out, err
    assert not imported_modules(err) & {"concurrent.futures", "statistics"}
