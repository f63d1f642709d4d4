"""Every analysis is a fold (kinds, feed, result) beneath its public name:
a streaming TraceReader that builds only the fold's kinds, fed through
forest.folded, gives what the public function gives on the held trace."""

from __future__ import annotations

import gzip
import random
import shutil

import pytest

from helpers import (
    chain,
    fan_out,
    pid_churn,
    random_rows,
    remote_thread_pairs,
    threads_in_one_process,
    trace_of,
    written_paths,
)

from lase import cli, fingerprint, intrusion
from lase.codec import TraceReader, read_trace, write_trace
from lase.events import kind_name
from lase.forest import ForestFold, InjectionFold, build_forest, detect_remote_thread_injection, folded

SIGNATURES = fingerprint.default_signatures()


def forest_state(forest) -> tuple:
    """Everything a forest holds, comparable with ==: its nodes compare by
    identity."""
    return (forest.roots, forest.warnings,
            [(key, n.parent, n.image_path, n.args, n.threads, n.images, n.io_summary, n.dropped_files,
              n.children) for key, n in forest.index.items()])


# name -> (a new fold, the public function on a held trace, a comparable form of either's result)
FOLDS = {
    "forest": (lambda: ForestFold(True), build_forest, forest_state),
    "forest_no_activity": (lambda: ForestFold(False), lambda t: build_forest(t, activity=False), forest_state),
    "injection": (lambda: InjectionFold(2000), detect_remote_thread_injection, list),
    "injection_window_0": (lambda: InjectionFold(0), lambda t: detect_remote_thread_injection(t, 0), list),
    "fingerprint": (lambda: fingerprint.Scan(SIGNATURES), lambda t: fingerprint.scan(t, SIGNATURES), list),
    "intrusion": (lambda: intrusion.CommandScan(intrusion.DEFAULT_RULES), intrusion.scan_commands, list),
}


@pytest.fixture(scope="module")
def sources(tmp_path_factory, fixture_path) -> dict[str, list]:
    """Trace files by family: the fixture plain and gzip, a generated trace
    with planted injections, 50 random_rows traces, and the six shapes of
    tests/helpers.py at a small size (the only family with tactics)."""
    root = tmp_path_factory.mktemp("folds")
    with open(fixture_path, "rb") as plain, gzip.open(root / "fixture.lase.gz", "wb") as packed:
        shutil.copyfileobj(plain, packed)
    generated = root / "generated.lase"
    assert cli.main(["gen", "--seed", "1", "--injections", "20", "--out", str(generated)]) == 0
    found = {"fixture": [fixture_path, root / "fixture.lase.gz"], "generated": [generated], "random": [],
             "shapes": []}
    for seed in range(50):
        rng = random.Random(seed)
        path = root / f"random{seed}.lase"
        write_trace(trace_of(random_rows(rng), rng.random() < 0.2), path)
        found["random"].append(path)
    for shape in (chain, fan_out, pid_churn, threads_in_one_process, remote_thread_pairs, written_paths):
        path = root / f"{shape.__name__}.lase"
        write_trace(shape(30), path)
        found["shapes"].append(path)
    return found


@pytest.mark.parametrize("family", ["fixture", "generated", "random", "shapes"])
@pytest.mark.parametrize("name", list(FOLDS))
def test_a_fold_fed_a_stream_of_its_kinds_gives_the_public_result(sources, name, family):
    make, public, form = FOLDS[name]
    results = 0
    for path in sources[family]:
        fold = make()
        streamed = folded(fold, TraceReader(path, fold.kinds))
        held = public(read_trace(path))
        assert form(streamed) == form(held), path.name
        results += bool(held.index if name.startswith("forest") else held)
    # Each family gives every fold something to agree on, except where the
    # family plants nothing of that kind.
    nothing = {("fixture", "injection"), ("fixture", "injection_window_0"), ("fixture", "intrusion"),
               ("generated", "fingerprint"), ("generated", "intrusion"), ("random", "intrusion")}
    assert (results == 0) == ((family, name) in nothing)


def test_the_command_scan_fed_its_kinds_equals_one_fed_every_record(sources):
    for paths in sources.values():
        for path in paths:
            records = read_trace(path).records
            kept = [r for i, r in enumerate(records) if i == 0 or kind_name(r.kind) in intrusion.CommandScan.kinds]
            rules = intrusion.DEFAULT_RULES
            assert folded(intrusion.CommandScan(rules), kept) == folded(intrusion.CommandScan(rules), records)

