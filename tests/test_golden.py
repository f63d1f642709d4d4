"""Golden outputs: sha256 digests recorded before the generator, codec,
forest and ring were rewritten for speed. Any change to the RNG draw
sequence, the byte encoding or the analysis order shows up here."""

from __future__ import annotations

import hashlib
import io

import pytest

from helpers import findings_jsonl

from lase.codec import read_trace, write_trace
from lase.forest import build_forest, render_dot
from lase.pipeline import PipelineConfig, WorkloadSpec, replay_fixture, run_synthetic


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trace_bytes(trace) -> bytes:
    buf = io.BytesIO()
    write_trace(trace, buf)
    return buf.getvalue()


SEED_DIGESTS = {
    0: "cb5fae371f5a79007b9a40ec86f04e47cb1d8d264cb92da1f56d168a8bffad8b",
    1: "5a92645e56e47969d7727c466add98dcf56f3c55a6f57b3d4c408ac62d68dfe4",
    2: "10010eb0497bdf74e1586df613a8cd7e275998f3e66955ed0ba49181bafd84a0",
    3: "81ee6ffb735bd875caddba8a89378f5c4b747621d10ff14781285f356f3fdd70",
    4: "a52761855423293cc57284bd1845fd6710d44077b041b3380474c1d251d1c090",
    5: "0dc679ad456d28688a215390b0929de7f9abb9266bbf27d305653a67d1d7f492",
    6: "9e65c65ebdf9e1ddb2c89a41433863cae7355627b699fffe7d55bd2369d63552",
    7: "1a51cb5c8a1dd52a0886576e1c24103240edfe0b5690b86347e8d6facd4649ba",
    8: "a0fd2a1e38cf6d460f626dd60d6f09d8375dc955cf1892a59bf78d974ae21ab6",
    9: "4d340120c7d94124b6dbfdd9c8334bd38850831a162d4ccdc14bc1e12e786447",
}

# A mix that exits processes and threads often, spells IRP tokens in
# display and lower-case form, and draws a fast-I/O major.
HEAVY_MIX = {
    "ProcessCreate": 0.15, "ProcessExit": 0.12, "ThreadCreate": 0.15, "ThreadExit": 0.13,
    "ImageLoad": 0.05, "Annotation": 0.05, "Irp:IRP_Read": 0.15,
    "Irp:IRP_MJ_MDL_READ": 0.1, "Irp:irp_mj_write": 0.1,
}

SPEC_DIGESTS = [
    (WorkloadSpec(events_per_producer=0, seed=3),
     "fb380a2c7d5ff43c9afecd91044f4c20c016637ce42a1d00a6eebc21a1358099"),
    (WorkloadSpec(events_per_producer=1, seed=3),
     "30ca1dc51f36d6e13836047cc093856084278e08834e5c93ee15bdee9d4db849"),
    (WorkloadSpec(events_per_producer=2, seed=3),
     "2c180553e2f05dbcc89716952dc14e17faf2974f72a2672c7635dc7436cf63fb"),
    (WorkloadSpec(events_per_producer=7, seed=3),
     "68a5f9f8c31dc6168c336422ca45f2f8fda50bf0d26739980ecc861ccb8c272e"),
    (WorkloadSpec(events_per_producer=100, seed=3),
     "a69cb9a5d8490b079769a963c99b8006f5550d81c2e8a0a9c6c61e2d7fc6fc0f"),
    (WorkloadSpec(events_per_producer=600, seed=4),
     "767ca2394d489bed345d1e65ed12682547fcc7e1530081f8a9922e2b5c7c115f"),
    (WorkloadSpec(events_per_producer=1500, seed=4),
     "136c11425f510f253c13230fac76e680fdaeac95e08f8bc745e9710c384c44f9"),
    (WorkloadSpec(events_per_producer=500, injection_templates=1, seed=5),
     "e28cf36c1abeeba1948e20071607c6ebc42d9ff23aa46dddfca4dad838323f45"),
    (WorkloadSpec(events_per_producer=500, injection_templates=4, seed=5),
     "3de55741ae0b8c40935810bed1e1ed489330fb603f692a6e73e39f31ca52176b"),
    (WorkloadSpec(events_per_producer=0, injection_templates=3, seed=5),
     "b1587f2c427acf58481c3ed3af81aeeddeedcbdaddb375cf263e22ab1b2bead5"),
    (WorkloadSpec(events_per_producer=3000, mix=HEAVY_MIX, seed=6),
     "7fce909d767ec00f71ccf9a3f08482e829358dc76aa7de61bb3be73ba708e901"),
    (WorkloadSpec(events_per_producer=1000, branching={0: 0.7, 5: 0.3}, seed=7),
     "48e3ed996b2ad9481d6b8159eb6661ba4c0de6f41502c9c0ddb8d19d78c217df"),
]


@pytest.mark.parametrize("seed", sorted(SEED_DIGESTS))
def test_generated_trace_digest_per_seed(seed):
    trace = run_synthetic(WorkloadSpec(events_per_producer=2000, seed=seed))
    assert _sha(_trace_bytes(trace)) == SEED_DIGESTS[seed]


@pytest.mark.parametrize("spec,digest", SPEC_DIGESTS)
def test_generated_trace_digest_per_spec(spec, digest):
    assert _sha(_trace_bytes(run_synthetic(spec))) == digest


@pytest.fixture(scope="module")
def injected_trace():
    return run_synthetic(WorkloadSpec(events_per_producer=5000, injection_templates=6, seed=8))


def test_forest_dot_digest(injected_trace):
    dot = render_dot(build_forest(injected_trace))
    assert _sha(dot.encode()) == "7432db3eae07354fc2f91dac602ac13bdf327b81459a1f4d16748601b8c24b5b"


def test_injection_findings_digest(injected_trace, capsys, tmp_path):
    findings = findings_jsonl(capsys, tmp_path, "inject-scan", injected_trace)
    assert findings.count("\n") >= 6
    assert _sha(findings.encode()) == "88ace9331528003922d0c8ca6ff3d270066fc8e3e9dbc311b08074d0a8479fe6"


def test_replay_digest(injected_trace):
    replayed = replay_fixture(injected_trace, config=PipelineConfig(ring_capacity=8, chunk_size=4))
    assert _sha(_trace_bytes(replayed)) == "ec66c2cecf44dadc8fbce877bcee14dc2d438547de26ac0b641088ed106d9e62"


def test_fixture_byte_round_trip(fixture_path):
    raw = fixture_path.read_bytes()
    assert _trace_bytes(read_trace(raw)) == raw
