"""Checks of the benchmark's output gate, run from the root of a lase checkout.

    python3 perfbench/selfcheck.py         # show that corrupted outputs count as failed
    python3 perfbench/selfcheck.py --pin   # rewrite pins.json at the default seed

The self-check runs every workload's commands in-process, once at the
default seed and full size and once at another seed and a tenth of the size.
Each clean output must pass its check.  At the default seed one byte in the
middle of each output is flipped, which the pinned sha256 must catch; at the
other seed the middle line is removed, which the seed-independent checks
must catch.  It exits 1 if any corrupted output was counted as correct.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

WORK_DIR = Path(".bench_work")


def flip_middle_byte(out: bytes) -> bytes:
    i = len(out) // 2
    return out[:i] + bytes([out[i] ^ 0x01]) + out[i + 1:]


def drop_middle_line(out: bytes) -> bytes:
    lines = out.split(b"\n")
    del lines[len(lines) // 2]
    return b"\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", action="store_true", help="rewrite pins.json")
    args = parser.parse_args(argv)
    if not Path("src/lase/cli.py").is_file():
        print("error: run from the root of a lase checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    from tracing import run_cli
    from workloads import DEFAULT_SEED, PINS_FILE, WORKLOADS, check_step, load_pins, sha256

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    pins = {} if args.pin else load_pins()
    missed = 0
    try:
        cases = [(DEFAULT_SEED, 1.0, flip_middle_byte)]
        if not args.pin:
            cases.append((DEFAULT_SEED + 1, 0.1, drop_middle_line))
        for seed, scale, corrupt in cases:
            for workload, setup in WORKLOADS.items():
                for step in setup(WORK_DIR, seed, scale).steps:
                    rc, out = run_cli(step.argv)
                    pin_seed = seed if scale == 1.0 and not args.pin else None
                    clean = check_step(workload, step, rc, out, pin_seed, pins)
                    if args.pin:
                        if clean:  # only outputs that pass every other check are pinned
                            print(f"not pinned: {workload}.{step.name}: {clean}", file=sys.stderr)
                            return 1
                        pins.setdefault(workload, {})[step.name] = sha256(step.canon(out))
                        continue
                    bad = check_step(workload, step, rc, corrupt(out), pin_seed, pins)
                    verdict = "ok" if clean is None and bad is not None else "MISSED"
                    missed += verdict != "ok"
                    print(f"{verdict}\tseed {seed}\t{workload}.{step.name}\t{corrupt.__name__}"
                          f"\tclean: {clean or 'passes'}\tcorrupted: {bad or 'passes'}")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if args.pin:
        PINS_FILE.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        print(f"wrote {PINS_FILE}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
