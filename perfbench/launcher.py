"""Starts the timed ``lase`` commands for run.py and reports what each cost.

The kernel counts, in a child's max RSS, the memory of the process it was
forked from.  run.py therefore starts this small process before it generates
any input, and has it start every timed command, so that ``peak_rss_mb``
measures lase and not the benchmark.

Protocol: one JSON request per stdin line, ``{"argv", "env", "stdout",
"stderr"}``; one JSON reply per stdout line, ``{"rc", "wall", "cpu",
"rss_kb"}``.  The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, env=request["env"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"rc": proc.returncode, "wall": wall,
                          "cpu": usage.ru_utime + usage.ru_stime,
                          "rss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
