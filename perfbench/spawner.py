"""Run commands for run.py and report each one's wall time, CPU time and peak RSS.

A child's ``ru_maxrss`` also counts the peak RSS of the process that
started it: when the child execs, the kernel credits it with the address
space it leaves.  run.py holds outputs and check data that would swamp
the smaller commands, so it starts every command through this process,
which imports nothing heavy and stays small.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stderr": "path"}``, and one JSON reply per line on
stdout, ``{"wall": seconds, "cpu": seconds, "status": exit status,
"maxrss_kib": n}``, where ``cpu`` is the child's user plus system time.
The process exits at the end of stdin.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as stderr:
            start = time.perf_counter()
            child = subprocess.Popen(
                request["argv"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr
            )
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "status": child.returncode,
            "maxrss_kib": usage.ru_maxrss,
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
