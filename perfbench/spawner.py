"""Start child processes on behalf of perfbench/run.py and time them.

Reads one JSON request per line on stdin, ``{"argv": [...], "log": path,
"env": {...}, "cwd": path}``, runs the child to completion and answers with
one JSON line ``{"start": t0, "stop": t1, "rss_mb": peak, "code": exit code}``
(``time.perf_counter`` readings around the child's whole life).
Exits at end of input.

Linux starts a child on a copy of its parent's address space, and the
child's peak RSS as ``wait4`` reports it includes the parent's high-water
mark.  This process stays small, so the peak RSS it reports is the
child's own, whatever run.py has loaded.
"""

import json
import os
import subprocess
import sys
import time


def run(req):
    with open(req["log"], "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=subprocess.DEVNULL, stderr=log,
                                env=req["env"], cwd=req["cwd"])
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"start": t0, "stop": t1, "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
