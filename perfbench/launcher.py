"""Starts the benchmark's measured commands from a small process.

On Linux a child's peak RSS (``ru_maxrss``) includes the memory of the
process that started it, up to the moment the child's program is loaded.
The benchmark process holds the generated corpora, so it starts this
launcher first, while it is still small, and has the launcher start every
measured command. The launcher imports nothing beyond the standard library.

Protocol: one JSON request per line on stdin,
{"argv": [...], "env": {...}, "cwd": "...", "log": "...", "timeout_s": N};
one JSON reply per line on stdout,
{"code": int, "wall_s": float, "cpu_s": float, "rss_mb": float}.
The launcher exits when stdin closes.
"""
import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    """Run one command to completion and measure it.

    Wall time runs from just before the process is started to just after it
    is reaped; CPU time and peak RSS are the child's own (wait4 rusage). A
    command still running after timeout_s is killed.
    """
    with open(request["log"], "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], env=request["env"], cwd=request["cwd"],
                                stdout=log, stderr=log, stdin=subprocess.DEVNULL)
        killer = threading.Timer(request["timeout_s"], os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
