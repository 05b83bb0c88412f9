"""Runs and times the benchmark's child processes, on behalf of run.py.

On Linux a child's ``ru_maxrss`` includes the resident size of the process
that spawned it, because the child starts in its parent's memory until it
calls exec. run.py holds the generated inputs and expected outputs, hundreds
of MB, so it spawns every timed child through this small process instead.

Protocol: one JSON request per line on stdin, ``{"cmd": [...], "stderr":
path}``; one JSON reply per line on stdout with the child's exit code, wall
time from spawn to exit, CPU time and peak RSS. It exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time

#: A child that runs longer than this is killed; run.py counts it as failed.
CHILD_TIMEOUT_S = 60.0


def spawn(cmd: list, stderr_path: str) -> dict:
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(spawn(request["cmd"], request["stderr"])), flush=True)


if __name__ == "__main__":
    main()
