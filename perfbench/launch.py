"""Start CLI processes on request and report how each ran.

    python3 perfbench/launch.py WORKDIR

Reads one JSON array per line on stdin: the argv of a process and the file
for its stderr.  Runs it in WORKDIR with stdout discarded, waits for it,
and writes one JSON line: [exit code, wall s, cpu s, max RSS KiB].  Exits at
end of input.

The benchmark starts its CLI jobs through this small process, not from its
own: Linux carries the peak RSS of the process that spawns a child into the
child's ru_maxrss, so a spawner holding the benchmark's references would
show up in every job's max RSS.  The rusage of wait4 covers the process and
the children it waited for, such as search workers.
"""

import json
import os
import signal
import sys
import threading
import time

TIMEOUT_S = 150


def run(argv: list, stderr_path: str) -> list:
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    watchdog = threading.Timer(TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    return [os.waitstatus_to_exitcode(status), wall, cpu, usage.ru_maxrss]


def main() -> None:
    os.chdir(sys.argv[1])
    for line in sys.stdin:
        argv, stderr_path = json.loads(line)
        print(json.dumps(run(argv, stderr_path)), flush=True)


if __name__ == "__main__":
    main()
