"""Run one command; print its start and end clock, exit code and peak RSS.

    python3 -S perfbench/launch.py LOG COMMAND [ARG ...]

COMMAND's stdout and stderr go to LOG. The one line printed is
``start end exit_code peak_rss_kb``, with start and end read from
``time.perf_counter`` (CLOCK_MONOTONIC, the same in every process).

The benchmark starts its CLI processes through this small launcher because
on Linux a child's ``ru_maxrss`` includes the resident memory of the
process that spawned it, and the benchmark process itself is larger than
the CLI on small inputs.
"""

import os
import sys
import time


def main() -> int:
    log, argv = sys.argv[1], sys.argv[2:]
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)])
    _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter()
    os.close(fd)
    print(repr(start), repr(end), os.waitstatus_to_exitcode(status), usage.ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main())
