"""Run one command as a child of this small interpreter and report its cost.

Usage: python3 -I -S reap.py COST_FILE PROGRAM [ARG...]

A process's peak RSS (``ru_maxrss``) counts the memory of the process it
was forked from, so a command started straight from the benchmark would
report at least the benchmark's own RSS, which grows with the samples it
holds. Started from here it reports at least this interpreter's 9 MiB.
The command inherits stdin, stdout, stderr and the environment. When it
has ended, COST_FILE gets one line: its wall-clock seconds from fork to
exit, its peak RSS in KiB and its exit code. SIGTERM kills the command,
waits for it and exits.
"""

import os
import signal
import sys
import time

cost_file, argv = sys.argv[1], sys.argv[2:]
pid = 0


def _kill(*_):
    if pid:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


signal.signal(signal.SIGTERM, _kill)
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(argv[0], argv)
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
with open(cost_file, "w") as f:
    f.write(f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}\n")
