"""Starts the benchmark's child processes and reports each one's own peak RSS.

    python3 -I -S launcher.py

reads one JSON request per stdin line, {"argv", "cwd", "stdout", "stderr"},
runs argv to completion with stdout and stderr written to those files,
and answers with one JSON line {"code", "spawned_at", "wall_s",
"maxrss"}: the exit code, perf_counter just before the spawn, the time
from spawn until the exit status was collected, and ru_maxrss from
os.wait4.  It exits when stdin closes.

On Linux a child's ru_maxrss starts at the resident set of the process
it was spawned from, because the child shares that memory until exec.
Children spawned by the benchmark itself, which holds the job lists,
would report the benchmark's peak rather than their own.  This process
imports almost nothing (about 10 MB), and every child's own peak is
larger than that, so the maxrss it reports is the child's.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        os.chdir(req["cwd"])
        out = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2),
                   (os.POSIX_SPAWN_CLOSE, out), (os.POSIX_SPAWN_CLOSE, err)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        os.close(out)
        os.close(err)
        sys.stdout.write(json.dumps({"code": os.waitstatus_to_exitcode(status),
                                     "spawned_at": t0, "wall_s": wall,
                                     "maxrss": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
