"""One paper_cli job: `cli_child.py TRACE_PATH|- ARGS...` runs cliffideal.cli.main(ARGS).

With a trace path, per-layer spans are recorded from the moment main is
entered and written to that path when main returns or exits, with the
perf_counter reading at entry (the parent's spawn time is on the same
clock).
"""

import sys
import time

from cliffideal import cli


def _run() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    if trace_path == "-":
        return cli.main(argv)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    entered = time.perf_counter()
    try:
        return cli.main(argv)
    finally:  # also when main raises SystemExit
        tracer.uninstall()
        tracer.dump(trace_path, main_entered=entered)


if __name__ == "__main__":
    raise SystemExit(_run())
