"""Where a CLI command's time goes: spawn to main, main, and main's return to the exit status.

    python3 tests/cli_phases.py BASE_SRC HEAD_SRC [--site] [--runs N]

BASE_SRC and HEAD_SRC are two src/ directories, for example a checkout of
the parent commit's src/ and this one's.  For each README command, fresh
interpreters of the two trees run in turn, N of each (default 15), the
tree that goes first swapping every round.  They run under -S unless
--site is given, so that site hooks do not load modules of their own.  A
child imports cliffideal.cli, calls main and writes perf_counter at main's
entry and return to stderr.  The parent reads perf_counter before it
spawns the child and after it has reaped it.  On Linux perf_counter is
CLOCK_MONOTONIC, one clock for both processes.  The children may write
bytecode caches into the trees, as an installed package has them, and one
untimed run per tree and command comes first.  The table gives each
phase's median per tree and their difference, in ms.

The exit phase holds the interpreter's shutdown.  A tracer that stops at
main's return, as perfbench's does, cannot see it.  This script only
measures time, so it is not a test and not a CI step; the file name has
no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data" / "cli"  # su3.json and su3_idem.json

COMMANDS = (  # the README's commands; idem.json there is su3_idem.json here
    ("eval", "--sig", "0,6", "--op", "product", "e135", "e135"),
    ("eval", "--sig", "0,6", "--op", "wedge", "e135 - e146 - e236 - e245",
     "e136 + e145 + e235 - e246"),
    ("eval", "--sig", "0,6", "--op", "star=ext-dual-first", "e12"),
    ("eval", "--sig", "0,7", "--op", "star=cliff-left", "e1234567"),
    ("idempotent", "--sig", "0,6", "--gens", "+e135,-e146,-e236", "--check"),
    ("idempotent", "--sig", "0,6", "--gens", "+e135,-e146,-e236", "--ideal"),
    ("idempotent", "--sig", "0,6", "--gens", "+e135,-e146,-e236", "--decompose"),
    ("structure", "su3", "--model", "--to-idempotent"),
    ("structure", "g2", "--model", "--validate"),
    ("structure", "su3", "--recover", "--input", "su3_idem.json"),
    ("classify", "0", "6"),
    ("classify", "0", "7"),
    ("verify-paper",),
    ("verify-paper", "--claim", "C3"),
    ("lift", "--from", "su3.json"),
)

CHILD = ("import sys, time\n"
         "from cliffideal.cli import main\n"
         "entered = time.perf_counter()\n"
         "code = main(sys.argv[1:])\n"
         "returned = time.perf_counter()\n"
         "sys.stderr.write(f'\\n{entered!r} {returned!r}\\n')\n"
         "sys.exit(code)\n")

PHASES = ("spawn to main", "main", "return to exit")


def _run(src: Path, argv: tuple[str, ...], site: bool) -> tuple[float, float, float]:
    """The three phases of one fresh interpreter running main(argv) from src, in seconds."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, *([] if site else ["-S"]), "-c", CHILD, *argv]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=DATA, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, err = proc.communicate()
    reaped = time.perf_counter()
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} from {src} exited with {proc.returncode}:\n"
                         f"{err.decode(errors='replace')}")
    entered, returned = map(float, err.split()[-2:])
    return entered - spawned, returned - entered, reaped - returned


def _check_tree(src: Path) -> None:
    where = subprocess.run([sys.executable, "-S", "-c", "import cliffideal; print(cliffideal.__file__)"],
                           env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                           text=True).stdout.strip()
    if not where.startswith(str(src)):
        raise SystemExit(f"PYTHONPATH={src} imports cliffideal from {where or '?'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("base", type=Path, metavar="BASE_SRC")
    parser.add_argument("head", type=Path, metavar="HEAD_SRC")
    parser.add_argument("--site", action="store_true", help="run the children with site hooks")
    parser.add_argument("--runs", type=int, default=15, help="interpreters per tree and command")
    args = parser.parse_args()
    trees = (args.base.resolve(), args.head.resolve())
    for src in trees:
        _check_tree(src)
    print(f"Python {sys.version.split()[0]}, {'with site' if args.site else '-S'}, "
          f"medians of {args.runs} interpreters per tree; ms")
    print(f"{'command':<52} {'phase':<15} {'base':>7} {'head':>7} {'change':>7}")
    for argv in COMMANDS:
        for src in trees:  # untimed: bytecode written, files cached
            _run(src, argv, args.site)
        samples: tuple[list, list] = ([], [])
        for i in range(args.runs):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                samples[side].append(_run(trees[side], argv, args.site))
        label = " ".join(argv)
        label = label if len(label) <= 52 else label[:49] + "..."
        for k, phase in enumerate(PHASES):
            base, head = (statistics.median(run[k] for run in side) * 1e3 for side in samples)
            print(f"{label:<52} {phase:<15} {base:7.2f} {head:7.2f} {head - base:+7.2f}")
            label = ""
    return 0


if __name__ == "__main__":
    sys.exit(main())
