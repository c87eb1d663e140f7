"""Line-coverage gate: every executable line of src/cliffideal runs under Tier-1.

    python3 tests/linecov.py    # from any directory; extra arguments go to pytest

A sys.settrace hook, limited to frames whose code lives in src/cliffideal,
runs Tier-1 in this interpreter and records every line that runs.  A
module's executable lines are read from its code objects' co_lines().  The
gate prints every executable line that never ran, and exits 1 when one of
them is not named in ALLOWED, when an ALLOWED entry does not name exactly
one such line (a stale entry), or when Tier-1 fails.  ALLOWED is keyed by
file and stripped source text, not by line number, and gives one reason per
entry.  Tests that run the program in a child interpreter are not traced,
so a line that only they run is listed there.  Tracing makes Tier-1 about
three times slower.  The file name has no test_ prefix, so a plain pytest run
does not collect it.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cliffideal"

ALLOWED = {  # (file, stripped source text): why no in-process test runs the line
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"):
        "main's broken-pipe branch: test_closed_stdout_pipe_exits_141 runs it in a child",
    ("cli.py", "return EXIT_PIPE"):
        "main's broken-pipe branch: test_closed_stdout_pipe_exits_141 runs it in a child",
    ("cli.py", "raise SystemExit(main())"):
        "the __main__ entry: test_closed_stdout_pipe_exits_141 runs python -m cliffideal.cli",
}


def executable_lines(path: Path) -> set[int]:
    """The line numbers co_lines() gives for the module's code and every code object in it."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: the module's entry
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for Tier-1 run here with the hook set, and the lines run per file."""
    ran: dict[str, set[int]] = {str(path): set() for path in PACKAGE.glob("*.py")}

    def call(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None  # no line events for code outside the package

        def line(frame, event, arg):
            lines.add(frame.f_lineno)
            return line

        return line(frame, event, arg)

    import pytest
    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    loaded = sys.modules.get("cliffideal")
    if loaded is None or Path(loaded.__file__).parent != PACKAGE:
        sys.exit(f"linecov: the tests did not import the package from {PACKAGE}")
    return int(code), ran


def main() -> int:
    code, ran = run_traced(sys.argv[1:])
    missed, failures = 0, []
    allowed = dict.fromkeys(ALLOWED, 0)
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for lineno in sorted(executable_lines(path) - ran[str(path)]):
            key = (path.name, text[lineno - 1].strip())
            missed += 1
            if key in allowed:
                allowed[key] += 1
                print(f"  {path.name}:{lineno}: {key[1]}    (allowed: {ALLOWED[key]})")
            else:
                failures.append(f"not run and not allowed: {path.name}:{lineno}: {key[1]}")
    failures += [f"stale allow-list entry, {count} unexecuted lines match it: {key}"
                 for key, count in allowed.items() if count != 1]
    if code:
        failures.append(f"Tier-1 failed under the tracer (pytest exit code {code})")
    print(f"linecov: {missed} executable lines of src/cliffideal never ran", *failures, sep="\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
