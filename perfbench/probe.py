"""Set-up probe: import the package, report where it came from, exit.

`probe.py --reference` imports only the standard-library modules the
package imports: the same interpreter start and the same kind of work,
without the program, so it measures the machine's speed at starting
Python (see common.measure_setup).
"""

import sys

if sys.argv[1:] == ["--reference"]:
    import dataclasses, enum, fractions, functools, importlib.resources, itertools, json, typing  # noqa: E401,F401

    where = "reference"
else:
    import cliffideal

    where = cliffideal.__file__
sys.stdout.write(where + "\n")
sys.stdout.flush()
