"""Checkout layout, child processes with resource usage, and statistics.

Every process the benchmark starts is waited for, so no child outlives
a run: job processes through run_child, whose launcher process reads
each one's peak resident set from the kernel (os.wait4) and is closed
at exit, and set-up and reference probes through _spawn_until_ready.
"""

from __future__ import annotations

import atexit
import bisect
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
DATA = BENCH / "data"
GOLDEN = SRC / "cliffideal" / "data" / "golden_claims.json"

REQUIRED = (SRC / "cliffideal" / "__init__.py", TESTS / "oracles.py", GOLDEN)


def missing_sources() -> list[str]:
    """Files of the program the benchmark needs but cannot find."""
    return [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # An installed package has byte-code caches, so children may write them
    # (into the checkout's __pycache__) whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def rss_mb(ru_maxrss: int) -> float:
    # Linux reports kilobytes, macOS bytes.
    return ru_maxrss / (1 << 20) if sys.platform == "darwin" else ru_maxrss / 1024


@dataclass(frozen=True)
class Finished:
    code: int
    stdout: bytes
    stderr: bytes
    spawned_at: float  # perf_counter just before the spawn
    wall_s: float  # spawn until the exit status was collected
    peak_rss_mb: float


_launcher: subprocess.Popen | None = None


def _close_launcher() -> None:
    global _launcher
    if _launcher is not None:
        _launcher.stdin.close()
        _launcher.wait()
        _launcher.stdout.close()
        _launcher = None


def run_child(argv: list[str], cwd: Path, workdir: Path) -> Finished:
    """Run `python argv...` to completion with stdout/stderr captured in files.

    The child is started by launcher.py, so that its peak resident set
    is its own and not this process's (see there).
    """
    global _launcher
    if _launcher is None:
        _launcher = subprocess.Popen([sys.executable, "-I", "-S", str(BENCH / "launcher.py")],
                                     env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        atexit.register(_close_launcher)
    out_path = workdir / "child.stdout"
    err_path = workdir / "child.stderr"
    _launcher.stdin.write(json.dumps({"argv": [sys.executable, *argv], "cwd": str(cwd),
                                      "stdout": str(out_path), "stderr": str(err_path)}) + "\n")
    _launcher.stdin.flush()
    reply = _launcher.stdout.readline()
    if not reply:
        raise RuntimeError(f"the launcher exited with {_launcher.wait()}")
    done = json.loads(reply)
    return Finished(done["code"], out_path.read_bytes(), err_path.read_bytes(),
                    done["spawned_at"], done["wall_s"], rss_mb(done["maxrss"]))


def _spawn_until_ready(argv: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0:
        raise RuntimeError(f"set-up probe {argv} exited with {proc.returncode}")
    return elapsed, line.decode("utf-8", "replace").strip()


# Median time of `probe.py --reference` on the 2-core x86-64 development
# machine (Python 3.11.7) in its usual state.
SETUP_REFERENCE_NOMINAL_S = 0.06


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """(seconds, reference seconds) for fresh interpreters importing cliffideal.

    Each sample times a spawn until the package is imported, then at once
    a spawn until the reference probe has imported the same standard-library
    modules; the ratio of the two cancels the machine's speed at starting
    processes, which drifts by up to 1.5x here.  One unmeasured pair runs
    first so that byte-code caches exist, as they do for anyone who has run
    the program once.
    """
    probe = str(BENCH / "probe.py")
    expected = str(SRC / "cliffideal")
    out = []
    for i in range(samples + 1):
        seconds, where = _spawn_until_ready([probe])
        if not where.startswith(expected):
            raise RuntimeError(f"set-up probe imported {where!r}, not the checkout's package")
        reference = spawn_reference_sample()[1]
        if i:
            out.append((seconds, reference))
    return out


# -- machine speed ------------------------------------------------------------
#
# On a shared machine the speed of the same Python code drifts by up to 2x
# over tens of seconds, with CPU time tracking wall time.  Runs therefore
# interleave a fixed reference with the jobs (between jobs, never inside
# one) and scale each job's latency by the reference time measured around
# it: a compute kernel for in-process jobs, a process start and the
# kernel for CLI jobs (normalise_cli).  Both are the benchmark's own
# stdlib code.  The kernel runs with the
# garbage collector off, so the program's collector settings and the
# objects it keeps alive do not change the kernel's time.

_REF_X = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(32)]
# Median kernel time on the 2-core x86-64 development machine (Python
# 3.11.7) in its usual state; normalised times are in units of that machine.
REFERENCE_NOMINAL_S = 0.006
REFERENCE_EVERY_S = 0.2  # at most this much job time between two samples
REFERENCE_WINDOW = 5  # samples nearest in time to a job set its speed


def reference_kernel() -> dict:
    """A dense 32 x 32 blade-style product with Fraction coefficients."""
    acc: dict[int, Fraction] = {}
    for a in range(32):
        xa = _REF_X[a]
        for b in range(32):
            t = xa * _REF_X[b]
            m = a ^ b
            acc[m] = acc.get(m, 0) + (-t if bin(a & b).count("1") & 1 else t)
    return acc


def reference_sample() -> tuple[float, float]:
    """(start, seconds) of one run of the reference kernel, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return t0, time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def spawn_reference_sample() -> tuple[float, float]:
    """(start, seconds) of starting `probe.py --reference` until it is ready.

    Jobs that are mostly process start and import (paper_cli) drift with
    this, not with the compute kernel.
    """
    t0 = time.perf_counter()
    return t0, _spawn_until_ready([str(BENCH / "probe.py"), "--reference"])[0]


def slowdown(starts: list[float], samples: list[tuple[float, float]],
             nominal: float) -> list[float]:
    """Reference time around each job over its nominal time (above 1: slower than usual)."""
    times = [t for t, _ in samples]
    out = []
    for start in starts:
        i = bisect.bisect_left(times, start)
        lo = max(0, min(i - REFERENCE_WINDOW // 2, len(samples) - REFERENCE_WINDOW))
        out.append(statistics.median(d for _, d in samples[lo:lo + REFERENCE_WINDOW]) / nominal)
    return out


def normalise(starts: list[float], latencies: list[float], samples: list[tuple[float, float]],
              nominal: float) -> list[float]:
    """Latencies scaled to the nominal machine speed around each job."""
    return [lat / s for lat, s in zip(latencies, slowdown(starts, samples, nominal))]


# A small command's time on the development machine (`classify 0 6`,
# spawn to exit): start-up, import and argument parsing.  normalise_cli
# scales this share of every CLI job by process-start drift.
CLI_STARTUP_NOMINAL_S = 0.1


def normalise_cli(starts: list[float], latencies: list[float],
                  spawn_samples: list[tuple[float, float]],
                  kernel_samples: list[tuple[float, float]]) -> list[float]:
    """CLI latencies at nominal speed, start-up and computation scaled apart.

    A job's first CLI_STARTUP_NOMINAL_S (at nominal speed) is scaled by the
    process-start reference and the rest by the compute kernel, so that
    small commands (mostly start-up) and verify-paper (mostly computation)
    are each corrected by the drift that moves them.
    """
    s0 = CLI_STARTUP_NOMINAL_S
    spawn = slowdown(starts, spawn_samples, SETUP_REFERENCE_NOMINAL_S)
    compute = slowdown(starts, kernel_samples, REFERENCE_NOMINAL_S)
    return [s0 + (lat - s0 * s) / c for lat, s, c in zip(latencies, spawn, compute)]


def speed(samples: list[tuple[float, float]], nominal: float) -> float:
    """Machine speed relative to the nominal one (median reference sample)."""
    return nominal / statistics.median(d for _, d in samples)


# -- blades, written independently of the engine for the output checks ------

def mask_indices(mask: int) -> tuple[int, ...]:
    """Bit i-1 set <-> generator i in the blade, as the engine encodes blades."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def mask_of(indices) -> int:
    return sum(1 << (i - 1) for i in indices)


def p90(values: list[float]) -> float:
    """90th percentile; callers pass at least 100 samples, so ten lie beyond it."""
    return statistics.quantiles(values, n=10)[8]


def environment() -> dict:
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count()}
