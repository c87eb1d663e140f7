"""cliffideal benchmark.

    python3 perfbench/run.py --workload paper_cli|ideal_ladder|algebra_mix|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from any directory; the checkout is found from this file's location.
Inputs are generated from the seed and the run length before anything is
timed, and the program receives only those inputs.  The default seed is 1;
seed 2 is held out for confirming a claimed gain and is never used while
tuning.  --trace 0 prints the end-to-end metrics; --trace 1 runs the same
job list once untraced and once traced and prints the per-layer metrics.
Every output is checked after the timed work.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it names the Python version, platform and core count.  The exit
status is 1 when any output check failed and 2 when the checkout lacks
the program.  See perfbench/README.md for the metrics and why each
workload exists.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import paper_cli
import tracer
from common import (BENCH, REFERENCE_NOMINAL_S, SETUP_REFERENCE_NOMINAL_S, SRC, TESTS,
                    environment, measure_setup, missing_sources, normalise, normalise_cli, p90,
                    run_child, speed)

WORKLOADS = ("paper_cli", "ideal_ladder", "algebra_mix")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_BEFORE, SETUP_AFTER = 5, 6

END_TO_END = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_ms": "ms",
              "job_p90_ms": "ms", "peak_rss_mb": "MB"}


@dataclass
class Pass:
    """One run over the fixed job list."""

    latencies: list[float]  # seconds per job, as measured
    normalised: list[float]  # the same at the development machine's usual speed
    speeds: dict[str, float]  # machine speed per reference, relative to usual
    peak_rss_mb: float
    failures: dict[int, str]
    rss_before_jobs_mb: float = 0.0  # workers: peak before the first job
    traces: list[dict] = field(default_factory=list)
    startup_s: list[float] = field(default_factory=list)  # paper_cli, traced only
    verify: list[int] = field(default_factory=list)  # positions of verify-paper jobs

    def jobs_per_s(self, latencies: list[float]) -> float:
        """Jobs whose output checked over the time the job list took."""
        return (len(latencies) - len(self.failures)) / sum(latencies)


def paper_cli_pass(jobs: list[int], workdir: Path, trace: bool) -> Pass:
    finished, traces, spawn_samples, kernel_samples = paper_cli.run(jobs, workdir, trace)
    transcript, golden = paper_cli.load_transcript(), paper_cli.load_golden()
    failures = {}
    for i, (index, done) in enumerate(zip(jobs, finished)):
        why = paper_cli.check(index, done, transcript, golden)
        if why is None and trace and traces[i] is None:
            why = "no trace written"
        if why:
            failures[i] = f"{' '.join(paper_cli.SCRIPT[index])}: {why}"
    starts, latencies = [d.spawned_at for d in finished], [d.wall_s for d in finished]
    return Pass(
        latencies=latencies,
        normalised=normalise_cli(starts, latencies, spawn_samples, kernel_samples),
        speeds={"compute": speed(kernel_samples, REFERENCE_NOMINAL_S),
                "process start": speed(spawn_samples, SETUP_REFERENCE_NOMINAL_S)},
        peak_rss_mb=max(d.peak_rss_mb for d in finished),
        failures=failures,
        traces=[t for t in traces if t is not None],
        startup_s=[t["main_entered"] - d.spawned_at
                   for t, d in zip(traces, finished) if t is not None],
        verify=[i for i, index in enumerate(jobs) if index in paper_cli.VERIFY],
    )


def worker_pass(name: str, jobs: list[dict], workdir: Path, trace: bool) -> Pass:
    module = importlib.import_module(name)
    in_path, out_path = workdir / "input.jsonl", workdir / "output.jsonl"
    with open(in_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": name, "trace": trace}) + "\n")
        for job in jobs:
            fh.write(json.dumps({k: v for k, v in job.items() if k != "expect"}) + "\n")
    done = run_child([str(BENCH / "worker.py"), str(in_path), str(out_path)],
                     cwd=workdir, workdir=workdir)
    if done.code != 0:
        raise RuntimeError(f"{name} worker exited with {done.code}: "
                           f"{done.stderr.decode('utf-8', 'replace')[-2000:]}")
    lines = out_path.read_text(encoding="utf-8").splitlines()
    res = json.loads(lines.pop())
    if len(lines) != len(jobs):
        raise RuntimeError(f"{name} worker answered {len(lines)} of {len(jobs)} jobs")
    failures = {}
    for i, (job, line) in enumerate(zip(jobs, lines)):
        out, error = json.loads(line)
        why = error or module.check(job, out)
        if why:
            failures[i] = f"job {i} ({job.get('op') or job.get('sig')}): {why}"
    samples = [tuple(s) for s in res["samples"]]
    return Pass(latencies=res["latencies"],
                normalised=normalise(res["starts"], res["latencies"], samples,
                                     REFERENCE_NOMINAL_S),
                speeds={"compute": speed(samples, REFERENCE_NOMINAL_S)},
                peak_rss_mb=done.peak_rss_mb, rss_before_jobs_mb=res["rss_before_jobs_mb"],
                failures=failures, traces=[res["trace"]] if trace else [])


def run_pass(name: str, jobs: list, workdir: Path, trace: bool) -> Pass:
    if name == "paper_cli":
        return paper_cli_pass(jobs, workdir, trace)
    return worker_pass(name, jobs, workdir, trace)


def end_to_end(setup: list[float], p: Pass, latencies: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "jobs_per_s": p.jobs_per_s(latencies),
        "job_p50_ms": statistics.median(latencies) * 1000,
        "job_p90_ms": p90(latencies) * 1000,
        "peak_rss_mb": p.peak_rss_mb,
    }


def per_layer(untraced: Pass, traced: Pass) -> dict[str, tuple[float, str]]:
    merged = tracer.merge(traced.traces)
    spans, counts = merged["spans"], merged["counts"]
    out: dict[str, tuple[float, str]] = {
        "cli.startup_s": (statistics.median(traced.startup_s) if traced.startup_s else 0.0, "s"),
        "cli.verify_paper.wall_ms": (
            statistics.median([untraced.normalised[i] for i in untraced.verify]) * 1000
            if untraced.verify else 0.0, "ms"),
    }
    for name in tracer.SPAN_NAMES:
        calls, _, self_s = spans[name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    for cid in tracer.CLAIM_IDS:
        out[f"verifier.claim.{cid}.s"] = (merged["claim_s"].get(cid, 0.0), "s")
    lib_calls = spans["ideals.left_ideal_basis"][0]
    out["ideals.left_ideal_basis.distinct_ratio"] = (
        merged["distinct_idempotents"] / lib_calls if lib_calls else 0.0, "ratio")
    adds = spans["linalg.RowBasis.add"][0]
    out["linalg.RowBasis.add.accept_ratio"] = (
        counts["RowBasis.add.accepted"] / adds if adds else 0.0, "ratio")
    out["algebra.geometric_product.term_pairs"] = (counts["geometric_product.term_pairs"], "count")
    out["algebra.geometric_product.max_coef_bits"] = (
        counts["geometric_product.max_coef_bits"], "bits")
    out["exterior.wedge.term_pairs"] = (counts["wedge.term_pairs"], "count")
    out["trace.overhead_ratio"] = (
        traced.jobs_per_s(traced.normalised) / untraced.jobs_per_s(untraced.normalised), "ratio")
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run: prints its table and returns the object the last stdout line carries."""
    jobs = importlib.import_module(name).make_jobs(seed, seconds)
    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH / "_work"))
    try:
        if trace:
            untraced = run_pass(name, jobs, workdir, trace=False)
            traced = run_pass(name, jobs, workdir, trace=True)
        else:
            # Set-up is sampled before and after the jobs, so that one slow
            # stretch of the machine does not set the median.
            setup = measure_setup(SETUP_BEFORE)
            untraced = run_pass(name, jobs, workdir, trace=False)
            setup += measure_setup(SETUP_AFTER)
            traced = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes = [p for p in (untraced, traced) if p is not None]
    if traced is not None:
        metrics, notes = per_layer(untraced, traced), {}
    else:
        values = end_to_end([s * SETUP_REFERENCE_NOMINAL_S / r for s, r in setup],
                            untraced, untraced.normalised)
        raw = end_to_end([s for s, _ in setup], untraced, untraced.latencies)
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
        notes = {k: f"  (as measured: {raw[k]:.6g})" for k in values if raw[k] != values[k]}
        if untraced.rss_before_jobs_mb:
            notes["peak_rss_mb"] = f"  (before the first job: {untraced.rss_before_jobs_mb:.6g})"
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for p in passes:
        for why in list(p.failures.values())[:20]:
            print(f"FAILED {name}: {why}", file=sys.stderr)
    print(f"== {name}: attempted {attempted}, failed {failed}, "
          f"fail_ratio {failed / attempted:.4f}, machine speed "
          + ", ".join(f"{k} {v:.3f}" for k, v in untraced.speeds.items()))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<44} {value:>14.6g} {unit}{notes.get(key, '')}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cliffideal benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    missing = missing_sources()
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        return 2
    for path in (TESTS, SRC, BENCH):
        sys.path.insert(0, str(path))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"env": environment(), "seed": args.seed, "seconds": args.seconds}))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
