"""The benchmark's own tests: python3 -m pytest perfbench/tests -q

They run every workload at --seconds 1 (the smallest job lists), so the
whole file takes a couple of minutes.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import algebra_mix  # noqa: E402
import ideal_ladder  # noqa: E402
import paper_cli  # noqa: E402
import tracer  # noqa: E402
from common import DATA, run_child  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = (".calls", ".term_pairs", ".accept_ratio", ".distinct_ratio", ".max_coef_bits")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def fresh(workload: str, trace: int, seed: int = 5) -> dict:
    code, lines = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace))
    assert code == 0, lines[-5:]
    return json.loads(lines[-1])


_runs: dict[tuple, dict] = {}


def result(workload: str, trace: int) -> dict:
    """One run per workload and mode, shared by the tests below."""
    if (workload, trace) not in _runs:
        _runs[workload, trace] = fresh(workload, trace)
    return _runs[workload, trace]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_and_outputs_check(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_traced_runs(workload):
    first = result(workload, 1)["metrics"]
    second = fresh(workload, 1)["metrics"]
    exact = [k for k in first if k.endswith(EXACT)]
    assert len(exact) == len(tracer.SPAN_NAMES) + 5
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}


def test_verify_paper_counts_per_job(tmp_path):
    """One traced verify-paper process reproduces the in-process profile."""
    trace = tmp_path / "trace.json"
    done = run_child([str(BENCH / "cli_child.py"), str(trace), "verify-paper"],
                     cwd=DATA, workdir=tmp_path)
    transcript, golden = paper_cli.load_transcript(), paper_cli.load_golden()
    assert paper_cli.check(0, done, transcript, golden) is None
    data = json.loads(trace.read_text())
    spans = data["spans"]
    assert spans["ideals.left_ideal_basis"][0] == 8
    assert data["distinct_idempotents"] == 4
    assert spans["linalg.RowBasis.add"][0] == 1040
    assert data["counts"]["RowBasis.add.accepted"] == 88
    assert spans["algebra.geometric_product"][0] == 1086
    assert spans["verifier.run_claim"][0] == 26


def test_traced_paper_cli_matches_transcript():
    res = result("paper_cli", 1)
    assert res["correct"] and res["metrics"]["cli.main.calls"]["value"] == len(paper_cli.PASS)


def test_checks_reject_wrong_outputs(tmp_path):
    transcript, golden = paper_cli.load_transcript(), paper_cli.load_golden()
    done = run_child([str(BENCH / "cli_child.py"), "-", "classify", "0", "6"],
                     cwd=DATA, workdir=tmp_path)
    index = paper_cli.SCRIPT.index(("classify", "0", "6"))
    assert paper_cli.check(index, done, transcript, golden) is None
    assert paper_cli.check(index, replace(done, stdout=done.stdout + b" "), transcript, golden)
    assert paper_cli.check(index, replace(done, code=1), transcript, golden)
    drifted = dict(golden, C1="FAIL")
    verify = run_child([str(BENCH / "cli_child.py"), "-", "verify-paper"],
                       cwd=DATA, workdir=tmp_path)
    assert paper_cli.check(0, verify, transcript, drifted)

    job = ideal_ladder.make_jobs(3, 1)[0]
    out = ideal_ladder.encode(ideal_ladder.run_job(ideal_ladder.decode(job)))
    assert ideal_ladder.check(job, out) is None
    assert ideal_ladder.check(job, dict(out, answers=[not a for a in out["answers"]]))
    assert ideal_ladder.check(job, dict(out, reps=out["reps"][::-1]))
    assert ideal_ladder.check(job, dict(out, dim=out["dim"] * 2))

    jobs = algebra_mix.make_jobs(3, 1)
    product = next(j for j in jobs if j["op"] == "product" and j["fmt"] == "text")
    text = algebra_mix.run_job(algebra_mix.decode(product))
    assert algebra_mix.check(product, text) is None
    assert algebra_mix.check(product, "2*" + text if text[0] != "-" else text[1:])
    as_json = next(j for j in jobs if j["fmt"] == "json")
    out = algebra_mix.run_job(algebra_mix.decode(as_json))
    assert algebra_mix.check(as_json, out) is None
    assert algebra_mix.check(as_json, out.replace('"coef": "', '"coef": "-', 1))


def test_job_processes_report_their_own_peak_rss(tmp_path):
    """A child's peak resident set excludes the memory of the process that starts it."""
    ballast = b"\1" * (64 << 20)
    done = run_child(["-c", "pass"], cwd=tmp_path, workdir=tmp_path)
    assert done.code == 0 and done.peak_rss_mb < 40
    del ballast


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", ".pytest_cache"))
    code, lines = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
