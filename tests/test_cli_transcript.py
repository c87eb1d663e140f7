"""The CLI's structure, lift and verify-paper commands, replayed against a byte transcript.

tests/data/cli/transcript.json holds the argv, stdout, stderr and exit code of
each command in COMMANDS, captured through cliffideal.cli.main from the input
files beside it.  It covers what perfbench/data/paper_cli_transcript.json does
not: every structure kind and mode from --model and --input, in text and
--json; recovery of each model idempotent; lift in both formats; each single
claim; stderr; and the error paths (wrong kind, missing or malformed input,
unnormalized, degenerate and non-self-dual tensors, su3 tensors that build an
idempotent of a larger ideal, unknown claims, usage errors, and the
handlers' own refusals of a signature, --op value or generator list), and
argparse's usage and help at the top level and per command.  To rewrite it
from the current code, after a deliberate change of output:

    PYTHONPATH=src python3 tests/test_cli_transcript.py --capture

The tests replay it in one warm process.  To replay it as the installed
command runs, one fresh interpreter per entry (so a missing import in a
handler that a warm process has already loaded shows up; exits 1 on any
difference, if a command that exits 0 without -h or --help loaded argparse,
which means the table reader left a plain argv to argparse, or if an eval,
classify or idempotent command, whatever its exit code, loaded fractions, which
only a Fraction passed in or read out should load):

    PYTHONPATH=src python3 tests/test_cli_transcript.py --fresh
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cliffideal
from cliffideal import (ExteriorForm, G2Structure, SU3Structure, Spin7Structure, g2_idempotent,
                        model_g2, model_spin7, model_su3, spin7_idempotent, structure_to_json,
                        su3_idempotent, to_json)
from cliffideal.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli"
TRANSCRIPT = DATA / "transcript.json"
KINDS = ("su3", "g2", "spin7")
ARGPARSE_LOADED = 3  # the --fresh child's exit code for a command that exits 0 through argparse
FRACTIONS_LOADED = 4  # ... and for an eval, classify or idempotent command that loaded fractions


def _commands() -> list[list[str]]:
    out = []
    for kind in KINDS:
        for source in (["--model"], ["--input", f"{kind}.json"]):
            out += [["structure", kind, *source, "--to-idempotent"],
                    ["structure", kind, *source, "--to-idempotent", "--json"],
                    ["structure", kind, *source, "--validate"]]
        out += [["structure", kind, "--recover", "--input", f"{kind}_idem.json"],
                ["structure", kind, "--recover", "--input", f"{kind}_idem.json", "--json"]]
    out += [["lift", "--from", "su3.json"], ["lift", "--from", "su3.json", "--json"],
            ["verify-paper", "--format", "json"]]
    for i in range(1, 27):
        out += [["verify-paper", "--claim", f"C{i}"],
                ["verify-paper", "--claim", f"C{i}", "--format", "json"]]
    # inputs the library refuses, or reads with rational coefficients
    for kind, name in [("su3", "su3_scaled"), ("su3", "su3_no_volume"), ("g2", "g2_half"),
                       ("g2", "g2_thirds"), ("g2", "g2_degenerate"), ("g2", "g2_split"),
                       ("spin7", "spin7_scaled"), ("spin7", "spin7_not_self_dual")]:
        out += [["structure", kind, "--input", f"{name}.json", "--to-idempotent"],
                ["structure", kind, "--input", f"{name}.json", "--to-idempotent", "--json"],
                ["structure", kind, "--input", f"{name}.json", "--validate"]]
    out += [["lift", "--from", "su3_scaled.json"], ["lift", "--from", "su3_scaled.json", "--json"]]
    # error paths
    out += [
        ["structure", "su3", "--input", "g2.json", "--to-idempotent"],
        ["structure", "g2", "--input", "su3.json", "--validate"],
        ["structure", "spin7", "--input", "g2.json", "--to-idempotent", "--json"],
        ["structure", "su3", "--recover"],
        ["structure", "su3", "--recover", "--json"],
        ["structure", "su3", "--model", "--recover"],
        ["structure", "su3", "--model", "--input", "su3.json", "--validate"],
        ["structure", "g2", "--validate"],
        ["structure", "g2", "--model"],
        ["structure", "su4", "--model", "--validate"],
        ["structure", "g2", "--recover", "--input", "su3_idem.json"],
        ["structure", "spin7", "--recover", "--input", "g2_idem.json", "--json"],
        ["structure", "su3", "--recover", "--input", "spin7_idem.json"],
        ["structure", "su3", "--recover", "--input", "su3.json"],
        ["structure", "su3", "--recover", "--input", "form.json"],
        ["structure", "su3", "--recover", "--input", "bad.json"],
        ["structure", "su3", "--input", "kind_list.json", "--validate"],
        ["structure", "su3", "--input", "bad.json", "--validate"],
        ["structure", "su3", "--input", "missing.json", "--validate"],
        ["structure", "g2", "--input", "su3_idem.json", "--to-idempotent"],
        ["lift", "--from", "g2.json"],
        ["lift", "--from", "g2.json", "--json"],
        ["lift", "--from", "missing.json"],
        ["lift", "--from", "bad.json"],
        ["lift", "--from", "su3_idem.json"],
        ["lift", "--from", "kind_list.json", "--json"],
        ["lift"],
        ["verify-paper", "--claim", "C99"],
        ["verify-paper", "--claim", "C99", "--format", "json"],
        ["verify-paper", "--format", "xml"],
        ["verify-paper", "--claim", "C1", "--format", "yaml"],
    ]
    # su3 tensors whose formula is an idempotent of a larger ideal, or that only lift checked
    for name in ("su3_rank2", "su3_psi_minus_doubled"):
        out += [["structure", "su3", "--input", f"{name}.json", "--to-idempotent"],
                ["structure", "su3", "--input", f"{name}.json", "--validate"],
                ["lift", "--from", f"{name}.json"]]
    # argparse's own usage, help and errors, at the top level and in a subcommand
    out += [[], ["-h"], ["--help"], ["bogus"],
            ["classify", "-h"], ["eval", "-h"], ["structure", "-h"], ["lift", "-h"],
            ["classify", "0"], ["classify", "zero", "6"], ["classify", "0", "6", "7"],
            ["eval", "--sig", "0,6", "e1"], ["idempotent", "--sig", "0,6", "--gens", "+e135"]]
    # the handlers' own refusals: a bad signature, --op or generator list
    out += [["classify", "0", "13"], ["classify", "7", "6"]]
    out += [["eval", "--sig", sig, "--op", "product", "e1"] for sig in ("0,13", "a,b", "0,6,1")]
    out += [["eval", "--sig", "0,6", "--op", op, "e1"]
            for op in ("frobnicate", "grade=x", "grade=99", "star=bogus")]
    out += [["eval", "--sig", "0,6", "--op", "reverse", "e1", "e2"]]
    out += [["idempotent", "--sig", "0,6", "--gens", gens, "--check"]
            for gens in ("+e135,,-e146", "+e7", "+e12,+e34,+e56")]
    out += [["idempotent", "--sig", "0,6", "--gens", "+e12", "--ideal"],
            ["idempotent", "--sig", "13,0", "--gens", "+e1", "--check"]]
    return out


def _inputs() -> dict[str, str]:
    """File name -> text of every input file the commands read."""
    su3, g2, spin7 = model_su3(), model_g2(), model_spin7()
    files = {f"{kind}.json": structure_to_json(s) for kind, s in zip(KINDS, (su3, g2, spin7))}
    files.update({"su3_idem.json": to_json(su3_idempotent(su3)),
                  "g2_idem.json": to_json(g2_idempotent(g2)),
                  "spin7_idem.json": to_json(spin7_idempotent(spin7)),
                  "form.json": to_json(su3.omega),
                  "kind_list.json": '{"structure": ["su3"]}',
                  "bad.json": '{"structure": "su3", '})
    phi = g2.phi.term_map()
    weights = [Fraction(1, 3), Fraction(2, 7), Fraction(1, 2), Fraction(3, 7), 1, Fraction(5, 3), 2]
    flipped = {m: (-c if i in (0, 3) else c) for i, (m, c) in enumerate(sorted(phi.items()))}
    cayley = spin7.cayley.term_map()
    structures = {
        "su3_scaled": SU3Structure(omega=su3.omega, psi_plus=su3.psi_plus.scale(2),
                                   psi_minus=su3.psi_minus.scale(2)),
        "su3_no_volume": SU3Structure(omega=su3.omega, psi_plus=su3.psi_plus,
                                      psi_minus=ExteriorForm.zero(6)),
        "su3_rank2": SU3Structure(
            omega=ExteriorForm.from_terms(6, [(-2, (1, 2))]),
            psi_plus=ExteriorForm.from_terms(6, [(2, (1, 3, 5)), (2, (1, 4, 6))]),
            psi_minus=ExteriorForm.from_terms(6, [(-2, (2, 3, 5)), (-2, (2, 4, 6))])),
        "su3_psi_minus_doubled": SU3Structure(omega=su3.omega, psi_plus=su3.psi_plus,
                                              psi_minus=su3.psi_minus.scale(2)),
        "g2_half": G2Structure(phi=g2.phi.scale(Fraction(1, 2))),
        "g2_thirds": G2Structure(phi=ExteriorForm(7, {m: c * w for (m, c), w
                                                      in zip(sorted(phi.items()), weights)})),
        "g2_degenerate": G2Structure(phi=ExteriorForm.blade(7, (1, 2, 3))),
        "g2_split": G2Structure(phi=ExteriorForm(7, flipped)),
        "spin7_scaled": Spin7Structure(cayley=spin7.cayley.scale(2)),
        "spin7_not_self_dual": Spin7Structure(cayley=ExteriorForm(8, dict(sorted(cayley.items())[1:]))),
    }
    files.update({f"{name}.json": structure_to_json(s) for name, s in structures.items()})
    return files


def replay(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cliffideal.cli.main(argv), usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _capture() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    for name, text in _inputs().items():
        (DATA / name).write_text(text + "\n", encoding="utf-8")
    os.chdir(DATA)
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage line to the terminal width
    entries = []
    for argv in _commands():
        code, out, err = replay(argv)
        entries.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    TRANSCRIPT.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


def _replay_fresh() -> int:
    """Each entry in its own interpreter; 1 and the differing commands if any entry differs."""
    package_root = str(Path(cliffideal.__file__).resolve().parents[1])
    env = dict(os.environ, COLUMNS="80", PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    # help exits inside argparse, before the argparse check, but not before the fractions
    # check, which runs in finally; no command exits with ARGPARSE_LOADED or FRACTIONS_LOADED
    code = ("import sys\nfrom cliffideal.cli import main\ntry:\n    code = main(sys.argv[1:])\n"
            "finally:\n    if sys.argv[1:2] in (['eval'], ['classify'], ['idempotent']) "
            f"and 'fractions' in sys.modules:\n        sys.exit({FRACTIONS_LOADED})\n"
            f"sys.exit({ARGPARSE_LOADED} if code == 0 and 'argparse' in sys.modules else code)")
    entries, differ, fallback, fractions = _entries(), [], [], []
    for entry in entries:
        run = subprocess.run([sys.executable, "-c", code, *entry["argv"]], cwd=DATA, env=env,
                             capture_output=True, timeout=120)
        if run.returncode == FRACTIONS_LOADED:
            fractions.append(" ".join(entry["argv"]))
        elif entry["exit"] == 0 and run.returncode == ARGPARSE_LOADED:
            fallback.append(" ".join(entry["argv"]))
        elif (run.returncode, run.stdout, run.stderr) != (
                entry["exit"], entry["stdout"].encode("utf-8"), entry["stderr"].encode("utf-8")):
            differ.append(" ".join(entry["argv"]))
    for argv in differ:
        print(f"differs in a fresh interpreter: {argv}")
    for argv in fallback:
        print(f"exits 0 but loaded argparse: {argv}")
    for argv in fractions:
        print(f"loaded fractions: {argv}")
    print(f"{len(entries) - len(differ)} of {len(entries)} entries replay byte for byte, "
          "one fresh interpreter each")
    return 1 if differ or fallback or fractions or not entries else 0


def _entries() -> list[dict]:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8")) if TRANSCRIPT.exists() else []


@pytest.mark.parametrize("entry", _entries(), ids=lambda entry: " ".join(entry["argv"]))
def test_cli_transcript(monkeypatch, entry):
    monkeypatch.chdir(DATA)
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = replay(entry["argv"])
    assert (code, out.encode("utf-8"), err.encode("utf-8")) == (
        entry["exit"], entry["stdout"].encode("utf-8"), entry["stderr"].encode("utf-8"))


def test_transcript_lists_every_command():
    assert [entry["argv"] for entry in _entries()] == _commands()


if __name__ == "__main__" and sys.argv[1:] == ["--capture"]:
    _capture()
elif __name__ == "__main__" and sys.argv[1:] == ["--fresh"]:
    sys.exit(_replay_fresh())
