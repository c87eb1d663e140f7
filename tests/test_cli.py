import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cliffideal import (SchemaError, from_json, model_g2, model_spin7, model_su3, print_canonical,
                        structure_from_json, structure_to_json)
from cliffideal.cli import main

PSI_PLUS = "e135 - e146 - e236 - e245"
PSI_MINUS = "e136 + e145 + e235 - e246"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval ------------------------------------------------------------------

def test_eval_product_of_generators(capsys):
    code, out, _ = run(capsys, "eval", "--sig", "0,6", "e1", "e1", "--op", "product")
    assert code == 0
    assert out.strip() == "-1"


def test_eval_wedge_constant(capsys):
    code, out, _ = run(capsys, "eval", "--sig", "0,6", PSI_PLUS, PSI_MINUS, "--op", "wedge")
    assert code == 0
    assert out.strip() == "4*e123456"


def test_eval_star_clifford_left_volume(capsys):
    code, out, _ = run(capsys, "eval", "--sig", "0,7", "e1234567", "--op", "star=cliff-left")
    assert code == 0
    assert out.strip() == "1"


def test_eval_star_exterior(capsys):
    code, out, _ = run(capsys, "eval", "--sig", "0,6", "e12", "--op", "star=ext-dual-first")
    assert code == 0
    assert out.strip() == "e3456"


def test_eval_grade_and_reverse(capsys):
    code, out, _ = run(capsys, "eval", "--sig", "0,6", "1 + e12 + e135", "--op", "grade=3")
    assert code == 0
    assert out.strip() == "e135"
    code, out, _ = run(capsys, "eval", "--sig", "0,6", "e12", "--op", "reverse")
    assert code == 0
    assert out.strip() == "-e12"


def test_eval_json_output_roundtrips(capsys):
    code, out, _ = run(capsys, "eval", "--sig", "0,6", "1/2*e12", "--op", "product", "--json")
    assert code == 0
    value = from_json(out.strip())
    assert value.coefficient((1, 2)) == Fraction(1, 2)


def test_eval_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("e1"))
    code, out, _ = run(capsys, "eval", "--sig", "0,6", "-", "-", "--op", "product")
    assert code == 0
    assert out.strip() == "-1"


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--sig", "0,6", "e21", "--op", "product")
    assert code == 2
    assert "error" in err


def test_eval_overlong_literal_exit_2(capsys):
    code, out, err = run(capsys, "eval", "--sig", "0,6", "7" * 5000, "--op", "reverse")
    assert code == 2
    assert out == ""
    assert "position 0" in err


def test_eval_result_past_the_digit_bound_exit_1(capsys, digit_limit):
    big = "9" * 3000 + "*e1"  # accepted; its square has 6,000 digits
    code, out, err = run(capsys, "eval", "--sig", "0,6", "--op", "product", big, big)
    assert code == 1 and out == ""
    assert err == ("error: cannot write the coefficient of blade 1: its numerator or "
                   "denominator has more than 4300 digits\n")


def test_eval_unknown_op_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--sig", "0,6", "e1", "--op", "frobnicate")
    assert code == 2


def test_eval_bad_signature(capsys):
    code, _, err = run(capsys, "eval", "--sig", "zero,six", "e1", "--op", "product")
    assert code == 2
    code, _, err = run(capsys, "eval", "--sig", "0,0", "1", "--op", "product")
    assert code == 1


def test_eval_star_arity_enforced(capsys):
    code, _, err = run(capsys, "eval", "--sig", "0,6", "e1", "e2", "--op", "reverse")
    assert code == 2


# -- idempotent --------------------------------------------------------------

def test_idempotent_ideal_six(capsys):
    code, out, _ = run(capsys, "idempotent", "--sig", "0,6",
                       "--gens", "+e135,-e146,-e236", "--ideal")
    assert code == 0
    assert "dimension: 8" in out
    assert "coset basis:" in out


def test_idempotent_ideal_eight(capsys):
    code, out, _ = run(capsys, "idempotent", "--sig", "0,8",
                       "--gens", "-e1234,-e1256,-e1278,-e1357", "--ideal")
    assert code == 0
    assert "dimension: 16" in out


def test_idempotent_check_valid(capsys):
    code, out, _ = run(capsys, "idempotent", "--sig", "0,7",
                       "--gens", "+e123,+e145,-e257,+e167", "--check")
    assert code == 0
    assert "valid: true" in out
    assert "k: 4 (expected 4)" in out


def test_idempotent_check_square_violation(capsys):
    code, out, _ = run(capsys, "idempotent", "--sig", "0,6", "--gens", "+e12", "--check")
    assert code == 1
    assert "valid: false" in out
    assert "squares to -1" in out


def test_idempotent_decompose(capsys):
    code, out, _ = run(capsys, "idempotent", "--sig", "0,6",
                       "--gens", "+e135,-e146,-e236", "--decompose")
    assert code == 0
    assert out.count("piece ") == 8
    assert "pairwise orthogonal: true" in out
    assert "sum to 1: true" in out


def test_idempotent_bad_gens_syntax(capsys):
    code, _, err = run(capsys, "idempotent", "--sig", "0,6", "--gens", "x135", "--ideal")
    assert code == 2


@pytest.mark.parametrize("gens", ["+e1\u00b2,-e146,-e236", "+e\u0661\u0663\u0665,-e146,-e236",
                                  "+e135,-e146,-e2 36", "+e{1,3,5,-e146"])
def test_idempotent_gens_non_ascii_or_malformed_is_usage_error(capsys, gens):
    code, out, err = run(capsys, "idempotent", "--sig", "0,6", "--gens", gens, "--check")
    assert code == 2
    assert out == ""
    assert "is not a signed blade" in err and "invalid literal" not in err


def test_idempotent_gens_delimited_blades(capsys):
    plain = run(capsys, "idempotent", "--sig", "0,6", "--gens", "+e135,-e146,-e236", "--ideal")
    braced = run(capsys, "idempotent", "--sig", "0,6", "--gens", "+e{1,3,5}, -e{1,4,6},-e236",
                 "--ideal")
    assert braced == plain
    code, out, _ = run(capsys, "idempotent", "--sig", "0,10", "--gens", "+e{1,2,3,10}", "--check")
    assert code == 1
    assert out == "k: 1 (expected 4)\nvalid: false\nviolation: expected 4 generators for R_{0,10}, got 1\n"


def test_eval_delimited_blade_for_n_ge_10(capsys):
    code, out, _ = run(capsys, "eval", "--sig", "0,10", "--op", "product", "e1", "e{10}")
    assert (code, out) == (0, "e{1,10}\n")


def test_idempotent_invalid_gens_ideal_refused(capsys):
    code, _, err = run(capsys, "idempotent", "--sig", "0,6", "--gens", "+e12", "--ideal")
    assert code == 1
    assert "violation" in err


# -- structure -----------------------------------------------------------------

def test_structure_su3_model_idempotent(capsys):
    code, out, _ = run(capsys, "structure", "su3", "--model", "--to-idempotent")
    assert code == 0
    assert out.splitlines()[0] == ("1/8 + 1/8*e135 - 1/8*e146 - 1/8*e236 - 1/8*e245"
                                   " - 1/8*e1234 - 1/8*e1256 - 1/8*e3456")
    assert "primitive: true, ideal dim 8" in out


def test_structure_g2_model_validate(capsys):
    code, out, _ = run(capsys, "structure", "g2", "--model", "--validate")
    assert code == 0
    assert out.strip() == "metric: identity; orbit: definite"


def test_structure_spin7_model_idempotent(capsys):
    code, out, _ = run(capsys, "structure", "spin7", "--model", "--to-idempotent")
    assert code == 0
    assert "primitive: true, ideal dim 16" in out


def test_structure_su3_model_validate(capsys):
    code, out, _ = run(capsys, "structure", "su3", "--model", "--validate")
    assert code == 0
    assert "psi+ ^ psi-: 4*e123456" in out
    assert "compatible: true" in out


def test_structure_spin7_model_validate(capsys):
    code, out, _ = run(capsys, "structure", "spin7", "--model", "--validate")
    assert code == 0
    assert "self-dual: true" in out
    assert "Omega ^ Omega: 14*e12345678" in out


def test_structure_recover_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "structure", "su3", "--model", "--to-idempotent", "--json")
    assert code == 0
    path = tmp_path / "f6.json"
    path.write_text(out.strip(), encoding="utf-8")
    code, out, _ = run(capsys, "structure", "su3", "--input", str(path), "--recover")
    assert code == 0
    assert "omega: e12 + e34 + e56" in out
    assert "psi+: e135 - e146 - e236 - e245" in out
    assert "psi-: e136 + e145 + e235 - e246" in out


def test_structure_input_file_roundtrip(capsys, tmp_path):
    path = tmp_path / "su3.json"
    path.write_text(structure_to_json(model_su3()), encoding="utf-8")
    code, out, _ = run(capsys, "structure", "su3", "--input", str(path), "--to-idempotent")
    assert code == 0
    assert "primitive: true, ideal dim 8" in out


def test_structure_needs_exactly_one_source(capsys):
    with pytest.raises(SystemExit) as err:
        main(["structure", "su3", "--to-idempotent"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["structure", "su3", "--model", "--input", "x.json", "--to-idempotent"])
    assert err.value.code == 2


def test_structure_missing_file_is_semantic_error(capsys):
    code, _, err = run(capsys, "structure", "su3", "--input", "/nonexistent.json",
                       "--to-idempotent")
    assert code == 1
    assert "cannot read" in err


def test_structure_malformed_json_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "structure", "su3", "--input", str(path), "--to-idempotent")
    assert code == 2


# the text labels are written out here, not read from the structure-kind table
MODELS = {"su3": model_su3, "g2": model_g2, "spin7": model_spin7}
LABELS = {"su3": (("omega", "omega"), ("psi+", "psi_plus"), ("psi-", "psi_minus")),
          "g2": (("phi", "phi"),), "spin7": (("cayley", "cayley"),)}


@pytest.mark.parametrize("kind", MODELS)
def test_structure_recover_gives_back_the_model(capsys, tmp_path, kind):
    code, out, _ = run(capsys, "structure", kind, "--model", "--to-idempotent", "--json")
    assert code == 0
    path = tmp_path / "f.json"
    path.write_text(out.strip(), encoding="utf-8")
    model = MODELS[kind]()
    code, out, _ = run(capsys, "structure", kind, "--input", str(path), "--recover")
    assert code == 0
    assert out.splitlines() == [f"{label}: {print_canonical(getattr(model, field))}"
                                for label, field in LABELS[kind]]
    code, out, _ = run(capsys, "structure", kind, "--input", str(path), "--recover", "--json")
    assert (code, out) == (0, structure_to_json(model) + "\n")


@pytest.mark.parametrize("mode", ["--to-idempotent", "--validate"])
@pytest.mark.parametrize("kind", MODELS)
def test_structure_input_of_the_model_prints_what_model_prints(capsys, tmp_path, kind, mode):
    path = tmp_path / f"{kind}.json"
    path.write_text(structure_to_json(MODELS[kind]()), encoding="utf-8")
    for extra in ([], ["--json"]) if mode == "--to-idempotent" else ([],):
        from_model = run(capsys, "structure", kind, "--model", mode, *extra)
        assert run(capsys, "structure", kind, "--input", str(path), mode, *extra) == from_model
        assert from_model[0] == 0 and from_model[1]


@pytest.mark.parametrize("kind", [["su3"], {}], ids=["list", "dict"])
def test_structure_kind_that_is_not_a_name_is_a_schema_error(capsys, tmp_path, kind):
    text = json.dumps({"structure": kind})
    with pytest.raises(SchemaError) as err:
        structure_from_json(text)
    assert (err.value.path, str(err.value)) == ("structure", "structure: expected 'su3', 'g2' or 'spin7'")
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    for argv in (["structure", "g2", "--input", str(path), "--validate"], ["lift", "--from", str(path)]):
        assert run(capsys, *argv) == (2, "", "error: structure: expected 'su3', 'g2' or 'spin7'\n")


# -- classify ---------------------------------------------------------------------

def test_classify_frozen_lines(capsys):
    code, out, _ = run(capsys, "classify", "0", "6")
    assert code == 0 and out.strip() == "M_8(R), minimal ideal dim 8"
    code, out, _ = run(capsys, "classify", "0", "7")
    assert code == 0 and out.strip() == "M_8(R) ⊕ M_8(R), minimal ideal dim 8"
    code, out, _ = run(capsys, "classify", "0", "3")
    assert code == 0 and out.strip() == "M_1(H) ⊕ M_1(H), minimal ideal dim 4"


def test_classify_out_of_range(capsys):
    code, _, err = run(capsys, "classify", "0", "0")
    assert code == 1
    code, _, err = run(capsys, "classify", "7", "6")
    assert code == 1


# -- verify-paper --------------------------------------------------------------------

def test_verify_paper_full_run_matches_golden(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("C1")
    assert "computed: 14*e12345678" in out


def test_verify_paper_single_claim_pass(capsys):
    code, out, _ = run(capsys, "verify-paper", "--claim", "C1")
    assert code == 0
    assert out.startswith("C1 PASS")


def test_verify_paper_single_claim_expected_fail(capsys):
    code, out, _ = run(capsys, "verify-paper", "--claim", "C3")
    assert code == 0               # an expected FAIL is not status drift
    assert "C3 FAIL" in out
    assert "computed: 14*e12345678" in out


def test_verify_paper_unknown_claim(capsys):
    code, _, err = run(capsys, "verify-paper", "--claim", "C999")
    assert code == 2
    assert "unknown claim" in err


def test_verify_paper_json_format(capsys):
    code, out, _ = run(capsys, "verify-paper", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert {entry["id"] for entry in payload["claims"]} >= {"C1", "C18"}


def test_verify_paper_single_claim_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--claim", "C3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["claims"][0]["computed"] == "14*e12345678"


# -- lift ------------------------------------------------------------------------------

def test_lift_model_file(capsys, tmp_path):
    path = tmp_path / "su3.json"
    path.write_text(structure_to_json(model_su3()), encoding="utf-8")
    code, out, _ = run(capsys, "lift", "--from", str(path))
    assert code == 0
    assert "phi: e127 + e135 - e146 - e236 - e245 + e347 + e567" in out
    assert "primitive: true, ideal dim 8" in out


def test_lift_empty_tensors_exit_1(capsys, tmp_path):
    empty = {
        "structure": "su3",
        "omega": {"signature": [0, 6], "kind": "form", "terms": []},
        "psi_plus": {"signature": [0, 6], "kind": "form", "terms": []},
        "psi_minus": {"signature": [0, 6], "kind": "form", "terms": []},
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(empty), encoding="utf-8")
    code, _, err = run(capsys, "lift", "--from", str(path))
    assert code == 1


def test_lift_wrong_structure_kind(capsys, tmp_path):
    from cliffideal import model_g2
    path = tmp_path / "g2.json"
    path.write_text(structure_to_json(model_g2()), encoding="utf-8")
    code, _, err = run(capsys, "lift", "--from", str(path))
    assert code == 1
    assert "su3" in err


def test_lift_json_output(capsys, tmp_path):
    path = tmp_path / "su3.json"
    path.write_text(structure_to_json(model_su3()), encoding="utf-8")
    code, out, _ = run(capsys, "lift", "--from", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"phi", "idempotent"}
    assert payload["idempotent"]["kind"] == "clifford"


# -- the README commands, against the transcript of their output ---------------------

TRANSCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "paper_cli_transcript.json"


@pytest.mark.parametrize("entry", json.loads(TRANSCRIPT.read_text(encoding="utf-8")),
                         ids=lambda entry: " ".join(entry["argv"]))
def test_golden_transcript(capsys, monkeypatch, entry):
    monkeypatch.chdir(TRANSCRIPT.parent)  # the commands name idem.json and su3.json there
    code, out, _ = run(capsys, *entry["argv"])
    assert code == entry["exit"]
    assert out.encode("utf-8") == entry["stdout"].encode("utf-8")


# -- a reader that goes away -----------------------------------------------

@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", [["classify", "0", "6"],
                                  ["idempotent", "--sig", "0,8", "--ideal",
                                   "--gens=-e1234,-e1256,-e1278,-e1357"]])
def test_closed_stdout_pipe_exits_141(argv, unbuffered):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes a byte
    try:
        proc = subprocess.run([sys.executable, "-m", "cliffideal.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr
