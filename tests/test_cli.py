import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffideal import (G2Structure, SchemaError, Signature, Spin7Structure, SU3Structure, from_json,
                        model_g2, model_spin7, model_su3, parse, print_canonical, structure_from_json,
                        structure_to_json, to_json)
from cliffideal import cli, ideals, structures, verifier
from cliffideal.cli import main

PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])  # for children: the package under test
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


_INT_TEXT = st.text(alphabet="0123456789_+- \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u3000e.,"
                             "\u0663\U0001d7d9", max_size=8)


@given(_INT_TEXT, st.sampled_from(["", "7", "0", "1_", "\u0663"]), st.sampled_from([-1, 0, 1]),
       _INT_TEXT)
def test_integer_syntax_is_what_int_reads(head, run, offset, tail):
    """The handlers' integer reader agrees with int(), also across the interpreter's limit on
    the digits int() converts: a run of that many digits, one fewer or one more, in the text."""
    limit = sys.get_int_max_str_digits() or 4300
    text = head + (run * (limit + offset) if run else "") + tail
    try:
        value = int(text)
    except ValueError:
        with pytest.raises(cli._UsageError, match="^no integer$"):
            cli._int(text, "no integer")
    else:
        assert cli._int(text, "no integer") == value


@pytest.mark.parametrize("digits", [4300, 4301])
def test_an_integer_past_the_digit_limit_is_a_usage_error(capsys, digit_limit, digits):
    """A --sig or grade= value that int() cannot convert gets the handler's refusal, exit 2,
    not int()'s own text; one that it converts is read and refused as a value, exit 1."""
    big = "7" * digits
    for argv, refusal in ((["--sig", f"0,{big}", "--op", "product"], "--sig expects integers"),
                          (["--sig", "0,6", "--op", f"grade={big}"], "--op grade expects an integer")):
        code, out, err = run(capsys, "eval", *argv, "e1")
        assert out == "" and "set_int_max_str_digits" not in err
        if digits > digit_limit:
            assert (code, err[:len("error: ") + len(refusal)]) == (2, f"error: {refusal}")
        else:
            assert code == 1 and err.startswith(("error: total dimension", "error: grade 7777"))


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


@pytest.mark.parametrize("token, position", [("+e7", 2), ("e7", 1), ("-e{1,,2}", 5), ("e{1,,2}", 4),
                                             ("+e0", 2), ("e0", 1)])
def test_idempotent_gens_error_position_counts_the_sign(capsys, token, position):
    """The position is of the quoted token: the bad index 7 or 0, or the second of two commas."""
    code, out, err = run(capsys, "idempotent", "--sig", "0,6", f"--gens={token}", "--check")
    assert (code, out) == (2, "") and err.startswith(f"error: generator {token!r} is not a signed blade")
    assert err.endswith(f" (at position {position})\n") and token[position] in "70,", err


def test_idempotent_gens_delimited_blades(capsys):
    plain = run(capsys, "idempotent", "--sig", "0,6", "--gens", "+e135,-e146,-e236", "--ideal")
    braced = run(capsys, "idempotent", "--sig", "0,6", "--gens", "+e{1,3,5}, -e{1,4,6},-e236",
                 "--ideal")
    assert braced == plain
    code, out, _ = run(capsys, "idempotent", "--sig", "0,10", "--gens", "+e{1,2,3,10}", "--check")
    assert code == 1
    assert out == "k: 1 (expected 4)\nvalid: false\nviolation: expected 4 generators for R_{0,10}, got 1\n"


def test_gens_split_matches_the_lookahead_rule():
    # a comma separates generators unless the first brace after it is '}'
    rng = random.Random(2030)
    for _ in range(20000):
        text = "".join(rng.choice("{},e12+- ") for _ in range(rng.randint(0, 14)))
        assert cli._split_generators(text) == re.split(r",(?![^{]*\})", text), text


def test_gens_split_reads_a_128_kb_argument():
    text = "+e1," * 32000  # about the most one Linux argument carries
    assert len(text) == 128_000
    chunks = cli._split_generators(text)
    assert len(chunks) == 32001 and chunks[-1] == "" and set(chunks[:-1]) == {"+e1"}
    assert cli._parse_generators(text[:-1], 12) == ((1, (1,)),) * 32000


def _random_braced_gens(rng, size):
    """Signed random blades of R_{0,12}, each spelled e{i,j,...}, about size bytes in all."""
    tokens, total = [], 0
    while total < size - 60:
        mask = rng.randrange(1, 1 << 12)
        tokens.append(rng.choice("+-") + "e{" + ",".join(str(i + 1) for i in range(12)
                                                         if mask >> i & 1) + "}")
        total += len(tokens[-1]) + 1
    return ",".join(tokens)


def test_idempotent_check_of_32000_generators_reports_the_first_12(capsys):
    code, out, _ = run(capsys, "idempotent", "--sig", "0,12", "--gens", ",".join(["+e1"] * 32000),
                       "--check")
    assert code == 1
    assert out.splitlines() == [
        "k: 32000 (expected 5)", "valid: false",
        *["violation: generator e1 squares to -1"] * 12,
        "violation: generator e1 is a product of earlier generators",
        "violation: expected 5 generators for R_{0,12}, got 32000",
        "violation: generators after the first 12 not checked: 31988"]


def test_idempotent_gens_of_128_kib_exit_1_quickly_with_bounded_output():
    """32,000 x +e1 and about 7,000 random braced blades, each about 128 KiB: every mode
    exits 1 within 0.25 s over `python -c pass` (the fastest of up to 5 runs each, so that a
    moment of load on a shared machine is not read as the program's), printing at most
    2 + 12 squares + 66 pairs + 3 lines at n = 12."""
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)

    def fastest(*args, enough=0.0):
        """The least wall time of up to 5 runs, stopping at one within enough, and the last run."""
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                                  timeout=60)
            best = min(best, time.perf_counter() - start)
            if best < enough:
                break
        return best, proc

    floor = fastest("-c", "pass")[0]
    rng = random.Random(1616)
    for gens in (",".join(["+e1"] * 32000), _random_braced_gens(rng, 128 * 1024)):
        assert 127_000 < len(gens) <= 128 * 1024
        for mode in ("--check", "--ideal", "--decompose"):
            seconds, proc = fastest("-m", "cliffideal.cli", "idempotent", "--sig", "0,12",
                                    "--gens", gens, mode, enough=floor + 0.25)
            lines = (proc.stdout + proc.stderr).splitlines()
            assert proc.returncode == 1 and len(lines) <= 83, (mode, len(lines))
            assert lines[-1].startswith("violation: generators after the first 12 not checked: "), mode
            assert seconds - floor < 0.25, (mode, seconds, floor)


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


@pytest.mark.parametrize("argv", [["structure", "su3", "--to-idempotent", "--input"],
                                  ["lift", "--from"]], ids=["structure", "lift"])
def test_undecodable_file_is_named(capsys, tmp_path, argv):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"structure": "su3", "omega": "é"}'.encode("latin-1"))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9")


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


def test_verify_paper_unknown_format_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:  # argparse's choices reject it before run_all
        main(["verify-paper", "--format", "yaml"])
    assert exc.value.code == 2
    assert "invalid choice: 'yaml'" in capsys.readouterr().err


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


def test_left_ideal_is_built_only_where_its_dimension_is_printed(capsys, monkeypatch, tmp_path):
    path = tmp_path / "su3.json"
    path.write_text(structure_to_json(model_su3()), encoding="utf-8")
    calls = []
    left_ideal_basis = cli.left_ideal_basis
    monkeypatch.setattr(cli, "left_ideal_basis", lambda f: calls.append(f) or left_ideal_basis(f))
    for argv, want in ((["structure", "su3", "--model", "--to-idempotent", "--json"], 0),
                       (["lift", "--from", str(path), "--json"], 0),
                       (["structure", "su3", "--model", "--to-idempotent"], 1),
                       (["lift", "--from", str(path)], 1)):
        calls.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(calls) == want, argv
        assert ("ideal dim" in out) == bool(want)


@pytest.mark.parametrize("gens", ["+e135,-e146,-e236", "+e135,+e136,-e246", "+e12"])
@pytest.mark.parametrize("mode", ["--check", "--ideal", "--decompose"])
def test_idempotent_validates_the_generators_once(capsys, monkeypatch, gens, mode):
    calls = []
    violations = ideals._violations
    monkeypatch.setattr(ideals, "_violations",
                        lambda sig, masks: calls.append(masks) or violations(sig, masks))
    code, _, _ = run(capsys, "idempotent", "--sig", "0,6", "--gens", gens, mode)
    assert code == (0 if gens == "+e135,-e146,-e236" else 1) and len(calls) == 1


def test_idempotent_ideal_asks_the_library_once(capsys, monkeypatch):
    """--ideal prints the dimension as the length of its one coset_basis answer: one
    coset_basis call and no left_ideal_basis over the same blades."""
    calls = []
    for name in ("coset_basis", "left_ideal_basis"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    code, out, _ = run(capsys, "idempotent", "--sig", "0,6", "--gens", "+e135,-e146,-e236", "--ideal")
    assert code == 0 and calls == ["coset_basis"]
    assert out == "dimension: 8\ncoset basis: 1, e1, e2, e3, e4, e5, e6, e12\n"


# -- one validity test per structure kind -------------------------------------

CLI_DATA = Path(__file__).resolve().parent / "data" / "cli"


def _altered_structures():
    """File name -> structure text: model tensors scaled or negated off the normalization."""
    su3, g2, spin7 = model_su3(), model_g2(), model_spin7()
    half = Fraction(1, 2)
    return {name: structure_to_json(s) for name, s in {
        "su3_2omega": SU3Structure(omega=su3.omega.scale(2), psi_plus=su3.psi_plus,
                                   psi_minus=su3.psi_minus),
        "su3_minus_omega": SU3Structure(omega=-su3.omega, psi_plus=su3.psi_plus,
                                        psi_minus=su3.psi_minus),
        "su3_half_psi_plus": SU3Structure(omega=su3.omega, psi_plus=su3.psi_plus.scale(half),
                                          psi_minus=su3.psi_minus),
        "su3_half_psi_minus": SU3Structure(omega=su3.omega, psi_plus=su3.psi_plus,
                                           psi_minus=su3.psi_minus.scale(half)),
        "su3_half_psi": SU3Structure(omega=su3.omega, psi_plus=su3.psi_plus.scale(half),
                                     psi_minus=su3.psi_minus.scale(half)),
        "g2_half_phi": G2Structure(phi=g2.phi.scale(half)),
        "spin7_2omega": Spin7Structure(cayley=spin7.cayley.scale(2)),
    }.items()}


def test_validate_exits_as_to_idempotent_does(capsys, tmp_path):
    """For every input file of the transcript and each kind, and for the altered models."""
    for name, text in _altered_structures().items():
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    paths = sorted(set(CLI_DATA.glob("*.json")) - {CLI_DATA / "transcript.json"})
    assert len(paths) >= 15
    exits = {}
    for path in [*paths, *sorted(tmp_path.glob("*.json"))]:
        for kind in ("su3", "g2", "spin7"):
            validate = run(capsys, "structure", kind, "--input", str(path), "--validate")
            build = run(capsys, "structure", kind, "--input", str(path), "--to-idempotent")
            assert (validate[0] == 0) == (build[0] == 0), (path.name, kind, validate, build)
            assert validate[2] == build[2], (path.name, kind)  # the same error, if any
            exits[path.stem, kind] = validate[0]
    assert [key for key, code in exits.items() if code == 0] == [
        ("g2", "g2"), ("spin7", "spin7"), ("su3", "su3")]
    for name in _altered_structures():
        assert exits[name, name.split("_")[0]] == 1, name


@pytest.mark.parametrize("text", ["2", "2 + e1 + e135"])
def test_su3_recover_of_a_non_idempotent_exits_1(capsys, tmp_path, text):
    path = tmp_path / "x.json"
    path.write_text(to_json(parse(text, Signature(0, 6))), encoding="utf-8")
    code, out, err = run(capsys, "structure", "su3", "--recover", "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot recover a structure: ")


def test_g2_validate_computes_the_metric_once(capsys, monkeypatch):
    calls = []
    g2_metric = structures.g2_metric

    def counting(s):
        calls.append(s)
        return g2_metric(s)

    monkeypatch.setattr(structures, "g2_metric", counting)  # the handler imports it from there
    code, out, _ = run(capsys, "structure", "g2", "--model", "--validate")
    assert (code, out, len(calls)) == (0, "metric: identity; orbit: definite\n", 1)


@pytest.mark.parametrize("name, orbit", [("g2_half", "definite"), ("g2_degenerate", "degenerate")])
def test_g2_validate_rejection_computes_the_metric_twice(capsys, monkeypatch, name, orbit):
    """once to print the orbit, once inside g2_idempotent to choose its message"""
    calls = []
    g2_metric = structures.g2_metric
    monkeypatch.setattr(structures, "g2_metric", lambda s: calls.append(s) or g2_metric(s))
    code, out, _ = run(capsys, "structure", "g2", "--input", str(CLI_DATA / f"{name}.json"), "--validate")
    assert (code, out, len(calls)) == (1, f"metric: nonidentity; orbit: {orbit}\n", 2)


def test_lift_exits_as_su3_to_idempotent_does(capsys):
    """structure and lift share one loader and one validity test for su3 input."""
    paths = sorted(set(CLI_DATA.glob("*.json")) - {CLI_DATA / "transcript.json"})
    accepted = []
    for path in paths:
        lift = run(capsys, "lift", "--from", str(path))
        build = run(capsys, "structure", "su3", "--input", str(path), "--to-idempotent")
        assert (lift[0], lift[2]) == (build[0], build[2]), path.name
        if lift[0] == 0:
            accepted.append(path.name)
    assert accepted == ["su3.json"]


@pytest.mark.parametrize("argv", [["structure", "g2", "--model", "--to-idempotent"],
                                  ["lift", "--from", str(CLI_DATA / "su3.json")]])
def test_g2_idempotent_builds_no_metric_when_it_succeeds(capsys, monkeypatch, argv):
    calls = []
    g2_metric = structures.g2_metric
    monkeypatch.setattr(structures, "g2_metric", lambda s: calls.append(s) or g2_metric(s))
    code, _, _ = run(capsys, *argv)
    assert (code, calls) == (0, [])


@pytest.mark.parametrize("claim", [[], ["--claim", "C3"]])
def test_verify_paper_reads_the_golden_file_once(capsys, monkeypatch, claim):
    calls = []
    load_golden = verifier.load_golden
    monkeypatch.setattr(verifier, "load_golden", lambda: calls.append(1) or load_golden())
    code, _, _ = run(capsys, "verify-paper", *claim)
    assert (code, len(calls)) == (0, 1)


@pytest.mark.parametrize("claim, drift", [([], "C1: expected FAIL, got PASS"),
                                          (["--claim", "C1"], "C1 expected FAIL, got PASS")])
def test_verify_paper_exits_1_on_status_drift(capsys, monkeypatch, claim, drift):
    golden = dict(verifier.load_golden(), C1="FAIL")  # C1 computes PASS
    monkeypatch.setattr(verifier, "load_golden", lambda: golden)
    code, out, err = run(capsys, "verify-paper", *claim)
    assert code == 1
    assert out.split()[:2] == ["C1", "PASS"]  # stdout is the report, as without drift
    assert err == f"status drift: {drift}\n"


# -- the README commands, against the transcript of their output ---------------------

TRANSCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "paper_cli_transcript.json"


@pytest.mark.parametrize("entry", json.loads(TRANSCRIPT.read_text(encoding="utf-8")),
                         ids=lambda entry: " ".join(entry["argv"]))
def test_golden_transcript(capsys, monkeypatch, entry):
    monkeypatch.chdir(TRANSCRIPT.parent)  # the commands name idem.json and su3.json there
    code, out, _ = run(capsys, *entry["argv"])
    assert code == entry["exit"]
    assert out.encode("utf-8") == entry["stdout"].encode("utf-8")


def test_readme_library_example_runs():
    """The README's one python block, run as written against the package under test."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {})


# -- the table reader, against the argparse parser built from the same table --------

def _argparse_vars(argv: list[str]) -> dict:
    """vars() of the namespace main's argparse parser returns for an argv already merged."""
    return vars(cli._build_parser().parse_args(argv))


def _transcript_argvs() -> list[tuple[list[str], bool]]:
    """Every recorded argv, and whether argparse printed its usage or help for it."""
    entries = [*json.loads(TRANSCRIPT.read_text(encoding="utf-8")),
               *json.loads((CLI_DATA / "transcript.json").read_text(encoding="utf-8"))]
    return [(e["argv"], (e["stdout"] + e.get("stderr", "")).startswith("usage:")) for e in entries]


def test_table_reader_reads_every_recorded_command_as_argparse_does():
    for argv, by_argparse in _transcript_argvs():
        argv = cli._merge_dash_values(argv)
        ours = cli._read_argv(argv)
        if ours is not None:
            assert vars(ours) == _argparse_vars(argv), argv
        else:
            assert by_argparse, argv


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["classify", "-h"], ["eval", "--help"],
    ["eval", "--si", "0,6", "--op", "product", "e1"],  # an abbreviation
    ["structure", "su3", "--mod", "--validate"],
    ["classify", "--", "0", "6"], ["eval", "--sig", "0,6", "--op", "product", "--", "e1"],
    ["eval", "--sig", "0,6", "--sig", "0,7", "--op", "product", "e1"],  # a flag given twice
    ["structure", "su3", "--model", "--model", "--validate"],
    ["idempotent", "--sig", "0,6", "--gens", "+e135", "--ideal", "--check"],  # two of a group
    ["structure", "su3", "--model", "--validate", "--recover"],
    ["eval", "--sig", "-1,6", "--op", "product", "e1"],  # a value starting with '-'
    ["eval", "--sig=-1,6", "--op", "product", "e1"],
    ["eval", "--sig", "0,6", "--op", "product", "-e1"], ["classify", "-1", "6"],
    ["eval", "e1", "--sig", "0,6", "e2", "--op", "product"],  # positionals split by a flag
    ["classify", "zero", "6"], ["structure", "su4", "--model", "--validate"],
    ["verify-paper", "--format", "xml"], ["verify-paper", "--format=yaml"],
    ["eval", "--sig", "0,6", "e1"], ["idempotent", "--sig", "0,6", "--gens", "+e135"],
    ["lift"], ["classify", "0"], ["classify", "0", "6", "7"],
    ["structure", "su3", "--model", "--validate", "--json=1"],
    ["eval", "--sig=", "--op", "wedge", "e1"],
    ["idempotent", "--sig", "0,6", "--gens", "--", "--ideal"], ["lift", "--from=--"],
])
def test_table_reader_leaves_to_argparse(argv):
    assert cli._read_argv(cli._merge_dash_values(argv)) is None


# the table's own flags, then abbreviated, unknown and '=' forms, help, '-', '--', and values
_TOKENS = st.one_of(st.sampled_from(sorted(
    {flag for _, _, arguments in cli._COMMANDS.values() for key, spec in arguments
     for flag in (spec if isinstance(spec, tuple) else [key]) if flag.startswith("-")})),
    st.sampled_from([
        "--si", "--js", "--mod", "--to", "--fo", "--h", "--nope", "-x", "-h", "--help", "-", "--",
        "--sig=0,6", "--op=product", "--json=1", "--format=json", "--format=xml", "--gens=-e135",
        "--from=-a.json", "--sig=", "--sig=-1,6", "--claim=C1",
        "0,6", "0", "6", "-1", "-7", "07", " 6", "1_0", "zero", "", "su3", "g2", "spin7", "su4",
        "text", "json", "xml", "C1", "e1", "+e135,-e146", "-e1234", "product", "star=cliff-left",
        "su3.json", "a=b", "eval", "classify"]),
    st.text(alphabet="-=eh1 ", max_size=4))


_PLAIN = [argv for argv, by_argparse in _transcript_argvs() if not by_argparse]
_VALUE_FLAGS = {key for _, _, arguments in cli._COMMANDS.values() for key, spec in arguments
                if key.startswith("-") and "action" not in spec}


def _units(argv: list[str]) -> list[list[str]]:
    """argv[1:] as its flags with their values, and its positionals, one list each."""
    units = []
    for token in argv[1:]:
        if units and units[-1][0] in _VALUE_FLAGS and len(units[-1]) == 1:
            units[-1].append(token)
        else:
            units.append([token])
    return units


@st.composite
def _argvs(draw) -> list[str]:
    """Commands, exact, abbreviated and unknown flags, '=' forms, '-', '--', help, negative
    numbers and choice values, alone or edited into a recorded command whose flags are
    shuffled."""
    if draw(st.integers(0, 3)) == 0:
        return [draw(st.sampled_from([*cli._COMMANDS, "bogus"])), *draw(st.lists(_TOKENS, max_size=7))]
    recorded = draw(st.sampled_from(_PLAIN))
    argv = [recorded[0], *(t for unit in draw(st.permutations(_units(recorded))) for t in unit)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert" or at == len(argv):
            argv.insert(at, draw(_TOKENS))
        elif edit == "replace":
            argv[at] = draw(_TOKENS)
        else:
            del argv[at]
    return argv


@settings(max_examples=400, deadline=None)
@given(_argvs())
# '--' as the value of --gens or --from: argparse 3.11 reads it as an empty list
@example(["idempotent", "--sig", "0,6", "--gens", "--", "--ideal"])
@example(["lift", "--from=--", "--json"])
def test_table_reader_returns_what_argparse_returns(argv):
    """Whenever the table reader returns a namespace, argparse returns one with the same
    vars()."""
    argv = cli._merge_dash_values(argv)
    ours = cli._read_argv(argv)
    if ours is not None:
        assert vars(ours) == _argparse_vars(argv)


# -- a reader that goes away -----------------------------------------------

@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", [["classify", "0", "6"],
                                  ["idempotent", "--sig", "0,8", "--ideal",
                                   "--gens=-e1234,-e1256,-e1278,-e1357"]])
def test_closed_stdout_pipe_exits_141(argv, unbuffered):
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes a byte
    try:
        proc = subprocess.run([sys.executable, "-m", "cliffideal.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts fds under /proc/self/fd")
def test_in_process_closed_stdout_pipe_exits_141_and_closes_devnull(capsys, monkeypatch):
    """main's broken-pipe branch, in this process: stdout is a writer on a dup of a pipe
    whose read end is closed.  Each call exits 141, writes nothing to stderr and leaves
    no descriptor open, /dev/null included."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            with os.fdopen(os.dup(write_end), "w") as writer:
                monkeypatch.setattr(sys, "stdout", writer)
                code = main(["classify", "0", "6"])
                monkeypatch.undo()
            assert code == 141
            assert capsys.readouterr().err == ""
        assert len(os.listdir("/proc/self/fd")) == before
    finally:
        os.close(write_end)


# -- the heap at exit --------------------------------------------------------

def test_in_process_main_leaves_the_heap_unfrozen(capsys):
    """main only registers gc.freeze for the exit: a caller's heap stays collectable."""
    assert run(capsys, "classify", "0", "6")[0] == 0
    assert gc.get_freeze_count() == 0


def _child(code: str) -> list[str]:
    """stdout lines of python -c code, with the package the tests import."""
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60).stdout.splitlines()


def test_main_registers_the_exit_freeze_once():
    """Two main calls in one process: gc.freeze runs once, at exit."""
    lines = _child("import gc\n"
                   "gc.freeze = lambda: print('freeze')\n"
                   "from cliffideal.cli import main\n"
                   "main(['classify', '0', '6']); main(['classify', '0', '7'])\n")
    assert lines == ["M_8(R), minimal ideal dim 8", "M_8(R) ⊕ M_8(R), minimal ideal dim 8", "freeze"]


def test_exit_freeze_runs_after_main_before_earlier_callbacks():
    """atexit runs last in, first out: a callback registered before main sees the heap
    frozen, and the weakref.finalize callback of an object alive at exit still runs."""
    lines = _child("import atexit, gc, weakref\n"
                   "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
                   "class Node: pass\n"
                   "node = Node(); node.self = node\n"
                   "weakref.finalize(node, print, 'finalized')\n"
                   "from cliffideal.cli import main\n"
                   "print('frozen after main:', gc.get_freeze_count() > 0, main(['classify', '0', '6']))\n")
    assert lines[:2] == ["M_8(R), minimal ideal dim 8", "frozen after main: False 0"]
    assert sorted(lines[2:]) == ["finalized", "frozen at exit: True"]
