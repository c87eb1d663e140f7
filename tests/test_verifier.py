import json
import os
import subprocess
import sys
import zipfile
from fractions import Fraction
from pathlib import Path

import pytest

import cliffideal
import cliffideal.verifier as verifier
from cliffideal import (
    HodgeConvention,
    IdempotentSpec,
    Multivector,
    Signature,
    build_idempotent,
    clifford_hodge,
    hodge_star,
    load_golden,
    model_spin7,
    model_su3,
    quantize,
    run_all,
    run_claim,
    symbol,
    volume_form,
    wedge,
)
from cliffideal.verifier import _catalog

from test_ideals import GENS6, GENS8

ALLOWED_STATUSES = {"PASS", "FAIL", "CONVENTION_DEPENDENT"}
ALLOWED_CATEGORIES = {
    "wedge-constant", "expansion", "dual-identity", "idempotency",
    "dimension", "basis", "recurrence",
}


@pytest.fixture(scope="module")
def report():
    return run_all()


def test_catalog_well_formed():
    assert all(key == claim.id for key, claim in _catalog().items())
    claims = list(_catalog().values())
    assert len(claims) >= 18
    ids = [c.id for c in claims]
    assert len(set(ids)) == len(ids)
    assert ids == sorted(ids, key=lambda s: int(s[1:]))
    for claim in claims:
        assert claim.category in ALLOWED_CATEGORIES
        assert claim.paper_ref
        assert claim.statement
        assert claim.paper_value


def test_golden_file_covers_catalog():
    golden = load_golden()
    assert set(golden) == {c.id for c in _catalog().values()}
    assert set(golden.values()) <= ALLOWED_STATUSES


def test_golden_file_is_read_by_the_module_loader_under_a_zip_import(tmp_path):
    """load_golden asks verifier.py's own loader for the file beside it, so a zip import
    reads the same statuses from the archive as a plain import reads from disk."""
    golden = load_golden()
    package = Path(cliffideal.__file__).resolve().parent
    archive = tmp_path / "cliffideal.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in package.rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(package.parent))
    code = ("import json, sys; from cliffideal import verifier; "
            "print(verifier.__file__.startswith(sys.argv[1]), json.dumps(verifier.load_golden()))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(archive)],
                         env=dict(os.environ, PYTHONPATH=str(archive)), capture_output=True,
                         text=True, check=True, timeout=60)
    flag, _, text = out.stdout.partition(" ")
    assert flag == "True" and json.loads(text) == golden


def test_report_matches_golden(report):
    assert report.golden_deviations() == ()


def test_report_statuses_frozen(report):
    golden = load_golden()
    for result in report.results:
        assert result.status == golden[result.id], result.id


def test_c1_passes_with_value():
    result = run_claim("C1")
    assert result.status == "PASS"
    assert result.computed == "4*e123456"
    assert result.paper == "4*e123456"


def test_c3_fails_with_correction():
    result = run_claim("C3")
    assert result.status == "FAIL"
    assert result.computed == "14*e12345678"
    assert result.paper == "8*e12345678"
    assert "14" in result.note


def test_convention_dependent_notes():
    c5 = run_claim("C5")
    assert c5.status == "CONVENTION_DEPENDENT"
    assert "ext-dual-first" in c5.note and "cliff-left" in c5.note
    assert "ext-alpha-first" not in c5.note

    c22 = run_claim("C22")
    assert c22.status == "CONVENTION_DEPENDENT"
    assert "ext-dual-first" in c22.note and "ext-alpha-first" in c22.note
    assert "cliff-left" not in c22.note

    c26 = run_claim("C26")
    assert c26.status == "CONVENTION_DEPENDENT"
    assert "ext-dual-first" in c26.note and "cliff-left" in c26.note


def test_display_errata_notes_name_blades():
    assert "e246" in run_claim("C7").note and "e1346" in run_claim("C7").note
    assert "e2367" in run_claim("C10").note
    assert "e3456" in run_claim("C19").note
    c20 = run_claim("C20")
    for blade in ("e145", "e146", "e245", "e246"):
        assert blade in c20.note


def test_claims_are_decided_by_value_not_by_printed_text(monkeypatch):
    """Reversed coset representatives print as 'accepted 8 of 8' too, but are not the stated ones."""
    monkeypatch.setattr(verifier, "coset_basis", lambda f, cands: list(cands)[::-1])
    result = run_claim("C16")
    assert result.computed == "accepted 8 of 8 in R_(0,6); accepted 8 of 8 in R_(0,7)"
    assert result.status == "FAIL"


def test_every_fail_carries_computed_value(report):
    for result in report.results:
        if result.status == "FAIL":
            assert result.computed
            assert result.computed != result.paper or result.note


def test_fail_corrections_are_self_consistent():
    sig6, sig8 = Signature(0, 6), Signature(0, 8)
    su3 = model_su3()
    f6 = build_idempotent(IdempotentSpec(sig6, GENS6))
    f8 = build_idempotent(IdempotentSpec(sig8, GENS8))
    star = HodgeConvention.EXT_DUAL_FIRST

    # C3/C12: the corrected constant and normalization rebuild the Cayley idempotent
    cayley = model_spin7().cayley
    assert wedge(cayley, cayley) == volume_form(8).scale(14)
    vol8 = volume_form(8)
    corrected = (Multivector.scalar(sig8, 1) - quantize(cayley) + quantize(vol8)).scale(
        Fraction(1, 16))
    assert corrected == f8

    # C6: negating the omega term rebuilds the factored idempotent
    fixed = (
        clifford_hodge(quantize(wedge(su3.psi_plus, su3.psi_minus)), star)
        + quantize(su3.psi_plus).scale(4)
        - clifford_hodge(quantize(su3.omega), star).scale(4)
    ).scale(Fraction(1, 32))
    assert fixed == f6

    # C25: reinstating the minus signs recovers the model tensors
    w = f6.scale(8)
    assert -symbol(clifford_hodge(w.grade(3), star)) == su3.psi_minus
    assert -symbol(clifford_hodge(w.grade(4), star)) == su3.omega

    # C24: the recovered form is the negative of the displayed one, and self-dual
    w8 = f8.scale(16)
    recovered = -symbol(w8.grade(4))
    assert recovered == cayley
    assert hodge_star(recovered) == recovered


def test_c8_dual_has_opposite_sign():
    result = run_claim("C8")
    assert result.status == "FAIL"
    assert "negative" in result.note


def test_report_ordering_and_size(report):
    ids = [r.id for r in report.results]
    assert ids == [f"C{i}" for i in range(1, len(ids) + 1)]
    assert len(ids) >= 18


def test_report_deterministic(report):
    again = run_all()
    assert report.to_text() == again.to_text()
    assert report.to_json() == again.to_json()


def test_report_json_schema(report):
    payload = json.loads(report.to_json())
    assert set(payload) == {"claims"}
    assert len(payload["claims"]) == len(report.results)
    for entry in payload["claims"]:
        assert set(entry) == {"id", "status", "computed", "paper", "note"}
        assert entry["status"] in ALLOWED_STATUSES


def test_report_text_column_aligned(report):
    lines = report.to_text().splitlines()
    claim_lines = lines[: len(report.results)]
    id_width = max(len(r.id) for r in report.results)
    for line, result in zip(claim_lines, report.results):
        assert line.startswith(f"{result.id:<{id_width}}  ")
        assert line[id_width + 2:].startswith(result.status)


def test_report_text_details_failures(report):
    text = report.to_text()
    assert "computed: 14*e12345678" in text
    assert "C3:" in text


def test_unknown_claim_rejected():
    with pytest.raises(KeyError):
        run_claim("C999")


def test_claim_evaluation_pure():
    first = run_claim("C13")
    second = run_claim("C13")
    assert first == second


def test_golden_deviation_detection(report, monkeypatch):
    fake = dict(load_golden())
    fake["C1"] = "FAIL"
    fake.pop("C26")
    fake["C999"] = "PASS"
    monkeypatch.setattr(verifier, "load_golden", lambda: fake)
    deviations = report.golden_deviations()
    assert any("C1" in d and "FAIL" in d for d in deviations)
    assert any("C26" in d for d in deviations)
    assert any("C999" in d for d in deviations)
