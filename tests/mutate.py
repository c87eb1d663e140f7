"""Mutation gate: every fast path must fail a test when it is broken in a known way.

    python3 tests/mutate.py    # from any directory

Each entry of MUTANTS is (file under src/cliffideal, exact old text, new
text, pytest selection).  First the union of the selections runs once
against an unmutated copy of src/ and must pass, and that copy must be the
package the tests import.  Then, for each entry in turn, src/ is copied to
a temporary directory and the old text is replaced by the new text there.
The old text must occur exactly once in its file; otherwise the entry is
stale and fails the gate, so a refactor has to update its mutants.  The
selection then runs with `pytest -x -q` and PYTHONPATH pointing at the
copy.  The mutant is killed when that run fails, or when it outlasts
TIMEOUT_S (a hang, which stops the process).  One pytest process runs
at a time.  The gate prints a kill table and exits 1 on any survivor or
stale entry.  The file name has no test_ prefix, so a plain pytest run
does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT_S = 60

IDEALS = "tests/test_ideals.py::"
CERTIFICATE = [IDEALS + "test_f2_signs_accepts_what_the_row_oracle_accepts",
               IDEALS + "test_recorded_certificate_matches_the_derived_one"]
CANONICAL = ["tests/test_algebra.py::test_equal_values_by_different_routes_are_equal_and_hash_alike",
             "tests/test_algebra.py::test_every_result_is_stored_canonical"]
EXPRIO = "tests/test_exprio.py::"
PRINTED = [EXPRIO + "test_direct_reader_leaves_every_other_layout_to_the_scanner",
           EXPRIO + "test_parse_matches_character_scanner"]
WRITTEN = [EXPRIO + "test_from_json_matches_the_general_reader_on_edited_writer_output"]

MUTANTS: list[tuple[str, str, str, list[str]]] = [
    # the F_2 certificate derived from the coefficients (ideals._f2_certificate)
    ("ideals.py",  # only e_t * f = +f passes, not -f
     "if any(row != terms and row != neg for row in rows):",
     "if any(row != terms for row in rows):", CERTIFICATE),
    ("ideals.py",  # rows compared by their supports alone
     "if any(row != terms and row != neg for row in rows):",
     "if any(row.keys() != terms.keys() for row in rows):", CERTIFICATE),
    ("ideals.py",  # no span skip: a row read for every t in supp f, len(f) rows
     "_signed_rows(f.sig, terms.items(), _f2_fresh(terms))",
     "_signed_rows(f.sig, terms.items(), terms)",
     [IDEALS + "test_certificate_reads_one_row_per_dimension_of_the_span"]),
    ("ideals.py",  # numerators compared without denominators: each term's own reduced one
     "    terms = f._terms  # numerators over one denominator",
     "    terms = {m: c.numerator for m, c in f.term_map().items()}  #",
     [IDEALS + "test_certificate_compares_whole_fractions"]),
    # membership coset by coset, and idempotency from <f>_0
    ("ideals.py",  # no sign(b, t) flip in membership
     "                    s = -s\n", "                    pass\n",
     [IDEALS + "test_coset_membership_matches_elimination_and_products"]),
    ("ideals.py",  # membership compares numerators without denominators: each term's own
     "return _in_cosets(sig, self._rows, x._terms)",
     "return _in_cosets(sig, self._rows, {m: c.numerator for m, c in x.term_map().items()})",
     [IDEALS + "test_coset_membership_matches_elimination_and_products"]),
    ("ideals.py",  # >= 1 for idempotency
     "return len(x) * x._terms.get(0, 0) == x._den", "return len(x) * x._terms.get(0, 0) >= x._den",
     [IDEALS + "test_is_idempotent_reads_the_scalar_part"]),
    ("ideals.py",  # the primitivity trace compared without the denominator
     "== classify(f.sig).minimal_ideal_dim * f._den", "== classify(f.sig).minimal_ideal_dim",
     [IDEALS + "test_is_primitive_trace_identity_matches_elimination"]),
    # the certificate build_idempotent records, and the basis built on first read
    ("ideals.py",  # one wrong sign in the recorded certificate
     'object.__setattr__(f, "_f2", f._terms)',
     'object.__setattr__(f, "_f2", dict(terms[:-1] + [(terms[-1][0], -terms[-1][1])]))',
     [IDEALS + "test_recorded_certificate_matches_the_derived_one"]),
    ("ideals.py",  # the lazy basis built without the row sign
     'object.__setattr__(self, "basis", _products(self.idempotent, kept))',
     'object.__setattr__(self, "basis", tuple(Multivector._from_canonical(self.idempotent.sig, '
     'self.idempotent._den, {b ^ m: c for m, c in self.idempotent._terms.items()}) for b in kept))',
     [IDEALS + "test_left_ideal_basis_builds_elements_on_first_read"]),
    ("ideals.py",  # the early coset stop off by one
     "            if len(kept) == cosets:", "            if len(kept) == cosets - 1:",
     [IDEALS + "test_certified_path_runs_no_elimination_and_no_product"]),
    ("algebra.py",  # the one blade sign mask without the metric part
     "    return _suffix_parity(a) ^ (a >> sig.p << sig.p)", "    return _suffix_parity(a)",
     [IDEALS + "test_signed_permutation_rows_match_products",
      "tests/test_algebra.py::test_geometric_product_dense_against_oracle"]),
    ("ideals.py",  # a wrong Radon-Hurwitz step
     "    return 4 * (i >> 3) + _PERIODICITY", "    return 3 * (i >> 3) + _PERIODICITY",
     [IDEALS + "test_classification_consistent_with_radon_hurwitz"]),
    ("ideals.py",  # one wrong r_i in the periodicity table: r_4 = 2
     '("H", 1, 2, 3),', '("H", 1, 2, 2),', [IDEALS + "test_radon_hurwitz_frozen_table"]),
    ("ideals.py",  # coset_basis returns each kept candidate's successor
     "    return [cands[pos] for pos in kept]", "    return [cands[pos + 1] for pos in kept]",
     [IDEALS + "test_coset_basis_stated_representatives"]),
    ("ideals.py",  # decompose_algebra validates once more per sign choice
     "    return [_expand(spec.sig, signs, masks) for signs",
     "    return [build_idempotent(IdempotentSpec(spec.sig, tuple(zip(signs, (t for _, t in "
     "spec.generators))))) for signs",
     [IDEALS + "test_decompose_validates_the_generators_once"]),
    # generator checks and the expansion by parities of masks, and classify once per signature
    ("ideals.py",  # the commutation parity without the |a & b| term
     "if (a.bit_count() * b.bit_count() ^ (a & b).bit_count()) & 1]",
     "if (a.bit_count() * b.bit_count()) & 1]",
     [IDEALS + "test_generator_checks_match_the_product_reference"]),
    ("ideals.py",  # the square sign without the count of generators that square to -1
     "(a.bit_count() >> 1 ^ (a >> sig.p).bit_count()) & 1]", "(a.bit_count() >> 1) & 1]",
     [IDEALS + "test_generator_checks_match_the_product_reference"]),
    ("ideals.py",  # _expand's term sign without its metric part
     "        r = _sign_mask(sig, t) ^ t ^", "        r = _sign_mask(Signature(sig.n, 0), t) ^ t ^",
     [IDEALS + "test_build_idempotent_expands_the_signed_group"]),
    ("ideals.py",  # the classify memo keyed on n alone: (1, 5) gets (0, 6)'s class
     "    return _classify(sig.p, sig.q)",
     "    return classify.__dict__.setdefault(sig.n, _classify(sig.p, sig.q))",
     [IDEALS + "test_classify_is_built_once_per_signature"]),
    ("cli.py",  # idempotent --ideal and --decompose validate once for a report, then again
     "    try:  # each validates the generators once\n",
     "    validate_generators(spec)\n    try:\n",
     ["tests/test_cli.py::test_idempotent_validates_the_generators_once"]),
    # the stored form: one positive denominator over coprime integer numerators
    ("algebra.py",  # no final gcd
     "        if den != 1 and (g := gcd(den, *terms.values())) != 1:\n",
     "        if den != 1 and (g := gcd(den, *terms.values())) != 1 and False:\n",
     CANONICAL),
    ("algebra.py",  # negation flips the denominator, which is left negative
     "return self._from_canonical(self._space, self._den, {m: -c for m, c in self._terms.items()})",
     "return self._from_canonical(self._space, -self._den, self._terms)", CANONICAL),
    ("algebra.py",  # grade, of either element type, without renormalising
     "    return x._reduced(x._space, x._den, {m: c for m, c in x._terms.items()",
     "    return x._from_canonical(x._space, x._den, {m: c for m, c in x._terms.items()",
     CANONICAL),
    ("exterior.py",  # volume_form of any n: 0, 13 or 40 builds a form
     "_from_canonical(_dimension(n), 1, {(1 << n) - 1: 1})", "_from_canonical(n, 1, {(1 << n) - 1: 1})",
     ["tests/test_exterior.py::test_volume_form_refuses_a_dimension_outside_1_to_12"]),
    ("exterior.py",  # interior_product without renormalising
     "    return ExteriorForm._reduced(a.n, a._den, out)",
     "    return ExteriorForm._from_canonical(a.n, a._den, out)", CANONICAL),
    ("exprio.py",  # a writer that skips the per-term reduction
     "    g = gcd(num, den)\n", "    g = 1\n", CANONICAL),
    ("algebra.py",  # the element builder over the first term's denominator instead of the lcm
     "        den = lcm(*[d for _, d, _ in terms])", "        den = terms[0][1] if terms else 1",
     CANONICAL),
    # the general readers: one path per blade, term and coefficient
    ("exprio.py",  # each blade index read one bit too high
     "        mask |= 1 << (i - 1)\n        prev = i\n        pos +=",
     "        mask |= 1 << i\n        prev = i\n        pos +=",
     [EXPRIO + "test_parse_terms_matches_character_scanner"]),
    ("exprio.py",  # no zero-denominator refusal in the general JSON reader
     '    _expect(den != 0, "zero denominator", f"{tpath}.coef")\n', "",
     [EXPRIO + "test_json_schema_fuzz_loads_and_round_trips_or_rejects"]),
    # the direct readers of the writers' own layouts
    ("exprio.py",  # ' - ' read as '+'
     'text.replace(" - ", " + -").split(" + ")', 'text.replace(" - ", " + ").split(" + ")',
     PRINTED),
    ("exprio.py",  # the blade limit dropped: a blade past n read from the n = 9 table
     "digits, limit, terms = _digits(), 1 << n, []",
     "digits, limit, terms = _digits(), 1 << 9, []", PRINTED),
    ("exprio.py",  # no zero-denominator refusal in the text reader
     "        if not den:\n            return None\n        terms.append((sign * num, den, mask))",
     "        terms.append((sign * num, den, mask))", PRINTED),
    ("exprio.py",  # no ASCII guard: non-ASCII digits such as U+0663 go through int()
     'if type(text) is not str or not text.isascii() or " + -" in text:',
     'if type(text) is not str or " + -" in text:', PRINTED),
    ("exprio.py",  # a sign after ' + ' read as the term's own
     'if type(text) is not str or not text.isascii() or " + -" in text:',
     "if type(text) is not str or not text.isascii():", PRINTED),
    ("exprio.py",  # a text reader that always declines
     "        terms.append((sign * num, den, mask))\n    return terms\n",
     "        terms.append((sign * num, den, mask))\n    return None\n",
     [EXPRIO + "test_parse_print_roundtrip_clifford"]),
    ("exprio.py",  # no zero-denominator refusal in the JSON reader
     "if mask >> n or not den or blade != (", "if mask >> n or blade != (", WRITTEN),
    ("exprio.py",  # no spelled-back check: [3, 1], [1, 1] and [01] are read
     "if mask >> n or not den or blade != (low[mask & 15] + mid[mask >> 4 & 15]\n"
     "                                             + high[mask >> 8])[:-2]:",
     "if mask >> n or not den:", WRITTEN),
    ("exprio.py",  # a JSON reader that always declines
     "    return cls._combine(space, terms)\n\n\ndef from_json",
     "    return None\n\n\ndef from_json", [EXPRIO + "test_json_roundtrip_clifford"]),
    # the L0 sign kernel
    ("algebra.py",  # the suffix parity counts the blade's own bit
     "    a >>= 1\n    a ^= a >> 1\n", "    a ^= a >> 1\n",
     ["tests/test_algebra.py::test_blade_product_masks_all_pairs_against_oracle"]),
    ("algebra.py",  # the suffix xor stops at 8 positions
     "    a ^= a >> 8\n", "    a ^= a >> 16\n",
     ["tests/test_algebra.py::test_blade_product_masks_all_pairs_against_oracle"]),
    ("algebra.py",  # reorder_sign with its operands swapped
     "return -1 if (_suffix_parity(a) & b).bit_count() & 1 else 1",
     "return -1 if (_suffix_parity(b) & a).bit_count() & 1 else 1",
     ["tests/test_algebra.py::test_blade_product_exhaustive_small_dims"]),
    # exact linear algebra and the Hodge star
    ("linalg.py",  # Bareiss without the swap sign
     "            sign = -sign\n", "            sign = sign\n",
     [IDEALS + "test_det_bareiss_matches_oracle"]),
    ("linalg.py",  # RowBasis reduces the caller's row in place
     "        row = dict(row)  # the copy", "        row = row  # the copy",
     [IDEALS + "test_row_basis_integer_rows_and_caller_rows"]),
    ("exterior.py",  # the two Hodge sign rules swapped
     "sign = reorder_sign(comp, mask) if dual_first else reorder_sign(mask, comp)",
     "sign = reorder_sign(mask, comp) if dual_first else reorder_sign(comp, mask)",
     ["tests/test_exterior.py::test_hodge_star_both_exterior_conventions_exhaustive"]),
    # one formula per structure, and one table of structure kinds
    ("verifier.py",  # one status rule for every claim: PASS once any convention validates
     "status = PASS if len(validating) == len(conventions) else",
     "status = PASS if bool(validating) else",
     ["tests/test_verifier.py::test_report_statuses_frozen"]),
    ("verifier.py",  # C6 run with the corrected omega sign instead of the displayed +4
     "lambda conv: _su3_formula(su3, conv, 4, su3_square),",
     "lambda conv: _su3_formula(su3, conv, -4, su3_square),",
     ["tests/test_verifier.py::test_report_statuses_frozen"]),
    # one rule for every claim: the value decides, one printer shows both values, a failure notes why
    ("verifier.py",  # no differing-blades note for a failing claim without an erratum
     'erratum or (_diff_note(x, stated) if isinstance(x, Multivector) else "")', "erratum",
     ["tests/test_verifier.py::test_display_errata_notes_name_blades"]),
    ("verifier.py",  # paper printed from the engine's value instead of the stated one
     "paper or show(stated)", "paper or show(value(_NORMATIVE))",
     ["tests/test_verifier.py::test_c3_fails_with_correction"]),
    ("verifier.py",  # a claim decided by its printed text instead of its value
     "        if x == stated:\n", "        if show(x) == show(stated):\n",
     ["tests/test_verifier.py::test_claims_are_decided_by_value_not_by_printed_text"]),
    ("structures.py",  # the library's Spin(7) constant replaced by the displayed 1/128
     "f = _spin7_formula(omega, _STAR, Fraction(1, 16 * c), square)",
     "f = _spin7_formula(omega, _STAR, Fraction(1, 128), square)",
     ["tests/test_structures.py::test_spin7_idempotent_is_factored_f"]),
    ("structures.py",  # the SU(3) recovery with its psi- sign flipped
     "psi_minus=symbol(clifford_hodge(w3, conv)).scale(sign),",
     "psi_minus=symbol(clifford_hodge(w3, conv)).scale(-sign),",
     ["tests/test_structures.py::test_su3_recover_model_tensors"]),
    ("structures.py",  # two kinds swapped in the structure table
     '    "g2": (G2Structure, model_g2, 7, (("phi", "phi"),), g2_idempotent, g2_recover),\n'
     '    "spin7": (Spin7Structure, model_spin7, 8, (("cayley", "cayley"),), spin7_idempotent, '
     'spin7_recover),\n',
     '    "spin7": (G2Structure, model_g2, 7, (("phi", "phi"),), g2_idempotent, g2_recover),\n'
     '    "g2": (Spin7Structure, model_spin7, 8, (("cayley", "cayley"),), spin7_idempotent, '
     'spin7_recover),\n',
     ["tests/test_cli.py::test_structure_recover_gives_back_the_model"]),
    # the G2 metric from i <= j over one lcm, and the writers
    ("structures.py",  # the lower triangle of M left at zero
     "        m[i][j] = m[j][i] = w._terms", "        m[i][j] = w._terms",
     ["tests/test_structures.py::test_g2_metric_matches_oracle_off_the_diagonal"]),
    ("structures.py",  # each entry of M over its own wedge's denominator, not the lcm
     "m[j][i] = w._terms.get(top, 0) * (den // w._den)", "m[j][i] = w._terms.get(top, 0)",
     ["tests/test_structures.py::test_g2_metric_matches_oracle_on_random_forms"]),
    ("structures.py",  # structure_to_json without the space of its field separator
     """*[f', "{field}": {to_json""", """*[f',"{field}": {to_json""",
     ["tests/test_exprio.py::test_structure_to_json_is_json_dumps_of_the_reference_object"]),
    ("exprio.py",  # the digit error names the last blade, not the one str() refused
     "        except ValueError:\n            break\n", "        except ValueError:\n            continue\n",
     ["tests/test_exprio.py::test_an_accepted_sum_that_outgrows_the_bound_is_named"]),
    # one validity test per structure kind: the idempotent decides
    ("structures.py",  # a recovery that accepts whatever idempotent its tensors build
     "        if f.scale(x.scalar_part / f.scalar_part) == x:\n", "        if True:\n",
     ["tests/test_structures.py::test_recover_rejects_what_its_tensors_do_not_rebuild"]),
    ("structures.py",  # the other half named by the wrong sign of vol*x
     "    if sign and volume_element(x.sig) * x == x.scale(sign):",
     "    if sign and volume_element(x.sig) * x == x.scale(-sign):",
     ["tests/test_structures.py::test_every_decomposition_piece_rebuilds_or_names_its_half"]),
    ("cli.py",  # g2 --validate exits by the orbit tag again, not by the idempotent
     "orbit: {report.tag}\")\n    idempotent(s)\n",
     "orbit: {report.tag}\")\n    if report.tag != \"definite\":\n        raise ValueError(report.tag)\n",
     ["tests/test_cli.py::test_validate_exits_as_to_idempotent_does"]),
    # every structure map returns a primitive idempotent or raises
    ("structures.py",  # su3 accepts any idempotent again, primitive or not
     "    f = _su3_formula(s, _STAR, -4, square)\n    if not is_primitive(f):\n",
     "    f = _su3_formula(s, _STAR, -4, square)\n    if f * f != f:\n",
     ["tests/test_structures.py::test_su3_idempotent_returns_only_primitive_idempotents"]),
    ("structures.py",  # lift_su3_to_g2 lifts tensors that su3_idempotent rejects
     "    su3_idempotent(s)\n    return _lift(s)", "    return _lift(s)",
     ["tests/test_cli.py::test_lift_exits_as_su3_to_idempotent_does"]),
    ("structures.py",  # g2 names no degenerate metric among its rejections
     '    if g2_metric(s).tag == "degenerate":\n        raise StructureError("phi induces a degenerate metric")\n',
     "",
     ["tests/test_structures.py::test_g2_idempotent_decides_as_the_metric_first_reference"]),
    ("ideals.py",  # a wrong d = 7 row: R_{0,7} as M_8(C), which has the same dimension
     '("R", 2, 1, 3))', '("C", 1, 1, 3))',
     ["tests/test_matrix_oracle.py::test_generators_anticommute_and_square_to_minus_one"]),
    # a command loads only what it runs: lazy package names
    ("__init__.py",  # the verifier's names looked up in structures
     '    ("verifier", "Claim ClaimResult', '    ("structures", "Claim ClaimResult',
     ["tests/test_records.py::test_cli_import_skips_introspection_modules"]),
    ("__init__.py",  # a lazy name resolved on every access, never bound in the package
     "    value = globals()[name] = getattr(", "    value = getattr(",
     ["tests/test_records.py::test_cli_import_skips_introspection_modules"]),
    # a plain argv is read from the command table, and argparse reads every other one
    ("cli.py",  # the table reader resolves a flag prefix, as argparse's abbreviations do
     "            if flag not in flags or flags[flag][0] in seen:\n",
     "            flag = next((f for f in flags if f.startswith(flag)), flag)\n"
     "            if flag not in flags or flags[flag][0] in seen:\n",
     ["tests/test_cli.py::test_table_reader_leaves_to_argparse"]),
    ("cli.py",  # no choices check: verify-paper --format xml exits 0
     '        if value not in spec.get("choices", (value,)):\n', "        if False:\n",
     ["tests/test_cli.py::test_verify_paper_unknown_format_exit_2"]),
    ("cli.py",  # a flag without a value may follow another of its group: --ideal --check
     "            if flag not in flags or flags[flag][0] in seen:\n",
     "            if flag not in flags or flags[flag][0] in seen and flags[flag][2] is None:\n",
     ["tests/test_cli.py::test_table_reader_leaves_to_argparse"]),
    # verify-paper exits 1 on a status that differs from the golden file
    ("cli.py",  # --claim prints the drift and exits 0
     "            return EXIT_SEMANTIC\n        return EXIT_OK\n\n    report = run_all()",
     "            return EXIT_OK\n        return EXIT_OK\n\n    report = run_all()",
     ["tests/test_cli.py::test_verify_paper_exits_1_on_status_drift"]),
    ("cli.py",  # the full run prints the drift and exits 0
     "            print(f\"status drift: {d}\", file=sys.stderr)\n        return EXIT_SEMANTIC\n",
     "            print(f\"status drift: {d}\", file=sys.stderr)\n        return EXIT_OK\n",
     ["tests/test_cli.py::test_verify_paper_exits_1_on_status_drift"]),
    # '--' as the value of --gens or --from is refused alike, whatever argparse makes of it
    ("cli.py",  # the table reader takes '--' as the value
     '            elif value in ("", "--") or value.startswith("-")',
     '            elif not value or value.startswith("-")',
     ["tests/test_cli.py::test_table_reader_returns_what_argparse_returns"]),
    ("cli.py",  # main leaves '--' as the value to argparse: 3.11 passes on an empty list
     '            if value == "--" and len(flag) > 2', '            if False',
     ["tests/test_cli_transcript.py::test_cli_transcript"]),
    # one element API for both element types, and one place that maps refusals to exit codes
    ("algebra.py",  # int * element no longer scales
     "    __rmul__ = __mul__\n", "",
     ["tests/test_algebra.py::test_shared_element_api"]),
    # one reader for every coefficient a caller passes, and one element builder
    ("algebra.py",  # the reader takes a float in, exactly, as Fraction(float) did
     "    if not isinstance(value, int):\n        from fractions import Fraction\n",
     "    if isinstance(value, float):\n        return value.as_integer_ratio()\n"
     "    if not isinstance(value, int):\n        from fractions import Fraction\n",
     ["tests/test_algebra.py::test_shared_element_api"]),
    ("algebra.py",  # the constructor takes a bool mask, which blade_mask refuses as an index
     "            if not isinstance(mask, int) or isinstance(mask, bool):",
     "            if not isinstance(mask, int):",
     ["tests/test_algebra.py::test_constructor_refuses_a_mask_that_is_not_an_int"]),
    ("algebra.py",  # the constructor stores an int-subclass mask as it came
     "items = terms.items() if exact else [(int(m), c) for m, c in terms.items()]",
     "items = terms.items()",
     ["tests/test_algebra.py::test_constructor_refuses_a_mask_that_is_not_an_int"]),
    ("algebra.py",  # the constructor stores a mask outside 0..2^n - 1
     "            if not 0 <= mask < limit:\n", "            if False:\n",
     ["tests/test_algebra.py::test_shared_element_api"]),
    ("cli.py",  # the --gens split's brace test inverted: commas inside e{...} split
     'inside = text[i] == "}"', 'inside = text[i] == "{"',
     ["tests/test_cli.py::test_gens_split_matches_the_lookahead_rule"]),
    ("cli.py",  # stdin read once per '-': the second '-' reads nothing
     '    stdin_text = sys.stdin.read() if "-" in raw else None\n    return [stdin_text if',
     "    return [sys.stdin.read() if", ["tests/test_cli.py::test_eval_stdin"]),
    ("cli.py",  # a usage error exits 1, as a refusal does
     "    except (_UsageError, ParseError, SchemaError) as exc:\n"
     "        print(f\"error: {exc}\", file=sys.stderr)\n        return EXIT_PARSE\n"
     "    except ValueError as exc:",
     "    except (ParseError, SchemaError) as exc:\n"
     "        print(f\"error: {exc}\", file=sys.stderr)\n        return EXIT_PARSE\n"
     "    except (ValueError, _UsageError) as exc:",
     ["tests/test_cli.py::test_eval_unknown_op_exit_2"]),
    # what happens at exit: gc.freeze registered once, and the exit code of a closed pipe
    ("cli.py",  # the heap frozen at once, while an in-process caller still runs
     "    atexit.register(gc.freeze)\n", "    gc.freeze()\n",
     ["tests/test_cli.py::test_in_process_main_leaves_the_heap_unfrozen"]),
    ("cli.py",  # no registration: the shutdown collections walk the whole heap again
     "    _freeze_at_exit()\n", "",
     ["tests/test_cli.py::test_exit_freeze_runs_after_main_before_earlier_callbacks"]),
    ("cli.py",  # registered on every call: two main calls freeze twice at exit
     "@cache  # once", "# once",
     ["tests/test_cli.py::test_main_registers_the_exit_freeze_once"]),
    ("cli.py",  # a closed stdout pipe exits 1, as a refusal does
     "        return EXIT_PIPE\n", "        return EXIT_SEMANTIC\n",
     ["tests/test_cli.py::test_closed_stdout_pipe_exits_141"]),
    # the golden file read without importlib.resources
    ("verifier.py",  # importlib.resources back at module level
     "from functools import cache\n", "from functools import cache\nfrom importlib import resources\n",
     ["tests/test_records.py::test_cli_import_skips_introspection_modules"]),
]


def _copy_src(into: Path) -> Path:
    target = into / "src"
    shutil.copytree(SRC, target, ignore=shutil.ignore_patterns("__pycache__"))
    return target


def _python(src: Path, *args: str) -> subprocess.CompletedProcess:
    """python args, run from the checkout with the package imported from src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def _pytest(src: Path, selection: list[str]) -> subprocess.CompletedProcess:
    return _python(src, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection)


def _baseline() -> str | None:
    """None when the selections pass on an unmutated copy that the tests import, else why not."""
    selection = sorted({test for *_, tests in MUTANTS for test in tests})
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        where = _python(src, "-c", "import cliffideal; print(cliffideal.__file__)").stdout.strip()
        if not where.startswith(str(src)):
            return f"the tests import cliffideal from {where or '?'}, not from the copy"
        run = _pytest(src, selection)
        if run.returncode:
            return "the selections fail without a mutant:\n" + run.stdout[-2000:]
    return None


def _run(file: str, old: str, new: str, selection: list[str]) -> str:
    """'killed', 'SURVIVED' or 'STALE (...)' for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        path = _copy_src(Path(tmp)) / "cliffideal" / file
        text = path.read_text()
        count = text.count(old)
        if count != 1:
            return f"STALE (old text found {count} times)"
        path.write_text(text.replace(old, new))
        try:
            return "killed" if _pytest(path.parent.parent, selection).returncode else "SURVIVED"
        except subprocess.TimeoutExpired:
            return "killed (hang)"


def main() -> int:
    start = time.perf_counter()
    problem = _baseline()
    if problem:
        print(f"mutation gate: {problem}")
        return 1
    failed = 0
    for i, (file, old, new, tests) in enumerate(MUTANTS, 1):
        verdict = _run(file, old, new, tests)
        failed += not verdict.startswith("killed")
        print(f"{i:2d}  {verdict:<13} {file:<14} {old.strip().splitlines()[0][:60]}", flush=True)
    print(f"mutation gate: {len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
