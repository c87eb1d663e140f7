import json
import random
from fractions import Fraction

import pytest

from cliffideal import (
    ExteriorForm,
    G2Structure,
    IdempotentSpec,
    Multivector,
    SchemaError,
    Signature,
    SU3Structure,
    Spin7Structure,
    StructureError,
    build_idempotent,
    decompose_algebra,
    g2_idempotent,
    g2_metric,
    g2_recover,
    hodge_star,
    is_primitive,
    left_ideal_basis,
    lift_idempotent_6_to_7,
    lift_su3_to_g2,
    model_g2,
    model_spin7,
    model_su3,
    parse,
    print_canonical,
    quantize,
    run_claim,
    spin7_idempotent,
    spin7_recover,
    structure_from_json,
    structure_to_json,
    su3_idempotent,
    su3_recover,
    symbol,
    to_json,
    volume_element,
    volume_form,
    wedge,
)
from cliffideal import structures, verifier
from cliffideal.algebra import mask_indices

from test_ideals import GENS6, GENS7, GENS8
from oracles import g2_idempotent_metric_first, interior_blade, principal_minors, wedge_dicts

F7_CANONICAL = (
    "1/16 + 1/16*e123 + 1/16*e145 + 1/16*e167 + 1/16*e246 - 1/16*e257"
    " - 1/16*e347 - 1/16*e356 + 1/16*e1247 + 1/16*e1256 + 1/16*e1346"
    " - 1/16*e1357 - 1/16*e2345 - 1/16*e2367 - 1/16*e4567 - 1/16*e1234567"
)
F8_CANONICAL = (
    "1/16 - 1/16*e1234 - 1/16*e1256 - 1/16*e1278 - 1/16*e1357 + 1/16*e1368"
    " + 1/16*e1458 + 1/16*e1467 + 1/16*e2358 + 1/16*e2367 + 1/16*e2457"
    " - 1/16*e2468 - 1/16*e3456 - 1/16*e3478 - 1/16*e5678 + 1/16*e12345678"
)
FLIFT_CANONICAL = (
    "1/16 + 1/16*e127 + 1/16*e135 - 1/16*e146 - 1/16*e236 - 1/16*e245"
    " + 1/16*e347 + 1/16*e567 - 1/16*e1234 - 1/16*e1256 - 1/16*e1367"
    " - 1/16*e1457 - 1/16*e2357 + 1/16*e2467 - 1/16*e3456 - 1/16*e1234567"
)
PHI_LIFTED_CANONICAL = "e127 + e135 - e146 - e236 - e245 + e347 + e567"
STAR_PHI_CANONICAL = "-e1247 - e1256 - e1346 + e1357 + e2345 + e2367 + e4567"


@pytest.fixture(scope="module")
def f6(sig6):
    return build_idempotent(IdempotentSpec(sig6, GENS6))


@pytest.fixture(scope="module")
def f7(sig7):
    return build_idempotent(IdempotentSpec(sig7, GENS7))


@pytest.fixture(scope="module")
def f8(sig8):
    return build_idempotent(IdempotentSpec(sig8, GENS8))


# -- model tensors ---------------------------------------------------------

def test_model_su3_wedge_relations():
    s = model_su3()
    assert wedge(s.psi_plus, s.psi_minus) == volume_form(6).scale(4)
    assert wedge(s.omega, s.psi_plus).is_zero()
    assert wedge(s.omega, s.psi_minus).is_zero()
    omega_cubed = wedge(wedge(s.omega, s.omega), s.omega)
    assert omega_cubed == volume_form(6).scale(6)


def test_model_g2_wedge_constant():
    phi = model_g2().phi
    assert print_canonical(hodge_star(phi)) == STAR_PHI_CANONICAL
    assert wedge(phi, hodge_star(phi)) == volume_form(7).scale(7)


def test_model_spin7_self_dual_and_constant():
    cayley = model_spin7().cayley
    assert hodge_star(cayley) == cayley
    assert len(cayley.term_map()) == 14
    assert wedge(cayley, cayley) == volume_form(8).scale(14)


def test_structure_shape_validation():
    with pytest.raises(StructureError):
        SU3Structure(omega=ExteriorForm.blade(6, (1,)),        # grade 1, not 2
                     psi_plus=model_su3().psi_plus,
                     psi_minus=model_su3().psi_minus)
    with pytest.raises(StructureError):
        G2Structure(phi=ExteriorForm.blade(6, (1, 2, 3)))      # wrong dimension
    with pytest.raises(StructureError):
        Spin7Structure(cayley=ExteriorForm.blade(8, (1, 2, 3)))


# -- SU(3), dimension 6 ------------------------------------------------------

def test_su3_idempotent_is_factored_f(f6):
    assert su3_idempotent(model_su3()) == f6
    assert is_primitive(f6)


def test_su3_recover_model_tensors(f6):
    s = su3_recover(f6)
    m = model_su3()
    assert s.omega == m.omega
    assert s.psi_plus == m.psi_plus
    assert s.psi_minus == m.psi_minus


def test_su3_roundtrip(f6):
    assert su3_idempotent(su3_recover(f6)) == f6


def test_su3_recover_normalizes_scale(f6):
    assert su3_recover(f6.scale(3)) == su3_recover(f6)


def test_su3_recover_rejects_bad_input(sig7):
    with pytest.raises(StructureError, match="R_{0,6}"):
        su3_recover(Multivector.scalar(sig7, 1))
    with pytest.raises(StructureError, match="scalar"):
        su3_recover(Multivector.blade(Signature(0, 6), (1, 3, 5)))


# -- G2, dimension 7 ---------------------------------------------------------

def test_g2_metric_of_model_is_identity():
    report = g2_metric(model_g2())
    for i in range(7):
        for j in range(7):
            assert report.metric[i][j] == (1 if i == j else 0)
    assert report.determinant == 1
    assert report.tag == "definite"


def test_g2_metric_wedges_each_pair_once(monkeypatch):
    calls = []
    lifted = lift_su3_to_g2(model_su3())
    wedge_ = structures.wedge
    monkeypatch.setattr(structures, "wedge", lambda a, b: calls.append(1) or wedge_(a, b))
    report = g2_metric(lifted)
    assert len(calls) == 2 * 28  # (i_i phi ^ i_j phi) ^ phi for i <= j only
    assert all(report.metric[i][j] == report.metric[j][i] for i in range(7) for j in range(7))


def test_su3_and_spin7_idempotents_wedge_their_square_once(monkeypatch):
    calls = []
    wedge_ = structures.wedge
    monkeypatch.setattr(structures, "wedge", lambda a, b: calls.append((a, b)) or wedge_(a, b))
    su3, spin7 = model_su3(), model_spin7()
    su3_idempotent(su3)
    assert calls == [(su3.psi_plus, su3.psi_minus)]  # for the volume constant and the formula
    calls.clear()
    spin7_idempotent(spin7)
    assert calls == [(spin7.cayley, spin7.cayley)]


def test_c17_computes_the_g2_metric_once(monkeypatch):
    calls = []
    metric = structures.g2_metric
    for module in (structures, verifier):
        monkeypatch.setattr(module, "g2_metric", lambda s: calls.append(s) or metric(s))
    result = run_claim("C17")
    assert (result.status, result.computed) == (
        "PASS", "metric definite; primitive: True; ideal dimension 8")
    assert len(calls) == 1


def test_g2_metric_orientation_reversal_still_definite():
    report = g2_metric(G2Structure(phi=model_g2().phi.scale(-1)))
    assert report.tag == "definite"
    assert report.determinant == -1


def test_g2_metric_degenerate():
    report = g2_metric(G2Structure(phi=ExteriorForm.blade(7, (1, 2, 3))))
    assert report.tag == "degenerate"
    assert report.determinant == 0


def test_g2_metric_pins_three_tags():
    phi = model_g2().phi
    split = phi - ExteriorForm.blade(7, (1, 2, 3)).scale(2)  # e123 with its sign flipped
    cases = (
        (phi, "definite", [1] * 7),
        (phi.scale(-1), "definite", [(-1) ** k for k in range(1, 8)]),  # B = -I
        (split, "split", [-1, 1, -1, -1, -1, -1, -1]),
        (ExteriorForm.blade(7, (1, 2, 3)), "degenerate", None),
    )
    for form, tag, minors in cases:
        report = g2_metric(G2Structure(phi=form))
        assert report.tag == tag
        if minors is not None:
            assert principal_minors([list(r) for r in report.metric]) == minors


def _oracle_g2_metric(phi_dict):
    def contract(i):
        out = {}
        for ind, c in phi_dict.items():
            sign, rest = interior_blade(i, ind)
            if sign:
                out[rest] = out.get(rest, Fraction(0)) + sign * c
        return out

    top = tuple(range(1, 8))
    rows = []
    for i in range(1, 8):
        row = []
        for j in range(1, 8):
            w = wedge_dicts(wedge_dicts(contract(i), contract(j)), phi_dict)
            row.append(Fraction(1, 6) * w.get(top, Fraction(0)))
        rows.append(row)
    return rows


def _oracle_tag(rows):
    minors = principal_minors(rows)
    if minors[-1] == 0:
        return "degenerate"
    neg = principal_minors([[-v for v in row] for row in rows])
    if all(m > 0 for m in minors) or all(m > 0 for m in neg):
        return "definite"
    return "split"


def test_g2_metric_matches_oracle_on_random_forms():
    rng = random.Random(31)
    samples = [model_g2().phi, model_g2().phi.scale(-2), ExteriorForm.blade(7, (1, 2, 3))]
    for _ in range(6):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            ind = tuple(sorted(rng.sample(range(1, 8), 3)))
            terms[ind] = Fraction(rng.randint(-3, 3))
        samples.append(ExteriorForm.from_terms(7, [(c, i) for i, c in terms.items() if c]))
    for _ in range(12):  # rational multiples of the model's terms, and a few more terms
        terms = {mask_indices(m): c * Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 3, 7)))
                 for m, c in model_g2().phi.terms()}
        for _ in range(rng.randint(0, 3)):
            ind = tuple(sorted(rng.sample(range(1, 8), 3)))
            terms[ind] = Fraction(rng.randint(-3, 3), rng.choice((2, 3, 7)))
        samples.append(ExteriorForm.from_terms(7, [(c, i) for i, c in terms.items() if c]))
    tags, dens = set(), set()
    for phi in samples:
        report = g2_metric(G2Structure(phi=phi))
        tags.add(report.tag)
        dens.add(len({v.denominator for row in report.metric for v in row if v}))
        phi_dict = {mask_indices(m): c for m, c in phi.terms()}
        rows = _oracle_g2_metric(phi_dict)
        assert [list(r) for r in report.metric] == rows
        assert report.determinant == principal_minors(rows)[-1]
        assert report.tag == _oracle_tag(rows)
    assert tags == {"definite", "split", "degenerate"}
    assert max(dens) > 1  # some metric has entries over distinct denominators


def test_g2_metric_matches_oracle_off_the_diagonal():
    rng = random.Random(2828)
    blades = [tuple(sorted(rng.sample(range(1, 8), 3))) for _ in range(40)]
    for _ in range(3):
        terms = {t: Fraction(rng.choice((-3, -1, 1, 2))) for t in blades}
        phi = ExteriorForm.from_terms(7, [(c, t) for t, c in terms.items()])
        report = g2_metric(G2Structure(phi=phi))
        rows = _oracle_g2_metric({mask_indices(m): c for m, c in phi.terms()})
        assert [list(r) for r in report.metric] == rows
        assert any(rows[i][j] for i in range(7) for j in range(i + 1, 7))
        assert report.determinant == principal_minors(rows)[-1]
        assert report.tag == _oracle_tag(rows)


def test_g2_idempotent_is_factored_f(f7):
    got = g2_idempotent(model_g2())
    assert got == f7
    assert print_canonical(got) == F7_CANONICAL
    assert left_ideal_basis(got).dimension == 8


def test_g2_idempotent_rejects_degenerate():
    with pytest.raises(StructureError, match="degenerate"):
        g2_idempotent(G2Structure(phi=ExteriorForm.blade(7, (1, 2, 3))))


def test_g2_recover_model(f7):
    assert g2_recover(f7) == model_g2()


def test_g2_recover_four_form_is_the_dual_of_phi():
    """<16 f>_4 = -q(star phi) on every piece that g2_recover accepts, so it returns phi alone."""
    accepted = 0
    for f in decompose_algebra(IdempotentSpec(Signature(0, 7), verifier._GENS[7])):
        try:
            s = g2_recover(f)
        except StructureError:
            continue
        assert f.grade(4).scale(16) == -quantize(hodge_star(s.phi))
        accepted += 1
    assert accepted == 8


def test_g2_roundtrip(f7):
    assert g2_idempotent(g2_recover(f7)) == f7


def test_g2_recover_rejects_scalar(sig7):
    # phi = 0 induces the zero metric, so the rebuild fails
    with pytest.raises(StructureError, match="degenerate"):
        g2_recover(Multivector.scalar(sig7, 1))


# -- Spin(7), dimension 8 -----------------------------------------------------

def test_spin7_idempotent_is_factored_f(f8):
    got = spin7_idempotent(model_spin7())
    assert got == f8
    assert print_canonical(got) == F8_CANONICAL
    assert left_ideal_basis(got).dimension == 16


def test_spin7_idempotent_rejects_non_self_dual():
    with pytest.raises(StructureError, match="self-dual"):
        spin7_idempotent(Spin7Structure(cayley=ExteriorForm.blade(8, (1, 2, 3, 4))))


def test_spin7_recover_model(f8):
    assert spin7_recover(f8).cayley == model_spin7().cayley


def test_spin7_roundtrip(f8):
    assert spin7_idempotent(spin7_recover(f8)) == f8


def test_spin7_recover_rejects_bad_grade4(sig8):
    x = (Multivector.scalar(sig8, 1)
         - Multivector.blade(sig8, (1, 2, 3, 4)))  # -<W>_4 = e1234 is not self-dual
    with pytest.raises(StructureError, match="self-dual"):
        spin7_recover(x)


# -- every recovery rebuilds its input ----------------------------------------

# n -> (recover, idempotent, the sign s of vol*x = s*x on the pieces it rejects, why)
RECOVERIES = {
    6: (su3_recover, su3_idempotent, 0, ""),
    7: (g2_recover, g2_idempotent, 1,
        "cannot recover a structure: x lies in the vol*x = +x half; "
        "the G2 correspondence uses vol*f = -f"),
    8: (spin7_recover, spin7_idempotent, -1,
        "cannot recover a structure: x lies in the vol*x = -x half; "
        "the Spin(7) correspondence uses vol*f = +f"),
}


@pytest.mark.parametrize("n", RECOVERIES)
def test_every_decomposition_piece_rebuilds_or_names_its_half(n):
    recover, idempotent, sign, why = RECOVERIES[n]
    pieces = decompose_algebra(IdempotentSpec(Signature(0, n), verifier._GENS[n]))
    vol = volume_element(Signature(0, n))
    rebuilt = 0
    for f in pieces:
        try:
            s = recover(f.scale(3))
        except StructureError as exc:
            assert str(exc) == why
            assert vol * f == f.scale(sign)
        else:
            assert idempotent(s) == f
            assert not sign or vol * f == f.scale(-sign)
            rebuilt += 1
    assert (rebuilt, len(pieces)) == (8, 16 if sign else 8)


@pytest.mark.parametrize("n, rebuilders", [(7, ("g2_idempotent", "g2_metric")), (8, ("spin7_idempotent",))])
def test_recover_names_the_other_half_before_rebuilding(n, rebuilders, monkeypatch):
    """The 8 pieces in the half a correspondence never builds are refused with no idempotent built."""
    recover, _, sign, why = RECOVERIES[n]
    calls = dict.fromkeys(rebuilders, 0)
    for name in rebuilders:
        def counting(*args, name=name, real=getattr(structures, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(structures, name, counting)
    vol = volume_element(Signature(0, n))
    pieces = decompose_algebra(IdempotentSpec(Signature(0, n), verifier._GENS[n]))
    other = [f for f in pieces if vol * f == f.scale(sign)]
    assert len(other) == 8
    for f in other:
        with pytest.raises(StructureError) as exc:
            recover(f)
        assert str(exc.value) == why
    assert calls == dict.fromkeys(rebuilders, 0)


@pytest.mark.parametrize("n", RECOVERIES)
def test_recover_rejects_what_its_tensors_do_not_rebuild(n, f6, f7, f8):
    recover, idempotent, _, _ = RECOVERIES[n]
    f = {6: f6, 7: f7, 8: f8}[n]
    # the recovery reads no grade-1 part, so these tensors build f, not x
    x = f + Multivector.blade(f.sig, (1,))
    with pytest.raises(StructureError, match="x is not a multiple of the idempotent its tensors build"):
        recover(x)
    assert idempotent(recover(f.scale(-2))) == f


# -- every idempotent returned is primitive -------------------------------------

def _subset_sums(pieces):
    """(size, sum) of every subset of pieces, the empty one included."""
    for chosen in range(1 << len(pieces)):
        subset = [f for i, f in enumerate(pieces) if chosen >> i & 1]
        yield len(subset), sum(subset, Multivector.zero(pieces[0].sig))


def test_su3_idempotent_returns_only_primitive_idempotents():
    """Tensors read off 8x, which is W for a single piece, for every nonempty subset sum x at n = 6.

    72 sums of several pieces give tensors whose formula is an idempotent of a larger
    ideal; su3_idempotent rejects them and returns x for the 8 single pieces alone.
    """
    pieces = decompose_algebra(IdempotentSpec(Signature(0, 6), verifier._GENS[6]))
    accepted, larger = 0, 0
    for size, x in list(_subset_sums(pieces))[1:]:
        w = structures._su3_recover(x, structures._STAR, -1)  # the tensors of 8x / size
        s = SU3Structure(omega=w.omega.scale(size), psi_plus=w.psi_plus.scale(size),
                         psi_minus=w.psi_minus.scale(size))
        try:
            f = su3_idempotent(s)
        except StructureError as exc:
            square = wedge(s.psi_plus, s.psi_minus)
            f = structures._su3_formula(s, structures._STAR, -4, square)
            larger += str(exc).startswith("input does not induce") and f * f == f
        else:
            assert (size, f, is_primitive(f)) == (1, x, True)
            accepted += 1
    assert (accepted, larger) == (8, 72)


@pytest.mark.parametrize("scale", [16, 8])
def test_g2_idempotent_decides_as_the_metric_first_reference(scale):
    """phi = scale * symbol(<x>_3) for the 256 subset sums x of each half's 8 pieces at n = 7."""
    sig = Signature(0, 7)
    pieces = decompose_algebra(IdempotentSpec(sig, verifier._GENS[7]))
    vol = volume_element(sig)
    seen = set()
    for sign in (1, -1):
        half = [f for f in pieces if vol * f == f.scale(sign)]
        assert len(half) == 8
        for _, x in _subset_sums(half):
            s = G2Structure(phi=symbol(x.grade(3)).scale(scale))
            outcomes = []
            for idempotent in (g2_idempotent, g2_idempotent_metric_first):
                try:
                    outcomes.append(idempotent(s))
                except StructureError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], print_canonical(s.phi)
            seen.add(outcomes[0] if isinstance(outcomes[0], str) else "accepted")
    assert len(seen) == (3 if scale == 16 else 2)


# -- dimension ladder ---------------------------------------------------------

def test_lift_su3_to_g2_model():
    lifted = lift_su3_to_g2(model_su3())
    assert print_canonical(lifted.phi) == PHI_LIFTED_CANONICAL
    report = g2_metric(lifted)
    assert report.tag == "definite"
    for i in range(7):
        for j in range(7):
            assert report.metric[i][j] == (1 if i == j else 0)


def test_lift_su3_rejects_degenerate():
    # psi+ ^ psi- = 0 here, so there is no volume normalization to lift
    s = SU3Structure(omega=ExteriorForm.blade(6, (1, 2)),
                     psi_plus=ExteriorForm.blade(6, (1, 3, 5)),
                     psi_minus=ExteriorForm.blade(6, (1, 3, 5)))
    with pytest.raises(StructureError):
        lift_su3_to_g2(s)


def test_lift_su3_rejects_what_su3_idempotent_rejects():
    su3 = model_su3()
    doubled = SU3Structure(omega=su3.omega, psi_plus=su3.psi_plus, psi_minus=su3.psi_minus.scale(2))
    with pytest.raises(StructureError, match="not a normalized SU[(]3[)] structure"):
        lift_su3_to_g2(doubled)


def test_lift_idempotent_6_to_7(f6):
    lifted = lift_idempotent_6_to_7(f6)
    assert print_canonical(lifted) == FLIFT_CANONICAL
    assert lifted.sig == Signature(0, 7)
    assert is_primitive(lifted)
    assert left_ideal_basis(lifted).dimension == 8


def test_lift_idempotent_6_to_7_asks_su3_idempotent_once(f6, monkeypatch):
    calls = []
    su3_idempotent_ = structures.su3_idempotent
    monkeypatch.setattr(structures, "su3_idempotent", lambda s: calls.append(s) or su3_idempotent_(s))
    assert print_canonical(lift_idempotent_6_to_7(f6)) == FLIFT_CANONICAL
    assert len(calls) == 1


def test_lift_rejects_non_primitive(sig6):
    with pytest.raises(StructureError, match="primitive"):
        lift_idempotent_6_to_7(Multivector.scalar(sig6, 1))


# -- JSON wrapping --------------------------------------------------------------

def test_structure_json_roundtrip_all_kinds():
    for s in (model_su3(), model_g2(), model_spin7()):
        assert structure_from_json(structure_to_json(s)) == s


def test_structure_json_envelope():
    text = structure_to_json(model_g2())
    assert '"structure": "g2"' in text
    assert text == structure_to_json(model_g2())  # byte stable


def test_structure_json_errors():
    with pytest.raises(SchemaError, match="structure"):
        structure_from_json('{"phi": {}}')
    with pytest.raises(SchemaError, match="su3|omega"):
        structure_from_json('{"structure": "su3"}')
    with pytest.raises(SchemaError):
        structure_from_json(
            '{"structure": "g2", "phi": {"signature": [0, 6], "kind": "form", "terms": []}}')


def _field(text, space, kind="form"):
    """A structure field: the decoded to_json text of parse(text, space, kind)."""
    return json.loads(to_json(parse(text, space, kind)))


@pytest.mark.parametrize("function, arg, error, message, path", [
    ("structure_to_json", object(), TypeError, "cannot serialize object", None),
    ("structure_to_json", model_g2().phi, TypeError, "cannot serialize ExteriorForm", None),
    ("structure_from_json_obj", [], SchemaError, "expected an object", ""),
    ("structure_from_json_obj", {"structure": "g2", "phi": _field("e123", Signature(0, 7), "clifford")},
     SchemaError, "phi.kind: expected kind 'form'", "phi.kind"),
    ("structure_from_json_obj", {"structure": "g2", "phi": _field("e12", 7)},
     SchemaError, "phi must be a pure 3-form", ""),
    ("structure_from_json_obj", {"structure": "spin7", "cayley": _field("e123 + e1234", 8)},
     SchemaError, "cayley must be a pure 4-form", ""),
], ids=["to-json-object", "to-json-form", "not-an-object", "clifford-field", "g2-grade-2",
        "spin7-mixed-grades"])
def test_structure_json_refusals(function, arg, error, message, path):
    with pytest.raises(error) as err:
        getattr(structures, function)(arg)
    assert type(err.value) is error and str(err.value) == message
    assert getattr(err.value, "path", None) == path
