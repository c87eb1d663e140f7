"""Machine verification of the source text's displayed identities.

Every displayed identity is a Claim: a locator into the text, the value
as printed there, and an exact recomputation by the engine.  Statuses:

  PASS                   the display matches the engine value (for claims
                         involving the underdefined Clifford Hodge dual:
                         under every one of the four conventions);
  FAIL                   no convention validates the display; the result
                         carries the machine-computed correction;
  CONVENTION_DEPENDENT   some but not all conventions validate it; the
                         note lists which.

Expected statuses are pinned in data/golden_claims.json; a FAIL listed
there is an audited erratum of the text, not a defect of the engine, and
run_all flags only deviations from the pinned expectations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from importlib import resources
from typing import Callable, Optional

from .algebra import Multivector, Signature, _Record, blade_table, volume_element
from .exterior import (
    HodgeConvention,
    clifford_hodge,
    hodge_star,
    quantize,
    symbol,
    volume_form,
    wedge,
)
from .exprio import parse, print_canonical
from .ideals import (
    IdempotentSpec,
    _eliminate,
    build_idempotent,
    classify,
    coset_basis,
    is_idempotent,
    is_primitive,
    left_ideal_basis,
    radon_hurwitz,
    validate_generators,
)
from .structures import (
    _g2_idempotent,
    g2_metric,
    lift_su3_to_g2,
    model_g2,
    model_spin7,
    model_su3,
)

_SIG6 = Signature(0, 6)
_SIG7 = Signature(0, 7)
_SIG8 = Signature(0, 8)
_NORMATIVE = HodgeConvention.EXT_DUAL_FIRST
_ALL_CONVENTIONS = tuple(HodgeConvention)

PASS = "PASS"
FAIL = "FAIL"
CONVENTION_DEPENDENT = "CONVENTION_DEPENDENT"


class Claim(_Record):
    """One displayed identity: where it appears, what it states, how to check it.

    evaluate(convention) returns (holds, computed text, extra note); the
    convention argument is meaningful only when uses_clifford_star is set.
    """

    __slots__ = ("id", "paper_ref", "category", "statement", "paper_value",
                 "uses_clifford_star", "evaluate")

    id: str
    paper_ref: str
    category: str
    statement: str
    paper_value: str
    uses_clifford_star: bool
    evaluate: Callable[[Optional[HodgeConvention]], tuple[bool, str, str]]


class ClaimResult(_Record):
    __slots__ = ("id", "status", "computed", "paper", "note")

    id: str
    status: str
    computed: str
    paper: str
    note: str


# -- shared exact artifacts (memoized; claims never mutate them) ---------

_GENS6 = ((1, (1, 3, 5)), (-1, (1, 4, 6)), (-1, (2, 3, 6)))
_GENS7 = ((1, (1, 2, 3)), (1, (1, 4, 5)), (-1, (2, 5, 7)), (1, (1, 6, 7)))
_GENS8 = ((-1, (1, 2, 3, 4)), (-1, (1, 2, 5, 6)), (-1, (1, 2, 7, 8)), (-1, (1, 3, 5, 7)))


@cache
def _f6() -> Multivector:
    return build_idempotent(IdempotentSpec(_SIG6, _GENS6))


@cache
def _f7() -> Multivector:
    return build_idempotent(IdempotentSpec(_SIG7, _GENS7))


@cache
def _f8() -> Multivector:
    return build_idempotent(IdempotentSpec(_SIG8, _GENS8))


def _pc(x) -> str:
    return print_canonical(x)


def _diff_note(computed: Multivector, stated: Multivector) -> str:
    delta = computed - stated
    if delta.is_zero():
        return ""
    text = blade_table(delta.sig.n).text
    blades = ", ".join(text[m] for m, _ in delta.terms())
    return f"displays differ from the engine at: {blades}"


# displayed values, as printed in the text (canonical parse re-orders terms
# but preserves every sign and coefficient)
_D_F6 = "1 + e135 - e146 - e236 - e245 - e3456 - e1234 - e1256"
_D_W6_GRADE4 = "e3456 - e1234 - e1256"
_D_STAR_W3_6 = "e246 - e235 - e145 - e136"
_D_STAR_W4_6 = "-e12 - e56 - e34"
_D_Q_PSI_PLUS = "e135 - e246 - e236 - e145"
_D_Q_PSI_MINUS = "e136 + e145 + e235 - e246"
_D_W7 = (
    "1 + e123 + e145 - e2345 - e257 - e1357 + e1247 - e347 + e167"
    " - e2367 - e4567 - e1234567 + e1256 - e356 - e246 - e1346"
)
_D_Q_STAR_PHI = "-e2367 + e4567 - e1346 - e1256 + e2345 + e1357 - e1247"


def _build_catalog() -> tuple[Claim, ...]:
    su3 = model_su3()
    g2 = model_g2()
    spin7 = model_spin7()
    claims: list[Claim] = []

    def add(id, paper_ref, category, statement, paper_value, uses_star, evaluate):
        claims.append(Claim(id, paper_ref, category, statement, paper_value, uses_star, evaluate))

    # C1 -----------------------------------------------------------------
    def eval_c1(conv):
        w = wedge(su3.psi_plus, su3.psi_minus)
        return w == volume_form(6).scale(4), _pc(w), ""

    add("C1", "S4.2: psi+ ^ psi- = 4 e^{123456}", "wedge-constant",
        "psi+ ^ psi- equals 4*e123456", "4*e123456", False, eval_c1)

    # C2 -----------------------------------------------------------------
    def eval_c2(conv):
        w = wedge(g2.phi, hodge_star(g2.phi))
        return w == volume_form(7).scale(7), _pc(w), ""

    add("C2", "S5.2: phi ^ star phi = 7 e^{1234567}", "wedge-constant",
        "phi ^ star phi equals 7*e1234567", "7*e1234567", False, eval_c2)

    # C3 -----------------------------------------------------------------
    def eval_c3(conv):
        w = wedge(spin7.cayley, hodge_star(spin7.cayley))
        return w == volume_form(8).scale(8), _pc(w), "the wedge square is 14, not 8, times the volume form"

    add("C3", "S6: q*(Omega ^ star Omega) = 8 e_{12345678}", "wedge-constant",
        "Omega ^ star Omega equals 8*e12345678", "8*e12345678", False, eval_c3)

    # C4 -----------------------------------------------------------------
    def eval_c4(conv):
        stated = parse(_D_F6, _SIG6).scale(Fraction(1, 8))
        return _f6() == stated, _pc(_f6()), ""

    add("C4", "S4.1: f = (1/8)(1 + e135 - e146 - e236 - e245 - e3456 - e1234 - e1256)",
        "expansion", "expansion of (1/2)^3 (1+e135)(1-e146)(1-e236) equals the display",
        _pc(parse(_D_F6, _SIG6).scale(Fraction(1, 8))), False, eval_c4)

    # C5 -----------------------------------------------------------------
    def eval_c5(conv):
        w = _f6().scale(8)
        s3 = clifford_hodge(w.grade(3), conv)
        s4 = clifford_hodge(w.grade(4), conv)
        ok = s3 == parse(_D_STAR_W3_6, _SIG6) and s4 == parse(_D_STAR_W4_6, _SIG6)
        return ok, f"star<W>_3 = {_pc(s3)}; star<W>_4 = {_pc(s4)}", ""

    add("C5", "S4.1: star<W>_3 = e246 - e235 - e145 - e136 and star<W>_4 = -(e12 + e56 + e34)",
        "dual-identity", "the two displayed duals of W = 8f hold",
        f"star<W>_3 = {_pc(parse(_D_STAR_W3_6, _SIG6))}; star<W>_4 = {_pc(parse(_D_STAR_W4_6, _SIG6))}",
        True, eval_c5)

    # C6 -----------------------------------------------------------------
    def eval_c6(conv):
        x = (
            clifford_hodge(quantize(wedge(su3.psi_plus, su3.psi_minus)), conv)
            + quantize(su3.psi_plus).scale(4)
            + clifford_hodge(quantize(su3.omega), conv).scale(4)
        ).scale(Fraction(1, 32))
        ok = is_idempotent(x) and x == _f6()
        return ok, _pc(x), "negating the omega term yields the factored idempotent exactly"

    add("C6", "Prop 4.2: f = (1/32)(star q(psi+ ^ psi-) + 4 q(psi+) + 4 star q(omega))",
        "idempotency", "the displayed formula reproduces the factored idempotent",
        "(1/32)(star q(psi+ ^ psi-) + 4 q(psi+) + 4 star q(omega))", True, eval_c6)

    # C7 -----------------------------------------------------------------
    def eval_c7(conv):
        w = _f7().scale(16)
        stated = parse(_D_W7, _SIG7)
        return w == stated, _pc(w), _diff_note(w, stated)

    add("C7", "S5.1: W = 16f, displayed with sixteen terms", "expansion",
        "expansion of (1/2)^4 (1+e123)(1+e145)(1-e257)(1+e167), scaled by 16, equals the display",
        _pc(parse(_D_W7, _SIG7)), False, eval_c7)

    # C8 -----------------------------------------------------------------
    def eval_c8(conv):
        w = _f7().scale(16)
        s3 = clifford_hodge(w.grade(3), conv)
        note = "the dual equals the negative of <W>_4" if s3 == -w.grade(4) else ""
        return s3 == w.grade(4), _pc(s3), note

    add("C8", "S5.1: star<W>_3 = <W>_4", "dual-identity",
        "the dual of the grade-3 part of W = 16f equals its grade-4 part",
        _pc(_f7().scale(16).grade(4)), True, eval_c8)

    # C9 -----------------------------------------------------------------
    def eval_c9(conv):
        star_phi = hodge_star(g2.phi)
        w = quantize(wedge(g2.phi, star_phi))
        x = (
            clifford_hodge(w, conv)
            + quantize(g2.phi).scale(7)
            - quantize(star_phi).scale(7)
            - w
        ).scale(Fraction(1, 112))
        return x == _f7(), _pc(x), ""

    add("C9", "Prop 5.2: f_phi = (1/112)(star q(phi ^ star phi) + 7 q(phi) - 7 q(star phi) - q(phi ^ star phi))",
        "idempotency", "the displayed formula reproduces the factored idempotent",
        "(1/16)(1+e123)(1+e145)(1-e257)(1+e167)", True, eval_c9)

    # C10 ----------------------------------------------------------------
    def eval_c10(conv):
        engine = quantize(hodge_star(g2.phi))
        stated = parse(_D_Q_STAR_PHI, _SIG7)
        return engine == stated, _pc(engine), _diff_note(engine, stated)

    add("C10", "S5.2: q*(star phi) = -e2367 + e4567 - e1346 - e1256 + e2345 + e1357 - e1247",
        "expansion", "the displayed quantized dual of phi equals the engine value",
        _pc(parse(_D_Q_STAR_PHI, _SIG7)), False, eval_c10)

    # C11 ----------------------------------------------------------------
    def eval_c11(conv):
        w = _f8().scale(16)
        stated = Multivector.scalar(_SIG8, 1) - quantize(spin7.cayley) + volume_element(_SIG8)
        return w == stated, _pc(w), _diff_note(w, stated)

    add("C11", "S6: W = 16 f_Omega = 1 - q*(Omega) + e_{12345678}", "expansion",
        "expansion of the factored Cayley idempotent, scaled by 16, equals 1 - q(Omega) + vol",
        _pc(Multivector.scalar(_SIG8, 1) - quantize(spin7.cayley) + volume_element(_SIG8)),
        False, eval_c11)

    # C12 ----------------------------------------------------------------
    def eval_c12(conv):
        w = quantize(wedge(spin7.cayley, spin7.cayley))
        x = (
            clifford_hodge(w, conv)
            - quantize(spin7.cayley).scale(8)
            + w
        ).scale(Fraction(1, 128))
        note = ("Omega ^ Omega is 14 vol, so the normalization must be "
                "(1/16)(1 - q(Omega) + q(vol)) instead of the displayed constants")
        return x == _f8(), _pc(x), note

    add("C12", "Prop 6.1: f_Omega = (1/128)(star q(Omega ^ Omega) - 8 q(Omega) + q(Omega ^ Omega))",
        "idempotency", "the displayed formula reproduces the factored idempotent",
        "(1/16)(1-e1234)(1-e1256)(1-e1278)(1-e1357)", True, eval_c12)

    # C13 ----------------------------------------------------------------
    def eval_c13(conv):
        # elimination over every blade, as the statement says, not the coset certificate
        dims = tuple(_eliminate(f, blade_table(f.sig.n).order)[0].rank
                     for f in (_f6(), _f7(), _f8()))
        computed = f"dim(R_(0,6) f) = {dims[0]}; dim(R_(0,7) f) = {dims[1]}; dim(R_(0,8) f) = {dims[2]}"
        return dims == (8, 8, 16), computed, ""

    add("C13", "S4.2/S5.2/S6: the minimal left ideals have dimensions 8, 8 and 16",
        "dimension", "exact elimination reproduces the stated ideal dimensions",
        "dim(R_(0,6) f) = 8; dim(R_(0,7) f) = 8; dim(R_(0,8) f) = 16", False, eval_c13)

    # C14 ----------------------------------------------------------------
    def eval_c14(conv):
        got = tuple(str(classify(s)) for s in (_SIG6, _SIG7, _SIG8))
        want = ("M_8(R)", "M_8(R) ⊕ M_8(R)", "M_16(R)")
        return got == want, "; ".join(got), ""

    add("C14", "S3 Thm: R_{0,6} = M_8(R), R_{0,7} = M_8(R) (+) M_8(R), R_{0,8} = M_16(R)",
        "dimension", "the classification table gives the stated algebra types",
        "M_8(R); M_8(R) ⊕ M_8(R); M_16(R)", False, eval_c14)

    # C15 ----------------------------------------------------------------
    def eval_c15(conv):
        got = tuple(radon_hurwitz(i) for i in range(9))
        return got == (0, 1, 2, 2, 3, 3, 3, 3, 4), ", ".join(map(str, got)), ""

    add("C15", "S3: r_0..r_8 = 0, 1, 2, 2, 3, 3, 3, 3, 4", "recurrence",
        "the recurrence reproduces the stated Radon-Hurwitz values",
        "0, 1, 2, 2, 3, 3, 3, 3, 4", False, eval_c15)

    # C16 ----------------------------------------------------------------
    def eval_c16(conv):
        cands6 = [(), (2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)]
        cands7 = [()] + [(i,) for i in range(1, 8)]
        got6 = coset_basis(_f6(), cands6)
        got7 = coset_basis(_f7(), cands7)
        ok = got6 == cands6 and got7 == cands7
        computed = (f"accepted {len(got6)} of {len(cands6)} in R_(0,6); "
                    f"accepted {len(got7)} of {len(cands7)} in R_(0,7)")
        return ok, computed, ""

    add("C16", "S4.2: basis f, e2 f, e3 f, e5 f, e23 f, e25 f, e35 f, e235 f; S5.2: basis f, e1 f, ..., e7 f",
        "basis", "the stated coset representatives are bases of the ideals",
        "all 8 candidates accepted in each of R_(0,6) and R_(0,7)", False, eval_c16)

    # C17 ----------------------------------------------------------------
    def eval_c17(conv):
        lifted = lift_su3_to_g2(su3)
        metric = g2_metric(lifted)
        tag = metric.tag
        f = _g2_idempotent(lifted, metric)
        dim = left_ideal_basis(f).dimension
        ok = tag == "definite" and is_primitive(f) and dim == 8
        return ok, f"metric {tag}; primitive: {is_primitive(f)}; ideal dimension {dim}", ""

    add("C17", "S7: phi = omega ^ e^7 + psi+ carries a G2 structure", "idempotency",
        "the lifted 3-form has a definite metric and induces a primitive idempotent of ideal dimension 8",
        "metric definite; primitive: True; ideal dimension 8", False, eval_c17)

    # C18 ----------------------------------------------------------------
    def eval_c18(conv):
        reports = [
            validate_generators(IdempotentSpec(sig, gens))
            for sig, gens in ((_SIG6, _GENS6), (_SIG7, _GENS7), (_SIG8, _GENS8))
        ]
        ok = all(r.ok for r in reports) and [r.k for r in reports] == [3, 4, 4]
        computed = "; ".join(
            f"k = {r.k} (expected {r.expected_k}), valid: {r.ok}" for r in reports
        )
        return ok, computed, ""

    add("C18", "Thm 3.3: e_{t_1}..e_{t_k} commute, square to +1 and generate a group of order 2^k, k = q - r_{q-p}",
        "recurrence", "the three generator sets satisfy the group-order condition with the stated k",
        "k = 3 (expected 3), valid: True; k = 4 (expected 4), valid: True; k = 4 (expected 4), valid: True",
        False, eval_c18)

    # C19 ----------------------------------------------------------------
    def eval_c19(conv):
        engine = _f6().scale(8).grade(4)
        stated = parse(_D_W6_GRADE4, _SIG6)
        return engine == stated, _pc(engine), _diff_note(engine, stated)

    add("C19", "S4.1: <W>_4 = e3456 - e1234 - e1256", "expansion",
        "the displayed grade-4 part of W = 8f equals the engine value",
        _pc(parse(_D_W6_GRADE4, _SIG6)), False, eval_c19)

    # C20 ----------------------------------------------------------------
    def eval_c20(conv):
        engine = quantize(su3.psi_plus)
        stated = parse(_D_Q_PSI_PLUS, _SIG6)
        return engine == stated, _pc(engine), _diff_note(engine, stated)

    add("C20", "S4.2: q*(psi+) = e135 - e246 - e236 - e145", "expansion",
        "the displayed quantization of psi+ equals the engine value",
        _pc(parse(_D_Q_PSI_PLUS, _SIG6)), False, eval_c20)

    # C21 ----------------------------------------------------------------
    def eval_c21(conv):
        engine = quantize(su3.psi_minus)
        stated = parse(_D_Q_PSI_MINUS, _SIG6)
        return engine == stated, _pc(engine), _diff_note(engine, stated)

    add("C21", "S4.2: q*(psi-) = e136 + e145 + e235 - e246", "expansion",
        "the displayed quantization of psi- equals the engine value",
        _pc(parse(_D_Q_PSI_MINUS, _SIG6)), False, eval_c21)

    # C22 ----------------------------------------------------------------
    def eval_c22(conv):
        v = clifford_hodge(quantize(wedge(su3.psi_plus, su3.psi_minus)), conv).scale(Fraction(1, 4))
        return v == Multivector.scalar(_SIG6, 1), _pc(v), ""

    add("C22", "S4.2: (1/4) star q*(psi+ ^ psi-) = 1", "dual-identity",
        "a quarter of the dual of the quantized wedge square is the unit scalar",
        "1", True, eval_c22)

    # C23 ----------------------------------------------------------------
    def eval_c23(conv):
        v = clifford_hodge(volume_element(_SIG7), conv)
        return v == Multivector.scalar(_SIG7, 1), _pc(v), ""

    add("C23", "S5.1: star e_{1234567} = 1", "dual-identity",
        "the dual of the volume element of R_(0,7) is the unit scalar", "1", True, eval_c23)

    # C24 ----------------------------------------------------------------
    def eval_c24(conv):
        w4 = _f8().scale(16).grade(4)
        s = symbol(w4)
        dual = symbol(clifford_hodge(w4, conv))
        ok = s == dual and s == spin7.cayley
        note = "" if ok else "self-duality of <W>_4 holds, but the value is the negative of Omega"
        return ok, _pc(s), note

    add("C24", "Prop 6.2: sigma*(<W>_4) = sigma*(star<W>_4) = Omega", "dual-identity",
        "the grade-4 part of W = 16f, read as a form, is self-dual and equals the Cayley form",
        _pc(model_spin7().cayley), True, eval_c24)

    # C25 ----------------------------------------------------------------
    def eval_c25(conv):
        w = _f6().scale(8)
        pm = symbol(clifford_hodge(w.grade(3), conv))
        om = symbol(clifford_hodge(w.grade(4), conv))
        ok = pm == su3.psi_minus and om == su3.omega
        note = ("" if ok else
                "the recovery needs minus signs: psi- = -sigma*(star<W>_3), omega = -sigma*(star<W>_4)")
        return ok, f"sigma*(star<W>_3) = {_pc(pm)}; sigma*(star<W>_4) = {_pc(om)}", note

    add("C25", "S7: sigma*(star<W>_3) = psi- and sigma*(star<W>_4) = omega", "dual-identity",
        "the unsigned recovery maps reproduce psi- and omega",
        f"sigma*(star<W>_3) = {_pc(model_su3().psi_minus)}; sigma*(star<W>_4) = {_pc(model_su3().omega)}",
        True, eval_c25)

    # C26 ----------------------------------------------------------------
    def eval_c26(conv):
        w = _f6().scale(8)
        pp = symbol(w.grade(3))
        pm = -symbol(clifford_hodge(w.grade(3), conv))
        om = -symbol(clifford_hodge(w.grade(4), conv))
        ok = pp == su3.psi_plus and pm == su3.psi_minus and om == su3.omega
        return ok, f"psi+ = {_pc(pp)}; psi- = {_pc(pm)}; omega = {_pc(om)}", ""

    add("C26", "Prop 4.1: psi+ = sigma*(<W>_3), psi- = -sigma*(star<W>_3), omega = -sigma*(star<W>_4)",
        "dual-identity", "the signed recovery maps reproduce the model tensors from W = 8f",
        f"psi+ = {_pc(model_su3().psi_plus)}; psi- = {_pc(model_su3().psi_minus)}; omega = {_pc(model_su3().omega)}",
        True, eval_c26)

    return tuple(claims)


@cache
def _catalog() -> tuple[Claim, ...]:
    return _build_catalog()


def list_claims() -> list[Claim]:
    """The fixed claim catalog, in report order."""
    return list(_catalog())


def _claim_by_id(claim_id: str) -> Claim:
    for claim in _catalog():
        if claim.id == claim_id:
            return claim
    raise KeyError(f"unknown claim id {claim_id!r}")


def run_claim(claim_id: str) -> ClaimResult:
    """Evaluate one claim exactly; deterministic."""
    claim = _claim_by_id(claim_id)
    if not claim.uses_clifford_star:
        ok, computed, extra = claim.evaluate(None)
        status = PASS if ok else FAIL
        note = extra
    else:
        outcomes = {c: claim.evaluate(c) for c in _ALL_CONVENTIONS}
        validating = [c for c in _ALL_CONVENTIONS if outcomes[c][0]]
        _, computed, extra = outcomes[_NORMATIVE]
        if len(validating) == len(_ALL_CONVENTIONS):
            status = PASS
            note = "holds under all four Hodge conventions"
        elif validating:
            status = CONVENTION_DEPENDENT
            note = "holds under: " + ", ".join(c.value for c in validating)
        else:
            status = FAIL
            note = "fails under all four Hodge conventions"
        if extra:
            note = f"{note}; {extra}" if note else extra
    return ClaimResult(id=claim.id, status=status, computed=computed,
                       paper=claim.paper_value, note=note)


class Report(_Record):
    __slots__ = ("results",)

    results: tuple[ClaimResult, ...]

    def to_json(self) -> str:
        payload = {
            "claims": [
                {"id": r.id, "status": r.status, "computed": r.computed,
                 "paper": r.paper, "note": r.note}
                for r in self.results
            ]
        }
        return json.dumps(payload, separators=(", ", ": "))

    def to_text(self) -> str:
        claims = {c.id: c for c in _catalog()}
        id_w = max(len(r.id) for r in self.results)
        st_w = max(len(r.status) for r in self.results)
        cat_w = max(len(claims[r.id].category) for r in self.results)
        lines = [
            f"{r.id:<{id_w}}  {r.status:<{st_w}}  {claims[r.id].category:<{cat_w}}  {claims[r.id].statement}"
            for r in self.results
        ]
        details = []
        for r in self.results:
            if r.status == PASS and not r.note:
                continue
            details.append(f"{r.id}:")
            details.append(f"  paper:    {r.paper}")
            details.append(f"  computed: {r.computed}")
            if r.note:
                details.append(f"  note:     {r.note}")
        out = "\n".join(lines)
        if details:
            out += "\n\n" + "\n".join(details)
        return out

    def golden_deviations(self) -> tuple[str, ...]:
        golden = load_golden()
        out = []
        for r in self.results:
            expected = golden.get(r.id)
            if expected is None:
                out.append(f"{r.id}: not in the golden status file")
            elif r.status != expected:
                out.append(f"{r.id}: expected {expected}, got {r.status}")
        for claim_id in golden:
            if all(r.id != claim_id for r in self.results):
                out.append(f"{claim_id}: in the golden status file but not evaluated")
        return tuple(out)

    @property
    def matches_golden(self) -> bool:
        return not self.golden_deviations()


def run_all(fmt: str = "text") -> Report:
    """Evaluate the whole catalog in id order.

    fmt is accepted for interface symmetry; rendering is chosen by the
    caller via Report.to_text / Report.to_json.
    """
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {fmt!r} (expected 'text' or 'json')")
    return Report(results=tuple(run_claim(c.id) for c in _catalog()))


def load_golden() -> dict[str, str]:
    """The pinned expected statuses shipped with the package."""
    text = resources.files("cliffideal").joinpath("data/golden_claims.json").read_text()
    return json.loads(text)
