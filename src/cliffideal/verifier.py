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
    is_primitive,
    left_ideal_basis,
    radon_hurwitz,
    validate_generators,
)
from .structures import (
    _g2_formula,
    _g2_idempotent,
    _spin7_formula,
    _su3_formula,
    _su3_recover,
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

# n -> the generators of the text's factored idempotent of R_{0,n}
_GENS = {
    6: ((1, (1, 3, 5)), (-1, (1, 4, 6)), (-1, (2, 3, 6))),
    7: ((1, (1, 2, 3)), (1, (1, 4, 5)), (-1, (2, 5, 7)), (1, (1, 6, 7))),
    8: ((-1, (1, 2, 3, 4)), (-1, (1, 2, 5, 6)), (-1, (1, 2, 7, 8)), (-1, (1, 3, 5, 7))),
}


@cache
def _f(n: int) -> Multivector:
    return build_idempotent(IdempotentSpec(Signature(0, n), _GENS[n]))


_pc = print_canonical


def _diff_note(computed: Multivector, stated: Multivector) -> str:
    delta = computed - stated
    if delta.is_zero():
        return ""
    text = blade_table(delta.sig.n).text
    blades = ", ".join(text[m] for m, _ in delta.terms())
    return f"displays differ from the engine at: {blades}"


@cache
def _catalog() -> tuple[Claim, ...]:
    su3 = model_su3()
    g2 = model_g2()
    spin7 = model_spin7()
    claims: list[Claim] = []

    def add(id, paper_ref, category, statement, paper_value, uses_star, evaluate):
        claims.append(Claim(id, paper_ref, category, statement, paper_value, uses_star, evaluate))

    def wedge_constant(id, paper_ref, lhs, a, b, k, note=""):
        """a ^ b equals k times the volume form."""
        stated = volume_form(a.n).scale(k)
        paper = _pc(stated)

        def evaluate(conv):
            w = wedge(a, b)
            return w == stated, _pc(w), note

        add(id, paper_ref, "wedge-constant", f"{lhs} equals {paper}", paper, False, evaluate)

    def display(id, paper_ref, statement, stated, engine):
        """engine() equals the displayed value stated (printed in canonical term order)."""
        def evaluate(conv):
            x = engine()
            return x == stated, _pc(x), _diff_note(x, stated)

        add(id, paper_ref, "expansion", statement, _pc(stated), False, evaluate)

    def formula(id, paper_ref, paper_value, n, build, note=""):
        """build(conv), the displayed formula under conv, equals the factored idempotent _f(n)."""
        def evaluate(conv):
            x = build(conv)
            return x == _f(n), _pc(x), note

        add(id, paper_ref, "idempotency", "the displayed formula reproduces the factored idempotent",
            paper_value, True, evaluate)

    def unit_dual(id, paper_ref, statement, x):
        """The Clifford dual of x is the unit scalar."""
        def evaluate(conv):
            v = clifford_hodge(x, conv)
            return v == Multivector.scalar(x.sig, 1), _pc(v), ""

        add(id, paper_ref, "dual-identity", statement, "1", True, evaluate)

    wedge_constant("C1", "S4.2: psi+ ^ psi- = 4 e^{123456}", "psi+ ^ psi-", su3.psi_plus, su3.psi_minus, 4)
    wedge_constant("C2", "S5.2: phi ^ star phi = 7 e^{1234567}", "phi ^ star phi",
                   g2.phi, hodge_star(g2.phi), 7)
    wedge_constant("C3", "S6: q*(Omega ^ star Omega) = 8 e_{12345678}", "Omega ^ star Omega",
                   spin7.cayley, hodge_star(spin7.cayley), 8,
                   "the wedge square is 14, not 8, times the volume form")

    display("C4", "S4.1: f = (1/8)(1 + e135 - e146 - e236 - e245 - e3456 - e1234 - e1256)",
            "expansion of (1/2)^3 (1+e135)(1-e146)(1-e236) equals the display",
            parse("1 + e135 - e146 - e236 - e245 - e3456 - e1234 - e1256", _SIG6).scale(Fraction(1, 8)),
            lambda: _f(6))

    stated3, stated4 = parse("e246 - e235 - e145 - e136", _SIG6), parse("-e12 - e56 - e34", _SIG6)

    def eval_c5(conv):
        w = _f(6).scale(8)
        s3, s4 = clifford_hodge(w.grade(3), conv), clifford_hodge(w.grade(4), conv)
        return s3 == stated3 and s4 == stated4, f"star<W>_3 = {_pc(s3)}; star<W>_4 = {_pc(s4)}", ""

    add("C5", "S4.1: star<W>_3 = e246 - e235 - e145 - e136 and star<W>_4 = -(e12 + e56 + e34)",
        "dual-identity", "the two displayed duals of W = 8f hold",
        f"star<W>_3 = {_pc(stated3)}; star<W>_4 = {_pc(stated4)}", True, eval_c5)

    formula("C6", "Prop 4.2: f = (1/32)(star q(psi+ ^ psi-) + 4 q(psi+) + 4 star q(omega))",
            "(1/32)(star q(psi+ ^ psi-) + 4 q(psi+) + 4 star q(omega))", 6,
            lambda conv: _su3_formula(su3, conv, 4),
            "negating the omega term yields the factored idempotent exactly")

    display("C7", "S5.1: W = 16f, displayed with sixteen terms",
            "expansion of (1/2)^4 (1+e123)(1+e145)(1-e257)(1+e167), scaled by 16, equals the display",
            parse("1 + e123 + e145 - e2345 - e257 - e1357 + e1247 - e347 + e167"
                  " - e2367 - e4567 - e1234567 + e1256 - e356 - e246 - e1346", _SIG7),
            lambda: _f(7).scale(16))

    def eval_c8(conv):
        w = _f(7).scale(16)
        s3 = clifford_hodge(w.grade(3), conv)
        note = "the dual equals the negative of <W>_4" if s3 == -w.grade(4) else ""
        return s3 == w.grade(4), _pc(s3), note

    add("C8", "S5.1: star<W>_3 = <W>_4", "dual-identity",
        "the dual of the grade-3 part of W = 16f equals its grade-4 part",
        _pc(_f(7).scale(16).grade(4)), True, eval_c8)

    formula("C9", "Prop 5.2: f_phi = (1/112)(star q(phi ^ star phi) + 7 q(phi) - 7 q(star phi) - q(phi ^ star phi))",
            "(1/16)(1+e123)(1+e145)(1-e257)(1+e167)", 7, lambda conv: _g2_formula(g2.phi, conv))

    display("C10", "S5.2: q*(star phi) = -e2367 + e4567 - e1346 - e1256 + e2345 + e1357 - e1247",
            "the displayed quantized dual of phi equals the engine value",
            parse("-e2367 + e4567 - e1346 - e1256 + e2345 + e1357 - e1247", _SIG7),
            lambda: quantize(hodge_star(g2.phi)))

    display("C11", "S6: W = 16 f_Omega = 1 - q*(Omega) + e_{12345678}",
            "expansion of the factored Cayley idempotent, scaled by 16, equals 1 - q(Omega) + vol",
            Multivector.scalar(_SIG8, 1) - quantize(spin7.cayley) + volume_element(_SIG8),
            lambda: _f(8).scale(16))

    formula("C12", "Prop 6.1: f_Omega = (1/128)(star q(Omega ^ Omega) - 8 q(Omega) + q(Omega ^ Omega))",
            "(1/16)(1-e1234)(1-e1256)(1-e1278)(1-e1357)", 8,
            lambda conv: _spin7_formula(spin7.cayley, conv, Fraction(1, 128)),
            "Omega ^ Omega is 14 vol, so the normalization must be "
            "(1/16)(1 - q(Omega) + q(vol)) instead of the displayed constants")

    def eval_c13(conv):
        # elimination over every blade, as the statement says, not the coset certificate
        dims = tuple(_eliminate(f, blade_table(f.sig.n).order)[0].rank
                     for f in map(_f, _GENS))
        computed = f"dim(R_(0,6) f) = {dims[0]}; dim(R_(0,7) f) = {dims[1]}; dim(R_(0,8) f) = {dims[2]}"
        return dims == (8, 8, 16), computed, ""

    add("C13", "S4.2/S5.2/S6: the minimal left ideals have dimensions 8, 8 and 16",
        "dimension", "exact elimination reproduces the stated ideal dimensions",
        "dim(R_(0,6) f) = 8; dim(R_(0,7) f) = 8; dim(R_(0,8) f) = 16", False, eval_c13)

    def eval_c14(conv):
        got = tuple(str(classify(s)) for s in (_SIG6, _SIG7, _SIG8))
        want = ("M_8(R)", "M_8(R) ⊕ M_8(R)", "M_16(R)")
        return got == want, "; ".join(got), ""

    add("C14", "S3 Thm: R_{0,6} = M_8(R), R_{0,7} = M_8(R) (+) M_8(R), R_{0,8} = M_16(R)",
        "dimension", "the classification table gives the stated algebra types",
        "M_8(R); M_8(R) ⊕ M_8(R); M_16(R)", False, eval_c14)

    def eval_c15(conv):
        got = tuple(radon_hurwitz(i) for i in range(9))
        return got == (0, 1, 2, 2, 3, 3, 3, 3, 4), ", ".join(map(str, got)), ""

    add("C15", "S3: r_0..r_8 = 0, 1, 2, 2, 3, 3, 3, 3, 4", "recurrence",
        "the recurrence reproduces the stated Radon-Hurwitz values",
        "0, 1, 2, 2, 3, 3, 3, 3, 4", False, eval_c15)

    def eval_c16(conv):
        cands6 = [(), (2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)]
        cands7 = [()] + [(i,) for i in range(1, 8)]
        got6 = coset_basis(_f(6), cands6)
        got7 = coset_basis(_f(7), cands7)
        ok = got6 == cands6 and got7 == cands7
        computed = (f"accepted {len(got6)} of {len(cands6)} in R_(0,6); "
                    f"accepted {len(got7)} of {len(cands7)} in R_(0,7)")
        return ok, computed, ""

    add("C16", "S4.2: basis f, e2 f, e3 f, e5 f, e23 f, e25 f, e35 f, e235 f; S5.2: basis f, e1 f, ..., e7 f",
        "basis", "the stated coset representatives are bases of the ideals",
        "all 8 candidates accepted in each of R_(0,6) and R_(0,7)", False, eval_c16)

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

    def eval_c18(conv):
        reports = [
            validate_generators(IdempotentSpec(Signature(0, n), gens)) for n, gens in _GENS.items()
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

    display("C19", "S4.1: <W>_4 = e3456 - e1234 - e1256",
            "the displayed grade-4 part of W = 8f equals the engine value",
            parse("e3456 - e1234 - e1256", _SIG6), lambda: _f(6).scale(8).grade(4))

    display("C20", "S4.2: q*(psi+) = e135 - e246 - e236 - e145",
            "the displayed quantization of psi+ equals the engine value",
            parse("e135 - e246 - e236 - e145", _SIG6), lambda: quantize(su3.psi_plus))

    display("C21", "S4.2: q*(psi-) = e136 + e145 + e235 - e246",
            "the displayed quantization of psi- equals the engine value",
            parse("e136 + e145 + e235 - e246", _SIG6), lambda: quantize(su3.psi_minus))

    unit_dual("C22", "S4.2: (1/4) star q*(psi+ ^ psi-) = 1",
              "a quarter of the dual of the quantized wedge square is the unit scalar",
              quantize(wedge(su3.psi_plus, su3.psi_minus)).scale(Fraction(1, 4)))

    unit_dual("C23", "S5.1: star e_{1234567} = 1",
              "the dual of the volume element of R_(0,7) is the unit scalar", volume_element(_SIG7))

    def eval_c24(conv):
        w4 = _f(8).scale(16).grade(4)
        s = symbol(w4)
        dual = symbol(clifford_hodge(w4, conv))
        ok = s == dual and s == spin7.cayley
        note = "" if ok else "self-duality of <W>_4 holds, but the value is the negative of Omega"
        return ok, _pc(s), note

    add("C24", "Prop 6.2: sigma*(<W>_4) = sigma*(star<W>_4) = Omega", "dual-identity",
        "the grade-4 part of W = 16f, read as a form, is self-dual and equals the Cayley form",
        _pc(spin7.cayley), True, eval_c24)

    def eval_c25(conv):
        s = _su3_recover(_f(6), conv, 1)
        ok = s.psi_minus == su3.psi_minus and s.omega == su3.omega
        note = ("" if ok else
                "the recovery needs minus signs: psi- = -sigma*(star<W>_3), omega = -sigma*(star<W>_4)")
        return ok, f"sigma*(star<W>_3) = {_pc(s.psi_minus)}; sigma*(star<W>_4) = {_pc(s.omega)}", note

    add("C25", "S7: sigma*(star<W>_3) = psi- and sigma*(star<W>_4) = omega", "dual-identity",
        "the unsigned recovery maps reproduce psi- and omega",
        f"sigma*(star<W>_3) = {_pc(su3.psi_minus)}; sigma*(star<W>_4) = {_pc(su3.omega)}", True, eval_c25)

    def eval_c26(conv):
        s = _su3_recover(_f(6), conv, -1)
        return s == su3, f"psi+ = {_pc(s.psi_plus)}; psi- = {_pc(s.psi_minus)}; omega = {_pc(s.omega)}", ""

    add("C26", "Prop 4.1: psi+ = sigma*(<W>_3), psi- = -sigma*(star<W>_3), omega = -sigma*(star<W>_4)",
        "dual-identity", "the signed recovery maps reproduce the model tensors from W = 8f",
        f"psi+ = {_pc(su3.psi_plus)}; psi- = {_pc(su3.psi_minus)}; omega = {_pc(su3.omega)}", True, eval_c26)

    return tuple(claims)


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


def _detail_lines(r: ClaimResult) -> list[str]:
    """The paper, computed and (when there is one) note lines of a result."""
    lines = [f"  paper:    {r.paper}", f"  computed: {r.computed}"]
    if r.note:
        lines.append(f"  note:     {r.note}")
    return lines


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
            if r.status != PASS or r.note:
                details += [f"{r.id}:", *_detail_lines(r)]
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
