"""Machine verification of the source text's displayed identities.

Every displayed identity is a Claim: a locator into the text, the value the
text states, the engine's value as a function of the Hodge convention, and
one printer for both.  One rule decides every claim: it holds under a
convention exactly when the engine's value equals the stated value.  The
result prints the engine's value as computed and the stated value as paper
(four claims print the text's own formula as paper instead).  A claim that
fails notes its audited erratum or, when it has none and its value is a
Clifford element, the blades at which the two values differ.  Statuses:

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

from collections.abc import Callable
from fractions import Fraction
from functools import cache
from operator import attrgetter

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
    left_ideal_basis,
    radon_hurwitz,
    validate_generators,
)
from .structures import (
    _g2_formula,
    _spin7_formula,
    _su3_formula,
    _su3_recover,
    g2_idempotent,
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

    evaluate(convention) returns (holds, computed text, note) by one rule:
    holds when the engine's value equals the stated one, computed prints the
    engine's value, and a failure notes its erratum or the differing blades.
    The convention argument is meaningful only when uses_clifford_star is set.
    """

    __slots__ = ("id", "paper_ref", "category", "statement", "paper_value",
                 "uses_clifford_star", "evaluate")

    id: str
    paper_ref: str
    category: str
    statement: str
    paper_value: str
    uses_clifford_star: bool
    evaluate: Callable[[HodgeConvention], tuple[bool, str, str]]


class ClaimResult(_Record):
    __slots__ = ("id", "status", "computed", "paper", "note")

    id: str
    status: str
    computed: str
    paper: str
    note: str


# n -> the generators of the text's factored idempotent of R_{0,n}
_GENS = {
    6: ((1, (1, 3, 5)), (-1, (1, 4, 6)), (-1, (2, 3, 6))),
    7: ((1, (1, 2, 3)), (1, (1, 4, 5)), (-1, (2, 5, 7)), (1, (1, 6, 7))),
    8: ((-1, (1, 2, 3, 4)), (-1, (1, 2, 5, 6)), (-1, (1, 2, 7, 8)), (-1, (1, 3, 5, 7))),
}

_pc = print_canonical


def _diff_note(computed: Multivector, stated: Multivector) -> str:
    text = blade_table(computed.sig.n).text
    blades = ", ".join(text[m] for m, _ in (computed - stated).terms())
    return f"displays differ from the engine at: {blades}"


def _rule(stated, value, show, erratum):
    """Claim.evaluate of one claim: it holds exactly when value(conv) == stated, computed is
    show(value(conv)), and a failure's note is the erratum, else the blades where two elements differ."""
    def evaluate(conv):
        x = value(conv)
        if x == stated:
            return True, show(x), ""
        return False, show(x), erratum or (_diff_note(x, stated) if isinstance(x, Multivector) else "")

    return evaluate


def _labelled(*labels):
    """The printer of a tuple of elements: 'label = value' for each, joined by '; '."""
    return lambda xs: "; ".join(f"{label} = {_pc(x)}" for label, x in zip(labels, xs))


@cache
def _catalog() -> dict[str, Claim]:
    su3 = model_su3()
    g2 = model_g2()
    spin7 = model_spin7()
    su3_square = wedge(su3.psi_plus, su3.psi_minus)
    spin7_square = wedge(spin7.cayley, spin7.cayley)
    f = {n: build_idempotent(IdempotentSpec(Signature(0, n), gens)) for n, gens in _GENS.items()}
    w6, w7, w8 = f[6].scale(8), f[7].scale(16), f[8].scale(16)
    claims: dict[str, Claim] = {}

    def add(id, paper_ref, category, statement, stated, value, show=_pc, star=False, erratum="", paper=""):
        """The claim that value(conv) equals stated; paper is the text's formula if given, else show(stated)."""
        claims[id] = Claim(id, paper_ref, category, statement, paper or show(stated), star,
                           _rule(stated, value, show, erratum))

    def wedge_constant(id, paper_ref, lhs, a, b, k, erratum=""):
        stated = volume_form(a.n).scale(k)
        add(id, paper_ref, "wedge-constant", f"{lhs} equals {_pc(stated)}", stated, lambda conv: wedge(a, b),
            erratum=erratum)

    def formula(id, paper_ref, paper, n, build, erratum=""):
        add(id, paper_ref, "idempotency", "the displayed formula reproduces the factored idempotent",
            f[n], build, star=True, erratum=erratum, paper=paper)

    wedge_constant("C1", "S4.2: psi+ ^ psi- = 4 e^{123456}", "psi+ ^ psi-", su3.psi_plus, su3.psi_minus, 4)
    wedge_constant("C2", "S5.2: phi ^ star phi = 7 e^{1234567}", "phi ^ star phi",
                   g2.phi, hodge_star(g2.phi), 7)
    wedge_constant("C3", "S6: q*(Omega ^ star Omega) = 8 e_{12345678}", "Omega ^ star Omega",
                   spin7.cayley, hodge_star(spin7.cayley), 8,
                   "the wedge square is 14, not 8, times the volume form")

    add("C4", "S4.1: f = (1/8)(1 + e135 - e146 - e236 - e245 - e3456 - e1234 - e1256)", "expansion",
        "expansion of (1/2)^3 (1+e135)(1-e146)(1-e236) equals the display",
        parse("1 + e135 - e146 - e236 - e245 - e3456 - e1234 - e1256", _SIG6).scale(Fraction(1, 8)),
        lambda conv: f[6])

    add("C5", "S4.1: star<W>_3 = e246 - e235 - e145 - e136 and star<W>_4 = -(e12 + e56 + e34)",
        "dual-identity", "the two displayed duals of W = 8f hold",
        (parse("e246 - e235 - e145 - e136", _SIG6), parse("-e12 - e56 - e34", _SIG6)),
        lambda conv: (clifford_hodge(w6.grade(3), conv), clifford_hodge(w6.grade(4), conv)),
        _labelled("star<W>_3", "star<W>_4"), star=True)

    formula("C6", "Prop 4.2: f = (1/32)(star q(psi+ ^ psi-) + 4 q(psi+) + 4 star q(omega))",
            "(1/32)(star q(psi+ ^ psi-) + 4 q(psi+) + 4 star q(omega))", 6,
            lambda conv: _su3_formula(su3, conv, 4, su3_square),
            "negating the omega term yields the factored idempotent exactly")

    add("C7", "S5.1: W = 16f, displayed with sixteen terms", "expansion",
        "expansion of (1/2)^4 (1+e123)(1+e145)(1-e257)(1+e167), scaled by 16, equals the display",
        parse("1 + e123 + e145 - e2345 - e257 - e1357 + e1247 - e347 + e167"
              " - e2367 - e4567 - e1234567 + e1256 - e356 - e246 - e1346", _SIG7),
        lambda conv: w7)

    add("C8", "S5.1: star<W>_3 = <W>_4", "dual-identity",
        "the dual of the grade-3 part of W = 16f equals its grade-4 part",
        w7.grade(4), lambda conv: clifford_hodge(w7.grade(3), conv), star=True,
        erratum="the dual equals the negative of <W>_4")

    formula("C9", "Prop 5.2: f_phi = (1/112)(star q(phi ^ star phi) + 7 q(phi) - 7 q(star phi) - q(phi ^ star phi))",
            "(1/16)(1+e123)(1+e145)(1-e257)(1+e167)", 7, lambda conv: _g2_formula(g2.phi, conv))

    add("C10", "S5.2: q*(star phi) = -e2367 + e4567 - e1346 - e1256 + e2345 + e1357 - e1247", "expansion",
        "the displayed quantized dual of phi equals the engine value",
        parse("-e2367 + e4567 - e1346 - e1256 + e2345 + e1357 - e1247", _SIG7),
        lambda conv: quantize(hodge_star(g2.phi)))

    add("C11", "S6: W = 16 f_Omega = 1 - q*(Omega) + e_{12345678}", "expansion",
        "expansion of the factored Cayley idempotent, scaled by 16, equals 1 - q(Omega) + vol",
        Multivector.scalar(_SIG8, 1) - quantize(spin7.cayley) + volume_element(_SIG8), lambda conv: w8)

    formula("C12", "Prop 6.1: f_Omega = (1/128)(star q(Omega ^ Omega) - 8 q(Omega) + q(Omega ^ Omega))",
            "(1/16)(1-e1234)(1-e1256)(1-e1278)(1-e1357)", 8,
            lambda conv: _spin7_formula(spin7.cayley, conv, Fraction(1, 128), spin7_square),
            "Omega ^ Omega is 14 vol, so the normalization must be "
            "(1/16)(1 - q(Omega) + q(vol)) instead of the displayed constants")

    # elimination over every blade, as the statement says, not the coset certificate
    add("C13", "S4.2/S5.2/S6: the minimal left ideals have dimensions 8, 8 and 16", "dimension",
        "exact elimination reproduces the stated ideal dimensions", (8, 8, 16),
        lambda conv: tuple(_eliminate(f[n], blade_table(n).order)[0].rank for n in _GENS),
        lambda dims: "; ".join(f"dim(R_(0,{n}) f) = {d}" for n, d in zip(_GENS, dims)))

    add("C14", "S3 Thm: R_{0,6} = M_8(R), R_{0,7} = M_8(R) (+) M_8(R), R_{0,8} = M_16(R)", "dimension",
        "the classification table gives the stated algebra types", ("M_8(R)", "M_8(R) ⊕ M_8(R)", "M_16(R)"),
        lambda conv: tuple(str(classify(s)) for s in (_SIG6, _SIG7, _SIG8)), "; ".join)

    add("C15", "S3: r_0..r_8 = 0, 1, 2, 2, 3, 3, 3, 3, 4", "recurrence",
        "the recurrence reproduces the stated Radon-Hurwitz values", (0, 1, 2, 2, 3, 3, 3, 3, 4),
        lambda conv: tuple(radon_hurwitz(i) for i in range(9)), lambda r: ", ".join(map(str, r)))

    cands = {6: [(), (2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)], 7: [()] + [(i,) for i in range(1, 8)]}
    add("C16", "S4.2: basis f, e2 f, e3 f, e5 f, e23 f, e25 f, e35 f, e235 f; S5.2: basis f, e1 f, ..., e7 f",
        "basis", "the stated coset representatives are bases of the ideals", tuple(cands.values()),
        lambda conv: tuple(coset_basis(f[n], c) for n, c in cands.items()),
        lambda kept: "; ".join(f"accepted {len(k)} of {len(c)} in R_(0,{n})"
                               for k, (n, c) in zip(kept, cands.items())),
        paper="all 8 candidates accepted in each of R_(0,6) and R_(0,7)")

    def lifted_g2(conv):  # g2_idempotent returns a primitive idempotent or raises
        lifted = lift_su3_to_g2(su3)
        return g2_metric(lifted).tag, left_ideal_basis(g2_idempotent(lifted)).dimension

    add("C17", "S7: phi = omega ^ e^7 + psi+ carries a G2 structure", "idempotency",
        "the lifted 3-form has a definite metric and induces a primitive idempotent of ideal dimension 8",
        ("definite", 8), lifted_g2, lambda v: f"metric {v[0]}; primitive: True; ideal dimension {v[1]}")

    add("C18", "Thm 3.3: e_{t_1}..e_{t_k} commute, square to +1 and generate a group of order 2^k, k = q - r_{q-p}",
        "recurrence", "the three generator sets satisfy the group-order condition with the stated k",
        ((3, 3, True), (4, 4, True), (4, 4, True)),
        lambda conv: tuple((r.k, r.expected_k, r.ok) for r in (
            validate_generators(IdempotentSpec(Signature(0, n), gens)) for n, gens in _GENS.items())),
        lambda v: "; ".join(f"k = {k} (expected {e}), valid: {ok}" for k, e, ok in v))

    add("C19", "S4.1: <W>_4 = e3456 - e1234 - e1256", "expansion",
        "the displayed grade-4 part of W = 8f equals the engine value",
        parse("e3456 - e1234 - e1256", _SIG6), lambda conv: w6.grade(4))

    add("C20", "S4.2: q*(psi+) = e135 - e246 - e236 - e145", "expansion",
        "the displayed quantization of psi+ equals the engine value",
        parse("e135 - e246 - e236 - e145", _SIG6), lambda conv: quantize(su3.psi_plus))

    add("C21", "S4.2: q*(psi-) = e136 + e145 + e235 - e246", "expansion",
        "the displayed quantization of psi- equals the engine value",
        parse("e136 + e145 + e235 - e246", _SIG6), lambda conv: quantize(su3.psi_minus))

    add("C22", "S4.2: (1/4) star q*(psi+ ^ psi-) = 1", "dual-identity",
        "a quarter of the dual of the quantized wedge square is the unit scalar", Multivector.scalar(_SIG6, 1),
        lambda conv: clifford_hodge(quantize(su3_square).scale(Fraction(1, 4)), conv), star=True)

    add("C23", "S5.1: star e_{1234567} = 1", "dual-identity",
        "the dual of the volume element of R_(0,7) is the unit scalar", Multivector.scalar(_SIG7, 1),
        lambda conv: clifford_hodge(volume_element(_SIG7), conv), star=True)

    w84 = w8.grade(4)
    add("C24", "Prop 6.2: sigma*(<W>_4) = sigma*(star<W>_4) = Omega", "dual-identity",
        "the grade-4 part of W = 16f, read as a form, is self-dual and equals the Cayley form",
        (spin7.cayley, spin7.cayley), lambda conv: (symbol(w84), symbol(clifford_hodge(w84, conv))),
        lambda v: _pc(v[0]), star=True,
        erratum="self-duality of <W>_4 holds, but the value is the negative of Omega")

    tensors = attrgetter("psi_plus", "psi_minus", "omega")
    add("C25", "S7: sigma*(star<W>_3) = psi- and sigma*(star<W>_4) = omega", "dual-identity",
        "the unsigned recovery maps reproduce psi- and omega", tensors(su3)[1:],
        lambda conv: tensors(_su3_recover(w6, conv, 1))[1:], _labelled("sigma*(star<W>_3)", "sigma*(star<W>_4)"),
        star=True, erratum="the recovery needs minus signs: psi- = -sigma*(star<W>_3), omega = -sigma*(star<W>_4)")

    add("C26", "Prop 4.1: psi+ = sigma*(<W>_3), psi- = -sigma*(star<W>_3), omega = -sigma*(star<W>_4)",
        "dual-identity", "the signed recovery maps reproduce the model tensors from W = 8f",
        tensors(su3), lambda conv: tensors(_su3_recover(w6, conv, -1)),
        _labelled("psi+", "psi-", "omega"), star=True)

    return claims


def run_claim(claim_id: str) -> ClaimResult:
    """Evaluate one claim exactly, under the four Hodge conventions when it uses the
    Clifford star and under the normative one alone otherwise; deterministic."""
    claim = _catalog().get(claim_id)
    if claim is None:
        raise KeyError(f"unknown claim id {claim_id!r}")
    conventions = _ALL_CONVENTIONS if claim.uses_clifford_star else (_NORMATIVE,)
    outcomes = {c: claim.evaluate(c) for c in conventions}
    validating = [c.value for c in conventions if outcomes[c][0]]
    _, computed, note = outcomes[_NORMATIVE]
    status = PASS if len(validating) == len(conventions) else CONVENTION_DEPENDENT if validating else FAIL
    if claim.uses_clifford_star:
        held = ("holds under: " + ", ".join(validating) if status == CONVENTION_DEPENDENT else
                f"{'holds' if validating else 'fails'} under all four Hodge conventions")
        note = f"{held}; {note}" if note else held
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
        import json

        claims = [{field: getattr(r, field) for field in ClaimResult.__slots__} for r in self.results]
        return json.dumps({"claims": claims}, separators=(", ", ": "))

    def to_text(self) -> str:
        claims = _catalog()
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


def run_all() -> Report:
    """Evaluate the whole catalog in id order; Report.to_text and Report.to_json render it."""
    return Report(results=tuple(map(run_claim, _catalog())))


def load_golden() -> dict[str, str]:
    """The pinned expected statuses shipped with the package, read by this module's loader
    from beside it: a file on disk, or a member of the archive under a zip import."""
    import json
    import os

    path = os.path.join(os.path.dirname(__file__), "data", "golden_claims.json")
    return json.loads(__loader__.get_data(path))
