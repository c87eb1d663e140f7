"""SU(3), G2 and Spin(7) model structures and their spinor idempotents.

The bridge runs in both directions: a normalized structure tensor set
determines a primitive idempotent through quantization and Hodge duals
(all taken under the EXT_DUAL_FIRST convention), and conversely the
graded pieces of W = f / <f>_0 recover the structure tensors through
the symbol map.  All recoveries are exact; every constructor formula
is checked for idempotency at runtime so that scaled or degenerate
inputs are rejected instead of silently producing garbage.  Each formula is
written once, as a private function of a Hodge convention and its constants;
the verifier runs the source text's displayed constants through the same ones.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import Multivector, Signature, _Record
from .exterior import (
    ExteriorForm,
    HodgeConvention,
    clifford_hodge,
    hodge_star,
    interior_product,
    quantize,
    symbol,
    wedge,
)
from .exprio import SchemaError, _decode, from_json_obj, to_json_obj
from .ideals import is_idempotent, is_primitive
from .linalg import leading_principal_minors

_STAR = HodgeConvention.EXT_DUAL_FIRST


class StructureError(ValueError):
    """Degenerate, unnormalized or otherwise invalid structure data."""


def _check_form(form: ExteriorForm, n: int, k: int, name: str) -> None:
    if form.n != n:
        raise StructureError(f"{name} must live on (R^{n})*, got dimension {form.n}")
    if any(g != k for g in form.grades()):
        raise StructureError(f"{name} must be a pure {k}-form")


class SU3Structure(_Record):
    """omega (2-form) and psi_plus/psi_minus (3-forms) on (R^6)*."""

    __slots__ = ("omega", "psi_plus", "psi_minus")

    omega: ExteriorForm
    psi_plus: ExteriorForm
    psi_minus: ExteriorForm

    def _validate(self) -> None:
        _check_form(self.omega, 6, 2, "omega")
        _check_form(self.psi_plus, 6, 3, "psi_plus")
        _check_form(self.psi_minus, 6, 3, "psi_minus")


class G2Structure(_Record):
    """phi, a 3-form on (R^7)*."""

    __slots__ = ("phi",)

    phi: ExteriorForm

    def _validate(self) -> None:
        _check_form(self.phi, 7, 3, "phi")


class Spin7Structure(_Record):
    """The Cayley 4-form on (R^8)*."""

    __slots__ = ("cayley",)

    cayley: ExteriorForm

    def _validate(self) -> None:
        _check_form(self.cayley, 8, 4, "cayley")


class OrbitReport(_Record):
    """Symmetric bilinear form induced by a 3-form on R^7, with its orbit tag."""

    __slots__ = ("metric", "determinant", "tag")

    metric: tuple[tuple[Fraction, ...], ...]
    determinant: Fraction
    tag: str  # "definite" | "split" | "degenerate"


def model_su3() -> SU3Structure:
    return SU3Structure(
        omega=ExteriorForm.from_terms(6, [(1, (1, 2)), (1, (3, 4)), (1, (5, 6))]),
        psi_plus=ExteriorForm.from_terms(
            6, [(1, (1, 3, 5)), (-1, (1, 4, 6)), (-1, (2, 3, 6)), (-1, (2, 4, 5))]
        ),
        psi_minus=ExteriorForm.from_terms(
            6, [(1, (1, 3, 6)), (1, (1, 4, 5)), (1, (2, 3, 5)), (-1, (2, 4, 6))]
        ),
    )


def model_g2() -> G2Structure:
    return G2Structure(
        phi=ExteriorForm.from_terms(
            7,
            [
                (1, (1, 2, 3)),
                (1, (1, 4, 5)),
                (1, (1, 6, 7)),
                (1, (2, 4, 6)),
                (-1, (2, 5, 7)),
                (-1, (3, 4, 7)),
                (-1, (3, 5, 6)),
            ],
        )
    )


def model_spin7() -> Spin7Structure:
    return Spin7Structure(
        cayley=ExteriorForm.from_terms(
            8,
            [
                (1, (1, 2, 3, 4)),
                (1, (1, 2, 5, 6)),
                (1, (1, 2, 7, 8)),
                (1, (1, 3, 5, 7)),
                (-1, (1, 3, 6, 8)),
                (-1, (1, 4, 5, 8)),
                (-1, (1, 4, 6, 7)),
                (-1, (2, 3, 5, 8)),
                (-1, (2, 3, 6, 7)),
                (-1, (2, 4, 5, 7)),
                (1, (2, 4, 6, 8)),
                (1, (3, 4, 5, 6)),
                (1, (3, 4, 7, 8)),
                (1, (5, 6, 7, 8)),
            ],
        )
    )


def _volume_constant(w: ExteriorForm, name: str) -> Fraction:
    """Coefficient c of w = c * vol; rejects anything off the volume line."""
    top = (1 << w.n) - 1
    terms = w.term_map()
    c = terms.pop(top, Fraction(0))
    if terms or not c:
        raise StructureError(f"{name} must be a nonzero multiple of the volume form")
    return c


def _normalized(x: Multivector, sig: Signature) -> Multivector:
    """W = x / <x>_0 for x in the algebra of sig."""
    if x.sig != sig:
        raise StructureError(f"expected an element of {sig}, got {x.sig}")
    c = x.scalar_part
    if not c:
        raise StructureError("cannot recover a structure: zero scalar part")
    return x.scale(1 / c)


# -- SU(3), dimension 6 --------------------------------------------------

def _su3_formula(s: SU3Structure, conv: HodgeConvention, omega_coef: int) -> Multivector:
    """(1/32) (star q(psi+ ^ psi-) + 4 q(psi+) + omega_coef star q(omega)), stars under conv."""
    return (
        clifford_hodge(quantize(wedge(s.psi_plus, s.psi_minus)), conv)
        + quantize(s.psi_plus).scale(4)
        + clifford_hodge(quantize(s.omega), conv).scale(omega_coef)
    ).scale(Fraction(1, 32))


def su3_idempotent(s: SU3Structure) -> Multivector:
    """Idempotent of R_{0,6} attached to a normalized SU(3) structure.

    Computes (1/32) (star q(psi+ ^ psi-) + 4 q(psi+) - 4 star q(omega))
    with the Clifford Hodge dual taken under EXT_DUAL_FIRST, and verifies
    idempotency; unnormalized inputs fail that check and are rejected.
    """
    _volume_constant(wedge(s.psi_plus, s.psi_minus), "psi+ ^ psi-")
    f = _su3_formula(s, _STAR, -4)
    if not is_idempotent(f):
        raise StructureError("input does not induce an idempotent (not a normalized SU(3) structure)")
    return f


def _su3_recover(x: Multivector, conv: HodgeConvention, sign: int) -> SU3Structure:
    """psi+ = symbol(<W>_3), psi- = sign symbol(star <W>_3), omega = sign symbol(star <W>_4)."""
    w = _normalized(x, Signature(0, 6))
    w3 = w.grade(3)
    return SU3Structure(
        omega=symbol(clifford_hodge(w.grade(4), conv)).scale(sign),
        psi_plus=symbol(w3),
        psi_minus=symbol(clifford_hodge(w3, conv)).scale(sign),
    )


def su3_recover(x: Multivector) -> SU3Structure:
    """Read the structure tensors off an idempotent of R_{0,6}.

    With W = x / <x>_0: psi+ = symbol(<W>_3), psi- = -symbol(star <W>_3)
    and omega = -symbol(star <W>_4), stars under EXT_DUAL_FIRST.
    """
    return _su3_recover(x, _STAR, -1)


# -- G2, dimension 7 -----------------------------------------------------

def g2_metric(s: G2Structure) -> OrbitReport:
    """Bilinear form B with B_ij vol = (1/6) (i_i phi) ^ (i_j phi) ^ phi.

    2-forms commute under ^, so B is symmetric and only i <= j is wedged.
    The orbit tag comes from an exact Sylvester test: definite when B or
    -B has all leading principal minors positive, degenerate when det B
    vanishes, split otherwise.
    """
    phi = s.phi
    top = (1 << 7) - 1
    contractions = [interior_product(i, phi) for i in range(1, 8)]
    sixth = Fraction(1, 6)
    rows = [[Fraction(0)] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(i, 7):
            w = wedge(wedge(contractions[i], contractions[j]), phi)
            rows[i][j] = rows[j][i] = sixth * w.term_map().get(top, Fraction(0))
    # the last leading minor is det B; the k-th leading minor of -B is (-1)^k times that of B
    minors = leading_principal_minors(rows)
    if not minors[-1]:
        tag = "degenerate"
    elif all(m > 0 for m in minors) or all((-1) ** k * m > 0 for k, m in enumerate(minors, 1)):
        tag = "definite"
    else:
        tag = "split"
    return OrbitReport(metric=tuple(map(tuple, rows)), determinant=minors[-1], tag=tag)


def g2_idempotent(s: G2Structure) -> Multivector:
    """Idempotent of R_{0,7} attached to a G2 structure.

    Computes (1/112) (star q(phi ^ star phi) + 7 q(phi) - 7 q(star phi)
    - q(phi ^ star phi)) under EXT_DUAL_FIRST and verifies idempotency.
    Degenerate phi (by the induced metric) is rejected up front.
    """
    return _g2_idempotent(s, g2_metric(s))


def _g2_formula(phi: ExteriorForm, conv: HodgeConvention) -> Multivector:
    """(1/112) (star q(phi ^ star phi) + 7 q(phi) - 7 q(star phi) - q(phi ^ star phi)).

    The Clifford dual is taken under conv, the exterior one under EXT_DUAL_FIRST.
    """
    star_phi = hodge_star(phi, _STAR)
    w = quantize(wedge(phi, star_phi))
    return (
        clifford_hodge(w, conv)
        + quantize(phi).scale(7)
        - quantize(star_phi).scale(7)
        - w
    ).scale(Fraction(1, 112))


def _g2_idempotent(s: G2Structure, metric: OrbitReport) -> Multivector:
    """g2_idempotent with g2_metric(s) already computed."""
    if metric.tag == "degenerate":
        raise StructureError("phi induces a degenerate metric")
    f = _g2_formula(s.phi, _STAR)
    if not is_idempotent(f):
        raise StructureError("input does not induce an idempotent (not a normalized G2 structure)")
    return f


def g2_recover(x: Multivector) -> tuple[G2Structure, ExteriorForm]:
    """(phi, 4-form) from an idempotent of R_{0,7}.

    With W = x / <x>_0: phi = symbol(<W>_3) and the 4-form is
    -symbol(<W>_4); for W coming from a G2 structure the 4-form equals
    hodge_star(phi) under EXT_DUAL_FIRST.
    """
    w = _normalized(x, Signature(0, 7))
    phi = symbol(w.grade(3))
    if phi.is_zero():
        raise StructureError("cannot recover a structure: no grade-3 part")
    return G2Structure(phi=phi), -symbol(w.grade(4))


# -- Spin(7), dimension 8 ------------------------------------------------

def _spin7_formula(omega: ExteriorForm, conv: HodgeConvention, a: Fraction) -> Multivector:
    """a star q(Omega ^ Omega) - (1/16) q(Omega) + a q(Omega ^ Omega), star under conv."""
    w = quantize(wedge(omega, omega))
    return (clifford_hodge(w, conv) + w).scale(a) - quantize(omega).scale(Fraction(1, 16))


def spin7_idempotent(s: Spin7Structure) -> Multivector:
    """Idempotent of R_{0,8} attached to a self-dual Cayley form.

    With Omega ^ Omega = c vol (c != 0 required) this computes
    (1/(16c)) star q(Omega ^ Omega) - (1/16) q(Omega)
    + (1/(16c)) q(Omega ^ Omega), i.e. (1/16)(1 - q(Omega) + q(vol)),
    and verifies idempotency.
    """
    omega = s.cayley
    if hodge_star(omega, _STAR) != omega:
        raise StructureError("the 4-form is not self-dual")
    c = _volume_constant(wedge(omega, omega), "Omega ^ Omega")
    f = _spin7_formula(omega, _STAR, Fraction(1, 16 * c))
    if not is_idempotent(f):
        raise StructureError("input does not induce an idempotent (not a normalized Cayley form)")
    return f


def spin7_recover(x: Multivector) -> Spin7Structure:
    """Cayley form from an idempotent of R_{0,8}: -symbol(<W>_4), W = x / <x>_0.

    The output must be self-dual; anything else is rejected.
    """
    omega = -symbol(_normalized(x, Signature(0, 8)).grade(4))
    if hodge_star(omega, _STAR) != omega:
        raise StructureError("recovered 4-form is not self-dual")
    return Spin7Structure(cayley=omega)


# -- dimension ladder ----------------------------------------------------

def lift_su3_to_g2(s: SU3Structure) -> G2Structure:
    """phi = omega ^ e^7 + psi_plus on R^7 = R^6 (+) R."""
    _volume_constant(wedge(s.psi_plus, s.psi_minus), "psi+ ^ psi-")
    e7 = ExteriorForm.blade(7, (7,))
    phi = wedge(s.omega.embed(7), e7) + s.psi_plus.embed(7)
    return G2Structure(phi=phi)


def lift_idempotent_6_to_7(f6: Multivector) -> Multivector:
    """Primitive idempotent of R_{0,7} from one of R_{0,6}.

    Recovers the SU(3) tensors from f6, lifts them to a G2 structure on
    R^7 and rebuilds the idempotent there.
    """
    if not is_primitive(f6):
        raise StructureError("input is not a primitive idempotent of R_{0,6}")
    return g2_idempotent(lift_su3_to_g2(su3_recover(f6)))


# -- the structure kinds ------------------------------------------------

# kind -> (class, model, dimension, (JSON field, text label) per tensor)
_KINDS = {
    "su3": (SU3Structure, model_su3, 6, (("omega", "omega"), ("psi_plus", "psi+"), ("psi_minus", "psi-"))),
    "g2": (G2Structure, model_g2, 7, (("phi", "phi"),)),
    "spin7": (Spin7Structure, model_spin7, 8, (("cayley", "cayley"),)),
}
# the function columns of the same table, as plain kind -> function dicts, so that
# whoever wraps a module's functions (perfbench/tracer.py) finds them here too
_IDEMPOTENT_OF = {"su3": su3_idempotent, "g2": g2_idempotent, "spin7": spin7_idempotent}
_RECOVER_OF = {"su3": su3_recover, "g2": lambda x: g2_recover(x)[0], "spin7": spin7_recover}


def structure_to_json_obj(s) -> dict:
    for kind, (cls, _, _, fields) in _KINDS.items():
        if isinstance(s, cls):
            return {"structure": kind, **{field: to_json_obj(getattr(s, field)) for field, _ in fields}}
    raise TypeError(f"cannot serialize {type(s).__name__}")


def structure_to_json(s) -> str:
    return json.dumps(structure_to_json_obj(s), separators=(", ", ": "))


def structure_from_json_obj(obj):
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", "")
    kind = obj.get("structure")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError("expected 'su3', 'g2' or 'spin7'", "structure")
    cls, _, n, fields = _KINDS[kind]
    forms = {}
    for field, _ in fields:
        if field not in obj:
            raise SchemaError(f"missing field '{field}'", field)
        value = from_json_obj(obj[field], path=field)
        if not isinstance(value, ExteriorForm):
            raise SchemaError("expected kind 'form'", f"{field}.kind")
        if value.n != n:
            raise SchemaError(f"expected a form on (R^{n})*", f"{field}.signature")
        forms[field] = value
    try:
        return cls(**forms)
    except StructureError as exc:
        raise SchemaError(str(exc), "") from None


def structure_from_json(text: str):
    return structure_from_json_obj(_decode(text))
