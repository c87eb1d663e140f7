"""SU(3), G2 and Spin(7) model structures and their spinor idempotents.

The bridge runs in both directions: a normalized structure tensor set
determines a primitive idempotent through quantization and Hodge duals
(all taken under the EXT_DUAL_FIRST convention), and conversely the
graded pieces of W = f / <f>_0 recover the structure tensors through
the symbol map.  Every constructor returns a primitive idempotent or raises
StructureError, and every recovery checks that its tensors rebuild its input
up to scale.  Each formula is written once, as a private function of a Hodge
convention and its constants; the verifier runs the source text's displayed
constants through the same ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import Multivector, Signature, _Record, volume_element
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
from .exprio import SchemaError, _decode, from_json_obj, to_json
from .ideals import is_primitive
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


# n -> (s, why): the correspondence at n builds no idempotent f with vol*f = s*f
_OTHER_HALF = {7: (1, "x lies in the vol*x = +x half; the G2 correspondence uses vol*f = -f"),
               8: (-1, "x lies in the vol*x = -x half; the Spin(7) correspondence uses vol*f = +f")}


def _rebuilt(s, x: Multivector, idempotent):
    """s when idempotent(s) is a multiple of x, else a StructureError that says why."""
    # a rebuilt idempotent lies in its own half, so an x in the other half is refused unbuilt
    sign, half = _OTHER_HALF.get(x.sig.n, (0, ""))
    if sign and volume_element(x.sig) * x == x.scale(sign):
        raise StructureError(f"cannot recover a structure: {half}")
    try:
        f = idempotent(s)
        if f.scale(x.scalar_part / f.scalar_part) == x:
            return s
        reason = "x is not a multiple of the idempotent its tensors build"
    except StructureError as exc:
        reason = str(exc)
    raise StructureError(f"cannot recover a structure: {reason}")


# -- SU(3), dimension 6 --------------------------------------------------

def _su3_formula(s: SU3Structure, conv: HodgeConvention, omega_coef: int,
                 square: ExteriorForm) -> Multivector:
    """(1/32) (star q(psi+ ^ psi-) + 4 q(psi+) + omega_coef star q(omega)), stars under conv;
    square is psi+ ^ psi-, which every caller has already wedged."""
    return (
        clifford_hodge(quantize(square), conv)
        + quantize(s.psi_plus).scale(4)
        + clifford_hodge(quantize(s.omega), conv).scale(omega_coef)
    ).scale(Fraction(1, 32))


def su3_idempotent(s: SU3Structure) -> Multivector:
    """Idempotent of R_{0,6} attached to a normalized SU(3) structure.

    Computes (1/32) (star q(psi+ ^ psi-) + 4 q(psi+) - 4 star q(omega))
    with the Clifford Hodge dual taken under EXT_DUAL_FIRST, and verifies
    that f is a primitive idempotent; unnormalized inputs, and those whose
    f is an idempotent of a larger ideal, fail that check and are rejected.
    """
    square = wedge(s.psi_plus, s.psi_minus)
    _volume_constant(square, "psi+ ^ psi-")
    f = _su3_formula(s, _STAR, -4, square)
    if not is_primitive(f):
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
    """The structure tensors of a multiple x of the idempotent of R_{0,6} they build.

    With W = x / <x>_0: psi+ = symbol(<W>_3), psi- = -symbol(star <W>_3)
    and omega = -symbol(star <W>_4), stars under EXT_DUAL_FIRST.
    """
    return _rebuilt(_su3_recover(x, _STAR, -1), x, su3_idempotent)


# -- G2, dimension 7 -----------------------------------------------------

def g2_metric(s: G2Structure) -> OrbitReport:
    """Bilinear form B with B_ij vol = (1/6) (i_i phi) ^ (i_j phi) ^ phi.

    2-forms commute under ^, so B is symmetric and only i <= j is wedged.
    With D the lcm of the 28 wedges' denominators, M = 6 D B is an integer
    matrix whose leading principal minors have B's signs.  The orbit tag comes
    from an exact Sylvester test: definite when B or -B has all leading
    principal minors positive, degenerate when det B vanishes, split otherwise.
    """
    phi = s.phi
    top = (1 << 7) - 1
    contractions = [interior_product(i, phi) for i in range(1, 8)]
    pairs = [(i, j) for i in range(7) for j in range(i, 7)]
    wedges = [wedge(wedge(contractions[i], contractions[j]), phi) for i, j in pairs]
    den = lcm(*[w._den for w in wedges])
    m = [[0] * 7 for _ in range(7)]
    for (i, j), w in zip(pairs, wedges):
        m[i][j] = m[j][i] = w._terms.get(top, 0) * (den // w._den)
    # the last leading minor is det M; the k-th leading minor of -M is (-1)^k times that of M
    minors = leading_principal_minors(m)
    if not minors[-1]:
        tag = "degenerate"
    elif all(v > 0 for v in minors) or all((-1) ** k * v > 0 for k, v in enumerate(minors, 1)):
        tag = "definite"
    else:
        tag = "split"
    return OrbitReport(metric=tuple(tuple(Fraction(v, 6 * den) for v in row) for row in m),
                       determinant=Fraction(minors[-1], (6 * den) ** 7), tag=tag)


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


def g2_idempotent(s: G2Structure) -> Multivector:
    """Idempotent of R_{0,7} attached to a G2 structure.

    Computes (1/112) (star q(phi ^ star phi) + 7 q(phi) - 7 q(star phi)
    - q(phi ^ star phi)) under EXT_DUAL_FIRST and verifies that it is a
    primitive idempotent.  Such an f is a rank-one projector in one M_8(R)
    summand of R_{0,7}, so phi is the 3-form of a unit spinor, whose metric
    is definite; the metric is therefore computed only after a rejection,
    to say whether phi was degenerate.
    """
    f = _g2_formula(s.phi, _STAR)
    if is_primitive(f):
        return f
    if g2_metric(s).tag == "degenerate":
        raise StructureError("phi induces a degenerate metric")
    raise StructureError("input does not induce an idempotent (not a normalized G2 structure)")


def g2_recover(x: Multivector) -> G2Structure:
    """phi = symbol(<W>_3), W = x / <x>_0, of a multiple x of the idempotent of R_{0,7} phi builds.

    The 4-form of the structure is hodge_star(phi) under EXT_DUAL_FIRST, which
    for such an x equals -symbol(<W>_4).
    """
    phi = symbol(_normalized(x, Signature(0, 7)).grade(3))
    return _rebuilt(G2Structure(phi=phi), x, g2_idempotent)


# -- Spin(7), dimension 8 ------------------------------------------------

def _spin7_formula(omega: ExteriorForm, conv: HodgeConvention, a: Fraction,
                   square: ExteriorForm) -> Multivector:
    """a star q(Omega ^ Omega) - (1/16) q(Omega) + a q(Omega ^ Omega), star under conv;
    square is Omega ^ Omega, which every caller has already wedged."""
    w = quantize(square)
    return (clifford_hodge(w, conv) + w).scale(a) - quantize(omega).scale(Fraction(1, 16))


def spin7_idempotent(s: Spin7Structure) -> Multivector:
    """Idempotent of R_{0,8} attached to a self-dual Cayley form.

    With Omega ^ Omega = c vol (c != 0 required) this computes
    (1/(16c)) star q(Omega ^ Omega) - (1/16) q(Omega)
    + (1/(16c)) q(Omega ^ Omega), i.e. (1/16)(1 - q(Omega) + q(vol)),
    and verifies that it is a primitive idempotent (its <f>_0 is 1/16, so
    any idempotent it builds is).
    """
    omega = s.cayley
    if hodge_star(omega, _STAR) != omega:
        raise StructureError("the 4-form is not self-dual")
    square = wedge(omega, omega)
    c = _volume_constant(square, "Omega ^ Omega")
    f = _spin7_formula(omega, _STAR, Fraction(1, 16 * c), square)
    if not is_primitive(f):
        raise StructureError("input does not induce an idempotent (not a normalized Cayley form)")
    return f


def spin7_recover(x: Multivector) -> Spin7Structure:
    """Cayley form -symbol(<W>_4), W = x / <x>_0, of a multiple x of the idempotent of R_{0,8} it builds."""
    omega = -symbol(_normalized(x, Signature(0, 8)).grade(4))
    return _rebuilt(Spin7Structure(cayley=omega), x, spin7_idempotent)


# -- dimension ladder ----------------------------------------------------

def _lift(s: SU3Structure) -> G2Structure:
    """phi = omega ^ e^7 + psi_plus on R^7 = R^6 (+) R."""
    return G2Structure(phi=wedge(s.omega.embed(7), ExteriorForm.blade(7, (7,))) + s.psi_plus.embed(7))


def lift_su3_to_g2(s: SU3Structure) -> G2Structure:
    """_lift(s), for an s that su3_idempotent accepts."""
    su3_idempotent(s)
    return _lift(s)


def lift_idempotent_6_to_7(f6: Multivector) -> Multivector:
    """Primitive idempotent of R_{0,7} from one of R_{0,6}.

    Recovers the SU(3) tensors from f6 (su3_recover's rebuild has already
    asked su3_idempotent), lifts them to R^7 and builds the idempotent there.
    """
    if not is_primitive(f6):
        raise StructureError("input is not a primitive idempotent of R_{0,6}")
    return g2_idempotent(_lift(su3_recover(f6)))


# -- the structure kinds ------------------------------------------------

# kind -> (class, model, dimension, (JSON field, text label) per tensor, idempotent, recovery)
_KINDS = {
    "su3": (SU3Structure, model_su3, 6, (("omega", "omega"), ("psi_plus", "psi+"), ("psi_minus", "psi-")),
            su3_idempotent, su3_recover),
    "g2": (G2Structure, model_g2, 7, (("phi", "phi"),), g2_idempotent, g2_recover),
    "spin7": (Spin7Structure, model_spin7, 8, (("cayley", "cayley"),), spin7_idempotent, spin7_recover),
}


def structure_to_json(s) -> str:
    """{"structure": kind, field: to_json(tensor), ...}, in the exprio writer's layout."""
    for kind, (cls, _, _, fields, *_) in _KINDS.items():
        if isinstance(s, cls):
            return "".join([f'{{"structure": "{kind}"',
                            *[f', "{field}": {to_json(getattr(s, field))}' for field, _ in fields], "}"])
    raise TypeError(f"cannot serialize {type(s).__name__}")


def structure_from_json_obj(obj):
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", "")
    kind = obj.get("structure")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError("expected 'su3', 'g2' or 'spin7'", "structure")
    cls, _, n, fields, *_ = _KINDS[kind]
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
