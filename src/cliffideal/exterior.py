"""Exterior algebra on (R^n)* and its bridge to the Clifford side.

Forms and Clifford elements are deliberately distinct types even though
they share the sparse blade-map representation: wedge and the geometric
product obey different rules, and quantize/symbol are the only sanctioned
crossings between the two worlds (they preserve coefficients on the
canonical bases, nothing more).

Hodge duality is where published conventions genuinely fork, so the
choice is explicit everywhere.  The four variants implemented:

  EXT_DUAL_FIRST   star(e^I) = sgn(I^c, I) e^{I^c}, i.e. (star a)^a = vol
                   on basis blades.  Normative default.
  EXT_ALPHA_FIRST  star(e^I) = sgn(I, I^c) e^{I^c}, i.e. a^(star a) = vol.
  CLIFF_LEFT       Clifford-side only: x -> omega * x  (omega the volume
                   element).
  CLIFF_RIGHT      Clifford-side only: x -> x * omega.

The two EXT variants differ by (-1)^{k(n-k)} on grade k and therefore
coincide for odd n; the CLIFF variants relate to EXT_DUAL_FIRST by
(-1)^{k(k+1)/2} (left) and an extra (-1)^{k(n-k)} (right) in R_{0,n}.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping

from .algebra import (
    MAX_DIM,
    Multivector,
    Signature,
    _BladeMap,
    _rational,
    _suffix_parity,
    blade_mask,
    volume_element,
)


class HodgeConvention(enum.Enum):
    EXT_DUAL_FIRST = "ext-dual-first"
    EXT_ALPHA_FIRST = "ext-alpha-first"
    CLIFF_LEFT = "cliff-left"
    CLIFF_RIGHT = "cliff-right"

    @classmethod
    def from_token(cls, token: str) -> "HodgeConvention":
        for member in cls:
            if member.value == token:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown Hodge convention {token!r} (expected one of: {valid})")

    @property
    def is_exterior(self) -> bool:
        return self in (HodgeConvention.EXT_DUAL_FIRST, HodgeConvention.EXT_ALPHA_FIRST)


def _dimension(n: int) -> int:
    """n, if it is an int (not a bool) in 1..MAX_DIM: the dimension of a form."""
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {n!r}")
    return n


class ExteriorForm(_BladeMap):
    """Immutable sparse form on (R^n)*, stored as _BladeMap describes."""

    __slots__ = ()

    def __new__(cls, n: int, terms: Mapping[int, int | Fraction] | None = None):
        return super().__new__(cls, _dimension(n), terms)

    n = property(lambda self: self._space, doc="The dimension n.")
    _space_name = "dimension"
    _dim = staticmethod(lambda n: n)
    _describe = staticmethod(lambda n: f"dimension {n}")
    _repr_space = staticmethod(lambda n: f"n={n}")

    @classmethod
    def from_terms(cls, n: int, pairs: Iterable[tuple[int | Fraction, Iterable[int]]]) -> "ExteriorForm":
        n = _dimension(n)
        return cls._combine(n, [(*_rational(coef), blade_mask(indices, n)) for coef, indices in pairs])

    def __xor__(self, other: "ExteriorForm") -> "ExteriorForm":
        """a ^ b spells the wedge product."""
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return wedge(self, other)

    def embed(self, n: int) -> "ExteriorForm":
        """Reinterpret in a larger ambient dimension (same index meaning)."""
        if n < self.n:
            raise ValueError(f"cannot embed dimension {self.n} form into dimension {n}")
        return ExteriorForm._from_canonical(_dimension(n), self._den, self._terms)


def volume_form(n: int) -> ExteriorForm:
    return ExteriorForm._from_canonical(_dimension(n), 1, {(1 << n) - 1: 1})


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    """Exterior product; blades sharing an index annihilate.

    As in the geometric product, integer numerators are accumulated over
    the product of the denominators, and the result is reduced once.
    """
    a._check_space(b)
    y_terms = list(b._terms.items())
    acc: dict[int, int] = {}
    get = acc.get
    for am, ac in a._terms.items():
        parity = _suffix_parity(am)
        for bm, bc in y_terms:
            if am & bm:
                continue
            if (parity & bm).bit_count() & 1:
                acc[am | bm] = get(am | bm, 0) - ac * bc
            else:
                acc[am | bm] = get(am | bm, 0) + ac * bc
    return ExteriorForm._reduced(a.n, a._den * b._den, {m: c for m, c in acc.items() if c})


def interior_product(i: int, a: ExteriorForm) -> ExteriorForm:
    """Contraction with the i-th coordinate vector.

    On a blade containing i, drops i with sign (-1)^{position of i in
    the increasing index list, counted from zero}; kills other blades.
    """
    if not isinstance(i, int) or isinstance(i, bool):
        raise ValueError(f"generator index {i!r} is not an integer")
    if not 1 <= i <= a.n:
        raise ValueError(f"generator index {i} out of range 1..{a.n}")
    bit = 1 << (i - 1)
    # distinct masks stay distinct after dropping the bit, and signs keep coefficients
    # nonzero; the dropped terms may leave a common factor
    out = {mask ^ bit: -coef if (mask & (bit - 1)).bit_count() & 1 else coef
           for mask, coef in a._terms.items() if mask & bit}
    return ExteriorForm._reduced(a.n, a._den, out)


def hodge_star(a: ExteriorForm, c: HodgeConvention = HodgeConvention.EXT_DUAL_FIRST) -> ExteriorForm:
    """Hodge dual of a form, exterior conventions only.

    EXT_DUAL_FIRST fixes signs by (star e^I) ^ e^I = vol, EXT_ALPHA_FIRST
    by e^I ^ (star e^I) = vol.  For the Clifford-side duals see
    clifford_hodge.
    """
    if not isinstance(c, HodgeConvention):
        raise TypeError(f"hodge_star needs a HodgeConvention, got {type(c).__name__}")
    if not c.is_exterior:
        raise ValueError(f"hodge_star on forms supports only the EXT conventions, got {c.value}")
    full = (1 << a.n) - 1
    dual_first = c is HodgeConvention.EXT_DUAL_FIRST
    out: dict[int, int] = {}
    for mask, coef in a._terms.items():  # complements are distinct: no like terms
        comp = full ^ mask
        odd = (_suffix_parity(comp) & mask if dual_first else _suffix_parity(mask) & comp).bit_count() & 1
        out[comp] = -coef if odd else coef
    return ExteriorForm._from_canonical(a.n, a._den, out)


def quantize(a: ExteriorForm, sig: Signature | None = None) -> Multivector:
    """Coefficient-preserving linear bijection e^I -> e_I.

    Target defaults to R_{0,n}.  This is a change of viewpoint, not a
    homomorphism of products.
    """
    if sig is None:
        sig = Signature(0, a.n)
    elif sig.n != a.n:
        raise ValueError(f"signature dimension {sig.n} does not match form dimension {a.n}")
    return Multivector._from_canonical(sig, a._den, a._terms)


def symbol(x: Multivector) -> ExteriorForm:
    """Inverse of quantize: e_I -> e^I, coefficients preserved."""
    return ExteriorForm._from_canonical(x.sig.n, x._den, x._terms)


def clifford_hodge(x: Multivector, c: HodgeConvention = HodgeConvention.EXT_DUAL_FIRST) -> Multivector:
    """Hodge dual on the Clifford side under an explicit convention.

    The EXT variants transport the exterior star through quantize/symbol;
    the CLIFF variants multiply by the volume element on the stated side.
    """
    if not isinstance(c, HodgeConvention):
        raise TypeError(f"clifford_hodge needs a HodgeConvention, got {type(c).__name__}")
    if c.is_exterior:
        return quantize(hodge_star(symbol(x), c), x.sig)
    omega = volume_element(x.sig)
    if c is HodgeConvention.CLIFF_LEFT:
        return omega * x
    return x * omega
