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
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .algebra import (
    MAX_DIM,
    Multivector,
    Rational,
    Signature,
    blade_mask,
    grade_of,
    mask_indices,
    reorder_sign,
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


class ExteriorForm:
    """Immutable sparse form on (R^n)*: {blade mask: nonzero Fraction}."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[int, Rational] | None = None):
        if not 1 <= n <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {n}")
        canon: dict[int, Fraction] = {}
        limit = 1 << n
        for mask, coef in (terms or {}).items():
            if not 0 <= mask < limit:
                raise ValueError(f"blade mask {mask} out of range for dimension {n}")
            c = Fraction(coef)
            if c:
                canon[mask] = canon.get(mask, Fraction(0)) + c
                if not canon[mask]:
                    del canon[mask]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", canon)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ExteriorForm is immutable")

    @classmethod
    def zero(cls, n: int) -> "ExteriorForm":
        return cls(n, {})

    @classmethod
    def blade(cls, n: int, indices: Iterable[int], coef: Rational = 1) -> "ExteriorForm":
        return cls(n, {blade_mask(indices, n): Fraction(coef)})

    @classmethod
    def from_terms(cls, n: int, pairs: Iterable[tuple[Rational, Iterable[int]]]) -> "ExteriorForm":
        out: dict[int, Fraction] = {}
        for coef, indices in pairs:
            mask = blade_mask(indices, n)
            out[mask] = out.get(mask, Fraction(0)) + Fraction(coef)
        return cls(n, out)

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self._terms.items(), key=lambda kv: (grade_of(kv[0]), mask_indices(kv[0]))))

    def coefficient(self, indices: Iterable[int]) -> Fraction:
        return self._terms.get(blade_mask(indices, self.n), Fraction(0))

    def term_map(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted({grade_of(m) for m in self._terms}))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def _check_dim(self, other: "ExteriorForm") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        self._check_dim(other)
        out = dict(self._terms)
        for mask, coef in other._terms.items():
            out[mask] = out.get(mask, Fraction(0)) + coef
        return ExteriorForm(self.n, out)

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ExteriorForm":
        return ExteriorForm(self.n, {m: -c for m, c in self._terms.items()})

    def scale(self, value: Rational) -> "ExteriorForm":
        c = Fraction(value)
        return ExteriorForm(self.n, {m: c * v for m, v in self._terms.items()})

    def __mul__(self, other) -> "ExteriorForm":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __xor__(self, other: "ExteriorForm") -> "ExteriorForm":
        """a ^ b spells the wedge product."""
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return wedge(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    def grade(self, k: int) -> "ExteriorForm":
        if not 0 <= k <= self.n:
            raise ValueError(f"grade {k} out of range 0..{self.n}")
        return ExteriorForm(self.n, {m: c for m, c in self._terms.items() if grade_of(m) == k})

    def embed(self, n: int) -> "ExteriorForm":
        """Reinterpret in a larger ambient dimension (same index meaning)."""
        if n < self.n:
            raise ValueError(f"cannot embed dimension {self.n} form into dimension {n}")
        return ExteriorForm(n, dict(self._terms))

    def __repr__(self) -> str:
        inside = " ".join(
            f"{'+' if c > 0 else '-'}{abs(c)}*e{''.join(map(str, mask_indices(m))) or '()'}"
            for m, c in self.terms()
        )
        return f"ExteriorForm(n={self.n}, {inside or '0'})"


def volume_form(n: int) -> ExteriorForm:
    return ExteriorForm(n, {(1 << n) - 1: Fraction(1)})


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    """Exterior product; blades sharing an index annihilate."""
    a._check_dim(b)
    out: dict[int, Fraction] = {}
    for am, ac in a._terms.items():
        for bm, bc in b._terms.items():
            if am & bm:
                continue
            mask = am | bm
            c = out.get(mask, Fraction(0)) + reorder_sign(am, bm) * ac * bc
            if c:
                out[mask] = c
            elif mask in out:
                del out[mask]
    return ExteriorForm(a.n, out)


def interior_product(i: int, a: ExteriorForm) -> ExteriorForm:
    """Contraction with the i-th coordinate vector.

    On a blade containing i, drops i with sign (-1)^{position of i in
    the increasing index list, counted from zero}; kills other blades.
    """
    if not 1 <= i <= a.n:
        raise ValueError(f"generator index {i} out of range 1..{a.n}")
    bit = 1 << (i - 1)
    out: dict[int, Fraction] = {}
    for mask, coef in a._terms.items():
        if not mask & bit:
            continue
        below = bin(mask & (bit - 1)).count("1")
        sign = -1 if below & 1 else 1
        out[mask ^ bit] = sign * coef
    return ExteriorForm(a.n, out)


def hodge_star(a: ExteriorForm, c: HodgeConvention = HodgeConvention.EXT_DUAL_FIRST) -> ExteriorForm:
    """Hodge dual of a form, exterior conventions only.

    EXT_DUAL_FIRST fixes signs by (star e^I) ^ e^I = vol, EXT_ALPHA_FIRST
    by e^I ^ (star e^I) = vol.  For the Clifford-side duals see
    clifford_hodge.
    """
    if not c.is_exterior:
        raise ValueError(f"hodge_star on forms supports only the EXT conventions, got {c.value}")
    full = (1 << a.n) - 1
    out: dict[int, Fraction] = {}
    for mask, coef in a._terms.items():
        comp = full ^ mask
        if c is HodgeConvention.EXT_DUAL_FIRST:
            sign = reorder_sign(comp, mask)
        else:
            sign = reorder_sign(mask, comp)
        out[comp] = out.get(comp, Fraction(0)) + sign * coef
    return ExteriorForm(a.n, out)


def quantize(a: ExteriorForm, sig: Signature | None = None) -> Multivector:
    """Coefficient-preserving linear bijection e^I -> e_I.

    Target defaults to R_{0,n}.  This is a change of viewpoint, not a
    homomorphism of products.
    """
    if sig is None:
        sig = Signature(0, a.n)
    elif sig.n != a.n:
        raise ValueError(f"signature dimension {sig.n} does not match form dimension {a.n}")
    return Multivector(sig, dict(a._terms))


def symbol(x: Multivector) -> ExteriorForm:
    """Inverse of quantize: e_I -> e^I, coefficients preserved."""
    return ExteriorForm(x.sig.n, x.term_map())


def clifford_hodge(x: Multivector, c: HodgeConvention = HodgeConvention.EXT_DUAL_FIRST) -> Multivector:
    """Hodge dual on the Clifford side under an explicit convention.

    The EXT variants transport the exterior star through quantize/symbol;
    the CLIFF variants multiply by the volume element on the stated side.
    """
    if c.is_exterior:
        return quantize(hodge_star(symbol(x), c), x.sig)
    omega = volume_element(x.sig)
    if c is HodgeConvention.CLIFF_LEFT:
        return omega * x
    return x * omega
