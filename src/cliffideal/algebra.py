"""Exact Clifford algebra R_{p,q} over the rationals.

Convention: generators e_1..e_n satisfy e_i^2 = +1 for i <= p and
e_i^2 = -1 for i > p, so a vector v has v*v = -q(v) in the negative
definite case R_{0,n}.  Basis blades are strictly increasing index
sets from {1..n}; internally a blade is an n-bit mask (bit i-1 set
iff generator i occurs), which keeps products and sign bookkeeping
to a few bit operations per blade pair.  Coefficients are
fractions.Fraction at the API; the geometric product runs on integer
numerators over one common denominator and builds a Fraction only for
each output term.  No floats enter at any point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .linalg import clear_denominators

MAX_DIM = 12

Rational = Union[int, Fraction]


@dataclass(frozen=True, order=True)
class Signature:
    """Signature (p, q) of R_{p,q}: p positive squares, q negative squares."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError("signature components must be non-negative")
        if not 1 <= self.p + self.q <= MAX_DIM:
            raise ValueError(f"total dimension must be in 1..{MAX_DIM}, got {self.p + self.q}")

    @property
    def n(self) -> int:
        return self.p + self.q

    def metric_sign(self, i: int) -> int:
        """Square of the i-th generator (1-based): +1 or -1."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        return 1 if i <= self.p else -1

    def __str__(self) -> str:
        return f"R_{{{self.p},{self.q}}}"


def blade_mask(indices: Iterable[int], n: int) -> int:
    """Pack a strictly increasing index tuple into a bitmask.

    The empty tuple is the scalar blade (mask 0).
    """
    mask = 0
    prev = 0
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool):
            raise ValueError(f"blade index {i!r} is not an integer")
        if i <= prev:
            raise ValueError(f"blade indices must be strictly increasing, got index {i}")
        if i > n:
            raise ValueError(f"blade index {i} exceeds dimension {n}")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def mask_indices(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into the strictly increasing index tuple."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def grade_of(mask: int) -> int:
    return mask.bit_count()


def _suffix_parity(a: int) -> int:
    """Mask whose bit j is the parity of the bits of a above position j.

    The suffix xor spans 16 positions, enough for every n <= MAX_DIM.
    """
    a >>= 1
    a ^= a >> 1
    a ^= a >> 2
    a ^= a >> 4
    a ^= a >> 8
    return a


def reorder_sign(a: int, b: int) -> int:
    """Sign of reordering blade a followed by blade b into increasing order.

    Each generator j of b transposes past every generator i > j of a
    (Dorst, Fontijne & Mann, Geometric Algebra for Computer Science,
    2007).  Only the parity of that count matters: it is the parity of
    b & _suffix_parity(a).
    """
    return -1 if (_suffix_parity(a) & b).bit_count() & 1 else 1


def blade_product_masks(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """(sign, mask) of e_a * e_b, mask arguments."""
    sign = reorder_sign(a, b)
    # each repeated generator with square -1 contracts to a sign flip
    if ((a & b) >> sig.p).bit_count() & 1:
        sign = -sign
    return sign, a ^ b


def blade_product(a: Iterable[int], b: Iterable[int], sig: Signature) -> tuple[int, tuple[int, ...]]:
    """Product of two basis blades given as index tuples.

    Returns (sign, blade) with the blade again strictly increasing.
    """
    am = blade_mask(a, sig.n)
    bm = blade_mask(b, sig.n)
    sign, mask = blade_product_masks(am, bm, sig)
    return sign, mask_indices(mask)


def blade_square_sign(a: Iterable[int], sig: Signature) -> int:
    """Sign of (e_a)^2: (-1)^{k(k-1)/2} times the product of metric signs."""
    am = blade_mask(a, sig.n)
    sign, mask = blade_product_masks(am, am, sig)
    assert mask == 0
    return sign


class Multivector:
    """Immutable sparse multivector: {blade mask: nonzero Fraction}.

    Supports +, -, unary -, * (geometric product, or scaling by a
    rational), == and grade projection.  Instances compare equal iff
    they have the same signature and identical term maps.
    """

    __slots__ = ("sig", "_terms")

    def __init__(self, sig: Signature, terms: Mapping[int, Rational] | None = None):
        canon: dict[int, Fraction] = {}
        limit = 1 << sig.n
        for mask, coef in (terms or {}).items():
            if not 0 <= mask < limit:
                raise ValueError(f"blade mask {mask} out of range for {sig}")
            c = Fraction(coef)
            if c:
                canon[mask] = canon.get(mask, Fraction(0)) + c
                if not canon[mask]:
                    del canon[mask]
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "_terms", canon)

    @classmethod
    def _from_canonical(cls, sig: Signature, terms: dict[int, Fraction]) -> "Multivector":
        """Wrap a term map that is already canonical, without copying it.

        Every mask must be in range and every value a nonzero Fraction.
        """
        mv = object.__new__(cls)
        object.__setattr__(mv, "sig", sig)
        object.__setattr__(mv, "_terms", terms)
        return mv

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Multivector is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig, {})

    @classmethod
    def scalar(cls, sig: Signature, value: Rational) -> "Multivector":
        return cls(sig, {0: Fraction(value)})

    @classmethod
    def blade(cls, sig: Signature, indices: Iterable[int], coef: Rational = 1) -> "Multivector":
        return cls(sig, {blade_mask(indices, sig.n): Fraction(coef)})

    @classmethod
    def generator(cls, sig: Signature, i: int) -> "Multivector":
        return cls.blade(sig, (i,))

    # -- inspection --------------------------------------------------

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """Iterate (mask, coefficient) in canonical order (grade, then lexicographic)."""
        return iter(sorted(self._terms.items(), key=lambda kv: (grade_of(kv[0]), mask_indices(kv[0]))))

    def coefficient(self, indices: Iterable[int]) -> Fraction:
        return self._terms.get(blade_mask(indices, self.sig.n), Fraction(0))

    def term_map(self) -> dict[int, Fraction]:
        return dict(self._terms)

    @property
    def scalar_part(self) -> Fraction:
        return self._terms.get(0, Fraction(0))

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted({grade_of(m) for m in self._terms}))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic --------------------------------------------------

    def _check_sig(self, other: "Multivector") -> None:
        if self.sig != other.sig:
            raise ValueError(f"signature mismatch: {self.sig} vs {other.sig}")

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_sig(other)
        out = dict(self._terms)
        for mask, coef in other._terms.items():
            out[mask] = out.get(mask, Fraction(0)) + coef
        return Multivector(self.sig, out)

    def __sub__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector(self.sig, {m: -c for m, c in self._terms.items()})

    def scale(self, value: Rational) -> "Multivector":
        c = Fraction(value)
        return Multivector(self.sig, {m: c * v for m, v in self._terms.items()})

    def __mul__(self, other) -> "Multivector":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return geometric_product(self, other)

    def __rmul__(self, other) -> "Multivector":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.sig, frozenset(self._terms.items())))

    def grade(self, k: int) -> "Multivector":
        return grade_project(self, k)

    def reverse(self) -> "Multivector":
        return reverse(self)

    def __repr__(self) -> str:
        inside = " ".join(
            f"{'+' if c > 0 else '-'}{abs(c)}*e{''.join(map(str, mask_indices(m))) or '()'}"
            for m, c in self.terms()
        )
        return f"Multivector({self.sig}, {inside or '0'})"


def geometric_product(x: Multivector, y: Multivector) -> Multivector:
    """Bilinear extension of the blade product.

    Each operand's denominators are cleared once, the integer numerators
    are accumulated per output blade, and only the sums are divided by
    the common denominator.  The sign of e_a * e_b is the parity of
    b & m for m = _suffix_parity(a) ^ (a & negative generators), so m is
    computed once per term of x.
    """
    x._check_sig(y)
    sig = x.sig
    dx, xs = clear_denominators(x._terms)
    dy, ys = clear_denominators(y._terms)
    negative = (1 << sig.n) - (1 << sig.p)
    y_terms = list(ys.items())
    acc: dict[int, int] = {}
    get = acc.get
    for a, ca in xs.items():
        sign_mask = _suffix_parity(a) ^ (a & negative)
        for b, cb in y_terms:
            mask = a ^ b
            if (sign_mask & b).bit_count() & 1:
                acc[mask] = get(mask, 0) - ca * cb
            else:
                acc[mask] = get(mask, 0) + ca * cb
    den = dx * dy
    return Multivector._from_canonical(sig, {m: Fraction(c, den) for m, c in acc.items() if c})


def grade_project(x: Multivector, k: int) -> Multivector:
    if not 0 <= k <= x.sig.n:
        raise ValueError(f"grade {k} out of range 0..{x.sig.n}")
    return Multivector(x.sig, {m: c for m, c in x._terms.items() if grade_of(m) == k})


def volume_element(sig: Signature) -> Multivector:
    """The top blade e_1...e_n with coefficient 1."""
    return Multivector(sig, {(1 << sig.n) - 1: Fraction(1)})


def reverse(x: Multivector) -> Multivector:
    """Reverse anti-automorphism: grade k picks up (-1)^{k(k-1)/2}."""
    out = {}
    for m, c in x._terms.items():
        k = grade_of(m)
        out[m] = -c if (k * (k - 1) // 2) & 1 else c
    return Multivector(x.sig, out)
