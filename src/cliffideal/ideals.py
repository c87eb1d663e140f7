"""Primitive idempotents and minimal left ideals of R_{p,q}.

An idempotent is built from k commuting basis blades that square to +1
and whose index sets are independent over F_2, as the expanded product
prod (1 + s_i e_{t_i}) / 2.  With k = q - r_{q-p} (r the Radon-Hurwitz
numbers) the result is primitive and its left ideal has dimension
2^{p+q-k}.  Ideal dimensions are computed by exact elimination, never
assumed: for a blade b the product b*f is a signed permutation of f's
terms, so the rows b*f, scaled to integers once, go through fraction-free
integer elimination with no geometric product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as _iterproduct
from typing import Iterable, Iterator, Sequence

from .algebra import (
    Multivector,
    Signature,
    _Record,
    _suffix_parity,
    blade_mask,
    blade_product_masks,
    blade_square_sign,
    blade_table,
)
from .linalg import RowBasis, clear_denominators

_RH_BASE = (0, 1, 2, 2, 3, 3, 3, 3)


class GeneratorError(ValueError):
    """The proposed generator set cannot produce a primitive idempotent."""


def radon_hurwitz(i: int) -> int:
    """Radon-Hurwitz number r_i.

    r_0..r_7 = 0,1,2,2,3,3,3,3 with r_{i+8} = r_i + 4; extended to
    negative arguments by r_{-1} = -1 and r_{-i} = 1 - i + r_{i-2}.
    """
    if i < -12:
        raise ValueError(f"radon_hurwitz argument {i} below supported range -12")
    if i == -1:
        return -1
    if i < 0:
        return 1 + i + radon_hurwitz(-i - 2)
    if i < 8:
        return _RH_BASE[i]
    return radon_hurwitz(i - 8) + 4


class IdempotentSpec(_Record):
    """Signature plus signed generator blades (sign, index tuple)."""

    __slots__ = ("sig", "generators")

    sig: Signature
    generators: tuple[tuple[int, tuple[int, ...]], ...]

    def _validate(self) -> None:
        gens = tuple((s, tuple(t)) for s, t in self.generators)
        for s, t in gens:
            if s not in (1, -1):
                raise ValueError(f"generator sign must be +1 or -1, got {s}")
            blade_mask(t, self.sig.n)  # raises on malformed blades
        object.__setattr__(self, "generators", gens)

    def masks(self) -> tuple[int, ...]:
        return tuple(blade_mask(t, self.sig.n) for _, t in self.generators)


class GeneratorReport(_Record):
    __slots__ = ("ok", "k", "expected_k", "violations")

    ok: bool
    k: int
    expected_k: int
    violations: tuple[str, ...]


def _f2_dependent(masks: Sequence[int]) -> int | None:
    """Index of the first mask in the F_2-span of its predecessors, else None."""
    basis: dict[int, int] = {}  # leading bit -> reduced mask
    for pos, mask in enumerate(masks):
        m = mask
        while m:
            lead = m.bit_length() - 1
            if lead not in basis:
                basis[lead] = m
                break
            m ^= basis[lead]
        if m == 0:
            return pos
    return None


def validate_generators(spec: IdempotentSpec) -> GeneratorReport:
    """Check the four conditions for a generator set, reporting every violation."""
    sig = spec.sig
    violations: list[str] = []
    masks = spec.masks()
    name = blade_table(sig.n).text

    for (_, t), mask in zip(spec.generators, masks):
        if blade_square_sign(t, sig) != 1:
            violations.append(f"generator {name[mask]} squares to -1")

    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            sij, _ = blade_product_masks(masks[i], masks[j], sig)
            sji, _ = blade_product_masks(masks[j], masks[i], sig)
            if sij != sji:
                violations.append(
                    f"generators {name[masks[i]]} and {name[masks[j]]} anticommute"
                )

    dep = _f2_dependent(masks)
    if dep is not None:
        violations.append(
            f"generator {name[masks[dep]]} is a product of earlier generators"
        )

    expected = sig.q - radon_hurwitz(sig.q - sig.p)
    k = len(masks)
    if k != expected:
        violations.append(f"expected {expected} generators for {sig}, got {k}")

    return GeneratorReport(ok=not violations, k=k, expected_k=expected, violations=tuple(violations))


def build_idempotent(spec: IdempotentSpec) -> Multivector:
    """Expand prod (1 + s_i e_{t_i}) / 2 exactly.

    Raises GeneratorError if the generator set fails validation.
    """
    report = validate_generators(spec)
    if not report.ok:
        raise GeneratorError("; ".join(report.violations))
    sig = spec.sig
    f = Multivector.scalar(sig, 1)
    half = Fraction(1, 2)
    for s, t in spec.generators:
        factor = Multivector(sig, {0: half, blade_mask(t, sig.n): s * half})
        f = f * factor
    return f


def is_idempotent(x: Multivector) -> bool:
    return x * x == x


def is_orthogonal(f: Multivector, g: Multivector) -> bool:
    """True iff f*g = g*f = 0."""
    return (f * g).is_zero() and (g * f).is_zero()


def is_sub_idempotent(f: Multivector, e: Multivector) -> bool:
    """True iff f and e are idempotents with f*e = e*f = f."""
    return is_idempotent(f) and is_idempotent(e) and f * e == f and e * f == f


class IdealBasis(_Record):
    """Echelonized description of the left ideal Cl(p,q) * f."""

    __slots__ = ("idempotent", "dimension", "basis", "_rows")

    idempotent: Multivector
    dimension: int
    basis: tuple[Multivector, ...]
    _rows: RowBasis  # left out of ==, hash and repr

    def contains(self, x: Multivector) -> bool:
        if x.sig != self.idempotent.sig:
            raise ValueError(f"signature mismatch: {x.sig} vs {self.idempotent.sig}")
        return self._rows.contains(x.term_map())


def _blade_rows(f: Multivector, masks: Iterable[int]) -> tuple[int, Iterator[dict[int, int]]]:
    """D, the lcm of f's denominators, and the integer rows D * (e_b * f), b in masks.

    e_b * f maps each term c e_m of f to sign(b, m) c e_{b xor m}, so every
    row is a signed permutation of the integer terms of D * f.  As in
    geometric_product, the sign is the parity of m & sign_mask, with
    sign_mask computed once per row.
    """
    sig = f.sig
    den, scaled = clear_denominators(f.term_map())
    terms = list(scaled.items())
    negative = (1 << sig.n) - (1 << sig.p)

    def row(b: int) -> dict[int, int]:
        sign_mask = _suffix_parity(b) ^ (b & negative)
        return {b ^ m: -c if (sign_mask & m).bit_count() & 1 else c for m, c in terms}

    return den, map(row, masks)


# A fixed size, not a setting: verify-paper, the widest caller, asks for four distinct ideals.
_IDEAL_MEMO = 8


@lru_cache(maxsize=_IDEAL_MEMO)
def left_ideal_basis(f: Multivector) -> IdealBasis:
    """Exact rank and basis of the left ideal generated by f.

    Runs every basis blade b through b*f and keeps those that enlarge the
    row span; for a primitive idempotent the resulting dimension matches
    the classification minimum.  Results are memoised on f, so asking
    again for the same ideal reuses one elimination.
    """
    if f.is_zero():
        raise ValueError("left ideal of the zero element is trivial")
    sig = f.sig
    den, rows = _blade_rows(f, blade_table(sig.n).order)
    echelon = RowBasis()
    accepted = [row for row in rows if echelon.add(row)]
    basis = tuple(Multivector(sig, {m: Fraction(c, den) for m, c in row.items()})
                  for row in accepted)
    return IdealBasis(idempotent=f, dimension=echelon.rank, basis=basis, _rows=echelon)


def coset_basis(f: Multivector, candidates: Iterable[Iterable[int]]) -> list[tuple[int, ...]]:
    """Select candidate blades b whose products b*f form a basis of the ideal.

    Candidates are taken in the given order; a candidate is kept iff it
    enlarges the span.  Raises ValueError when the surviving set does not
    span the whole ideal.
    """
    target = left_ideal_basis(f).dimension
    n = f.sig.n
    indices = [tuple(cand) for cand in candidates]
    _, rows = _blade_rows(f, (blade_mask(t, n) for t in indices))
    echelon = RowBasis()
    accepted = [t for t, row in zip(indices, rows) if echelon.add(row)]
    if echelon.rank != target:
        raise ValueError(
            f"candidates insufficient to span the ideal (got rank {echelon.rank} of {target})"
        )
    return accepted


class AlgebraClass(_Record):
    """Wedderburn shape of R_{p,q}: one or two matrix algebras over R, C or H."""

    __slots__ = ("ring", "matrix_size", "summands", "minimal_ideal_dim")

    ring: str  # "R" | "C" | "H"
    matrix_size: int
    summands: int  # 1, or 2 for the q-p = 3, 7 (mod 8) doublings
    minimal_ideal_dim: int  # real dimension of a minimal left ideal

    def __str__(self) -> str:
        block = f"M_{self.matrix_size}({self.ring})"
        if self.summands == 2:
            return f"{block} ⊕ {block}"
        return block


_RING_DIM = {"R": 1, "C": 2, "H": 4}


def classify(sig: Signature) -> AlgebraClass:
    """Matrix-algebra type of R_{p,q} by (q - p) mod 8."""
    n = sig.n
    d = (sig.q - sig.p) % 8
    if d in (0, 6):
        ring, summands, m = "R", 1, 1 << (n // 2)
    elif d in (1, 5):
        ring, summands, m = "C", 1, 1 << ((n - 1) // 2)
    elif d in (2, 4):
        ring, summands, m = "H", 1, 1 << ((n - 2) // 2)
    elif d == 3:
        ring, summands, m = "H", 2, 1 << ((n - 3) // 2)
    else:  # d == 7
        ring, summands, m = "R", 2, 1 << ((n - 1) // 2)
    return AlgebraClass(ring=ring, matrix_size=m, summands=summands,
                        minimal_ideal_dim=m * _RING_DIM[ring])


def is_primitive(f: Multivector) -> bool:
    """True iff f is a nonzero idempotent whose ideal has the minimal dimension."""
    if f.is_zero() or not is_idempotent(f):
        return False
    return left_ideal_basis(f).dimension == classify(f.sig).minimal_ideal_dim


def decompose_algebra(spec: IdempotentSpec) -> list[Multivector]:
    """All 2^k idempotents from the sign choices prod (1 ± e_{t_i}) / 2.

    The generator blades are taken unsigned; the returned list enumerates
    sign vectors with +1 first in each slot, so the first entry is the
    all-plus idempotent.  The pieces are pairwise orthogonal and sum to 1.
    """
    report = validate_generators(spec)
    if not report.ok:
        raise GeneratorError("; ".join(report.violations))
    blades = tuple(t for _, t in spec.generators)
    out = []
    for signs in _iterproduct((1, -1), repeat=len(blades)):
        out.append(build_idempotent(IdempotentSpec(spec.sig, tuple(zip(signs, blades)))))
    return out
