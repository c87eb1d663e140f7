"""Primitive idempotents and minimal left ideals of R_{p,q}.

An idempotent is built from k commuting basis blades that square to +1
and whose index sets are independent over F_2, as the expanded product
prod (1 + s_i e_{t_i}) / 2.  The signed products of the s_i e_{t_i} form
a group of 2^k distinct signed blades, so the expansion is 2^-k times
that group's signed sum, written down term by term with no geometric
product.  With k = q - r_{q-p} (r the Radon-Hurwitz numbers) the result
is primitive and its left ideal has dimension 2^{p+q-k}.  Ideal
dimensions are computed by exact identities (an F_2 coset certificate,
or the trace 2^n <f>_0 of x -> x*f for an idempotent f) or by
elimination, never assumed.  For a blade b the product b*f is a signed
permutation of f's terms.  f passes the certificate when e_t*f = +-f for
every t in supp f, which makes supp f an F_2 subspace T and every
coefficient +-<f>_0.  Then the rows b*f fall into the cosets b xor T:
rows of one coset are +-each other, rows of distinct cosets have disjoint
supports (Lounesto, Clifford Algebras and Spinors, 2nd ed., 2001;
Ablamowicz, Comput. Phys. Commun. 115, 1998), so the first blade of each
coset is exactly what elimination would keep, membership in A*f is a sign
check coset by coset, and f*f is len(f) <f>_0 f.  Any other f goes through
fraction-free integer elimination of the rows b*f, scaled to integers once,
with no geometric product.  build_idempotent records the certificate, its
group's signs, on the f it writes; any other element derives it once, on
first use, and keeps it.  The basis elements of a certified f's ideal are
built when IdealBasis.basis is first read.  Generator sets are checked by
parities of masks: e_a^2 = (-1)^{|a|(|a|-1)/2 + |a & negatives|}, and in
every signature e_a e_b = (-1)^{|a||b| - |a & b|} e_b e_a (Lounesto 2001).
"""

from __future__ import annotations

from functools import cache
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, product as _iterproduct

from .algebra import (
    Multivector,
    Signature,
    _Record,
    _sign_mask,
    blade_mask,
    blade_table,
    mask_indices,
)
from .linalg import RowBasis

# the periodicity table, by i = q - p mod 8 (Lawson & Michelsohn, Spin Geometry,
# 1989, I.4): R_{p,q} is summands copies of M_m(ring), m = 2^((p + q - j) / 2),
# and r_i is the Radon-Hurwitz number
_PERIODICITY = (("R", 1, 0, 0), ("C", 1, 1, 1), ("H", 1, 2, 2), ("H", 2, 3, 2),
                ("H", 1, 2, 3), ("C", 1, 1, 3), ("R", 1, 0, 3), ("R", 2, 1, 3))


class GeneratorError(ValueError):
    """The proposed generator set cannot produce a primitive idempotent: args are the violations."""

    def __str__(self) -> str:
        return "; ".join(self.args)


def radon_hurwitz(i: int) -> int:
    """Radon-Hurwitz number r_i.

    r_0..r_7 = 0,1,2,2,3,3,3,3 with r_{i+8} = r_i + 4; extended to
    negative arguments by r_{-1} = -1 and r_{-i} = 1 - i + r_{i-2}.
    """
    if not isinstance(i, int) or isinstance(i, bool):
        raise ValueError(f"radon_hurwitz argument {i!r} is not an integer")
    if i < -12:
        raise ValueError(f"radon_hurwitz argument {i} below supported range -12")
    if i == -1:
        return -1
    if i < 0:
        return 1 + i + radon_hurwitz(-i - 2)
    return 4 * (i >> 3) + _PERIODICITY[i & 7][3]


class IdempotentSpec(_Record):
    """Signature plus signed generator blades (sign, index tuple)."""

    __slots__ = ("sig", "generators")

    sig: Signature
    generators: tuple[tuple[int, tuple[int, ...]], ...]

    def _validate(self) -> None:
        gens = tuple((s, tuple(t)) for s, t in self.generators)
        for s, t in gens:
            if not isinstance(s, int) or isinstance(s, bool) or s not in (1, -1):
                raise ValueError(f"generator sign must be +1 or -1, got {s!r}")
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


def _f2_fresh(masks: Iterable[int]) -> Iterator[int]:
    """Each mask outside the F_2-span of the masks before it, in order."""
    span = {0}
    for mask in masks:
        if mask not in span:
            yield mask
            span |= {s ^ mask for s in span}


def _violations(sig: Signature, masks: Sequence[int]) -> tuple[int, list[str]]:
    """The expected generator count, and every violation of these masks, by parity, in order."""
    def name(mask: int) -> str:  # the text column is built only to report a violation
        return blade_table(sig.n).text[mask]

    violations = [f"generator {name(a)} squares to -1"
                  for a in masks if (a.bit_count() >> 1 ^ (a >> sig.p).bit_count()) & 1]
    violations += [f"generators {name(a)} and {name(b)} anticommute"
                   for i, a in enumerate(masks) for b in masks[i + 1:]
                   if (a.bit_count() * b.bit_count() ^ (a & b).bit_count()) & 1]
    fresh = [*_f2_fresh(masks), None]  # a subsequence of masks: it first differs at a dependent one
    dep = next((a for a, b in zip(masks, fresh) if a != b), None)
    if dep is not None:
        violations.append(f"generator {name(dep)} is a product of earlier generators")
    expected = sig.q - radon_hurwitz(sig.q - sig.p)
    if len(masks) != expected:
        violations.append(f"expected {expected} generators for {sig}, got {len(masks)}")
    return expected, violations


def validate_generators(spec: IdempotentSpec) -> GeneratorReport:
    """Check the four conditions for a generator set, reporting every violation."""
    masks = spec.masks()
    expected, violations = _violations(spec.sig, masks)
    return GeneratorReport(ok=not violations, k=len(masks), expected_k=expected,
                           violations=tuple(violations))


def _valid_masks(spec: IdempotentSpec) -> tuple[int, ...]:
    """The generator masks, once _violations finds none; else GeneratorError of them."""
    masks = spec.masks()
    violations = _violations(spec.sig, masks)[1]
    if violations:
        raise GeneratorError(*violations)
    return masks


def build_idempotent(spec: IdempotentSpec) -> Multivector:
    """Expand prod (1 + s_i e_{t_i}) / 2 exactly, as 2^-k times a signed group.

    Valid generators commute and are independent over F_2, so the products
    of the s_i e_{t_i} form a group of 2^k distinct signed blades and the
    expansion has no like terms: starting from {0: 1}, each factor in turn
    adds c s sign(e_m e_t) e_{m xor t} beside every term c e_m, and every
    coefficient is +-2^-k.  The terms come out in the order the product of
    the factors, left to right, would list them.

    Raises GeneratorError if the generator set fails validation.
    """
    return _expand(spec.sig, [s for s, _ in spec.generators], _valid_masks(spec))


def _expand(sig: Signature, signs: Iterable[int], masks: Sequence[int]) -> Multivector:
    """build_idempotent's expansion of already validated generators: numerators +-1 over 2^k.

    By the commutation parity, sign(e_m e_t) = (-1)^|m & r| for r = _sign_mask(t) ^ t,
    complemented when |t| is odd."""
    terms = {0: 1}
    for s, t in zip(signs, masks):
        r = _sign_mask(sig, t) ^ t ^ -(t.bit_count() & 1)
        terms, old = {}, terms
        for m, c in old.items():
            terms[m] = c
            terms[m ^ t] = -c * s if (m & r).bit_count() & 1 else c * s
    f = Multivector._from_canonical(sig, 1 << len(masks), terms)
    object.__setattr__(f, "_f2", f._terms)  # the signs _f2_signs would derive
    return f


def is_idempotent(x: Multivector) -> bool:
    """True iff x*x = x.

    When x passes the F_2 coset certificate, e_t*x = +-x for every t in
    supp x, and applying e_t twice gives e_t^2 = +1; so x*x = sum_t x_t e_t x
    = len(x) <x>_0 x, and x is idempotent exactly when len(x) <x>_0 = 1.
    Any other x is multiplied out.
    """
    if isinstance(x, Multivector) and _f2_signs(x) is not None:
        return len(x) * x._terms.get(0, 0) == x._den
    return x * x == x


def is_orthogonal(f: Multivector, g: Multivector) -> bool:
    """True iff f*g = g*f = 0."""
    return (f * g).is_zero() and (g * f).is_zero()


class IdealBasis(_Record):
    """Basis of the left ideal Cl(p,q) * f, with what membership needs.

    For a certified f, left_ideal_basis leaves basis unset; its first read
    builds the elements b*f, b the first blade of each coset, and keeps them.
    """

    __slots__ = ("idempotent", "dimension", "basis", "_rows")

    idempotent: Multivector
    dimension: int
    basis: tuple[Multivector, ...]
    # the signs of a certified f (see _f2_signs), else the echelon of the
    # rows b*f; left out of ==, hash and repr
    _rows: dict[int, int] | RowBasis

    def contains(self, x: Multivector) -> bool:
        _require_multivector(x, "IdealBasis.contains")
        sig = self.idempotent._space  # the slot behind .sig, read without the property call
        if x._space != sig:
            raise ValueError(f"signature mismatch: {x.sig} vs {sig}")
        if isinstance(self._rows, RowBasis):  # the span holds x iff it holds x's numerators
            return self._rows.contains(x._terms)
        return _in_cosets(sig, self._rows, x._terms)

    def __getattr__(self, name: str):
        if name != "basis":  # only an unset slot gets here
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        n = self.idempotent.sig.n
        order = blade_table(n).order
        kept = map(order.__getitem__, _first_per_coset(order, self._rows, n))
        object.__setattr__(self, "basis", _products(self.idempotent, kept))
        return self.basis


def _require_multivector(x, caller: str) -> None:
    if not isinstance(x, Multivector):
        raise TypeError(f"{caller} needs a Multivector, got {type(x).__name__}")


def _require_generator(f, caller: str) -> None:
    _require_multivector(f, caller)
    if f.is_zero():
        raise ValueError("left ideal of the zero element is trivial")


def _signed_rows(sig: Signature, terms: Iterable[tuple[int, int]],
                 masks: Iterable[int]) -> Iterator[dict[int, int]]:
    """The term maps of e_b * x for b in masks, x given by its (mask, coefficient) terms.

    e_b * x maps each term c e_m of x to sign(b, m) c e_{b xor m}, so every
    row is a signed permutation of x's terms, with the sign mask computed
    once per row.
    """
    signed = [(m, c, -c) for m, c in terms]

    def row(b: int) -> dict[int, int]:
        sign_mask = _sign_mask(sig, b)
        return {b ^ m: neg if (sign_mask & m).bit_count() & 1 else c for m, c, neg in signed}

    return map(row, masks)


def _f2_signs(f: Multivector) -> dict[int, int] | None:
    """The signs s_t = f_t / <f>_0 over supp f when f passes the F_2 coset certificate, else None.

    Read from f's certificate slot, which build_idempotent fills when it
    writes f; otherwise derived once by _f2_certificate and recorded there.
    """
    try:
        return f._f2
    except AttributeError:
        signs = _f2_certificate(f)
        object.__setattr__(f, "_f2", signs)
        return signs


def _f2_certificate(f: Multivector) -> dict[int, int] | None:
    """_f2_signs derived from f's coefficients: f passes when e_t * f = +-f for every t in supp f.

    Such a row maps supp f onto t xor supp f, so supp f holds t xor t = 0 and
    is closed under xor: it is an F_2 subspace T.  The e_t term of e_t * f is
    <f>_0 e_t, so every coefficient is +-<f>_0.  A row is read only for a t
    outside the span of the t's read before it; e_{t xor u} is +-e_t e_u, so
    the other rows follow.  Then e_b * f and e_{b xor t} * f are +-each other,
    while rows of distinct cosets b xor T have disjoint supports: the rank is
    2^n / |T|, and elimination in any order keeps exactly the first candidate
    of each coset.  Idempotency is not needed.
    """
    terms = f._terms  # numerators over one denominator: compared as they are
    c0 = terms.get(0)
    if c0 is None:  # f is zero, or no row can pass
        return None
    neg = {m: -c for m, c in terms.items()}
    rows = _signed_rows(f.sig, terms.items(), _f2_fresh(terms))  # lazy: any() stops at a failure
    if any(row != terms and row != neg for row in rows):
        return None
    return {m: 1 if c == c0 else -1 for m, c in terms.items()}


def _in_cosets(sig: Signature, signs: dict[int, int], terms: dict[int, int]) -> bool:
    """True iff the element with these numerators lies in A*f, for f with these _f2_signs.

    A*f is spanned by the rows e_b * f / <f>_0 = sum_t sign(b, t) s_t e_{b xor t},
    one per coset b xor T, with disjoint supports.  So x lies in A*f exactly
    when, for any term b of x, x_{b xor t} = x_b sign(b, t) s_t for every t
    in T; each coset is checked, and its terms taken off, once.  x's terms
    share one denominator, so its numerators are compared as they are.
    """
    if len(terms) % len(signs):  # supp x must be a union of cosets
        return False
    nums = dict(terms)
    while nums:
        b, num = nums.popitem()
        sign_mask = _sign_mask(sig, b)
        for t, s in signs.items():
            if t:
                if (sign_mask & t).bit_count() & 1:
                    s = -s
                if nums.pop(b ^ t, None) != s * num:
                    return False
    return True


def _first_per_coset(masks: Iterable[int], span: Iterable[int], n: int) -> list[int]:
    """Positions of the first mask met in each coset b xor span (a subspace), until all are met."""
    span = list(span)
    cosets = (1 << n) // len(span)
    seen: set[int] = set()
    kept = []
    for pos, b in enumerate(masks):
        if b not in seen:
            kept.append(pos)
            if len(kept) == cosets:
                break
            seen.update(map(b.__xor__, span))
    return kept


def _eliminate(f: Multivector, masks: Sequence[int]) -> tuple[RowBasis, list[int]]:
    """Integer elimination of the rows D * (e_b * f), b in masks, in order, D f's denominator.

    Returns the echelon of the accepted rows and the positions in masks of
    the rows that enlarged the span.
    """
    rows = _signed_rows(f.sig, f._terms.items(), masks)
    echelon = RowBasis()
    kept = [pos for pos, row in enumerate(rows) if echelon.add(row)]
    return echelon, kept


def _products(f: Multivector, kept: Iterable[int]) -> tuple[Multivector, ...]:
    """The elements e_b * f for b in kept, in order."""
    return tuple(Multivector._from_canonical(f.sig, f._den, row)
                 for row in _signed_rows(f.sig, f._terms.items(), kept))


def left_ideal_basis(f: Multivector) -> IdealBasis:
    """Exact rank and basis of the left ideal generated by f.

    Runs every basis blade b, in canonical order, through b*f and keeps
    those that enlarge the row span: the first blade of each coset when f
    passes the F_2 coset certificate, by elimination otherwise.  The basis
    elements are the products b*f of the kept blades; for a certified f
    the dimension is 2^n / len(f) and they are built on first read.  For a
    primitive idempotent the dimension matches the classification minimum.
    """
    _require_generator(f, "left_ideal_basis")
    signs = _f2_signs(f)
    if signs is None:
        order = blade_table(f.sig.n).order
        rows, kept = _eliminate(f, order)
        return IdealBasis(f, len(kept), _products(f, map(order.__getitem__, kept)), rows)
    ideal = IdealBasis(f, (1 << f.sig.n) // len(f), None, signs)
    object.__delattr__(ideal, "basis")  # left unset until IdealBasis.__getattr__ builds it
    return ideal


def coset_basis(f: Multivector, candidates: Iterable[Iterable[int]]) -> list[tuple[int, ...]]:
    """Select candidate blades b whose products b*f form a basis of the ideal.

    Candidates are taken in the given order; a candidate is kept iff it
    enlarges the span.  Raises ValueError when the surviving set does not
    span the whole ideal, or on the first candidate that is not a strictly
    increasing tuple of int indices in 1..n.
    """
    _require_generator(f, "coset_basis")
    n = f.sig.n
    certified = _f2_signs(f) is not None
    target = (1 << n) // len(f) if certified else _eliminate(f, blade_table(n).order)[0].rank
    cands = list(map(tuple, candidates))
    # the table lookup is taken only when every index has type exactly int (True, 1.0,
    # Fraction(1) and IntEnum members hash like 1); a miss then means a malformed blade.
    # Otherwise blade_mask reads the candidates in order, raising on the first bad one,
    # and each is rebuilt as an int tuple.
    exact = set(map(type, chain.from_iterable(cands))) <= {int}
    masks = list(map(blade_table(n).index.get, cands)) if exact else [None]
    if None in masks:
        masks = [blade_mask(cand, n) for cand in cands]
        cands = list(map(mask_indices, masks))
    kept = _first_per_coset(masks, f._terms, n) if certified else _eliminate(f, masks)[1]
    if len(kept) != target:
        raise ValueError(
            f"candidates insufficient to span the ideal (got rank {len(kept)} of {target})"
        )
    return [cands[pos] for pos in kept]


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
    """Matrix-algebra type of R_{p,q} by (q - p) mod 8, built once per signature."""
    return _classify(sig.p, sig.q)


@cache  # one entry per valid (p, q): 90 at most
def _classify(p: int, q: int) -> AlgebraClass:
    ring, summands, j, _ = _PERIODICITY[(q - p) % 8]
    m = 1 << ((p + q - j) >> 1)
    return AlgebraClass(ring=ring, matrix_size=m, summands=summands,
                        minimal_ideal_dim=m * _RING_DIM[ring])


def is_primitive(f: Multivector) -> bool:
    """True iff f is a nonzero idempotent whose ideal has the minimal dimension.

    x -> x*f is a projection of the algebra when f*f = f, and a projection's
    rank is its trace; e_b*e_m has an e_b term only for m = 0, so the trace,
    and with it dim A*f, is 2^n <f>_0.  No elimination is needed.
    """
    if f.is_zero() or not is_idempotent(f):
        return False
    return (1 << f.sig.n) * f._terms.get(0, 0) == classify(f.sig).minimal_ideal_dim * f._den


def decompose_algebra(spec: IdempotentSpec) -> list[Multivector]:
    """All 2^k idempotents from the sign choices prod (1 ± e_{t_i}) / 2.

    The generator blades are taken unsigned; the returned list enumerates
    sign vectors with +1 first in each slot, so the first entry is the
    all-plus idempotent.  The pieces are pairwise orthogonal and sum to 1.
    """
    masks = _valid_masks(spec)
    return [_expand(spec.sig, signs, masks) for signs in _iterproduct((1, -1), repeat=len(masks))]
