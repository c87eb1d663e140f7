"""Exact Clifford algebra R_{p,q} over the rationals.

Convention: generators e_1..e_n satisfy e_i^2 = +1 for i <= p and
e_i^2 = -1 for i > p, so a vector v has v*v = -q(v) in the negative
definite case R_{0,n}.  Basis blades are strictly increasing index
sets from {1..n}; internally a blade is an n-bit mask (bit i-1 set
iff generator i occurs), which keeps products and sign bookkeeping
to a few bit operations per blade pair.  A coefficient goes in as an int
or a fractions.Fraction and comes out as a Fraction; an element stores one
positive denominator and an integer numerator per blade (see _BladeMap), and
fractions is imported only when a caller passes a Fraction in or reads one
out.  A float, str or Decimal coefficient raises TypeError: no floats enter
at any point.

The package's immutable records (Signature here, the specs and reports
elsewhere) derive from _Record, one slotted base whose methods read the
fields from __slots__.  Defining a record generates no code, which keeps
importing the package, and so every command-line run, cheap.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from functools import cache, cached_property, total_ordering
from itertools import chain, combinations
from math import gcd, lcm

MAX_DIM = 12


def _rational(value: int | Fraction) -> tuple[int, int]:
    """(numerator, denominator) of a caller's int (bool included) or Fraction coefficient."""
    if not isinstance(value, int):
        from fractions import Fraction
        if not isinstance(value, Fraction):  # a float, str or Decimal is never rounded in
            raise TypeError(f"a coefficient must be an int or Fraction, not {type(value).__name__}")
    return value.numerator, value.denominator


class _Record:
    """Immutable value with named fields: the package's record types.

    A subclass lists its fields, in order, in __slots__ and gets
    positional or keyword construction, a _validate hook run after the
    fields are set, AttributeError on assignment or deletion, == against
    the same class only, a hash over the fields and the repr
    Name(field=value, ...).  Fields named with a leading '_' are left out
    of ==, hash and repr.  Instances copy and pickle through their
    constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._public = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, kwargs.pop(name))
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(f"{type(self).__name__}() got multiple values for argument {name!r}"
                            if name in names else
                            f"{type(self).__name__}() got an unexpected keyword argument {name!r}")
        self._validate()

    def _validate(self) -> None:
        """Check the fields once they are set; a subclass may override."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._public)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        inside = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._public)
        return f"{type(self).__qualname__}({inside})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


@total_ordering
class Signature(_Record):
    """Signature (p, q) of R_{p,q}: p positive squares, q negative squares.

    Compared on every binary operation of elements, so construction, ==,
    hash and < are written out; ordering is by (p, q).
    """

    __slots__ = ("p", "q")

    p: int
    q: int

    def __init__(self, p: int, q: int) -> None:
        if bool in (type(p), type(q)) or not (isinstance(p, int) and isinstance(q, int)):
            raise ValueError(f"signature components must be integers, got ({p!r}, {q!r})")
        if p < 0 or q < 0:
            raise ValueError("signature components must be non-negative")
        if not 1 <= p + q <= MAX_DIM:
            raise ValueError(f"total dimension must be in 1..{MAX_DIM}, got {p + q}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Signature:
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    def __lt__(self, other) -> bool:
        if other.__class__ is not Signature:
            return NotImplemented
        return (self.p, self.q) < (other.p, other.q)

    @property
    def n(self) -> int:
        return self.p + self.q

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


def _index_table(first: int, bits: int, piece) -> list[str]:
    """Entry m joins the strings piece(first + j) over the set bits j of m, in order."""
    table = [""]
    for i in range(first, first + bits):
        one = piece(i)
        table += [t + one for t in table]
    return table


def mask_indices(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into the strictly increasing index tuple."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _by_grade(n: int) -> Iterator[tuple[int, ...]]:
    """Index tuples of every blade of dimension n, by grade, then lexicographically."""
    return (c for k in range(n + 1) for c in combinations(range(1, n + 1), k))


class BladeTable:
    """The blades of dimension n: blade_table(n) builds one per n, on first use.

    order lists every mask by grade, then lexicographically; rank[mask] is
    its position there.  The text columns and the index-tuple map are
    built on first use, so a dimension never printed, parsed or looked up
    by index tuple holds only these two arrays.
    """

    def __init__(self, n: int):
        self.n = n
        self.order = memoryview(bytearray(2 << n)).cast("H")
        self.rank = memoryview(bytearray(2 << n)).cast("H")
        powers = [1 << i for i in range(n)]
        masks = map(sum, chain.from_iterable(combinations(powers, k) for k in range(n + 1)))
        for r, m in enumerate(masks):
            self.order[r] = m
            self.rank[m] = r

    @cached_property
    def text(self) -> tuple[str, ...]:
        """'1', 'e135', or 'e{1,10}' once some index exceeds 9, by mask."""
        text = ["1", *["e" + t for t in _index_table(1, min(self.n, 9), str)[1:]]]
        if self.n > 9:  # masks from 1 << 9 on hold an index above 9
            text += ["e{" + t[1:] + "}" for t in _index_table(1, self.n, ",{}".format)[512:]]
        return tuple(text)

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        """Mask of each strictly increasing index tuple, keys in canonical order."""
        return dict(zip(_by_grade(self.n), self.order))


blade_table = cache(BladeTable)


def _suffix_parity(a: int) -> int:
    """Mask whose bit j is the parity of the bits of a above position j.

    Moving blade b past blade a into increasing order transposes each
    generator j of b past every generator i > j of a (Dorst, Fontijne &
    Mann, Geometric Algebra for Computer Science, 2007), so the reordering
    sign is the parity of b & _suffix_parity(a).  The suffix xor spans 16
    positions, enough for every n <= MAX_DIM.
    """
    a >>= 1
    a ^= a >> 1
    a ^= a >> 2
    a ^= a >> 4
    a ^= a >> 8
    return a


def _sign_mask(sig: Signature, a: int) -> int:
    """The mask s with e_a * e_m = (-1)^|s & m| e_{a xor m}, for every blade m: the
    reordering parity _suffix_parity(a), plus a's generators that square to -1."""
    return _suffix_parity(a) ^ (a >> sig.p << sig.p)


class _BladeMap:
    """Immutable sparse element: integer numerators _terms {blade mask: nonzero int} over _den.

    The part Multivector and ExteriorForm share, over a Signature or a
    dimension n (_dim reads n off the space): zero, blade, +, -, scaling on
    either side, grade, == and hash.  _rational reads every coefficient a
    caller passes and _combine builds every element from terms.  The form is
    canonical, _den > 0 and gcd(_den, *numerators) == 1 (zero is _den == 1, no
    terms), so == and hash are value equality; the readers build Fractions.
    """

    __slots__ = ("_space", "_den", "_terms")

    def __new__(cls, space, terms: Mapping[int, int | Fraction] | None = None):
        limit, terms = 1 << cls._dim(space), terms or {}
        for mask in terms:
            if not isinstance(mask, int) or isinstance(mask, bool):  # as blade_mask's indices
                raise ValueError(f"blade mask {mask!r} is not an integer")
            if not 0 <= mask < limit:
                raise ValueError(f"blade mask {mask} out of range for {cls._describe(space)}")
        # an int-subclass mask is stored as the int it equals
        return cls._combine(space, [(*_rational(coef), int(mask)) for mask, coef in terms.items()])

    @classmethod
    def zero(cls, space):
        return cls(space, {})

    @classmethod
    def blade(cls, space, indices: Iterable[int], coef: int | Fraction = 1):
        return cls(space, {blade_mask(indices, cls._dim(space)): coef})

    @classmethod
    def _combine(cls, space, terms: Iterable[tuple[int, int, int]]):
        """The element of (numerator, denominator > 0, in-range mask) triples: like terms
        summed over the lcm of the denominators, zero numerators skipped."""
        terms = list(terms)
        den = lcm(*[d for _, d, _ in terms])
        acc, repeated = {}, False
        for num, d, mask in terms:
            if num:
                num *= den // d
                if mask in acc:
                    num += acc[mask]
                    repeated = True
                acc[mask] = num
        return cls._reduced(space, den, {m: c for m, c in acc.items() if c} if repeated else acc)

    @classmethod
    def _from_canonical(cls, space, den: int, terms: dict[int, int]):
        """Wrap in-range masks, nonzero int numerators and den > 0 sharing no factor, uncopied:
        true of a canonical element's terms with signs flipped or masks permuted."""
        x = object.__new__(cls)
        _set_space(x, space)
        _set_den(x, den)
        _set_terms(x, terms)
        return x

    @classmethod
    def _reduced(cls, space, den: int, terms: dict[int, int]):
        """_from_canonical after dividing den > 0 and the nonzero int numerators by their gcd."""
        if den != 1 and (g := gcd(den, *terms.values())) != 1:
            den //= g
            terms = {m: c // g for m, c in terms.items()}
        return cls._from_canonical(space, den, terms)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self._space, self.term_map())

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """Iterate (mask, coefficient) in canonical order (grade, then lexicographic)."""
        rank = blade_table(self._dim(self._space)).rank
        return iter(sorted(self.term_map().items(), key=lambda term: rank[term[0]]))

    def coefficient(self, indices: Iterable[int]) -> Fraction:
        from fractions import Fraction
        return Fraction(self._terms.get(blade_mask(indices, self._dim(self._space)), 0), self._den)

    def term_map(self) -> dict[int, Fraction]:
        from fractions import Fraction
        den = self._den
        return {m: Fraction(c, den) for m, c in self._terms.items()}

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted({m.bit_count() for m in self._terms}))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def _check_space(self, other: "_BladeMap") -> None:
        if self._space != other._space:
            raise ValueError(f"{self._space_name} mismatch: {self._space} vs {other._space}")

    def __add__(self, other):
        """self + other, built by _combine from both operands' terms."""
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_space(other)
        return self._combine(self._space, [(c, self._den, m) for m, c in self._terms.items()]
                             + [(c, other._den, m) for m, c in other._terms.items()])

    def __sub__(self, other):
        return self + -other if isinstance(other, type(self)) else NotImplemented

    def __neg__(self):
        return self._from_canonical(self._space, self._den, {m: -c for m, c in self._terms.items()})

    def scale(self, value: int | Fraction):
        num, den = _rational(value)
        return self._reduced(self._space, self._den * den,
                             {m: v * num for m, v in self._terms.items()} if num else {})

    def __mul__(self, other):
        try:
            return self.scale(other)
        except TypeError:  # no scalar: the other operand's __rmul__ may know the product
            return NotImplemented

    __rmul__ = __mul__

    def grade(self, k: int):
        return grade_project(self, k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self._space == other._space and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self._space, self._den, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        text = blade_table(self._dim(self._space)).text
        inside = " ".join(f"{'+' if c > 0 else '-'}{abs(c)}*{text[m]}" for m, c in self.terms())
        return f"{type(self).__name__}({self._repr_space(self._space)}, {inside or '0'})"


# the slots' own setters, which skip the __setattr__ that makes elements immutable
_set_space, _set_den, _set_terms = (_BladeMap.__dict__[name].__set__ for name in _BladeMap.__slots__)


class Multivector(_BladeMap):
    """Immutable sparse multivector of R_{p,q}, stored as _BladeMap describes.

    Supports +, -, unary -, * (geometric product, or scaling by a
    rational), == and grade projection.
    """

    # the F_2 certificate of ideals._f2_signs, unset until recorded or derived;
    # ==, hash, copies and pickles leave it out
    __slots__ = ("_f2",)

    def __new__(cls, sig: Signature, terms: Mapping[int, int | Fraction] | None = None):
        return super().__new__(cls, sig, terms)

    sig = property(lambda self: self._space, doc="The Signature (p, q).")
    _space_name = "signature"
    _dim = staticmethod(lambda sig: sig.n)
    _describe = _repr_space = staticmethod(str)

    @classmethod
    def scalar(cls, sig: Signature, value: int | Fraction) -> "Multivector":
        return cls(sig, {0: value})

    @classmethod
    def generator(cls, sig: Signature, i: int) -> "Multivector":
        return cls.blade(sig, (i,))

    @property
    def scalar_part(self) -> Fraction:
        return self.coefficient(())

    def __mul__(self, other) -> "Multivector":
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return super().__mul__(other)

    def reverse(self) -> "Multivector":
        return reverse(self)


def geometric_product(x: Multivector, y: Multivector) -> Multivector:
    """Bilinear extension of the blade product.

    The integer numerators are accumulated per output blade over the
    product of the two denominators, and the result is reduced once.  The
    sign of e_a * e_b is the parity of b & _sign_mask(sig, a), so the mask
    is computed once per term of x.
    """
    x._check_space(y)
    sig = x.sig
    y_terms = list(y._terms.items())
    acc: dict[int, int] = {}
    get = acc.get
    for a, ca in x._terms.items():
        sign_mask = _sign_mask(sig, a)
        for b, cb in y_terms:
            mask = a ^ b
            if (sign_mask & b).bit_count() & 1:
                acc[mask] = get(mask, 0) - ca * cb
            else:
                acc[mask] = get(mask, 0) + ca * cb
    return Multivector._reduced(sig, x._den * y._den, {m: c for m, c in acc.items() if c})


def grade_project(x: _BladeMap, k: int) -> _BladeMap:
    """The grade-k part of a Multivector or an ExteriorForm."""
    n = x._dim(x._space)
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"grade {k!r} is not an integer")
    if not 0 <= k <= n:
        raise ValueError(f"grade {k} out of range 0..{n}")
    return x._reduced(x._space, x._den, {m: c for m, c in x._terms.items() if m.bit_count() == k})


def volume_element(sig: Signature) -> Multivector:
    """The top blade e_1...e_n with coefficient 1."""
    return Multivector._from_canonical(sig, 1, {(1 << sig.n) - 1: 1})


def reverse(x: Multivector) -> Multivector:
    """Reverse anti-automorphism: grade k picks up (-1)^{k(k-1)/2}."""
    # (-1)^{k(k-1)/2} is -1 exactly for k = 2, 3 (mod 4)
    return Multivector._from_canonical(x.sig, x._den, {m: -c if m.bit_count() & 2 else c
                                                       for m, c in x._terms.items()})
