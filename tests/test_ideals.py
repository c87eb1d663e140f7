import copy
import pickle
import random
import re
from enum import IntEnum
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from cliffideal import (
    ExteriorForm,
    GeneratorError,
    IdempotentSpec,
    Multivector,
    Signature,
    build_idempotent,
    classify,
    coset_basis,
    decompose_algebra,
    is_idempotent,
    is_orthogonal,
    is_primitive,
    left_ideal_basis,
    parse,
    radon_hurwitz,
    run_claim,
    validate_generators,
)
from cliffideal import algebra, ideals
from cliffideal.algebra import (
    blade_mask,
    blade_product_masks,
    blade_square_sign,
    blade_table,
    mask_indices,
)
from cliffideal.linalg import RowBasis, det, leading_principal_minors

from conftest import multivectors
from oracles import (dense_rank, f2_coset_certified, is_sub_idempotent, multiply_dicts,
                     principal_minors, validate_generators_reference)

GENS6 = ((1, (1, 3, 5)), (-1, (1, 4, 6)), (-1, (2, 3, 6)))
GENS7 = ((1, (1, 2, 3)), (1, (1, 4, 5)), (-1, (2, 5, 7)), (1, (1, 6, 7)))
GENS8 = ((-1, (1, 2, 3, 4)), (-1, (1, 2, 5, 6)), (-1, (1, 2, 7, 8)), (-1, (1, 3, 5, 7)))

F6_CANONICAL = "1/8 + 1/8*e135 - 1/8*e146 - 1/8*e236 - 1/8*e245 - 1/8*e1234 - 1/8*e1256 - 1/8*e3456"


@pytest.fixture(scope="module")
def f6(sig6):
    return build_idempotent(IdempotentSpec(sig6, GENS6))


@pytest.fixture(scope="module")
def f7(sig7):
    return build_idempotent(IdempotentSpec(sig7, GENS7))


@pytest.fixture(scope="module")
def f8(sig8):
    return build_idempotent(IdempotentSpec(sig8, GENS8))


# -- Radon-Hurwitz -------------------------------------------------------

def test_radon_hurwitz_frozen_table():
    assert [radon_hurwitz(i) for i in range(9)] == [0, 1, 2, 2, 3, 3, 3, 3, 4]


def test_radon_hurwitz_period_eight():
    for i in range(0, 17):
        assert radon_hurwitz(i + 8) == radon_hurwitz(i) + 4


def test_radon_hurwitz_negative_extension():
    assert radon_hurwitz(-1) == -1
    for j in range(-12, -1):
        assert radon_hurwitz(j) == 1 + j + radon_hurwitz(-j - 2)
    with pytest.raises(ValueError):
        radon_hurwitz(-13)


def test_radon_hurwitz_reads_any_int_and_refuses_the_rest():
    r = [0, 1, 2, 2, 3, 3, 3, 3]
    for i in range(8, 8000):  # r_{i+8} = r_i + 4, walked up past any recursion depth
        r.append(r[i - 8] + 4)
    assert [radon_hurwitz(i) for i in range(8000)] == r
    assert radon_hurwitz(10 ** 4) == 5000 and radon_hurwitz(10 ** 30) == 5 * 10 ** 29
    for bad in (True, False, -1.5, 2.0, Fraction(3), "3", None):
        with pytest.raises(ValueError, match=r"^radon_hurwitz argument .* is not an integer$"):
            radon_hurwitz(bad)


def test_generator_counts_match_radon_hurwitz():
    assert 6 - radon_hurwitz(6) == 3
    assert 7 - radon_hurwitz(7) == 4
    assert 8 - radon_hurwitz(8) == 4


# -- generator validation ------------------------------------------------

def test_model_generator_sets_valid(sig6, sig7, sig8):
    for sig, gens, k in ((sig6, GENS6, 3), (sig7, GENS7, 4), (sig8, GENS8, 4)):
        report = validate_generators(IdempotentSpec(sig, gens))
        assert report.ok, report.violations
        assert report.k == k == report.expected_k


def test_generator_square_violation(sig6):
    report = validate_generators(IdempotentSpec(sig6, ((1, (1, 2)),)))
    assert not report.ok
    assert any("squares to -1" in v for v in report.violations)


def test_generator_anticommute_violation(sig6):
    # grade-3 blades sharing an even number of indices anticommute
    gens = ((1, (1, 3, 5)), (1, (1, 3, 6)), (1, (2, 4, 6)))
    report = validate_generators(IdempotentSpec(sig6, gens))
    assert not report.ok
    assert any("anticommute" in v for v in report.violations)


def test_generator_dependence_violation(sig6):
    # e1234 * e1256 = ±e3456: the third generator is a product of the first two
    gens = ((1, (1, 2, 3, 4)), (1, (1, 2, 5, 6)), (1, (3, 4, 5, 6)))
    report = validate_generators(IdempotentSpec(sig6, gens))
    assert not report.ok
    assert any("product of earlier generators" in v for v in report.violations)


def test_generator_count_violation(sig6):
    gens = ((1, (1, 3, 5)), (-1, (1, 4, 6)))
    report = validate_generators(IdempotentSpec(sig6, gens))
    assert not report.ok
    assert report.k == 2 and report.expected_k == 3


def test_spec_rejects_bad_shapes(sig6):
    with pytest.raises(ValueError):
        IdempotentSpec(sig6, ((2, (1, 3, 5)),))           # sign not ±1
    with pytest.raises(ValueError):
        IdempotentSpec(sig6, ((1, (3, 1)),))              # unsorted indices
    with pytest.raises(ValueError):
        IdempotentSpec(sig6, ((1, (1, 3, 9)),))           # out of range


@pytest.mark.parametrize("sign", [1.0, -1.0, Fraction(1), True, "1"])
def test_spec_signs_are_ints(sig6, sign):
    """A sign of 1.0 or Fraction(1) equals 1, but would leave a float or Fraction numerator in
    the idempotent build_idempotent stores, which the writers cannot print."""
    gens = ((sign, (1, 3, 5)), (-1, (1, 4, 6)), (-1, (2, 3, 6)))
    with pytest.raises(ValueError) as err:
        IdempotentSpec(sig6, gens)
    assert str(err.value) == f"generator sign must be +1 or -1, got {sign!r}"


# -- idempotent construction ---------------------------------------------

def test_build_idempotent_frozen_value(f6, sig6):
    assert f6 == parse(F6_CANONICAL, sig6)
    assert is_idempotent(f6)


def test_build_idempotent_all_three(f6, f7, f8):
    for f, k in ((f6, 3), (f7, 4), (f8, 4)):
        assert is_idempotent(f)
        assert f.scalar_part == Fraction(1, 2) ** k
        assert len(f) == 1 << k


def test_build_idempotent_rejects_invalid(sig6):
    with pytest.raises(GeneratorError):
        build_idempotent(IdempotentSpec(sig6, ((1, (1, 2)),)))


GENS_0_12 = ((-1, (1, 6, 11, 12)), (-1, (1, 2, 3, 7, 8, 9, 10, 11)), (1, (1, 2, 8, 11)),
             (-1, (3, 4, 7, 8, 9, 10, 11, 12)), (-1, (3, 4, 5, 8, 9, 11, 12)))


def test_valid_generators_build_no_blade_names():
    blade_table.cache_clear()  # a cold n = 12 table, as in a fresh process
    f = build_idempotent(IdempotentSpec(Signature(0, 12), GENS_0_12))
    assert len(f) == 32 and "text" not in vars(blade_table(12))
    report = validate_generators(IdempotentSpec(Signature(0, 12), GENS_0_12[:4] + GENS_0_12[:1]))
    assert report.violations == ("generator e{1,6,11,12} is a product of earlier generators",)
    assert "text" in vars(blade_table(12))


VIOLATIONS = ("anticommute", "squares to -1", "product of earlier generators", "expected")


@pytest.mark.parametrize("n", range(1, 13))
def test_generator_checks_match_the_product_reference(n):
    """validate_generators against blade products, on sets that break each condition or none;
    build_idempotent raises with the same violations, one per argument."""
    rng = random.Random(2300 + n)
    kinds = set()
    for p in range(n + 1):
        sig = Signature(p, n - p)
        valid = [blade_mask(t, n) for _, t in _random_spec(sig, rng).generators]
        for _ in range(6):
            masks = list(valid)
            for _ in range(rng.randint(0, 3)):
                edit, at = rng.randrange(4), rng.randrange(len(masks) + 1)
                if edit == 0 and masks:  # a product of two earlier ones, or the scalar
                    masks.insert(at, rng.choice(masks[:at] or [0]) ^ rng.choice(masks[:at] or [0]))
                elif edit == 1 and masks:
                    masks.pop(at - 1)
                else:
                    masks.insert(at, rng.randrange(1, 1 << n))
            spec = IdempotentSpec(sig, tuple((rng.choice((1, -1)), mask_indices(m)) for m in masks))
            report = validate_generators(spec)
            assert report == validate_generators_reference(spec), spec
            kinds.update(kind for v in report.violations for kind in VIOLATIONS if kind in v)
            if report.ok:
                assert is_idempotent(build_idempotent(spec))
                continue
            with pytest.raises(GeneratorError) as err:
                build_idempotent(spec)
            assert err.value.args == report.violations
            assert str(err.value) == "; ".join(report.violations)
    assert kinds == set(VIOLATIONS[n == 1:])  # no two blades anticommute at n = 1


@pytest.mark.parametrize("n", range(1, 13))
def test_parity_identities_match_blade_products(n):
    """The square and commutation parities of _violations, and _expand's term sign, against
    blade_product_masks: every blade and blade pair for n <= 6, a sample above."""
    rng = random.Random(n)
    for p in range(n + 1):
        sig = Signature(p, n - p)
        if n <= 6:
            blades, pairs = range(1 << n), product(range(1, 1 << n), repeat=2)
        else:
            blades = rng.sample(range(1 << n), 100)
            pairs = [(rng.randrange(1, 1 << n), rng.randrange(1, 1 << n)) for _ in range(400)]
        for a in blades:
            squares = blade_product_masks(a, a, sig)[0]
            found = ideals._violations(sig, (a,))[1]
            assert (f"generator {blade_table(n).text[a]} squares to -1" in found) == (squares < 0)
        for a, b in pairs:
            if a == b:
                continue
            anticommute = blade_product_masks(a, b, sig) != blade_product_masks(b, a, sig)
            assert any("anticommute" in v for v in ideals._violations(sig, (a, b))[1]) == anticommute
            assert ideals._expand(sig, (1, 1), (a, b))._terms[a ^ b] == blade_product_masks(a, b, sig)[0]


def test_sub_idempotent_chain(f6, sig6):
    half = (Multivector.scalar(sig6, 1) + Multivector.blade(sig6, (1, 3, 5))).scale(
        Fraction(1, 2))
    assert is_idempotent(half)
    f, e = ({mask_indices(m): c for m, c in x.term_map().items()} for x in (f6, half))
    assert is_sub_idempotent(f, e, sig6.p)
    assert not is_sub_idempotent(e, f, sig6.p)


# -- ideals ----------------------------------------------------------------

def test_ideal_dimensions_frozen(f6, f7, f8):
    assert left_ideal_basis(f6).dimension == 8
    assert left_ideal_basis(f7).dimension == 8
    assert left_ideal_basis(f8).dimension == 16


def test_ideal_rank_against_dense_oracle(f6, f7):
    for f in (f6, f7):
        n = f.sig.n
        rows = []
        for mask in range(1 << n):
            b = Multivector(f.sig, {mask: Fraction(1)})
            rows.append({mask_indices(m): c for m, c in (b * f).terms()})
        assert dense_rank(rows, n) == left_ideal_basis(f).dimension


def test_ideal_membership(f6, sig6):
    ideal = left_ideal_basis(f6)
    assert ideal.contains(f6)
    assert ideal.contains(Multivector.blade(sig6, (2, 4)) * f6)
    assert not ideal.contains(Multivector.blade(sig6, (1,)))
    assert ideal.contains(Multivector.zero(sig6))


@pytest.mark.parametrize("sig", [Signature(1, 5), Signature(0, 7), Signature(6, 0)])
def test_ideal_membership_refuses_another_signature(f6, sig):
    with pytest.raises(ValueError, match=rf"^signature mismatch: {re.escape(str(sig))} vs "):
        left_ideal_basis(f6).contains(Multivector.blade(sig, (1,)))


@settings(max_examples=50)
@given(multivectors(Signature(0, 6), 5))
def test_ideal_absorbs_left_multiplication(x):
    f = build_idempotent(IdempotentSpec(Signature(0, 6), GENS6))
    ideal = left_ideal_basis(f)
    assert ideal.contains(x * f)


def test_left_ideal_of_zero_rejected(sig6):
    with pytest.raises(ValueError):
        left_ideal_basis(Multivector.zero(sig6))


def _random_idempotent(sig, rng):
    """A primitive idempotent of sig from a seeded greedy generator search."""
    return build_idempotent(_random_spec(sig, rng))


def _random_spec(sig, rng):
    """A valid generator set of sig, with random signs, from a seeded greedy search."""
    k = sig.q - radon_hurwitz(sig.q - sig.p)
    blades = list(range(1, 1 << sig.n))
    while True:
        rng.shuffle(blades)
        chosen = []
        for m in blades:
            if len(chosen) == k:
                break
            if (blade_square_sign(mask_indices(m), sig) == 1
                    and all(blade_product_masks(m, c, sig) == blade_product_masks(c, m, sig)
                            for c in chosen)
                    and len([*ideals._f2_fresh(chosen + [m])]) == len(chosen) + 1):
                chosen.append(m)
        if len(chosen) == k:
            gens = tuple((rng.choice((1, -1)), mask_indices(m)) for m in chosen)
            return IdempotentSpec(sig, gens)


def test_signed_permutation_rows_match_products(f6, f7, f8):
    rng = random.Random(2309)
    idempotents = [f6, f7, f8]
    for n in range(2, 11):  # one mixed signature per dimension
        p = rng.randint(1, n - 1)
        idempotents.append(_random_idempotent(Signature(p, n - p), rng))
    for f in idempotents:
        n = f.sig.n
        den, rows = f._den, ideals._signed_rows(f.sig, f._terms.items(), range(1 << n))
        assert den == lcm(*(c.denominator for c in f.term_map().values()))
        terms = {mask_indices(m): c for m, c in f.term_map().items()}
        for mask, row in zip(range(1 << n), rows):
            # the reference product, which shares no sign rule with the rows
            product = multiply_dicts({mask_indices(mask): 1}, terms, f.sig.p)
            assert row == {blade_mask(ind, n): c * den for ind, c in product.items()}, (f.sig, mask)
            assert all(type(c) is int for c in row.values())


def test_left_ideal_basis_recomputes_each_call(f6, f7, sig6):
    again = build_idempotent(IdempotentSpec(sig6, GENS6))
    first = left_ideal_basis(f6)
    assert again is not f6 and left_ideal_basis(again) == first
    assert left_ideal_basis(f6) is not first  # no memo: equal by value, built afresh
    assert not hasattr(left_ideal_basis, "cache_info")

    cands = [()] + [(i,) for i in range(1, 8)]
    ideal = left_ideal_basis(f7)
    assert coset_basis(f7, cands) == cands
    assert is_primitive(f7) and is_primitive(f7)
    assert ideal.dimension == len(ideal.basis) == 8

    for _ in range(2):
        with pytest.raises(ValueError, match="^left ideal of the zero element is trivial$"):
            left_ideal_basis(Multivector.zero(sig6))
        with pytest.raises(ValueError, match="^left ideal of the zero element is trivial$"):
            coset_basis(Multivector.zero(sig6), cands)


# -- the F_2 coset certificate against elimination ------------------------------

def _eliminated(f):
    """left_ideal_basis(f) as elimination over every blade computes it, with the
    basis multiplied out: the reference the certified path must reproduce."""
    order = blade_table(f.sig.n).order
    echelon, kept = ideals._eliminate(f, order)
    basis = tuple(Multivector(f.sig, {order[pos]: 1}) * f for pos in kept)
    return ideals.IdealBasis(f, echelon.rank, basis, echelon)


def _eliminated_cosets(f, candidates):
    """The candidates elimination keeps, in order, and the rank they reach."""
    masks = [blade_mask(c, f.sig.n) for c in candidates]
    echelon, kept = ideals._eliminate(f, masks)
    return [mask_indices(masks[pos]) for pos in kept], echelon.rank


def _certified(f):
    """Whether f passes the engine's certificate, checked against the row-by-row oracle."""
    got = ideals._f2_signs(f) is not None
    as_dict = {mask_indices(m): c for m, c in f.term_map().items()}
    assert got == f2_coset_certified(as_dict, f.sig.p), f
    return got


def _assert_same_ideal(f, rng):
    """The certified or fallback ideal of f against elimination: basis, coset
    bases of shuffled candidate lists, and contains against elimination's RowBasis."""
    n = f.sig.n
    idempotent = is_idempotent(f)
    ideal = left_ideal_basis(f)
    want = _eliminated(f)
    assert isinstance(want._rows, RowBasis)
    assert ideal.dimension == want.dimension
    assert ideal.basis == want.basis  # element for element, in order
    order = [mask_indices(m) for m in blade_table(n).order]
    assert ideal.basis == tuple(Multivector(f.sig, {blade_mask(t, n): 1}) * f
                                for t in coset_basis(f, order))
    for _ in range(3):
        cands = rng.sample(order, rng.randint(1, len(order)))
        cands += rng.sample(cands, min(2, len(cands)))  # repeats are never kept twice
        kept, rank = _eliminated_cosets(f, cands)
        if rank == want.dimension:
            assert coset_basis(f, cands) == kept
        else:
            with pytest.raises(ValueError, match=rf"\(got rank {rank} of {want.dimension}\)$"):
                coset_basis(f, cands)
    for x in ideal.basis:
        assert ideal.contains(x) and want._rows.contains(x._terms)
    for _ in range(4):
        b = Multivector(f.sig, {rng.randrange(1 << n): Fraction(rng.randint(-5, 5) or 1,
                                                                   rng.randint(1, 4))})
        inside = b * f + ideal.basis[rng.randrange(ideal.dimension)]
        outside = inside + Multivector(f.sig, {rng.randrange(1 << n): Fraction(1, 3)})
        for x in (inside, outside):
            assert ideal.contains(x) == want._rows.contains(x._terms)
            if idempotent:  # x is in A f exactly when x f = x
                assert ideal.contains(x) == (x * f == x)
        assert ideal.contains(inside)
    return ideal


def _conjugate(f, b):
    """u f u^-1 with u = 2 + e_b, where u^-1 = (2 - e_b) / (4 - e_b^2)."""
    e = Multivector(f.sig, {b: 1})
    one = Multivector.scalar(f.sig, 1)
    square = (e * e).scalar_part
    return (one.scale(2) + e) * f * (one.scale(2) - e).scale(Fraction(1, 4 - square))


def _conjugates(seed):
    """(f, u f u^-1) pairs, u = 2 + e_b with the conjugate != f, one per signature drawn."""
    rng = random.Random(seed)
    pairs = []
    for n in range(2, 9):
        p = rng.randint(0, n)
        f = _random_idempotent(Signature(p, n - p), rng)
        for b in rng.sample(range(1, 1 << n), 1 << n - 1):
            g = _conjugate(f, b)
            if g != f:
                pairs.append((f, g))
                break
    return pairs


def test_certificate_matches_elimination_on_random_idempotents():
    rng = random.Random(1998)
    checked = 0
    for n in range(2, 11):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            f = _random_idempotent(sig, rng)
            assert _certified(f), sig
            ideal = _assert_same_ideal(f, rng)
            assert ideal.dimension == (1 << n) * f.scalar_part  # trace identity
            assert ideal.dimension == classify(sig).minimal_ideal_dim
            checked += 1
    assert checked == sum(n + 1 for n in range(2, 11))


def test_conjugated_idempotents_take_the_fallback():
    rng = random.Random(2001)
    pairs = _conjugates(2001)
    for f, g in pairs:
        assert is_idempotent(g) and not _certified(g), g.sig
        ideal = _assert_same_ideal(g, rng)
        assert isinstance(ideal._rows, RowBasis)  # the fallback eliminates
        assert ideal.dimension == (1 << g.sig.n) * g.scalar_part == left_ideal_basis(f).dimension
    assert len(pairs) >= 6


# (text, signature, ideal dimension or None): certified non-idempotents, then rejected ones
NON_IDEMPOTENTS_CERTIFIED = [("1 + e1", Signature(1, 0), 1), ("2 - 2*e12", Signature(1, 1), 2),
                             (F6_CANONICAL.replace("1/8", "3/8"), Signature(0, 6), 8)]
NON_IDEMPOTENTS_REJECTED = [("e1", Signature(1, 0), 2), ("1 + 2*e1", Signature(1, 0), 2),
                            ("1 + e12", Signature(0, 2), 4), ("2 - 2*e12", Signature(2, 0), 4),
                            ("1 + e1 + e2", Signature(2, 0), None),
                            # supp is a subspace, but e135 and e246 anticommute
                            ("3 + 3*e135 - 3*e246 + 3*e123456", Signature(0, 6), None)]


def test_certificate_on_non_idempotents():
    rng = random.Random(115)
    certified = NON_IDEMPOTENTS_CERTIFIED
    for text, sig, dim in certified + NON_IDEMPOTENTS_REJECTED:
        f = parse(text, sig)
        assert _certified(f) == ((text, sig, dim) in certified), text
        assert not is_idempotent(f)
        ideal = _assert_same_ideal(f, rng)
        if dim is not None:
            assert ideal.dimension == dim, text
        if (text, sig, dim) in certified:
            assert ideal.dimension == (1 << sig.n) // len(f)


def _mutants(f, rng):
    """f with one term times 3, one sign flipped, one term dropped, and one term of
    coefficient <f>_0 added off supp f (off its span, when f is certified)."""
    terms = f.term_map()
    m = rng.choice(list(terms))
    out = [dict(terms) for _ in range(4)]
    out[0][m] *= 3
    out[1][m] = -terms[m]
    del out[2][m]
    out[3][rng.choice([b for b in range(1 << f.sig.n) if b not in terms])] = f.scalar_part
    return [Multivector(f.sig, t) for t in out]


def test_f2_signs_accepts_what_the_row_oracle_accepts():
    rng = random.Random(1971)
    seen = {True: 0, False: 0}
    idempotents = [_random_idempotent(Signature(p, n - p), rng)
                   for n in range(2, 11) for p in range(n + 1)]
    elements = idempotents + [g for _, g in _conjugates(1971)]
    elements += [parse(text, sig)
                 for text, sig, _ in NON_IDEMPOTENTS_CERTIFIED + NON_IDEMPOTENTS_REJECTED]
    elements += [mutant for f in idempotents for mutant in _mutants(f, rng)]
    for f in elements:
        certified = _certified(f)
        seen[certified] += 1
        signs = ideals._f2_signs(f)
        if certified:  # s_t = f_t / <f>_0 over supp f
            assert signs == {m: c / f.scalar_part for m, c in f.term_map().items()}
    assert seen[True] >= 70 and seen[False] >= 150


def test_certificate_reads_one_row_per_dimension_of_the_span(monkeypatch):
    """A row e_t * f is read only for a t outside the span of the t's read before it:
    log2 len(f) rows for a certified f, at most n for any f, and the 4,096-term all-ones
    element of R_{0,12} is refused after at most 12 rows, not one row per term."""
    rng = random.Random(1971)
    idempotents = [_fresh(_random_idempotent(Signature(p, n - p), rng))
                   for n in range(2, 11) for p in range(n + 1)]
    elements = idempotents + [g for _, g in _conjugates(1971)]
    elements += [parse(text, sig)
                 for text, sig, _ in NON_IDEMPOTENTS_CERTIFIED + NON_IDEMPOTENTS_REJECTED]
    elements += [mutant for f in idempotents for mutant in _mutants(f, rng)]
    elements.append(Multivector(Signature(0, 12), dict.fromkeys(range(1 << 12), 1)))
    read = []
    signed_rows = ideals._signed_rows

    def counted(sig, terms, masks):
        for row in signed_rows(sig, terms, masks):
            read.append(row)
            yield row

    monkeypatch.setattr(ideals, "_signed_rows", counted)
    certified = 0
    for f in elements:
        read.clear()
        signs = ideals._f2_certificate(f)
        assert len(read) <= f.sig.n, f
        if signs is not None:
            assert 1 << len(read) == len(f), f
            certified += 1
    assert certified >= 50 and signs is None  # the all-ones element comes last


def test_c13_eliminates_over_every_blade(monkeypatch):
    calls = []
    add = RowBasis.add
    monkeypatch.setattr(RowBasis, "add", lambda self, row: calls.append(1) or add(self, row))
    result = run_claim("C13")
    assert result.status == "PASS"
    assert len(calls) == (1 << 6) + (1 << 7) + (1 << 8)


def test_ideal_basis_elements_are_blade_products(f6):
    ideal = left_ideal_basis(f6)
    products = {Multivector(f6.sig, {m: 1}) * f6 for m in blade_table(6).order}
    assert len(ideal.basis) == ideal.dimension
    assert all(b in products and ideal.contains(b) for b in ideal.basis)


def test_coset_basis_stated_representatives(f6, f7):
    cands6 = [(), (2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)]
    assert coset_basis(f6, cands6) == cands6
    assert all(r is c for r, c in zip(coset_basis(f6, cands6), cands6))  # the caller's own tuples
    cands7 = [()] + [(i,) for i in range(1, 8)]
    assert coset_basis(f7, cands7) == cands7


def test_coset_basis_insufficient_candidates(f6):
    with pytest.raises(ValueError, match="insufficient"):
        coset_basis(f6, [(), (2,), (3,), (5,)])


# -- the signed group expansion and the candidate lookup -----------------------

def _oracle_expansion(spec):
    """prod (1 + s_i e_{t_i}) / 2 multiplied out by tests/oracles.py, as {mask: Fraction}."""
    half = Fraction(1, 2)
    out = {(): Fraction(1)}
    for s, t in spec.generators:
        out = multiply_dicts(out, {(): half, t: s * half}, spec.sig.p)
    return {blade_mask(ind, spec.sig.n): c for ind, c in out.items()}


def _assert_expands_its_factors(spec, f):
    want = Multivector(spec.sig, _oracle_expansion(spec))
    assert f.term_map() == want.term_map(), spec
    assert f == want and hash(f) == hash(want)
    assert all(type(c) is Fraction and c for c in f.term_map().values())
    assert len(f) == 1 << len(spec.generators)  # 2^k distinct blades, no like terms


def test_build_idempotent_expands_the_signed_group():
    rng = random.Random(1018)
    mixed = 0
    for n in range(2, 11):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            blades = tuple(t for _, t in _random_spec(sig, rng).generators)
            k = len(blades)
            signs = ([1, -1] + [rng.choice((1, -1)) for _ in range(k - 2)])[:k]
            rng.shuffle(signs)
            spec = IdempotentSpec(sig, tuple(zip(signs, blades)))
            _assert_expands_its_factors(spec, build_idempotent(spec))
            mixed += len(set(signs)) == 2
            pieces = decompose_algebra(spec)
            assert len(pieces) == 1 << k
            for piece_signs, piece in zip(product((1, -1), repeat=k), pieces):
                _assert_expands_its_factors(IdempotentSpec(sig, tuple(zip(piece_signs, blades))),
                                            piece)
    assert mixed >= 40


Index = IntEnum("Index", {f"E{i}": i for i in range(1, 7)})


def _outcome(f, candidates):
    """coset_basis(f, candidates): the kept tuples, or the error type and text."""
    try:
        return coset_basis(f, candidates)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def test_coset_basis_lookup_matches_blade_mask(f6, monkeypatch):
    order = list(blade_table(6).index)
    g = _conjugate(f6, blade_mask((1, 2), 6))
    assert ideals._f2_signs(g) is None
    cases = [
        order, order[::-1], [list(t) for t in order], [(), (2,), (3,), (5,)], [],
        [(True,)], [(1.0,)], [(Fraction(1),)], [(2, 1)], [(1, 1)], [(7,)], [(0,)], [(-1,)],
        ["12"], [5], [tuple(Index(i) for i in t) for t in order],
        order[:10] + [(3, 2)] + order[10:], order[:5] + [(1, True)] + order[5:],
        order + [(6, 7)],
    ]
    for f in (f6, g):
        for cands in cases:
            fast = _outcome(f, cands)
            assert _outcome(f, (iter(t) for t in cands)) == fast  # generators of generators
            with monkeypatch.context() as m:
                m.setattr(ideals, "blade_table",  # no lookup hits: blade_mask reads every candidate
                          lambda n: SimpleNamespace(index={}, order=blade_table(n).order))
                assert _outcome(f, cands) == fast, cands
    assert _outcome(f6, order[:10] + [(3, 2)] + order[10:]) == (
        ValueError, "blade indices must be strictly increasing, got index 2")
    assert _outcome(f6, [(True,)]) == (ValueError, "blade index True is not an integer")
    reps = coset_basis(f6, [tuple(Index(i) for i in t) for t in order])
    assert reps == coset_basis(f6, order) and len(reps) == 8
    assert {type(i) for t in reps for i in t} == {int}  # rebuilt from the masks


def test_non_multivector_arguments_raise_type_error(f6):
    form = ExteriorForm.blade(6, (1,))
    with pytest.raises(TypeError, match="^left_ideal_basis needs a Multivector, got ExteriorForm$"):
        left_ideal_basis(form)
    with pytest.raises(TypeError, match="^coset_basis needs a Multivector, got ExteriorForm$"):
        coset_basis(form, [()])
    ideal = left_ideal_basis(f6)
    for x in (3, form):
        with pytest.raises(TypeError,
                           match=f"^IdealBasis.contains needs a Multivector, got {type(x).__name__}$"):
            ideal.contains(x)


# -- membership coset by coset and idempotency from <f>_0 ------------------------

def test_coset_membership_matches_elimination_and_products(f6, f7, f8):
    rng = random.Random(1034)
    fs = [f6, f7, f8] + [_random_idempotent(Signature(p, n - p), rng)
                         for n, p in ((4, 1), (5, 3), (7, 2), (9, 4))]
    dens = (1, 2, 4, 8, 3, 9)
    for f in fs:
        n = f.sig.n
        ideal, want = left_ideal_basis(f), _eliminated(f)
        assert len(f) > 1 and not isinstance(ideal._rows, RowBasis)

        def verdicts(x):
            return ideal.contains(x), want._rows.contains(x._terms), x * f == x

        assert verdicts(Multivector.zero(f.sig)) == (True, True, True)
        reps = coset_basis(f, [mask_indices(m) for m in blade_table(n).order])
        for _ in range(12):
            x = Multivector.zero(f.sig)
            for t in rng.sample(reps, rng.randint(1, min(3, len(reps)))):
                coef = Fraction(rng.choice((-7, -2, -1, 1, 2, 5)), rng.choice(dens))
                x = x + Multivector(f.sig, {blade_mask(t, n): coef}) * f
            assert verdicts(x) == (True, True, True)
            terms = x.term_map()
            m = rng.choice(list(terms))
            extra = rng.choice([b for b in range(1 << n) if b not in terms])
            wrong = [dict(terms) for _ in range(4)]
            wrong[0][extra] = Fraction(1, rng.choice(dens))  # one extra term
            del wrong[1][m]  # one dropped term: partial coset support
            wrong[2][m] = -terms[m]  # one flipped sign
            wrong[3][m] = terms[m] * rng.choice((2, 3, Fraction(1, 3)))  # one rescaled term
            for bad in wrong:
                assert verdicts(Multivector(f.sig, bad)) == (False, False, False), (f, bad)


def test_is_idempotent_reads_the_scalar_part(f6, monkeypatch):
    rng = random.Random(1066)
    idempotents = [_random_idempotent(Signature(p, n - p), rng) for n in range(1, 9)
                   for p in range(0, n + 1, 2)]
    others = [f.scale(s) for f in idempotents[:12] for s in (3, Fraction(-1, 2))]
    others += [parse("1 + e1", Signature(1, 0)), parse("2 - 2*e12", Signature(1, 1)),
               f6.scale(3)]
    conjugates = [g for _, g in _conjugates(1066)]
    products = []
    product = algebra.geometric_product
    monkeypatch.setattr(algebra, "geometric_product",
                        lambda x, y: products.append(1) or product(x, y))
    for want, xs in ((True, idempotents), (False, others)):
        for x in xs:
            assert ideals._f2_signs(x) is not None
            assert is_idempotent(x) is want
            assert not products  # read off len(x) <x>_0, with no product
            assert (x * x == x) is want, x
            products.clear()
    for g in conjugates:
        assert ideals._f2_signs(g) is None
        assert is_idempotent(g) and len(products) == 1  # the product path
        products.clear()
    assert len(conjugates) >= 6
    assert is_idempotent(Multivector.zero(f6.sig)) and products


def test_certified_path_runs_no_elimination_and_no_product(monkeypatch):
    rng = random.Random(1224)
    cases = []
    for n in range(2, 11):
        for p in (0, n // 2):
            f = _random_idempotent(Signature(p, n - p), rng)
            order = [mask_indices(m) for m in blade_table(n).order]
            queries = [Multivector(f.sig, {rng.randrange(1 << n): 1}) * f for _ in range(4)]
            cases.append((f, order, _eliminated(f), _eliminated_cosets(f, order)[0], queries))

    def forbidden(*args):
        raise AssertionError("the certified path ran elimination or a product")

    monkeypatch.setattr(RowBasis, "add", forbidden)
    monkeypatch.setattr(RowBasis, "contains", forbidden)
    monkeypatch.setattr(algebra, "geometric_product", forbidden)
    for f, order, want, reps, queries in cases:
        ideal = left_ideal_basis(f)
        assert ideal == want and ideal.basis == want.basis
        assert coset_basis(f, order) == reps
        assert is_primitive(f) and is_idempotent(f)
        assert all(ideal.contains(x) for x in queries + list(want.basis))
        assert ideal.contains(Multivector.scalar(f.sig, 1)) == (len(f) == 1)


# -- the certificate recorded by build_idempotent, and the basis built on first read --

def _fresh(f):
    """f rebuilt from its term map: equal to f, with no recorded certificate."""
    g = Multivector(f.sig, f.term_map())
    assert g == f and not hasattr(g, "_f2")
    return g


def test_recorded_certificate_matches_the_derived_one():
    rng = random.Random(1212)
    pieces = 0
    for n in range(2, 11):
        for p in range(n + 1):
            spec = _random_spec(Signature(p, n - p), rng)
            order = [mask_indices(m) for m in blade_table(n).order]
            for f in [build_idempotent(spec)] + decompose_algebra(spec):
                g = _fresh(f)
                assert f._f2 is not None and f._f2 == ideals._f2_signs(g) == g._f2, f
                ideal, again = left_ideal_basis(f), left_ideal_basis(g)
                assert ideal == again and ideal.basis == again.basis
                assert coset_basis(f, order) == coset_basis(g, order)
                assert is_primitive(f) and is_primitive(g)
                x = Multivector(f.sig, {rng.randrange(1 << n): Fraction(2, 3)}) * f
                y = x + Multivector(f.sig, {rng.randrange(1 << n): 1})
                assert [ideal.contains(z) for z in (x, y)] == [again.contains(z) for z in (x, y)]
                assert ideal.contains(x)
                pieces += 1
    assert pieces >= 63 * 2


def test_certificate_compares_whole_fractions():
    """A term at 2 <f>_0 has <f>_0's numerator and another denominator: not certified."""
    rng = random.Random(1717)
    for n in range(2, 9):
        f = _random_idempotent(Signature(n // 2, n - n // 2), rng)
        terms = f.term_map()
        for m in [m for m in terms if m][:2]:
            g = Multivector(f.sig, terms | {m: 2 * terms[m]})
            assert abs(g.term_map()[m].numerator) == f.scalar_part.numerator
            assert ideals._f2_signs(g) is None and not _certified(g)


def test_certificate_is_derived_at_most_once_per_element(monkeypatch):
    rng = random.Random(1313)
    calls = []
    derive = ideals._f2_certificate
    monkeypatch.setattr(ideals, "_f2_certificate", lambda f: calls.append(f) or derive(f))
    f, g = _conjugates(1313)[0]
    for x in (_fresh(f), g):
        order = [mask_indices(m) for m in blade_table(x.sig.n).order]
        for _ in range(2):
            left_ideal_basis(x)
            coset_basis(x, order)
            is_primitive(x)
        assert calls == [x]
        calls.clear()
    assert g._f2 is None  # a conjugate is not certified, and that is recorded too
    f = _random_idempotent(Signature(2, 5), rng)
    left_ideal_basis(f)
    is_primitive(f)
    assert not calls  # build_idempotent recorded it


def test_copies_and_pickles_carry_no_certificate():
    f = build_idempotent(IdempotentSpec(Signature(0, 6), GENS6))
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f and hash(g) == hash(f) and g is not f
        assert not hasattr(g, "_f2")
        assert left_ideal_basis(g) == left_ideal_basis(f)
        assert g._f2 == f._f2 and g._f2 is not f._f2


def test_recorded_signs_cannot_be_changed_through_the_public_api():
    f = build_idempotent(IdempotentSpec(Signature(0, 7), GENS7))
    signs = dict(f._f2)
    for value in ({}, None, {0: -1}):
        with pytest.raises(AttributeError):
            f._f2 = value
        with pytest.raises(AttributeError):
            setattr(f, "_f2", value)
    with pytest.raises(AttributeError):
        del f._f2
    terms = f.term_map()
    terms[0] = Fraction(-1)
    terms.clear()
    ideal = left_ideal_basis(f)
    reps = coset_basis(f, [mask_indices(m) for m in blade_table(7).order])
    reps.clear()
    results = [-f, f.scale(2), f + f, f - f, f * f, f.reverse(), f.grade(0), *ideal.basis]
    assert all(not hasattr(x, "_f2") for x in results)
    assert f._f2 == signs and ideals._f2_signs(f) == signs
    assert f == build_idempotent(IdempotentSpec(Signature(0, 7), GENS7))


def test_built_idempotent_needs_no_derived_certificate(monkeypatch):
    rng = random.Random(1414)
    cases = []
    for n in range(2, 11):
        sig = Signature(n // 3, n - n // 3)
        spec = _random_spec(sig, rng)
        x = Multivector(sig, {rng.randrange(1 << n): Fraction(3, 2)})
        cases.append((spec, x, _eliminated(build_idempotent(spec))))

    def derive(f):
        raise AssertionError("the certificate was derived from the coefficients")

    monkeypatch.setattr(ideals, "_f2_certificate", derive)
    for spec, x, want in cases:
        for f in [build_idempotent(spec)] + decompose_algebra(spec)[-1:]:
            n = f.sig.n
            ideal = left_ideal_basis(f)
            assert ideal.dimension == (1 << n) // len(f)
            reps = coset_basis(f, [mask_indices(m) for m in blade_table(n).order])
            assert len(reps) == ideal.dimension and is_primitive(f) and is_idempotent(f)
            assert ideal.contains(x * f) and ideal.contains(f)
            y = f + Multivector(f.sig, {(1 << n) - 1: 1})
            assert ideal.contains(y) == (y * f == y)
        assert left_ideal_basis(build_idempotent(spec)) == want


def test_left_ideal_basis_builds_elements_on_first_read(monkeypatch):
    rng = random.Random(1515)
    rows = []
    signed_rows = ideals._signed_rows
    monkeypatch.setattr(ideals, "_signed_rows", lambda *args: rows.append(1) or signed_rows(*args))
    certified = [_random_idempotent(Signature(p, n - p), rng) for n, p in ((3, 1), (6, 0), (8, 4))]
    conjugated = [g for _, g in _conjugates(1515)]
    for lazy, f in [(True, f) for f in certified] + [(False, g) for g in conjugated]:
        want = _eliminated(f)  # the elements multiplied out by geometric products
        rows.clear()
        ideal = left_ideal_basis(f)
        assert ideal.contains(want.basis[-1]) and ideal.dimension == want.dimension
        assert (not rows) == lazy  # a certified f: nothing built until basis is read
        rows.clear()
        assert ideal.basis == want.basis and ideal.basis is ideal.basis
        assert len(rows) == lazy  # built once, on the first read
        assert ideal == want and hash(ideal) == hash(want) and repr(ideal) == repr(want)
    want = _eliminated(certified[1])
    for other in (copy.copy(left_ideal_basis(certified[1])),
                  pickle.loads(pickle.dumps(left_ideal_basis(certified[1])))):
        assert other == want and other.basis == want.basis
    with pytest.raises(AttributeError, match="has no attribute 'bases'"):
        left_ideal_basis(certified[0]).bases


# -- classification --------------------------------------------------------

def test_classification_frozen_cases():
    assert str(classify(Signature(0, 6))) == "M_8(R)"
    assert str(classify(Signature(0, 7))) == "M_8(R) ⊕ M_8(R)"
    assert str(classify(Signature(0, 8))) == "M_16(R)"
    assert str(classify(Signature(0, 3))) == "M_1(H) ⊕ M_1(H)"
    assert classify(Signature(0, 3)).minimal_ideal_dim == 4
    assert str(classify(Signature(3, 0))) == "M_2(C)"


def test_classify_is_built_once_per_signature():
    sigs = [Signature(p, n - p) for n in range(1, 13) for p in range(n + 1)]
    assert len(sigs) == 90
    ideals._classify.cache_clear()
    for sig in sigs + sigs[::-1] + [Signature(sig.p, sig.q) for sig in sigs]:
        assert classify(sig) == ideals._classify.__wrapped__(sig.p, sig.q), sig  # unmemoised
    assert classify(Signature(1, 5)) is classify(Signature(1, 5)) != classify(Signature(0, 6))
    assert ideals._classify.cache_info().currsize == 90


def test_classification_total_dimension_law():
    ring_dim = {"R": 1, "C": 2, "H": 4}
    for n in range(1, 13):
        for p in range(n + 1):
            cls = classify(Signature(p, n - p))
            total = cls.summands * cls.matrix_size ** 2 * ring_dim[cls.ring]
            assert total == 1 << n, (p, n - p)


def test_classification_consistent_with_radon_hurwitz():
    # the minimal ideal dimension from the matrix type equals 2^(n-k)
    # with k = q - r_{q-p} commuting generators, on all 90 signatures
    for n in range(1, 13):
        for p in range(n + 1):
            q = n - p
            k = q - radon_hurwitz(q - p)
            cls = classify(Signature(p, q))
            assert cls.minimal_ideal_dim == 1 << (n - k), (p, q)


def test_primitivity(f6, f7, f8, sig6):
    assert is_primitive(f6) and is_primitive(f7) and is_primitive(f8)
    half = (Multivector.scalar(sig6, 1) + Multivector.blade(sig6, (1, 3, 5))).scale(
        Fraction(1, 2))
    assert not is_primitive(half)           # ideal too large
    assert not is_primitive(Multivector.zero(sig6))
    assert not is_primitive(Multivector.blade(sig6, (1,)))  # not an idempotent


def test_is_primitive_trace_identity_matches_elimination(monkeypatch):
    rng = random.Random(2027)
    cases = []
    for n in range(2, 9):
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        spec = _random_spec(sig, rng)
        f = build_idempotent(spec)
        pieces = decompose_algebra(spec)
        cases += [f, _conjugate(f, rng.randrange(1, 1 << n)), f.scale(2),
                  f + Multivector(sig, {rng.randrange(1, 1 << n): 1})]
        if len(pieces) > 1:
            cases.append(pieces[0] + pieces[-1])  # idempotent, twice the minimal ideal
    primitive = 0
    monkeypatch.setattr(ideals, "left_ideal_basis", None)  # is_primitive needs no elimination
    for f in cases:
        n = f.sig.n
        rank = ideals._eliminate(f, blade_table(n).order)[0].rank
        idempotent = is_idempotent(f)
        if idempotent:
            assert rank == (1 << n) * f.scalar_part  # the trace of x -> x*f
        want = idempotent and rank == classify(f.sig).minimal_ideal_dim
        assert is_primitive(f) == want, f
        primitive += want
    assert primitive >= 14 and len(cases) - primitive >= 14


# -- decomposition -----------------------------------------------------------

def test_decompose_six_dimensional(sig6):
    pieces = decompose_algebra(IdempotentSpec(sig6, GENS6))
    assert len(pieces) == 8
    total = Multivector.zero(sig6)
    for i, piece in enumerate(pieces):
        assert is_idempotent(piece)
        assert is_primitive(piece)
        total = total + piece
        for other in pieces[i + 1:]:
            assert is_orthogonal(piece, other)
    assert total == Multivector.scalar(sig6, 1)
    all_plus = IdempotentSpec(sig6, tuple((1, t) for _, t in GENS6))
    assert pieces[0] == build_idempotent(all_plus)
    assert build_idempotent(IdempotentSpec(sig6, GENS6)) in pieces


def test_decompose_rejects_invalid(sig6):
    with pytest.raises(GeneratorError):
        decompose_algebra(IdempotentSpec(sig6, ((1, (1, 2)),)))


def test_decompose_validates_the_generators_once(sig8, monkeypatch):
    calls = []
    violations = ideals._violations
    monkeypatch.setattr(ideals, "_violations",
                        lambda sig, masks: calls.append((sig, masks)) or violations(sig, masks))
    spec = IdempotentSpec(sig8, GENS8)
    pieces = decompose_algebra(spec)
    assert calls == [(sig8, spec.masks())]
    blades = [t for _, t in GENS8]
    for signs, piece in zip(product((1, -1), repeat=len(blades)), pieces, strict=True):
        assert piece == build_idempotent(IdempotentSpec(sig8, tuple(zip(signs, blades))))
        assert piece._f2 == ideals._f2_certificate(piece)  # recorded, as build_idempotent does
    with pytest.raises(GeneratorError):
        decompose_algebra(IdempotentSpec(sig8, GENS8[:3]))


# -- exact linear algebra helpers --------------------------------------------
#
# linalg works over Z: each rational row is scaled by the lcm of its
# denominators before it goes in, so a k x k leading minor comes out scaled
# by the product of the first k row lcms.

def _row_lcm(row) -> int:
    return lcm(*[Fraction(v).denominator for v in row])


def _integer_matrix(matrix):
    """(the rows scaled by their lcms, as ints; the k-th leading minor's scale, k = 1..n)."""
    rows = [[int(v * _row_lcm(row)) for v in row] for row in matrix]
    scales, acc = [], 1
    for row in matrix:
        acc *= _row_lcm(row)
        scales.append(acc)
    return rows, scales


def _integer_row(row: dict) -> dict:
    """A sparse rational row scaled by its lcm, zero entries dropped: what RowBasis takes."""
    den = _row_lcm(row.values())
    return {k: int(v * den) for k, v in row.items() if v}


def _check_minors(matrix):
    """linalg's leading minors and det of the scaled matrix against the rational oracle."""
    ints, scales = _integer_matrix(matrix)
    want = [m * s for m, s in zip(principal_minors([row[:] for row in matrix]), scales)]
    got = leading_principal_minors(ints)
    assert got == want and all(type(m) is int for m in got)
    if matrix:
        assert det(ints) == want[-1] and type(det(ints)) is int
    return want


def test_det_known_values():
    for matrix, want in (([[Fraction(2), Fraction(0)], [Fraction(1), Fraction(3)]], 6),
                         ([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], 0),
                         ([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]], -1),
                         ([[Fraction(1, 2), Fraction(0)], [Fraction(1, 3), Fraction(3, 4)]],
                          Fraction(3, 8))):
        assert _check_minors(matrix)[-1] == want * _integer_matrix(matrix)[1][-1]


def test_leading_principal_minors_match_oracle():
    rng = random.Random(7)
    for _ in range(20):
        size = rng.randint(1, 5)
        matrix = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)]
                  for _ in range(size)]
        _check_minors(matrix)


def test_det_bareiss_matches_oracle():
    rng = random.Random(1968)
    for size in range(1, 9):
        for trial in range(12):
            matrix = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 2**32)))
                       if rng.random() < 0.7 else Fraction(0) for _ in range(size)]
                      for _ in range(size)]
            if trial % 3 == 1:  # zero leading entry: the first step must swap rows
                matrix[0][0] = Fraction(0)
            if trial % 3 == 2 and size > 1:  # singular: one row a multiple of another
                i, j = rng.sample(range(size), 2)
                matrix[i] = [Fraction(-5, 3) * v for v in matrix[j]]
            want = _check_minors(matrix)
            if trial % 3 == 2 and size > 1:
                assert want[-1] == 0
    assert det([]) == 1
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    with pytest.raises(ValueError):
        det([[1, 2]])


def test_row_basis_integer_rows_and_caller_rows():
    rows = [{0: 0, 2: 5, 4: -10}, {0: 2, 3: 0, 5: 4}, {0: Fraction(1, 3), 5: Fraction(2, 3)},
            {0: 3, 1: 1, 5: 6}, {0: 0}, {}, {2: -1, 4: 2}]
    rows = [_integer_row(row) for row in rows]
    copies = [dict(row) for row in rows]
    basis = RowBasis()
    assert [basis.add(row) for row in rows] == [True, True, False, True, False, False, False]
    assert basis._pivots == {0: {0: 1, 5: 2}, 1: {1: 1}, 2: {2: 1, 4: -2}}
    queries = [{0: 6, 1: 2, 3: 0, 5: 12}, {0: Fraction(3, 2), 5: 3}, {2: 1, 4: 1}, {0: 0},
               {0: -3, 1: 4, 5: -6}]
    queries = [_integer_row(q) for q in queries]
    query_copies = [dict(q) for q in queries]
    assert [basis.contains(q) for q in queries] == [True, True, False, True, True]
    assert rows == copies and queries == query_copies  # reduction works on its own copies


def test_row_basis_rank_matches_dense_oracle():
    rng = random.Random(11)
    n = 4

    def random_row():
        row = {}
        for _ in range(rng.randint(0, 5)):
            den = rng.choice((1, 2 ** rng.randint(1, 6), 3, 9))
            row[mask_indices(rng.randrange(1 << n))] = Fraction(rng.randint(-3, 3), den)
        return {k: v for k, v in row.items() if v}

    def masked(row):
        return _integer_row({blade_mask(ind, n): coef for ind, coef in row.items()})

    for _ in range(25):
        rows = [random_row() for _ in range(rng.randint(1, 10))]
        basis = RowBasis()
        for row in rows:
            basis.add(masked(row))
        rank = dense_rank(rows, n)
        assert basis.rank == rank
        for lead, pivot in basis._pivots.items():  # primitive integer rows
            assert min(pivot) == lead and pivot[lead] > 0 and gcd(*pivot.values()) == 1
            assert all(type(v) is int for v in pivot.values())
        combo = {}
        for row in rows:
            c = Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
            for ind, v in row.items():
                combo[ind] = combo.get(ind, 0) + c * v
        combo = {k: v for k, v in combo.items() if v}
        probe = random_row()
        for query in rows + [combo, probe]:
            assert basis.contains(masked(query)) == (dense_rank(rows + [query], n) == rank)
