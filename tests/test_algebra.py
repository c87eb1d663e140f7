import copy
import pickle
import random
import re
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffideal import (
    ExteriorForm,
    HodgeConvention,
    Multivector,
    Signature,
    blade_square_sign,
    clifford_hodge,
    from_json,
    geometric_product,
    grade_project,
    hodge_star,
    interior_product,
    parse,
    print_canonical,
    quantize,
    reverse,
    symbol,
    to_json,
    volume_element,
    wedge,
)
from cliffideal.algebra import (MAX_DIM, BladeTable, _by_grade, blade_mask, blade_product_masks,
                               blade_table, grade_of, mask_indices)
from cliffideal.exprio import ParseError, _digits, parse_blade

from conftest import coefficients, multivectors, signatures
from oracles import clifford_blade_product, multiply_dicts, reference_to_json_obj, wedge_dicts


def _indices(mask):
    return mask_indices(mask)


def test_signature_validation():
    assert Signature(0, 6).n == 6
    assert str(Signature(1, 2)) == "R_{1,2}"
    with pytest.raises(ValueError):
        Signature(-1, 3)
    with pytest.raises(ValueError):
        Signature(0, 0)
    with pytest.raises(ValueError):
        Signature(7, 6)  # n = 13 exceeds the supported range


@pytest.mark.parametrize("p, q", [(0, 6.0), (0.5, 5.5), (Fraction(0), 6), (True, 5), (0, "6")])
def test_signature_components_are_ints(p, q):
    """An element op on Signature(0, 6.0) would fail inside 1 << n, so the record refuses it."""
    with pytest.raises(ValueError, match=r"^signature components must be integers, got \("):
        Signature(p, q)


def test_blade_mask_rejects_bad_indices():
    assert blade_mask((1, 3, 5), 6) == 0b010101
    with pytest.raises(ValueError):
        blade_mask((3, 1), 6)
    with pytest.raises(ValueError):
        blade_mask((1, 1), 6)
    with pytest.raises(ValueError):
        blade_mask((7,), 6)
    with pytest.raises(ValueError):
        blade_mask((0,), 6)


def test_blade_product_exhaustive_small_dims():
    for n in range(1, 5):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for ma, mb in product(range(1 << n), repeat=2):
                sign, mask = blade_product_masks(ma, mb, sig)
                want = clifford_blade_product(_indices(ma), _indices(mb), p)
                assert (sign, _indices(mask)) == want, (sig, ma, mb)


def test_blade_product_random_large_dims():
    rng = random.Random(20260815)
    for _ in range(500):
        n = rng.randint(5, 8)
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        ma, mb = rng.randrange(1 << n), rng.randrange(1 << n)
        sign, mask = blade_product_masks(ma, mb, sig)
        want = clifford_blade_product(_indices(ma), _indices(mb), p)
        assert (sign, _indices(mask)) == want


def test_blade_product_masks_all_pairs_against_oracle():
    for n in range(1, 9):
        indices = [_indices(m) for m in range(1 << n)]
        for p in sorted({0, n // 2, n}):
            sig = Signature(p, n - p)
            for ma, a in enumerate(indices):
                for mb, b in enumerate(indices):
                    sign, ind = clifford_blade_product(a, b, p)
                    assert blade_product_masks(ma, mb, sig) == (sign, blade_mask(ind, n)), \
                        (sig, ma, mb)
    rng = random.Random(2007)
    for n in range(9, 13):  # sampled: the sign kernel's bit windows reach these dimensions
        for p in sorted({0, n // 2, n}):
            sig = Signature(p, n - p)
            for _ in range(500):
                ma, mb = rng.randrange(1 << n), rng.randrange(1 << n)
                sign, ind = clifford_blade_product(_indices(ma), _indices(mb), p)
                assert blade_product_masks(ma, mb, sig) == (sign, blade_mask(ind, n)), \
                    (sig, ma, mb)


def test_blade_square_sign_matches_product():
    for n in range(1, 7):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for mask in range(1 << n):
                sign, back = blade_product_masks(mask, mask, sig)
                assert back == 0
                assert blade_square_sign(_indices(mask), sig) == sign


def test_generator_relations():
    sig = Signature(2, 3)
    for i in range(1, 6):
        ei = Multivector.generator(sig, i)
        square = ei * ei
        expected = 1 if i <= 2 else -1
        assert square == Multivector.scalar(sig, expected)
        for j in range(i + 1, 6):
            ej = Multivector.generator(sig, j)
            assert ei * ej == -(ej * ei)


@given(signatures(6).flatmap(lambda s: st.tuples(
    multivectors(s, 4), multivectors(s, 4), multivectors(s, 4))))
def test_product_associative(triple):
    x, y, z = triple
    assert (x * y) * z == x * (y * z)


@given(signatures(6).flatmap(lambda s: st.tuples(
    multivectors(s, 4), multivectors(s, 4), multivectors(s, 4))))
def test_product_distributive(triple):
    x, y, z = triple
    assert x * (y + z) == x * y + x * z
    assert (y + z) * x == y * x + z * x


@given(signatures(6).flatmap(lambda s: st.tuples(multivectors(s), multivectors(s))))
def test_reverse_antihomomorphism(pair):
    x, y = pair
    assert reverse(x * y) == reverse(y) * reverse(x)
    assert reverse(reverse(x)) == x


def test_reverse_sign_per_grade():
    sig = Signature(0, 8)
    for mask in range(0, 1 << 8, 7):  # sampled blades
        k = grade_of(mask)
        b = Multivector(sig, {mask: Fraction(1)})
        expected = (-1) ** (k * (k - 1) // 2)
        assert b.reverse() == b.scale(expected)


@given(signatures(7).flatmap(lambda s: multivectors(s, 6)))
def test_grade_projection_partitions(x):
    rebuilt = Multivector.zero(x.sig)
    for k in range(x.sig.n + 1):
        part = grade_project(x, k)
        assert part == x.grade(k)
        assert all(grade_of(m) == k for m, _ in part.terms())
        rebuilt = rebuilt + part
    assert rebuilt == x


def test_volume_element_squares():
    vol6 = volume_element(Signature(0, 6))
    vol7 = volume_element(Signature(0, 7))
    vol8 = volume_element(Signature(0, 8))
    assert vol6 * vol6 == Multivector.scalar(Signature(0, 6), -1)
    assert vol7 * vol7 == Multivector.scalar(Signature(0, 7), 1)
    assert vol8 * vol8 == Multivector.scalar(Signature(0, 8), 1)


def test_volume_square_general_law():
    for n in range(1, 9):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            vol = volume_element(sig)
            expected = (-1) ** (n * (n - 1) // 2) * (-1) ** sig.q
            assert vol * vol == Multivector.scalar(sig, expected)


def test_geometric_product_function_matches_operator(sig6):
    x = Multivector.blade(sig6, (1, 3, 5))
    y = Multivector.blade(sig6, (1, 4, 6))
    assert geometric_product(x, y) == x * y


def _check_product_against_oracle(x, y):
    got = geometric_product(x, y)
    want = multiply_dicts({_indices(m): c for m, c in x.term_map().items()},
                          {_indices(m): c for m, c in y.term_map().items()}, x.sig.p)
    assert {_indices(m): c for m, c in got.term_map().items()} == want, x.sig
    assert all(type(c) is Fraction and c for c in got.term_map().values())
    rebuilt = Multivector(x.sig, got.term_map())
    assert rebuilt == got
    assert hash(rebuilt) == hash(got)
    return got


def test_geometric_product_dense_against_oracle():
    rng = random.Random(3217)

    def dense(sig, max_den):
        return Multivector(sig, {m: Fraction(rng.randint(-2**31, 2**31), rng.randint(1, max_den))
                                 for m in range(1 << sig.n)})

    for n in range(1, 9):
        for p in sorted({0, n // 2, n}):
            sig = Signature(p, n - p)
            _check_product_against_oracle(dense(sig, 2**32), dense(sig, 12))
    for n in range(9, 13):  # sparse: the hoisted sign mask spans these dimensions too
        for p in sorted({0, n // 2, n}):
            sig = Signature(p, n - p)
            x, y = (Multivector(sig, {rng.randrange(1 << n): Fraction(rng.randint(-9, 9),
                                                                       rng.randint(1, 2**32))
                                      for _ in range(24)}) for _ in range(2))
            _check_product_against_oracle(x, y)


def test_geometric_product_cancels_to_zero():
    for n in range(3, 9):
        for p in sorted({0, n // 2, n}):
            sig = Signature(p, n - p)
            # f = prod (1 + b)/2 over commuting blades b with b*b = 1 is idempotent
            f = Multivector.scalar(sig, 1)
            for mask in range(1, 1 << n):
                b = Multivector(sig, {mask: 1})
                if b * b == Multivector.scalar(sig, 1) and f * b == b * f:
                    candidate = f * (Multivector.scalar(sig, 1) + b).scale(Fraction(1, 2))
                    if not candidate.is_zero():
                        f = candidate
            assert len(f) > 1
            assert f * f == f
            complement = Multivector.scalar(sig, Fraction(3, 2**32)) - f.scale(Fraction(3, 2**32))
            assert _check_product_against_oracle(f, complement).is_zero()
            assert _check_product_against_oracle(complement, f).is_zero()


def test_mixed_signature_rejected(sig6, sig7):
    x = Multivector.blade(sig6, (1,))
    y = Multivector.blade(sig7, (1,))
    with pytest.raises(ValueError):
        x * y
    with pytest.raises(ValueError):
        x + y


def test_scalar_arithmetic(sig6):
    x = Multivector.blade(sig6, (1, 2))
    assert x.scale(Fraction(3, 2)) == Fraction(3, 2) * x
    assert (x - x).is_zero()
    assert -x == x.scale(-1)
    assert x.coefficient((1, 2)) == 1
    assert x.coefficient((1, 3)) == 0


@pytest.mark.parametrize("cls, space", [(Multivector, Signature(0, 6)), (ExteriorForm, 6)],
                         ids=["Multivector", "ExteriorForm"])
def test_shared_element_api(cls, space):
    """zero, blade, scaling on either side and grade: one body for both element types."""
    assert cls.zero(space) == cls(space, {}) and cls.zero(space).is_zero()
    x = cls.blade(space, (1, 2), Fraction(3, 2)) + cls.blade(space, (1, 3, 5))
    assert type(x) is cls
    assert x.term_map() == {0b11: Fraction(3, 2), 0b10101: 1}
    for k in (2, Fraction(-2, 3), True):
        assert k * x == x * k == x.scale(k)
        assert type(k * x) is type(x * k) is cls
    assert x.grade(2) == cls.blade(space, (1, 2), Fraction(3, 2))
    assert x.grade(3) == cls.blade(space, (1, 3, 5))
    assert x.grade(0) == cls.zero(space)
    assert x.grade(6) == cls.zero(space)
    for k in (-1, 7):
        with pytest.raises(ValueError, match=rf"^grade {k} out of range 0\.\.6$"):
            x.grade(k)
    for k in (True, False, 1.0, Fraction(2)):  # as a blade index: an int, not a bool
        with pytest.raises(ValueError, match=f"^grade {re.escape(repr(k))} is not an integer$"):
            x.grade(k)
    other = (ExteriorForm.blade(6, (1,)) if cls is Multivector
             else Multivector.blade(Signature(0, 6), (1,)))
    # one reader takes every coefficient in: an int, a bool or a Fraction, and nothing it
    # would have to round (1e-300 and "1/3" included)
    for bad in (1.5, 1e-300, "2", "1/3", None, Decimal("0.5"), other):  # other: the other type
        for way in (lambda: x * bad, lambda: bad * x, lambda: x.scale(bad),
                    lambda: cls.blade(space, (1, 2), bad), lambda: cls(space, {0b11: bad}),
                    lambda: Multivector.scalar(Signature(0, 6), bad),
                    lambda: ExteriorForm.from_terms(6, [(1, (1,)), (bad, (1, 2))])):
            with pytest.raises(TypeError):
                way()
    y = cls.blade(space, (1, 2))
    for good in (3, True, Fraction(-2, 3)):
        assert cls(space, {0b11: good}) == cls.blade(space, (1, 2), good) == y.scale(good)
        for z in (cls(space, {0b11: good}), y.scale(good)):
            assert {type(c) for c in z._terms.values()} == {int}
    for mask in (-1, 64):
        with pytest.raises(ValueError, match=f"^blade mask {mask} out of range for "):
            cls(space, {mask: 1})


def test_a_multivector_and_a_form_neither_add_nor_equal():
    """+, - and == return NotImplemented for the other element type, so + and - raise
    TypeError both ways round and the two are never equal, even on the same blades."""
    x, a = Multivector.blade(Signature(0, 6), (1, 2)), ExteriorForm.blade(6, (1, 2))
    for left, right in ((x, a), (a, x)):
        for way in (lambda: left + right, lambda: left - right):
            with pytest.raises(TypeError, match="^unsupported operand type"):
                way()
        assert left.__add__(right) is left.__sub__(right) is left.__eq__(right) is NotImplemented
        assert not left == right and left != right


@pytest.mark.parametrize("cls, space", [(Multivector, Signature(0, 6)), (ExteriorForm, 6)],
                         ids=["Multivector", "ExteriorForm"])
def test_constructor_refuses_a_mask_that_is_not_an_int(cls, space):
    """1.0 or Fraction(1) hashes like the mask 1 and used to build an element that equalled e1
    but that neither writer nor * could handle; a bool is refused, as blade_mask refuses a
    bool index, and an int subclass is taken, as blade_mask takes one, and stored as an int."""
    for mask in (1.0, Fraction(1), Decimal(1), True, False, "1", None):
        with pytest.raises(ValueError, match=f"^blade mask {re.escape(repr(mask))} is not an integer$"):
            cls(space, {mask: 1})
    with pytest.raises(ValueError, match="^blade index True is not an integer$"):
        blade_mask((True,), 6)
    members = IntEnum("Mask", {"E12": 0b11, "E3": 0b100})
    x = cls(space, {members.E12: 2})
    assert x == cls.blade(space, (1, 2), 2) and print_canonical(x) == "2*e12"
    assert to_json(x) == to_json(cls.blade(space, (1, 2), 2))
    # the key is stored as the exact int, as every other way in stores it
    for y in (x, cls(space, {0b1: 1, members.E3: 3, members.E12: 2})):
        assert {type(m) for m in y._terms} == {int}


def test_multivector_hash_consistent(sig6):
    a = Multivector(sig6, {0b11: Fraction(1, 2)})
    b = Multivector(sig6, {0b11: Fraction(2, 4)})
    assert a == b
    assert hash(a) == hash(b)


def test_zero_terms_dropped(sig6):
    x = Multivector(sig6, {0b1: Fraction(0), 0b10: Fraction(1)})
    assert len(x) == 1
    assert x == Multivector.blade(sig6, (2,))


# -- results built canonical, without the checked constructor ---------------------

def _assert_canonical(v):
    """Nonzero Fraction values on in-range masks, equal (with the same hash) to a checked rebuild."""
    terms = v.term_map()
    n = v.sig.n if isinstance(v, Multivector) else v.n
    assert all(type(c) is Fraction and c for c in terms.values())
    assert all(type(m) is int and 0 <= m < 1 << n for m in terms)
    rebuilt = type(v)(v.sig if isinstance(v, Multivector) else n, terms)
    assert rebuilt == v
    assert hash(rebuilt) == hash(v)


def test_element_operations_are_canonical_by_construction():
    rng = random.Random(5150)
    for n in range(1, 13):
        for _ in range(12):
            p = rng.randint(0, n)
            sig = Signature(p, n - p)
            x, y = (Multivector(sig, {rng.randrange(1 << n): Fraction(rng.randint(-9, 9),
                                                                      rng.randint(1, 12))
                                      for _ in range(rng.randint(0, 7))}) for _ in range(2))
            a, b = symbol(x), symbol(y)
            k = rng.randint(0, n)
            results = [
                parse(print_canonical(x), sig), from_json(to_json(x)), -x, x.scale(Fraction(-3, 7)),
                x.scale(0), x + y, x - y, x + (-x), grade_project(x, k), x.grade(k), reverse(x),
                quantize(a, sig), a, parse(print_canonical(a), n, kind="form"),
                from_json(to_json(a)), -a, a.scale(5), a.scale(0), a + b, a - a, a.grade(k),
                a.embed(12), wedge(a, b), hodge_star(a), hodge_star(a, HodgeConvention.EXT_ALPHA_FIRST),
            ]
            for v in results:
                _assert_canonical(v)
            assert x.scale(0).is_zero() and (x + (-x)).is_zero() and (a - a).is_zero()
            got = {mask_indices(m): c for m, c in wedge(a, b).term_map().items()}
            assert got == wedge_dicts({mask_indices(m): c for m, c in a.term_map().items()},
                                      {mask_indices(m): c for m, c in b.term_map().items()})


# -- the stored form: one positive denominator over coprime integer numerators ----------

def _assert_stored_canonical(v):
    """den > 0, nonzero int numerators, gcd(den, *numerators) == 1, reduced Fractions read."""
    den, nums = v._den, v._terms
    assert type(den) is int and den > 0, v
    assert all(type(c) is int and c for c in nums.values()), v
    assert gcd(den, *nums.values()) == 1, v
    for m, c in v.terms():
        assert type(c) is Fraction and c == Fraction(nums[m], den)
    assert v.term_map() == dict(v.terms())


def _same(a, b):
    assert a == b and hash(a) == hash(b), (a, b)
    _assert_stored_canonical(a)
    _assert_stored_canonical(b)


def test_equal_values_by_different_routes_are_equal_and_hash_alike(sig6):
    half = Multivector(sig6, {0b1: Fraction(1, 2)})
    _same(parse("2/4*e1", sig6), half)
    _same(parse("1/4*e1 + 1/4*e1", sig6), half)
    _same(parse("1/2*e1 + 0/3*e2", sig6), half)
    _same(from_json('{"signature": [0, 6], "kind": "clifford", '
                    '"terms": [{"blade": [1], "coef": "3/6"}]}'), half)
    x = parse("1/2*e1 - 2/3*e23 + 5/6*e456", sig6)
    y = parse("1/6*e1 + 1/3*e23 - 7/10", sig6)
    assert x._den == 6 and x._terms == {0b1: 3, 0b110: -4, 0b111000: 5}
    _same(x + y - y, x)
    _same(x - y + y, x)
    _same(-(-x), x)
    for k in (3, -1, Fraction(-2, 7), Fraction(6, 5)):
        _same(x.scale(k).scale(1 / Fraction(k)), x)
    _same(x.grade(1), half)
    _same(x.grade(2), parse("-2/3*e23", sig6))
    _same(symbol(x).grade(3), parse("5/6*e456", 6, kind="form"))
    _same(interior_product(1, symbol(x)), ExteriorForm(6, {0: Fraction(1, 2)}))
    _same(x * Multivector.scalar(sig6, Fraction(6, 5)), parse("3/5*e1 - 4/5*e23 + e456", sig6))
    assert print_canonical(x) == "1/2*e1 - 2/3*e23 + 5/6*e456"
    assert [t["coef"] for t in reference_to_json_obj(x)["terms"]] == ["1/2", "-2/3", "5/6"]
    assert '"coef": "-2/3"' in to_json(x)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_result_is_stored_canonical(data):
    sig = data.draw(signatures(6))
    n = sig.n
    x, y = data.draw(multivectors(sig, 6)), data.draw(multivectors(sig, 6))
    a, b = symbol(x), symbol(y)
    k = data.draw(st.integers(min_value=0, max_value=n))
    c = data.draw(coefficients)
    # the same value written with unreduced coefficients and in another term order
    spread = data.draw(st.integers(min_value=1, max_value=12))
    text = "0" + "".join(f" {'-' if v < 0 else '+'} {spread * abs(v.numerator)}/"
                         f"{spread * v.denominator}*{blade_table(n).text[m]}"
                         for m, v in reversed(list(x.terms())))
    ext, cliff = HodgeConvention.EXT_ALPHA_FIRST, HodgeConvention
    results = [x * y, wedge(a, b), hodge_star(a), hodge_star(a, ext),
               clifford_hodge(x), clifford_hodge(x, cliff.CLIFF_LEFT),
               clifford_hodge(x, cliff.CLIFF_RIGHT), x.grade(k), a.grade(k), x + y, x - y, a + b,
               -x, -a, x.scale(c), a.scale(c), reverse(x), interior_product(max(k, 1), a),
               parse(print_canonical(x), sig), parse(print_canonical(a), n, kind="form"),
               from_json(to_json(x)), from_json(to_json(a))]
    for v in results:
        _assert_stored_canonical(v)
    _same(parse(text, sig), x)
    for v in (x, a):
        for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            _same(w, v)
            assert (w._den, w._terms) == (v._den, v._terms)


def test_blade_table_order_rank_and_text():
    digits = _digits()  # one table, whatever n reads it
    for n in (1, 4, 9, 10, 12):
        table = blade_table(n)
        assert list(table.order) == sorted(range(1 << n),
                                           key=lambda m: (grade_of(m), mask_indices(m)))
        assert [table.rank[m] for m in table.order] == list(range(1 << n))
        for m in range(1, 1 << n):
            ind = mask_indices(m)
            if ind[-1] < 10:
                assert table.text[m] == "e" + "".join(map(str, ind))
                assert digits[table.text[m][1:]] == m
            else:
                assert table.text[m] == "e{" + ",".join(map(str, ind)) + "}"
        assert table.text[0] == "1"
        # one digit table for every n; a blade beyond n is rejected at its first index > n
        assert _digits() is digits
        for key, m in digits.items():
            if m >> n:
                first = next(i for i, ch in enumerate(key) if int(ch) > n)
                for text, at in ((f"e{key}", 1), (f"-3/4*e{key}", 6), (f"1 + 2*e{key}", 7)):
                    with pytest.raises(ParseError, match=rf"blade index {key[first]} exceeds "
                                       rf"dimension {n} \(at position {at + first}\)$"):
                        parse(text, Signature(0, n))
                with pytest.raises(ParseError, match=rf"\(at position {1 + first}\)$"):
                    parse_blade(f"e{key}", n)
        # the index-tuple map: keys in canonical order, each the tuple blade_mask packs
        assert list(table.index) == [mask_indices(m) for m in table.order]
        assert all(blade_mask(ind, n) == m for ind, m in table.index.items())
    assert blade_table(12) is blade_table(12)


def test_blade_table_columns_follow_by_grade_definition():
    for n in range(1, MAX_DIM + 1):
        table = BladeTable(n)  # a fresh build, not the cached table
        want = [sum(1 << (i - 1) for i in ind) for ind in _by_grade(n)]
        assert list(table.order) == want
        assert [table.rank[m] for m in want] == list(range(1 << n))
        assert len(table.rank) == 1 << n


def test_blade_table_text_and_digits_match_combinations():
    """The doubling builds of both text tables against a blade-by-blade construction."""
    def mask(ind):
        return sum(1 << (i - 1) for i in ind)

    digits = {"".join(map(str, ind)): mask(ind)
              for k in range(1, 10) for ind in combinations(range(1, 10), k)}
    for n in range(1, MAX_DIM + 1):
        text = {0: "1"}
        for k in range(1, n + 1):
            for ind in combinations(range(1, n + 1), k):
                text[mask(ind)] = ("e" + "".join(map(str, ind)) if ind[-1] < 10
                                   else "e{" + ",".join(map(str, ind)) + "}")
        table = BladeTable(n)  # a fresh build, not the cached table
        assert table.text == tuple(text[m] for m in range(1 << n))
    assert _digits.__wrapped__() == digits == _digits()  # a fresh build, and the cached table


def test_mask_indices_lists_the_set_bits():
    for m in range(1 << MAX_DIM):
        assert mask_indices(m) == tuple(i + 1 for i in range(MAX_DIM) if m >> i & 1)
