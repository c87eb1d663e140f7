import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliffideal import (
    ExteriorForm,
    HodgeConvention,
    Multivector,
    Signature,
    clifford_hodge,
    hodge_star,
    interior_product,
    quantize,
    symbol,
    volume_element,
    volume_form,
    wedge,
)
from cliffideal.algebra import MAX_DIM, mask_indices

from conftest import forms, multivectors
from oracles import hodge_blade, interior_blade, sort_sign, wedge_dicts


def _form_dict(x):
    return {mask_indices(m): c for m, c in x.terms()}


def test_wedge_blades_exhaustive_n5():
    n = 5
    for ma, mb in product(range(1 << n), repeat=2):
        a = ExteriorForm.blade(n, mask_indices(ma))
        b = ExteriorForm.blade(n, mask_indices(mb))
        got = _form_dict(wedge(a, b))
        want = wedge_dicts(_form_dict(a), _form_dict(b))
        assert got == want


def test_wedge_signs_against_sort_sign():
    for n in range(1, 8):
        blades = [ExteriorForm.blade(n, mask_indices(m)) for m in range(1 << n)]
        for (ma, a), (mb, b) in product(enumerate(blades), repeat=2):
            sign, _ = sort_sign(mask_indices(ma) + mask_indices(mb))
            assert wedge(a, b).term_map() == ({ma | mb: sign} if sign else {}), (n, ma, mb)


@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(forms(n, 4), forms(n, 4), forms(n, 4))))
def test_wedge_associative_and_distributive(triple):
    a, b, c = triple
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
    assert wedge(a, b + c) == wedge(a, b) + wedge(a, c)


@given(st.integers(min_value=1, max_value=7).flatmap(lambda n: st.tuples(forms(n, 4), forms(n, 4))))
def test_xor_spells_wedge(pair):
    a, b = pair
    assert a ^ b == wedge(a, b)


def test_xor_refuses_what_is_no_form():
    a = ExteriorForm.blade(6, (1, 2))
    for other in (Multivector.blade(Signature(0, 6), (3,)), 3):
        with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \^"):
            a ^ other


@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))))
def test_wedge_graded_commutativity(args):
    n, ma, mb = args
    a = ExteriorForm.blade(n, mask_indices(ma))
    b = ExteriorForm.blade(n, mask_indices(mb))
    sign = (-1) ** (ma.bit_count() * mb.bit_count())
    assert wedge(a, b) == wedge(b, a).scale(sign)


def test_hodge_star_both_exterior_conventions_exhaustive():
    rng = random.Random(1145)
    for n in range(1, MAX_DIM + 1):  # every blade to n = 10; sampled above, where the xor spans 16 bits
        for mask in range(1 << n) if n <= 10 else rng.sample(range(1 << n), 500):
            ind = mask_indices(mask)
            blade = ExteriorForm.blade(n, ind)
            for conv, dual_first in (
                (HodgeConvention.EXT_DUAL_FIRST, True),
                (HodgeConvention.EXT_ALPHA_FIRST, False),
            ):
                sign, comp = hodge_blade(ind, n, dual_first=dual_first)
                assert hodge_star(blade, conv) == ExteriorForm.blade(n, comp).scale(sign)


def test_hodge_star_double_application_sign_law():
    for n in range(1, 8):
        for mask in range(1 << n):
            blade = ExteriorForm.blade(n, mask_indices(mask))
            k = mask.bit_count()
            sign = (-1) ** (k * (n - k))
            for conv in (HodgeConvention.EXT_DUAL_FIRST, HodgeConvention.EXT_ALPHA_FIRST):
                assert hodge_star(hodge_star(blade, conv), conv) == blade.scale(sign)


def test_hodge_star_rejects_clifford_conventions():
    blade = ExteriorForm.blade(3, (1,))
    with pytest.raises(ValueError):
        hodge_star(blade, HodgeConvention.CLIFF_LEFT)


def test_clifford_hodge_matches_volume_multiplication():
    sig = Signature(0, 6)
    vol = volume_element(sig)
    for mask in range(0, 1 << 6, 5):
        x = Multivector(sig, {mask: Fraction(1)})
        assert clifford_hodge(x, HodgeConvention.CLIFF_LEFT) == vol * x
        assert clifford_hodge(x, HodgeConvention.CLIFF_RIGHT) == x * vol


def test_clifford_and_exterior_stars_differ_by_documented_sign():
    # In R_{0,n}, left volume multiplication on a grade-k blade equals the
    # dual-first exterior star times (-1)^{k(k+1)/2}.
    for n in (6, 7, 8):
        sig = Signature(0, n)
        for mask in range(1 << n):
            x = Multivector(sig, {mask: Fraction(1)})
            k = mask.bit_count()
            via_ext = quantize(hodge_star(symbol(x), HodgeConvention.EXT_DUAL_FIRST), sig)
            sign = (-1) ** (k * (k + 1) // 2)
            assert clifford_hodge(x, HodgeConvention.CLIFF_LEFT) == via_ext.scale(sign), (n, mask)


def test_interior_product_blades():
    n = 6
    for mask in range(1 << n):
        ind = mask_indices(mask)
        blade = ExteriorForm.blade(n, ind)
        for i in range(1, n + 1):
            sign, rest = interior_blade(i, ind)
            got = interior_product(i, blade)
            if sign == 0:
                assert got.is_zero()
            else:
                assert got == ExteriorForm.blade(n, rest).scale(sign)


@pytest.mark.parametrize("i", [0, 7, -1])
def test_interior_product_refuses_an_index_outside_1_to_n(i):
    with pytest.raises(ValueError, match=rf"^generator index {i} out of range 1\.\.6$"):
        interior_product(i, ExteriorForm.blade(6, (1, 2)))


@pytest.mark.parametrize("i", [True, False, 1.0, Fraction(1)])
def test_interior_product_refuses_an_index_that_is_not_an_int(i):
    with pytest.raises(ValueError, match=f"^generator index {re.escape(repr(i))} is not an integer$"):
        interior_product(i, ExteriorForm.blade(6, (1, 2)))


@given(st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n),
                        st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))))
def test_interior_product_antiderivation(args):
    n, i, ma, mb = args
    a = ExteriorForm.blade(n, mask_indices(ma))
    b = ExteriorForm.blade(n, mask_indices(mb))
    lhs = interior_product(i, wedge(a, b))
    rhs = wedge(interior_product(i, a), b) + wedge(a, interior_product(i, b)).scale(
        (-1) ** ma.bit_count())
    assert lhs == rhs


@given(st.integers(min_value=1, max_value=8).flatmap(lambda n: forms(n, 6)))
def test_quantize_symbol_roundtrip(a):
    assert symbol(quantize(a)) == a


@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: multivectors(Signature(0, n), 6)))
def test_symbol_quantize_roundtrip(x):
    assert quantize(symbol(x), x.sig) == x


def test_quantize_preserves_coefficients(sig6):
    a = ExteriorForm.from_terms(6, [(Fraction(3, 7), (1, 3, 5)), (Fraction(-2), (2, 4))])
    x = quantize(a, sig6)
    assert x.coefficient((1, 3, 5)) == Fraction(3, 7)
    assert x.coefficient((2, 4)) == Fraction(-2)


def test_quantize_dimension_mismatch_rejected(sig6):
    a = ExteriorForm.blade(7, (7,))
    with pytest.raises(ValueError):
        quantize(a, sig6)


def test_form_embed_lifts_dimension():
    a = ExteriorForm.blade(6, (1, 2))
    lifted = a.embed(7)
    assert lifted.n == 7
    assert lifted.coefficient((1, 2)) == 1
    with pytest.raises(ValueError):
        a.embed(5)
    for n in (13, 6.5):  # past MAX_DIM, or not an int
        with pytest.raises(ValueError, match=rf"^dimension must be in 1\.\.12, got {n}$"):
            a.embed(n)


def test_volume_form_and_element_agree():
    for n in range(1, 9):
        assert symbol(volume_element(Signature(0, n))) == volume_form(n)


@pytest.mark.parametrize("n", [0, 13, 40, -1, True, 6.0])
def test_volume_form_refuses_a_dimension_outside_1_to_12(n):
    with pytest.raises(ValueError, match=rf"^dimension must be in 1\.\.12, got {n}$"):
        volume_form(n)


def test_convention_tokens_roundtrip():
    for conv in HodgeConvention:
        assert HodgeConvention.from_token(conv.value) is conv
    with pytest.raises(ValueError):
        HodgeConvention.from_token("sideways")
    assert HodgeConvention.EXT_DUAL_FIRST.is_exterior
    assert not HodgeConvention.CLIFF_LEFT.is_exterior
