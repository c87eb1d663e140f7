from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from cliffideal import ExteriorForm, Multivector, Signature

coefficients = st.fractions(min_value=Fraction(-6), max_value=Fraction(6),
                            max_denominator=16).filter(lambda f: f != 0)


def term_maps(n: int, max_terms: int = 5):
    return st.dictionaries(st.integers(min_value=0, max_value=(1 << n) - 1),
                           coefficients, max_size=max_terms)


def multivectors(sig: Signature, max_terms: int = 5):
    return term_maps(sig.n, max_terms).map(lambda d: Multivector(sig, d))


def forms(n: int, max_terms: int = 5):
    return term_maps(n, max_terms).map(lambda d: ExteriorForm(n, d))


def signatures(max_dim: int = 8):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.integers(min_value=0, max_value=n).map(lambda p: Signature(p, n - p))
    )


@pytest.fixture
def digit_limit():
    """The interpreter's default bound on integer string conversion, set for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.fixture(scope="session")
def sig6() -> Signature:
    return Signature(0, 6)


@pytest.fixture(scope="session")
def sig7() -> Signature:
    return Signature(0, 7)


@pytest.fixture(scope="session")
def sig8() -> Signature:
    return Signature(0, 8)
