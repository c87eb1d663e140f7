"""The paper's ideal claims checked in real matrix representations.

tests/oracles.py builds rho: R_{0,n} -> real matrices from Kronecker words,
sharing nothing with the blade arithmetic of the package.  R_{0,6} = M_8(R)
and R_{0,8} = M_16(R) are simple, so an idempotent is primitive exactly when
its matrix is a projector of rank 1, and its left ideal then has the matrix
size as dimension.  R_{0,7} = M_8(R) (+) M_8(R) is represented faithfully by
rho (+) rho', and a primitive idempotent is a rank-1 projector in one block
and zero in the other.
"""

import random
from math import lcm

import pytest

from cliffideal import (
    IdempotentSpec,
    Multivector,
    Signature,
    build_idempotent,
    classify,
    coset_basis,
    g2_idempotent,
    is_primitive,
    left_ideal_basis,
    lift_su3_to_g2,
    model_g2,
    model_spin7,
    model_su3,
    spin7_idempotent,
    su3_idempotent,
)
from cliffideal.algebra import mask_indices

from oracles import MatrixRep, identity, mat_mul, matrix_rank
from test_ideals import GENS6, GENS7, GENS8

# n -> (word length, doubled)
_SHAPES = {6: (3, False), 7: (3, True), 8: (4, False)}


@pytest.fixture(scope="module")
def reps():
    return {n: MatrixRep(n, length, doubled) for n, (length, doubled) in _SHAPES.items()}


def _ints(x):
    """(D, D * x as an {indices: int} dict), D the lcm of x's denominators."""
    den = lcm(*(c.denominator for _, c in x.terms()))
    return den, {mask_indices(m): int(c * den) for m, c in x.terms()}


def _image(rep, x):
    """(D, rho(D * x)): integer matrices keep the products fast."""
    den, terms = _ints(x)
    return den, rep(terms)


def _flat(matrix):
    return [v for row in matrix for v in row]


def _idempotents():
    """(name, f) for the factored idempotents, the lifted G2 one and the three models."""
    out = [(f"f{s.n}", build_idempotent(IdempotentSpec(s, g)))
           for s, g in ((Signature(0, 6), GENS6), (Signature(0, 7), GENS7),
                        (Signature(0, 8), GENS8))]
    out.append(("lifted G2", g2_idempotent(lift_su3_to_g2(model_su3()))))
    out.append(("SU(3) model", su3_idempotent(model_su3())))
    out.append(("G2 model", g2_idempotent(model_g2())))
    out.append(("Spin(7) model", spin7_idempotent(model_spin7())))
    return out


def test_generators_anticommute_and_square_to_minus_one(reps):
    for n, rep in reps.items():
        gens = [rep({(i,): 1}) for i in range(1, n + 1)]
        minus = [[-v for v in row] for row in identity(rep.size)]
        for i, a in enumerate(gens):
            assert mat_mul(a, a) == minus
            for b in gens[i + 1:]:
                assert mat_mul(a, b) == [[-v for v in row] for row in mat_mul(b, a)]
        # faithful and onto: summands * block^2 = 2^n, so the blocks are the
        # simple summands of the classification
        cls = classify(Signature(0, n))
        assert (cls.ring, cls.matrix_size, cls.summands) == (
            "R", rep.block, 2 if rep.doubled else 1)
        assert cls.summands * cls.matrix_size ** 2 == 1 << n


def test_representation_is_multiplicative(reps):
    rng = random.Random(1990)
    for n, rep in reps.items():
        sig = Signature(0, n)
        for _ in range(3):
            x, y = (Multivector(sig, {rng.randrange(1 << n): rng.choice((-3, -2, -1, 1, 2, 3))
                                      for _ in range(4)})
                    for _ in range(2))
            assert _image(rep, x * y)[1] == mat_mul(_image(rep, x)[1], _image(rep, y)[1])


def test_paper_idempotents_are_rank_one_projectors(reps):
    for name, f in _idempotents():
        rep = reps[f.sig.n]
        den, p = _image(rep, f)  # p = den * rho(f)
        assert mat_mul(p, p) == [[den * v for v in row] for row in p], name
        ranks = [matrix_rank(block) for block in rep.blocks(p)]
        assert sorted(ranks) == [0] * (len(ranks) - 1) + [1], (name, ranks)
        ideal = left_ideal_basis(f)
        assert is_primitive(f), name
        assert ideal.dimension == rep.block, name  # 8, 8 and 16
        images = []
        for x in ideal.basis:  # each basis element lies in A f: x f = x
            _, image = _image(rep, x)
            assert mat_mul(image, p) == [[den * v for v in row] for row in image], name
            images.append(_flat(image))
        assert matrix_rank(images) == ideal.dimension, name


def test_stated_coset_representatives_are_independent(reps):
    cases = (
        (Signature(0, 6), GENS6, [(), (2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)]),
        (Signature(0, 7), GENS7, [()] + [(i,) for i in range(1, 8)]),
    )
    for sig, gens, cands in cases:
        f = build_idempotent(IdempotentSpec(sig, gens))
        rep = reps[sig.n]
        _, p = _image(rep, f)
        images = [_flat(mat_mul(rep({b: 1}), p)) for b in cands]
        assert matrix_rank(images) == len(cands) == rep.block
        assert coset_basis(f, cands) == cands
