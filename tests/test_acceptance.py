"""Acceptance gate: one test per top-level criterion, each printing a
single pass line and enforcing the stated exactness and time budget."""

import random
import time
from fractions import Fraction

from cliffideal import (
    ExteriorForm,
    HodgeConvention,
    IdempotentSpec,
    Multivector,
    ParseError,
    Signature,
    StructureError,
    build_idempotent,
    classify,
    coset_basis,
    decompose_algebra,
    from_json,
    g2_idempotent,
    g2_metric,
    g2_recover,
    hodge_star,
    is_idempotent,
    is_orthogonal,
    is_primitive,
    left_ideal_basis,
    lift_idempotent_6_to_7,
    lift_su3_to_g2,
    model_g2,
    model_spin7,
    model_su3,
    parse,
    print_canonical,
    radon_hurwitz,
    run_all,
    run_claim,
    spin7_idempotent,
    spin7_recover,
    su3_idempotent,
    su3_recover,
    to_json,
    volume_element,
    volume_form,
    wedge,
)
from cliffideal.algebra import mask_indices

GENS6 = ((1, (1, 3, 5)), (-1, (1, 4, 6)), (-1, (2, 3, 6)))
GENS7 = ((1, (1, 2, 3)), (1, (1, 4, 5)), (-1, (2, 5, 7)), (1, (1, 6, 7)))
GENS8 = ((-1, (1, 2, 3, 4)), (-1, (1, 2, 5, 6)), (-1, (1, 2, 7, 8)), (-1, (1, 3, 5, 7)))

F6_DISPLAY = "1 + e135 - e146 - e236 - e245 - e3456 - e1234 - e1256"


class _Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"took {elapsed:.2f}s, budget {self.limit}s"
        return elapsed


def _report(name, detail, budget=None):
    suffix = f" [{budget.check():.2f}s]" if budget else ""
    print(f"PASS {name}: {detail}{suffix}")


def test_acceptance_1_dimension_6_chain():
    budget = _Budget(1.0)
    sig = Signature(0, 6)
    f = build_idempotent(IdempotentSpec(sig, GENS6))
    assert f == parse(F6_DISPLAY, sig).scale(Fraction(1, 8))
    assert is_idempotent(f)
    dim = left_ideal_basis(f).dimension
    assert dim == 8 == classify(sig).minimal_ideal_dim
    s = su3_recover(f)
    m = model_su3()
    assert (s.omega, s.psi_plus, s.psi_minus) == (m.omega, m.psi_plus, m.psi_minus)
    assert su3_idempotent(s) == f
    _report("A1", "dimension-6 chain exact: display, idempotency, ideal dim 8, "
            "tensor recovery and round trip", budget)


def test_acceptance_2_dimension_7_chain():
    budget = _Budget(2.0)
    f = build_idempotent(IdempotentSpec(Signature(0, 7), GENS7))
    assert g2_idempotent(model_g2()) == f
    assert left_ideal_basis(f).dimension == 8
    cands = [()] + [(i,) for i in range(1, 8)]
    assert coset_basis(f, cands) == cands
    report = g2_metric(model_g2())
    assert report.tag == "definite"
    assert abs(report.determinant) == 1
    _report("A2", "dimension-7 chain exact: g2 idempotent, ideal dim 8, "
            "coset basis {1,e1..e7}, definite metric with |det| = 1", budget)


def test_acceptance_3_dimension_8_chain():
    budget = _Budget(5.0)
    f = build_idempotent(IdempotentSpec(Signature(0, 8), GENS8))
    cayley = model_spin7().cayley
    assert spin7_idempotent(model_spin7()) == f
    assert left_ideal_basis(f).dimension == 16
    assert hodge_star(cayley) == cayley
    assert spin7_recover(f).cayley == cayley
    assert spin7_idempotent(spin7_recover(f)) == f
    _report("A3", "dimension-8 chain exact: spin7 idempotent, ideal dim 16, "
            "self-dual Cayley form, recovery round trip", budget)


def test_acceptance_4_wedge_constants():
    su3 = model_su3()
    assert wedge(su3.psi_plus, su3.psi_minus) == volume_form(6).scale(4)
    phi = model_g2().phi
    assert wedge(phi, hodge_star(phi)) == volume_form(7).scale(7)
    cayley = model_spin7().cayley
    assert wedge(cayley, cayley) == volume_form(8).scale(14)
    c3 = run_claim("C3")
    assert c3.status == "FAIL"
    assert c3.computed == "14*e12345678"
    assert c3.note
    _report("A4", "wedge constants 4, 7 exact; Omega^Omega = 14 vol with "
            "C3 reporting FAIL and the correction")


def test_acceptance_5_decomposition():
    sig6, sig8 = Signature(0, 6), Signature(0, 8)
    pieces6 = decompose_algebra(IdempotentSpec(sig6, GENS6))
    assert len(pieces6) == 8
    total = Multivector.zero(sig6)
    dims = 0
    for i, piece in enumerate(pieces6):
        assert is_idempotent(piece)
        dim = left_ideal_basis(piece).dimension
        assert dim == 8
        dims += dim
        total = total + piece
        for other in pieces6[i + 1:]:
            assert is_orthogonal(piece, other)
    assert total == Multivector.scalar(sig6, 1)
    assert dims == 64 == 1 << 6

    pieces8 = decompose_algebra(IdempotentSpec(sig8, GENS8))
    assert len(pieces8) == 16
    total8 = Multivector.zero(sig8)
    dims8 = 0
    for i, piece in enumerate(pieces8):
        assert is_idempotent(piece)
        dim = left_ideal_basis(piece).dimension
        assert dim == 16
        dims8 += dim
        total8 = total8 + piece
        for other in pieces8[i + 1:]:
            assert is_orthogonal(piece, other)
    assert total8 == Multivector.scalar(sig8, 1)
    assert dims8 == 256 == 1 << 8
    _report("A5", "decompositions exact: 8 orthogonal pieces summing to 1 "
            "(dims 8x8 = 64) and 16 pieces (dims 16x16 = 256)")


def test_acceptance_6_radon_hurwitz():
    assert [radon_hurwitz(i) for i in range(9)] == [0, 1, 2, 2, 3, 3, 3, 3, 4]
    ks = {(0, 6): 3, (0, 7): 4, (0, 8): 4}
    gens = {(0, 6): GENS6, (0, 7): GENS7, (0, 8): GENS8}
    for (p, q), k in ks.items():
        assert q - radon_hurwitz(q - p) == k == len(gens[(p, q)])
    _report("A6", "Radon-Hurwitz table and k(0,6)=3, k(0,7)=4, k(0,8)=4 "
            "match the generator counts")


def test_acceptance_7_verifier_golden_run():
    budget = _Budget(10.0)
    report = run_all()
    assert len(report.results) >= 18
    assert report.golden_deviations() == ()
    statuses = {r.id: r for r in report.results}
    for claim_id in ("C3", "C7", "C10"):   # wedge constant and display-sign errata
        assert statuses[claim_id].status == "FAIL"
        assert statuses[claim_id].computed
    assert report.to_text() == run_all().to_text()
    _report("A7", f"verifier golden run: {len(report.results)} claims, "
            "statuses pinned, expected FAILs carry corrections, deterministic", budget)


def _random_multivector(rng, sig, terms=4):
    data = {}
    for _ in range(terms):
        mask = rng.randrange(1 << sig.n)
        data[mask] = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    return Multivector(sig, {m: c for m, c in data.items() if c})


def test_acceptance_8_property_suites():
    rng = random.Random(20260815)

    for _ in range(1000):
        n = rng.randint(1, 8)
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        x, y, z = (_random_multivector(rng, sig) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    for n in range(1, 8):
        for mask in range(1 << n):
            blade = ExteriorForm.blade(n, mask_indices(mask))
            k = len(mask_indices(mask))
            for conv in (HodgeConvention.EXT_DUAL_FIRST, HodgeConvention.EXT_ALPHA_FIRST):
                assert hodge_star(hodge_star(blade, conv), conv) == blade.scale(
                    (-1) ** (k * (n - k)))

    for _ in range(1000):
        n = rng.randint(1, 12)
        sig = Signature(0, n)
        x = _random_multivector(rng, sig, terms=5)
        assert parse(print_canonical(x), sig) == x
        assert from_json(to_json(x)) == x

    alphabet = bytes(range(256))
    for _ in range(100_000):
        raw = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
        try:
            parse(raw.decode("latin-1"), Signature(0, 6))
        except ParseError:
            pass
    _report("A8", "property suites: 1000 associativity/distributivity triples, "
            "exhaustive star-star law for n <= 7, 1000 text and JSON round "
            "trips, 100000-string parser fuzz with no crashes")


def test_acceptance_9_lift():
    budget = _Budget(2.0)
    f6 = build_idempotent(IdempotentSpec(Signature(0, 6), GENS6))
    lifted_phi = lift_su3_to_g2(su3_recover(f6))
    assert g2_metric(lifted_phi).tag == "definite"
    f7 = lift_idempotent_6_to_7(f6)
    assert f7.sig == Signature(0, 7)
    assert is_primitive(f7)
    assert left_ideal_basis(f7).dimension == 8
    _report("A9", "lift: primitive idempotent of R_{0,7} with ideal dim 8, "
            "lifted 3-form has definite metric", budget)


def _commuting_plus_subspaces(n, k):
    """The reduced echelon basis (pivot: highest bit) of each k-dimensional F_2 subspace T
    whose nonzero blades commute pairwise and square to +1 in R_{0,n}.

    Commuting basis blades that square to +1 generate a group of such blades, so
    checking the basis is enough; each row after a lies above a's pivot and is zero
    there, so each T is listed once."""
    def grow(basis, cands):
        if len(basis) == k:
            yield basis
            return
        for a in cands:
            top = 1 << a.bit_length()
            yield from grow(basis + [a], [b for b in cands if b >= top and not b & top >> 1
                                          and not (a.bit_count() * b.bit_count()
                                                   ^ (a & b).bit_count()) & 1])

    # e_a^2 = (-1)^{|a|(|a|+1)/2} = +1 in R_{0,n}
    return list(grow([], [a for a in range(1, 1 << n) if a.bit_count() % 4 in (0, 3)]))


# n -> (recover, idempotent, reasons): a piece that does not round-trip raises reasons[s],
# s = +-1 when vol*f = s*f and 0 otherwise
_CENSUS = {
    6: (su3_recover, su3_idempotent, {}),
    7: (g2_recover, g2_idempotent, {1: "x lies in the vol*x = +x half; the G2 correspondence "
                                       "uses vol*f = -f"}),
    8: (spin7_recover, spin7_idempotent, {-1: "x lies in the vol*x = -x half; the Spin(7) "
                                              "correspondence uses vol*f = +f",
                                          0: "the 4-form is not self-dual"}),
}


def test_acceptance_10_census_of_factored_primitive_idempotents():
    """Theorem 3.3's whole family at n = 6, 7, 8: every primitive idempotent
    prod (1 +- e_t)/2 over k = q - r_{q-p} commuting blades that square to +1."""
    budget = _Budget(10.0)  # a backstop: about 0.7 s untraced, 4.3 s under tests/linecov.py
    found = {}
    for n, (recover, idempotent, reasons) in _CENSUS.items():
        sig = Signature(0, n)
        spaces = _commuting_plus_subspaces(n, n - radon_hurwitz(n))
        vol = volume_element(sig)
        outcomes = {}
        for basis in spaces:
            spec = IdempotentSpec(sig, tuple((1, mask_indices(b)) for b in basis))
            for f in decompose_algebra(spec):
                assert is_primitive(f)
                half = vol * f
                side = 1 if half == f else -1 if half == -f else 0
                try:
                    assert idempotent(recover(f)) == f
                    outcome = "round trip"
                except StructureError as exc:
                    outcome = reasons[side]
                    assert str(exc) == f"cannot recover a structure: {outcome}"
                outcomes[side, outcome] = outcomes.get((side, outcome), 0) + 1
        found[n] = (len(spaces), outcomes)
    assert found == {
        6: (30, {(0, "round trip"): 240}),  # vol^2 = -1 in R_{0,6}: no half
        7: (30, {(-1, "round trip"): 240, (1, _CENSUS[7][2][1]): 240}),
        8: (270, {(1, "round trip"): 240, (-1, _CENSUS[8][2][-1]): 240,
                  (0, _CENSUS[8][2][0]): 3840}),
    }
    _report("A10", "census: 30/240, 30/480 and 270/4320 subspaces/idempotents at n = 6, 7, 8, "
            "all primitive; each round-trips or raises the reason for its half", budget)
