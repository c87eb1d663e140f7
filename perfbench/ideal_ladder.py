"""ideal_ladder: minimal left ideals of distinct primitive idempotents, 6 <= p+q <= 10.

One job is the work of `cliffideal idempotent --ideal` (build_idempotent,
left_ideal_basis, coset_basis over every blade in canonical order)
followed by is_primitive and IdealBasis.contains queries on elements
inside and outside the ideal: building a RowBasis beside querying it.
No idempotent appears in two jobs of a run, so a memo across jobs cannot
win here, while faster elimination and faster b*f products win the most.

Generator sets come from a seeded search that uses only tests/oracles.py
for blade signs, and are checked with validate_generators; the expected
idempotent, ideal dimension, coset representatives and query answers are
derived independently of the engine (see check()).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

# Engine functions are looked up on the package at call time, so the
# tracer's wrappers (installed on the package's attributes) see the calls.
import cliffideal
from common import mask_indices, mask_of

# One block of 75 jobs: (signature pool, jobs per block).  Counts are
# fixed so that every seed asks for about the same work; the seed picks
# generators, signs, queries and order.  Signatures rotate through each
# pool, whose members share n and the generator count k (f has 2^k terms),
# so jobs from one pool cost alike.  Sorted by latency, two blocks give
# ranks 1-20 n = 6 with k = 2, 21-110 n = 6 with k = 3, 111-128 n = 7,
# 129-144 n = 8 and 145-150 n = 9, 10: job_p50_ms (rank 75.5) and
# job_p90_ms (rank 135.9) each fall well inside one group, and the
# 90 jobs around the median keep it steady from seed to seed.
BLOCK = (
    (((1, 5), (2, 4), (5, 1), (6, 0)), 10),
    (((0, 6), (3, 3), (4, 2)), 45),
    (((2, 5), (1, 6), (3, 4)), 5),
    (((0, 7), (4, 3)), 4),
    (((0, 8), (4, 4), (1, 7), (5, 3)), 8),
    (((0, 9), (3, 6), (2, 7), (4, 5)), 2),
    (((0, 10), (3, 7), (4, 6), (7, 3)), 1),
)
# A block takes about 9 s on a 2-core x86-64 machine with Python 3.11.
SECONDS_PER_BLOCK = 10
QUERIES_IN = 4
QUERIES_OUT = 4


def _oracles():
    import oracles  # tests/oracles.py, on sys.path in the parent only

    return oracles


def canonical_order(n: int) -> list[int]:
    """Blades by grade, then lexicographic index order, as the CLI lists them."""
    return [mask_of(c) for k in range(n + 1)
            for c in combinations(range(1, n + 1), k)]


def generator_count(p: int, q: int) -> int:
    return q - cliffideal.radon_hurwitz(q - p)


def _signed_group(p: int, gens: list[tuple[int, int]]) -> dict[int, int]:
    """{mask: sign} of every product of the signed generators s_i e_{t_i}."""
    product = _oracles().clifford_blade_product
    group = {0: 1}
    for sign, mask in gens:
        for m, s in list(group.items()):
            t, ind = product(mask_indices(m), mask_indices(mask), p)
            key = mask_of(ind)
            group[key] = s * sign * t
    return group


def _search(rng: random.Random, p: int, q: int, k: int) -> list[int]:
    """k commuting blades that square to +1 and are independent over F_2."""
    product = _oracles().clifford_blade_product
    n = p + q
    blades = list(range(1, 1 << n))
    while True:
        rng.shuffle(blades)
        chosen: list[int] = []
        span = {0}
        for m in blades:
            if m in span or product(mask_indices(m), mask_indices(m), p)[0] != 1:
                continue
            a = mask_indices(m)
            if any(product(a, mask_indices(c), p)[0] != product(mask_indices(c), a, p)[0]
                   for c in chosen):
                continue
            chosen.append(m)
            span |= {s ^ m for s in span}
            if len(chosen) == k:
                return chosen


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 8))


def _mul(x: dict[int, Fraction], y: dict[int, Fraction], p: int) -> dict[int, Fraction]:
    o = _oracles()
    out = o.multiply_dicts({mask_indices(m): c for m, c in x.items()},
                           {mask_indices(m): c for m, c in y.items()}, p)
    return {mask_of(ind): c for ind, c in out.items()}


def make_jobs(seed: int, seconds: int) -> list[dict]:
    rng = random.Random(f"ideal_ladder:{seed}")
    blocks = max(1, round(seconds / SECONDS_PER_BLOCK))
    sigs = [pool[(count * b + i) % len(pool)]
            for b in range(blocks) for pool, count in BLOCK for i in range(count)]
    rng.shuffle(sigs)
    seen = set()
    jobs = []
    for p, q in sigs:
        n, k = p + q, generator_count(p, q)
        while True:
            gens = [(rng.choice((1, -1)), m) for m in _search(rng, p, q, k)]
            group = _signed_group(p, gens)
            key = (p, q, frozenset(group.items()))
            if key not in seen:
                break
        seen.add(key)
        spec = cliffideal.IdempotentSpec(cliffideal.Signature(p, q),
                                         tuple((s, mask_indices(m)) for s, m in gens))
        report = cliffideal.validate_generators(spec)
        if not report.ok:
            raise RuntimeError(f"generator search produced an invalid set: {report.violations}")
        f = {m: Fraction(s, 1 << k) for m, s in group.items()}
        queries, answers = [], []
        for inside in [True] * QUERIES_IN + [False] * QUERIES_OUT:
            x: dict[int, Fraction] = {}
            for b in rng.sample(range(1 << n), 2):
                for m, c in _mul({b: _rational(rng)}, f, p).items():
                    x[m] = x.get(m, 0) + c
            if not inside:
                # x*f = x holds exactly on the ideal, and e_m*f != e_m for k >= 1
                m = rng.randrange(1 << n)
                x[m] = x.get(m, 0) + _rational(rng)
            x = {m: c for m, c in x.items() if c}
            if (_mul(x, f, p) == x) != inside:
                raise RuntimeError("query construction disagrees with x*f = x")
            queries.append({str(m): str(c) for m, c in x.items()})
            answers.append(inside)
        order = list(range(len(queries)))
        rng.shuffle(order)
        jobs.append({
            "sig": [p, q],
            "gens": [[s, list(mask_indices(m))] for s, m in gens],
            "queries": [queries[i] for i in order],
            "expect": {"f": {str(m): str(c) for m, c in f.items()}, "k": k,
                       "answers": [answers[i] for i in order]},
        })
    return jobs


# -- worker side --------------------------------------------------------------

def decode(job: dict):
    """Engine objects for one job, built before the timed loop."""
    sig = cliffideal.Signature(*job["sig"])
    spec = cliffideal.IdempotentSpec(sig, tuple((s, tuple(t)) for s, t in job["gens"]))
    queries = [cliffideal.Multivector(sig, {int(m): Fraction(c) for m, c in q.items()})
               for q in job["queries"]]
    candidates = [mask_indices(m) for m in canonical_order(sig.n)]
    return spec, queries, candidates


def run_job(decoded):
    spec, queries, candidates = decoded
    f = cliffideal.build_idempotent(spec)
    ideal = cliffideal.left_ideal_basis(f)
    reps = cliffideal.coset_basis(f, candidates)
    primitive = cliffideal.is_primitive(f)
    answers = [ideal.contains(x) for x in queries]
    return f, ideal.dimension, reps, primitive, answers


def encode(result) -> dict:
    f, dim, reps, primitive, answers = result
    return {"f": {str(m): str(c) for m, c in f.term_map().items()}, "dim": dim,
            "reps": [list(r) for r in reps], "primitive": primitive, "answers": answers}


# -- checks (untimed) ---------------------------------------------------------

def check(job: dict, out: dict) -> str | None:
    """None when the job's output is right, else why it is wrong.

    The expected coset basis follows from F_2 linear algebra alone: b*f
    is +-b'*f exactly when b xor b' lies in the span of the generator
    masks, and distinct cosets have disjoint supports, so the greedy pass
    in canonical order keeps the first blade of each coset.
    """
    p, q = job["sig"]
    n, k = p + q, job["expect"]["k"]
    if out["f"] != job["expect"]["f"]:
        return "built idempotent differs from the product of its factors"
    dim = 1 << (n - k)
    classified = cliffideal.classify(cliffideal.Signature(p, q)).minimal_ideal_dim
    if out["dim"] != dim or classified != dim:
        return f"ideal dimension {out['dim']}, expected {dim}"
    span = [int(m) for m in job["expect"]["f"]]
    seen, reps = set(), []
    for m in canonical_order(n):
        coset = min(m ^ s for s in span)
        if coset not in seen:
            seen.add(coset)
            reps.append(list(mask_indices(m)))
    if out["reps"] != reps or len(reps) != dim:
        return "coset basis differs from the canonical first blade of each coset"
    if out["primitive"] is not True:
        return "is_primitive returned False for a primitive idempotent"
    if out["answers"] != job["expect"]["answers"]:
        return "IdealBasis.contains disagrees with how the query was built"
    return None
