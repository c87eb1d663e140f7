"""algebra_mix: `cliffideal eval`-shaped requests, parsed, applied and printed.

Each job parses its operands, applies one of product, wedge, star= under
each of the four conventions, grade=k or reverse, and prints the result.
Operands come as README-grammar text for n <= 9 and as the JSON encoding
for n = 10..12, because the text grammar is documented only up to n = 9.
Most operands are sparse, a few terms each like the structure tensors; a
small share of products are dense at n = 6..8.  Coefficients range from
the paper's +-1/8 to about 32-bit numerators and denominators.  algebra,
exterior and exprio do all the work; linalg and ideals do none.

Every result is compared with tests/oracles.py and must survive a text or
JSON round trip (see check()).
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

# Engine functions are looked up on the package at call time, so the
# tracer's wrappers (installed on the package's attributes) see the calls.
import cliffideal
from common import mask_indices

# One block: fixed counts per operation, so every seed asks for about the
# same work; the seed picks dimensions, signatures, blades, coefficients
# and order.
SPARSE_BLOCK = (("product", 600), ("wedge", 400), ("star=ext-dual-first", 120),
                ("star=ext-alpha-first", 120), ("star=cliff-left", 120),
                ("star=cliff-right", 120), ("grade", 280), ("reverse", 240))
DENSE_BLOCK = (6, 6, 7)  # dimensions of the dense products in each block
DENSE_N8_EVERY = 3  # one dense n = 8 product every third block
# A block takes about 1 s on a 2-core x86-64 machine with Python 3.11, half
# of it in the 2000 sparse jobs and half in the dense products.  Checking a
# block against the slow oracles takes longer than running it, so a block
# is budgeted 2 s of the run.
SECONDS_PER_BLOCK = 2
TEXT_MAX_N = 9


def _coef(rng: random.Random) -> Fraction:
    kind = rng.random()
    sign = rng.choice((-1, 1))
    if kind < 0.4:  # the paper's normalisations
        return sign * Fraction(rng.choice((1, 2, 4, 8, 16)), rng.choice((1, 2, 4, 8, 16)))
    if kind < 0.8:
        return sign * Fraction(rng.randint(1, 99), rng.randint(1, 99))
    return sign * Fraction(rng.randint(1, 1 << 32), rng.randint(1, 1 << 32))


def _text(terms: dict[int, Fraction], rng: random.Random) -> str:
    """README grammar, terms in random order."""
    items = list(terms.items())
    rng.shuffle(items)
    out = []
    for i, (mask, c) in enumerate(items):
        mag = abs(c)
        blade = "e" + "".join(map(str, mask_indices(mask)))
        body = str(mag) if not mask else (blade if mag == 1 else f"{mag}*{blade}")
        if i == 0:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


def _json(terms: dict[int, Fraction], p: int, q: int, kind: str) -> str:
    return json.dumps({"signature": [p, q], "kind": kind,
                       "terms": [{"blade": list(mask_indices(m)), "coef": str(c)}
                                 for m, c in terms.items()]})


def _sparse(rng: random.Random, n: int) -> dict[int, Fraction]:
    return {m: _coef(rng) for m in rng.sample(range(1 << n), rng.randint(1, min(6, 1 << n)))}


def _dense(rng: random.Random, n: int) -> dict[int, Fraction]:
    return {m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 8))
            for m in range(1 << n)}


def make_jobs(seed: int, seconds: int) -> list[dict]:
    rng = random.Random(f"algebra_mix:{seed}")
    blocks = max(1, round(seconds / SECONDS_PER_BLOCK))
    plan = []
    for b in range(blocks):
        for op, count in SPARSE_BLOCK:
            plan += [(op, None)] * count
        plan += [("product", n) for n in DENSE_BLOCK]
        if b % DENSE_N8_EVERY == 0:
            plan.append(("product", 8))
    rng.shuffle(plan)
    jobs = []
    for op, dense_n in plan:
        n = dense_n or rng.randint(3, 12)
        form = op == "wedge" or op.startswith("star=ext")
        p = 0 if form else rng.randint(0, n)
        q = n - p
        arity = 2 if op in ("product", "wedge") else 1
        operands = [_dense(rng, n) if dense_n else _sparse(rng, n) for _ in range(arity)]
        if op == "grade":
            grades = [len(mask_indices(m)) for m in operands[0]]
            k = rng.choice(grades) if rng.random() < 0.7 else rng.randint(0, n)
            op = f"grade={k}"
        kind = "form" if form else "clifford"
        fmt = "text" if n <= TEXT_MAX_N else "json"
        jobs.append({
            "op": op, "sig": [p, q], "kind": kind, "fmt": fmt,
            "operands": [_text(t, rng) if fmt == "text" else _json(t, p, q, kind)
                         for t in operands],
            "expect": {"terms": [{str(m): str(c) for m, c in t.items()} for t in operands]},
        })
    return jobs


# -- worker side --------------------------------------------------------------

def decode(job: dict):
    sig = cliffideal.Signature(*job["sig"])
    op = job["op"]
    arg = None
    if op.startswith("star="):
        arg = cliffideal.HodgeConvention.from_token(op[len("star="):])
    elif op.startswith("grade="):
        arg = int(op[len("grade="):])
    return op.split("=")[0], arg, sig, job["kind"], job["fmt"], job["operands"]


def run_job(decoded) -> str:
    op, arg, sig, kind, fmt, operands = decoded
    if fmt == "text":
        xs = [cliffideal.parse(t, sig, kind=kind) for t in operands]
    else:
        xs = [cliffideal.from_json(t) for t in operands]
    if op == "product":
        r = xs[0] * xs[1]
    elif op == "wedge":
        r = cliffideal.wedge(xs[0], xs[1])
    elif op == "star":
        if arg.is_exterior:
            r = cliffideal.hodge_star(xs[0], arg)
        else:
            r = cliffideal.clifford_hodge(xs[0], arg)
    elif op == "grade":
        r = xs[0].grade(arg)
    else:
        r = xs[0].reverse()
    return cliffideal.print_canonical(r) if fmt == "text" else cliffideal.to_json(r)


# -- checks (untimed) ---------------------------------------------------------

def _oracle(job: dict) -> dict[tuple[int, ...], Fraction]:
    import oracles  # tests/oracles.py, on sys.path in the parent only

    p, q = job["sig"]
    n = p + q
    xs = [{mask_indices(int(m)): Fraction(c) for m, c in t.items()}
          for t in job["expect"]["terms"]]
    op = job["op"]
    if op == "product":
        return oracles.multiply_dicts(xs[0], xs[1], p)
    if op == "wedge":
        return oracles.wedge_dicts(xs[0], xs[1])
    if op.startswith("grade="):
        k = int(op[len("grade="):])
        return {ind: c for ind, c in xs[0].items() if len(ind) == k}
    if op == "reverse":
        return {ind: oracles.sort_sign(ind[::-1])[0] * c for ind, c in xs[0].items()}
    conv = op[len("star="):]
    vol = {tuple(range(1, n + 1)): Fraction(1)}
    if conv == "cliff-left":
        return oracles.multiply_dicts(vol, xs[0], p)
    if conv == "cliff-right":
        return oracles.multiply_dicts(xs[0], vol, p)
    out: dict[tuple[int, ...], Fraction] = {}
    for ind, c in xs[0].items():
        sign, comp = oracles.hodge_blade(ind, n, dual_first=conv == "ext-dual-first")
        out[comp] = out.get(comp, 0) + sign * c
    return {ind: c for ind, c in out.items() if c}


_TERM = re.compile(r"(?:(\d+(?:/\d+)?)\*)?e([1-9]+)|(\d+(?:/\d+)?)")


def _read_text(text: str) -> dict[tuple[int, ...], Fraction]:
    """Terms of printed text, read without the engine's parser (n <= 9)."""
    if text == "0":
        return {}
    pieces = re.findall(r"(^-|^| - | \+ )([^ ]+)", text)
    if "".join(sign + body for sign, body in pieces) != text:
        raise ValueError(f"unreadable text {text!r}")
    out = {}
    for sign, body in pieces:
        m = _TERM.fullmatch(body)
        if m is None:
            raise ValueError(f"unreadable term {body!r}")
        coef = Fraction(m.group(1) or m.group(3) or 1) * (-1 if "-" in sign else 1)
        ind = tuple(int(d) for d in m.group(2) or "")
        if ind in out:
            raise ValueError(f"blade {ind} printed twice")
        out[ind] = coef
    return out


def check(job: dict, out: str) -> str | None:
    """None when the printed result is right, else why it is wrong."""
    p, q = job["sig"]
    try:
        if job["fmt"] == "text":
            got = _read_text(out)
            back = cliffideal.print_canonical(cliffideal.parse(out, cliffideal.Signature(p, q),
                                                               kind=job["kind"]))
        else:
            obj = json.loads(out)
            if obj["signature"] != [p, q] or obj["kind"] != job["kind"]:
                return "JSON output has the wrong signature or kind"
            got = {tuple(t["blade"]): Fraction(t["coef"]) for t in obj["terms"]}
            back = cliffideal.to_json(cliffideal.from_json(out))
    except (ValueError, KeyError, TypeError) as exc:
        return f"output does not read back: {exc}"
    if got != _oracle(job):
        return "result differs from the oracle"
    if back != out:
        return "printed result does not round-trip"
    return None
