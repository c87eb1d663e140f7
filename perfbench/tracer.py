"""Per-layer tracing installed from outside the program.

Tracer.install() replaces each traced function on every loaded
cliffideal module attribute that binds it (so `verifier.left_ideal_basis`
and `cli.wedge` are traced as well as the defining module's name, and so
are dispatch tables such as `cli._IDEMPOTENT_OF`), and the traced
RowBasis methods on the class.  Each wrapper records one span
per call: its duration, and its self time, which is the duration minus
the traced spans nested inside it.  Spans are aggregated per name in
memory and written out once, when the traced work ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

FUNCTIONS = (
    ("cli", "main"),
    ("verifier", "run_claim"),
    ("structures", "su3_idempotent"),
    ("structures", "g2_idempotent"),
    ("structures", "spin7_idempotent"),
    ("structures", "su3_recover"),
    ("structures", "spin7_recover"),
    ("structures", "g2_metric"),
    ("structures", "lift_su3_to_g2"),
    ("structures", "lift_idempotent_6_to_7"),
    ("ideals", "build_idempotent"),
    ("ideals", "left_ideal_basis"),
    ("ideals", "coset_basis"),
    ("ideals", "is_primitive"),
    ("ideals", "decompose_algebra"),
    ("linalg", "det"),
    ("algebra", "geometric_product"),
    ("algebra", "grade_project"),
    ("algebra", "reverse"),
    ("exterior", "wedge"),
    ("exterior", "hodge_star"),
    ("exterior", "clifford_hodge"),
    ("exterior", "interior_product"),
    ("exprio", "parse"),
    ("exprio", "print_canonical"),
    ("exprio", "from_json"),
    ("exprio", "to_json"),
)
METHODS = (("linalg", "RowBasis", "add"), ("linalg", "RowBasis", "contains"))

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + tuple(f"{m}.{c}.{f}" for m, c, f in METHODS)
CLAIM_IDS = tuple(f"C{i}" for i in range(1, 27))


def _coef_bits(x) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for _, c in x.term_map().items()), default=0)


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.claim_s: dict[str, float] = {}
        self.counts = {"geometric_product.term_pairs": 0, "geometric_product.max_coef_bits": 0,
                       "wedge.term_pairs": 0, "RowBasis.add.accepted": 0}
        self._ideal_args: set = set()
        self._stack: list[float] = []  # traced time of children, one slot per open span
        self._restore: list[tuple[object, str, object]] = []  # (owner, name or key, original)

    # -- counters taken at the span boundary ---------------------------------

    def _after(self, name: str, args, result, dt: float) -> None:
        if name == "algebra.geometric_product":
            self.counts["geometric_product.term_pairs"] += len(args[0]) * len(args[1])
            bits = _coef_bits(result)
            if bits > self.counts["geometric_product.max_coef_bits"]:
                self.counts["geometric_product.max_coef_bits"] = bits
        elif name == "exterior.wedge":
            self.counts["wedge.term_pairs"] += len(args[0]) * len(args[1])
        elif name == "linalg.RowBasis.add":
            self.counts["RowBasis.add.accepted"] += bool(result)
        elif name == "ideals.left_ideal_basis":
            self._ideal_args.add(args[0])
        elif name == "verifier.run_claim":
            self.claim_s[args[0]] = self.claim_s.get(args[0], 0.0) + dt

    def _wrap(self, name: str, fn):
        span = self.spans[name]
        stack = self._stack
        after = self._after
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                nested = stack.pop()
                span[0] += 1
                span[1] += dt
                span[2] += dt - nested
                if stack:
                    stack[-1] += dt
            after(name, args, result, dt)
            if stack:  # keep the counters' own cost out of the caller's self time
                stack[-1] += perf() - t0 - dt
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "cliffideal" or name.startswith("cliffideal."))}
        for mod_name, fn_name in FUNCTIONS:
            home = modules.get(f"cliffideal.{mod_name}")
            if home is None:
                continue  # that layer is not loaded in this process
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
                    elif type(value) is dict:
                        for key, entry in list(value.items()):
                            if entry is original:
                                self._restore.append((value, key, entry))
                                value[key] = wrapper
        for mod_name, cls_name, meth in METHODS:
            home = modules.get(f"cliffideal.{mod_name}")
            if home is None:
                continue
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{mod_name}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if type(owner) is dict:
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- export and merge ---------------------------------------------------

    def export(self) -> dict:
        """Aggregates of this process, in the form merge() reads."""
        return {"spans": self.spans, "claim_s": self.claim_s, "counts": self.counts,
                "distinct_idempotents": len(self._ideal_args)}

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**self.export(), **extra}, fh)


def merge(parts: list[dict]) -> dict:
    """Sum aggregates of several processes; maxima stay maxima.

    Distinct idempotents are counted per process, the scope in which a
    memo inside the program could reuse an ideal.
    """
    out = Tracer().export()
    for part in parts:
        for name, (calls, total, self_s) in part["spans"].items():
            acc = out["spans"][name]
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for cid, s in part["claim_s"].items():
            out["claim_s"][cid] = out["claim_s"].get(cid, 0.0) + s
        for key, value in part["counts"].items():
            if key.endswith("max_coef_bits"):
                out["counts"][key] = max(out["counts"][key], value)
            else:
                out["counts"][key] += value
        out["distinct_idempotents"] += part["distinct_idempotents"]
    return out
