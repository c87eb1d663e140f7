"""Command-line front door.

Thin shell over the library: parse flags, call one library function,
print canonical text (or JSON with --json).  Exit codes are a stable
contract: 0 success, 1 semantic or validation failure, 2 parse or
usage error, 141 the reader of stdout went away (128 + SIGPIPE).
A handler returns 0, or 1 for a verdict it prints, and raises for a
refusal; main alone maps an exception to its exit code: _UsageError,
ParseError and SchemaError to 2, any other ValueError to 1.
_COMMANDS lists each command's arguments once.  A plain argv is read from it
directly; argparse, built from it, runs only for help and refusals, so every
usage, help and error text is argparse's.
main registers gc.freeze to run at interpreter exit, once per process: the
collections at shutdown then skip the heap, a walk that would cost more
than most commands.  So cyclic garbage still alive at exit is not collected
and its __del__ methods do not run (Python does not promise that they do):
a buffered file or a socket left open in a reference cycle is then neither
flushed nor closed, and its unwritten data is lost.  weakref.finalize
callbacks still run through their own atexit hook.  This holds for every
program that calls main in-process too, at its own exit; its heap is never
frozen while it runs.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
from functools import cache
from types import SimpleNamespace

from .algebra import Multivector, Signature, blade_table, mask_indices
from .exterior import HodgeConvention, clifford_hodge, hodge_star, wedge
from .exprio import (
    ParseError,
    SchemaError,
    from_json,
    parse,
    parse_blade,
    print_canonical,
    to_json,
)
from .ideals import (
    GeneratorError,
    IdempotentSpec,
    build_idempotent,
    classify,
    coset_basis,
    decompose_algebra,
    is_orthogonal,
    left_ideal_basis,
    validate_generators,
)
# structures and verifier are imported only by the handlers that use them

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `yes | head`


class _UsageError(Exception):
    """A flag or argument value the command cannot read: exit 2, as argparse's own errors."""


def _int(text: str, message: str) -> int:
    """int(text), or a usage error with message where int() refuses text, digit limit included."""
    try:
        return int(text)
    except ValueError:
        raise _UsageError(message) from None


def _parse_sig(text: str) -> Signature:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"--sig expects 'p,q', got {text!r}")
    p, q = (_int(part, f"--sig expects integers, got {text!r}") for part in parts)
    return Signature(p, q)


def _read_exprs(raw: list[str]) -> list[str]:
    """raw with each '-' replaced by stdin's text, read once."""
    stdin_text = sys.stdin.read() if "-" in raw else None
    return [stdin_text if item == "-" else item for item in raw]


def _bool(x: bool) -> str:
    return "true" if x else "false"


# -- eval ----------------------------------------------------------------

def _cmd_eval(args) -> int:
    sig = _parse_sig(args.sig)
    exprs = _read_exprs(args.exprs)
    op = args.op

    def need(count: int) -> None:
        if len(exprs) != count:
            raise _UsageError(f"--op {op} expects exactly {count} expression(s), got {len(exprs)}")

    if op in ("product", "wedge"):
        kind = "clifford" if op == "product" else "form"
        result = parse(exprs[0], sig, kind=kind)
        for text in exprs[1:]:
            x = parse(text, sig, kind=kind)
            result = result * x if op == "product" else wedge(result, x)
    elif op.startswith("star="):
        need(1)
        conv = HodgeConvention.from_token(op[len("star="):])
        if conv.is_exterior:
            result = hodge_star(parse(exprs[0], sig, kind="form"), conv)
        else:
            result = clifford_hodge(parse(exprs[0], sig), conv)
    elif op.startswith("grade="):
        need(1)
        k = _int(op[len("grade="):], f"--op grade expects an integer, got {op!r}")
        result = parse(exprs[0], sig).grade(k)
    elif op == "reverse":
        need(1)
        result = parse(exprs[0], sig).reverse()
    else:
        raise _UsageError(f"unknown --op {op!r}")

    print(to_json(result) if args.json else print_canonical(result))
    return EXIT_OK


# -- idempotent ----------------------------------------------------------

def _split_generators(text: str) -> list[str]:
    """text cut at each comma whose first brace after it is not '}' (a comma inside e{...}
    separates indices), in one right-to-left pass."""
    chunks, end, inside = [], len(text), False
    for i in range(len(text) - 1, -1, -1):
        if text[i] in "{}":
            inside = text[i] == "}"
        elif text[i] == "," and not inside:
            chunks.append(text[i + 1:end])
            end = i
    chunks.append(text[:end])
    return chunks[::-1]


def _parse_generators(text: str, n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    gens = []
    for chunk in _split_generators(text):
        token = chunk.strip()
        if not token:
            raise _UsageError("empty generator in --gens")
        try:
            mask = parse_blade(token[1:] if token[0] in "+-" else token, n)
        except ParseError as exc:
            raise _UsageError(f"generator {token!r} is not a signed blade like '+e135' or "
                              f"'+e{{1,10}}': {exc}") from None
        gens.append((-1 if token[0] == "-" else 1, mask_indices(mask)))
    return tuple(gens)


def _cmd_idempotent(args) -> int:
    sig = _parse_sig(args.sig)
    spec = IdempotentSpec(sig, _parse_generators(args.gens, sig.n))

    if args.mode == "check":
        report = validate_generators(spec)
        print(f"k: {report.k} (expected {report.expected_k})")
        print(f"valid: {_bool(report.ok)}")
        for v in report.violations:
            print(f"violation: {v}")
        return EXIT_OK if report.ok else EXIT_SEMANTIC

    try:  # each validates the generators once
        built = build_idempotent(spec) if args.mode == "ideal" else decompose_algebra(spec)
    except GeneratorError as exc:
        print("\n".join(f"violation: {v}" for v in exc.args), file=sys.stderr)
        return EXIT_SEMANTIC

    if args.mode == "ideal":
        ideal = left_ideal_basis(built)
        print(f"dimension: {ideal.dimension}")
        table = blade_table(sig.n)
        reps = coset_basis(built, table.index)  # the table's own tuples, in canonical order
        print("coset basis: " + ", ".join(table.text[table.index[r]] for r in reps))
        return EXIT_OK

    # decompose: built holds the pieces
    for i, piece in enumerate(built, start=1):
        print(f"piece {i}: {print_canonical(piece)}")
    orthogonal = all(is_orthogonal(a, b) for i, a in enumerate(built) for b in built[i + 1:])
    print(f"pairwise orthogonal: {_bool(orthogonal)}")
    print(f"sum to 1: {_bool(sum(built, Multivector.zero(sig)) == Multivector.scalar(sig, 1))}")
    return EXIT_OK


# -- structure -----------------------------------------------------------

def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _load_structure(kind: str, path: str):
    from .structures import _KINDS, structure_from_json
    s = structure_from_json(_read_file(path))
    if not isinstance(s, _KINDS[kind][0]):
        raise ValueError(f"{path} holds a {type(s).__name__}, not a {kind} structure")
    return s


# Each prints its kind's invariants; the verdict is whether the kind's idempotent builds.
def _validate_su3(s, idempotent) -> None:
    print(f"psi+ ^ psi-: {print_canonical(wedge(s.psi_plus, s.psi_minus))}")
    print(f"omega^3: {print_canonical(wedge(wedge(s.omega, s.omega), s.omega))}")
    idempotent(s)
    print("compatible: true")


def _validate_g2(s, idempotent) -> None:
    from .structures import g2_metric
    report = g2_metric(s)
    identity = all(report.metric[i][j] == (1 if i == j else 0) for i in range(7) for j in range(7))
    print(f"metric: {'identity' if identity else 'nonidentity'}; orbit: {report.tag}")
    idempotent(s)


def _validate_spin7(s, idempotent) -> None:
    print(f"self-dual: {_bool(hodge_star(s.cayley) == s.cayley)}")
    print(f"Omega ^ Omega: {print_canonical(wedge(s.cayley, s.cayley))}")
    f = idempotent(s)
    print(f"idempotent: primitive true, ideal dim {left_ideal_basis(f).dimension}")


_VALIDATE = {"su3": _validate_su3, "g2": _validate_g2, "spin7": _validate_spin7}


def _cmd_structure(args) -> int:
    from .structures import _KINDS, structure_to_json
    kind = args.kind
    _, model, _, fields, idempotent, recover = _KINDS[kind]
    if args.mode == "recover":
        if args.input is None:
            raise _UsageError("--recover needs --input with a JSON multivector")
        x = from_json(_read_file(args.input))
        if not isinstance(x, Multivector):
            raise ValueError("--recover expects a Clifford value, not a form")
        s = recover(x)
        print(structure_to_json(s) if args.json else
              "\n".join(f"{label}: {print_canonical(getattr(s, field))}" for field, label in fields))
        return EXIT_OK

    s = model() if args.input is None else _load_structure(kind, args.input)
    if args.mode == "validate":
        _VALIDATE[kind](s, idempotent)
        return EXIT_OK
    f = idempotent(s)
    print(to_json(f) if args.json else
          f"{print_canonical(f)}\nprimitive: true, ideal dim {left_ideal_basis(f).dimension}")
    return EXIT_OK


# -- classify ------------------------------------------------------------

def _cmd_classify(args) -> int:
    cls = classify(Signature(args.p, args.q))
    print(f"{cls}, minimal ideal dim {cls.minimal_ideal_dim}")
    return EXIT_OK


# -- verify-paper --------------------------------------------------------

def _cmd_verify_paper(args) -> int:
    from .verifier import Report, _catalog, _detail_lines, load_golden, run_all, run_claim
    if args.claim is not None:
        try:
            result = run_claim(args.claim)
        except KeyError as exc:
            raise _UsageError(str(exc.args[0])) from None
        claim = _catalog()[result.id]
        print(Report(results=(result,)).to_json() if args.format == "json" else "\n".join(
            [f"{result.id} {result.status} [{claim.category}] {claim.statement}", *_detail_lines(result)]))
        expected = load_golden().get(result.id)
        if result.status != expected:
            print(f"status drift: {result.id} expected {expected}, got {result.status}",
                  file=sys.stderr)
            return EXIT_SEMANTIC
        return EXIT_OK

    report = run_all()
    print(report.to_json() if args.format == "json" else report.to_text())
    deviations = report.golden_deviations()
    if deviations:
        for d in deviations:
            print(f"status drift: {d}", file=sys.stderr)
        return EXIT_SEMANTIC
    return EXIT_OK


# -- lift ----------------------------------------------------------------

def _cmd_lift(args) -> int:
    from .structures import g2_idempotent, lift_su3_to_g2
    phi = lift_su3_to_g2(_load_structure("su3", args.source))
    f = g2_idempotent(phi)
    if args.json:
        print(f'{{"phi": {to_json(phi.phi)}, "idempotent": {to_json(f)}}}')
    else:
        print(f"phi: {print_canonical(phi.phi)}")
        print(f"idempotent: {print_canonical(f)}")
        print(f"primitive: true, ideal dim {left_ideal_basis(f).dimension}")
    return EXIT_OK


# -- dispatch ------------------------------------------------------------

# Each command's handler, help line and arguments in argparse's order: (name, add_argument's
# keywords), or (dest, flags) for a required group of flags that stores the flag's name in dest.
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate products, wedges, duals, grade parts", (
        ("--sig", dict(required=True, metavar="p,q")),
        ("exprs", dict(nargs="+", help="expressions; '-' reads stdin")),
        ("--op", dict(required=True, help="product | wedge | star=CONVENTION | grade=k | reverse")),
        ("--json", dict(action="store_true")))),
    "idempotent": (_cmd_idempotent, "build and inspect factored idempotents", (
        ("--sig", dict(required=True, metavar="p,q")),
        ("--gens", dict(required=True, metavar="'+e135,-e146,-e236'")),
        ("mode", ("--check", "--ideal", "--decompose")))),
    "structure": (_cmd_structure, "structure tensors and their idempotents", (
        ("kind", dict(choices=("su3", "g2", "spin7"))),
        ("--model", dict(action="store_true", help="use the built-in model tensor")),
        ("--input", dict(metavar="file.json")),
        ("mode", ("--to-idempotent", "--recover", "--validate")),
        ("--json", dict(action="store_true")))),
    "classify": (_cmd_classify, "matrix-algebra type of R_{p,q}", (
        ("p", dict(type=int)), ("q", dict(type=int)))),
    "verify-paper": (_cmd_verify_paper, "machine-check the documented identities", (
        ("--claim", dict(metavar="ID")),
        ("--format", dict(choices=("text", "json"), default="text")))),
    "lift": (_cmd_lift, "lift an su3 structure to a g2 idempotent", (
        ("--from", dict(dest="source", required=True, metavar="su3.json")),
        ("--json", dict(action="store_true")))),
}
_DASH_VALUES = ("--gens", "--from")  # flags whose value may start with '-'


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of _COMMANDS, which reads help and the argvs _read_argv refuses."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="cliffideal",
        description="Exact Clifford/exterior algebra, idempotents, ideals and structure tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_line, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for key, spec in arguments:
            if isinstance(spec, tuple):
                group = p.add_mutually_exclusive_group(required=True)
                for flag in spec:
                    group.add_argument(flag, dest=key, action="store_const", const=flag[2:])
            else:
                p.add_argument(key, **spec)
        p.set_defaults(fn=fn)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace _build_parser's parser returns for argv, read from _COMMANDS alone; None
    for argparse to read: help, an abbreviated or unknown flag, '--', a flag given twice or
    two of one group, a value starting with '-' (save --gens= and --from= other than '--'),
    positionals split by a flag, a bad int or choice, or a missing required argument."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    fn, _, arguments = _COMMANDS[argv[0]]
    values, flags, positionals, required = {"command": argv[0], "fn": fn}, {}, [], set()
    for key, spec in arguments:
        if isinstance(spec, tuple):
            flags.update((flag, (key, {}, flag[2:])) for flag in spec)
            values[key] = None
            required.add(key)
        elif key.startswith("-"):
            dest = spec.get("dest", key[2:].replace("-", "_"))
            const = True if spec.get("action") == "store_true" else None
            flags[key] = (dest, spec, const)
            values[dest] = False if const else spec.get("default")
            if spec.get("required"):
                required.add(dest)
        else:
            positionals.append((key, spec))

    def read(spec: dict, text: str):
        value = spec.get("type", str)(text)
        if value not in spec.get("choices", (value,)):
            raise ValueError(text)
        return value

    seen, loose, where, i = set(), [], [], 1
    try:
        while i < len(argv):
            token, i = argv[i], i + 1
            if token == "-" or not token.startswith("-"):
                loose.append(token)
                where.append(i)
                continue
            flag, eq, value = token.partition("=")
            if flag not in flags or flags[flag][0] in seen:
                return None
            dest, spec, const = flags[flag]
            seen.add(dest)
            if const is not None:
                if eq:
                    return None
                values[dest] = const
                continue
            if not eq:
                if i == len(argv) or argv[i].startswith("-") and argv[i] != "-":
                    return None
                value, i = argv[i], i + 1
            elif value in ("", "--") or value.startswith("-") and flag not in _DASH_VALUES:
                return None
            values[dest] = read(spec, value)
        if not required <= seen or where and where[-1] - where[0] != len(where) - 1:
            return None
        for key, spec in positionals:
            if not loose:
                return None
            take = len(loose) if spec.get("nargs") == "+" else 1
            got, loose = [read(spec, text) for text in loose[:take]], loose[take:]
            values[key] = got if spec.get("nargs") else got[0]
    except ValueError:
        return None
    return None if loose else SimpleNamespace(**values)


def _merge_dash_values(argv: list[str]) -> list[str]:
    """['--gens', '-e1234,...'] as ['--gens=-e1234,...'], which argparse reads as a value."""
    out = []
    for arg in argv:
        if out and out[-1] in _DASH_VALUES:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@cache  # once per process; unregistering per call would leave 3.11's atexit a dead slot each time
def _freeze_at_exit() -> None:
    atexit.register(gc.freeze)


def main(argv: list[str] | None = None) -> int:
    _freeze_at_exit()
    argv = _merge_dash_values(sys.argv[1:] if argv is None else argv)
    args = _read_argv(argv)
    if args is None:
        for flag, _, value in (token.partition("=") for token in argv):
            # '--' as a value: argparse releases read it differently (3.11 as an empty list)
            if value == "--" and len(flag) > 2 and any(key.startswith(flag) for key in _DASH_VALUES):
                _build_parser().error(f"argument {flag}: expected one argument")
        args = _build_parser().parse_args(argv)
    if args.fn is _cmd_structure and args.model == (args.input is not None):
        _build_parser().error("structure needs exactly one of --model or --input")
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # Nobody reads the rest; stdout goes to devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (_UsageError, ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:  # StructureError, GeneratorError and the other refusals
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    raise SystemExit(main())
