"""Command-line front door.

Thin shell over the library: parse flags, call one library function,
print canonical text (or JSON with --json).  Exit codes are a stable
contract: 0 success, 1 semantic or validation failure, 2 parse or
usage error, 141 the reader of stdout went away (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .algebra import Multivector, Signature, blade_table, mask_indices
from .exterior import ExteriorForm, HodgeConvention, clifford_hodge, hodge_star, wedge
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
    is_primitive,
    left_ideal_basis,
    validate_generators,
)
from .structures import (
    _IDEMPOTENT_OF,
    _KINDS,
    _RECOVER_OF,
    SU3Structure,
    StructureError,
    g2_idempotent,
    g2_metric,
    lift_su3_to_g2,
    spin7_idempotent,
    structure_from_json,
    structure_to_json,
)
from .verifier import Report, _claim_by_id, _detail_lines, load_golden, run_all, run_claim

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `yes | head`


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _semantic(message: str) -> _CliError:
    return _CliError(message, EXIT_SEMANTIC)


def _usage(message: str) -> _CliError:
    return _CliError(message, EXIT_PARSE)


def _parse_sig(text: str) -> Signature:
    parts = text.split(",")
    if len(parts) != 2:
        raise _usage(f"--sig expects 'p,q', got {text!r}")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise _usage(f"--sig expects integers, got {text!r}") from None
    try:
        return Signature(p, q)
    except ValueError as exc:
        raise _semantic(str(exc)) from None


def _read_exprs(raw: list[str]) -> list[str]:
    stdin_text: str | None = None
    out = []
    for item in raw:
        if item == "-":
            if stdin_text is None:
                stdin_text = sys.stdin.read()
            out.append(stdin_text)
        else:
            out.append(item)
    return out


def _bool(x: bool) -> str:
    return "true" if x else "false"


# -- eval ----------------------------------------------------------------

def _cmd_eval(args) -> int:
    sig = _parse_sig(args.sig)
    exprs = _read_exprs(args.exprs)
    op = args.op

    def need(count: int) -> None:
        if len(exprs) != count:
            raise _usage(f"--op {op} expects exactly {count} expression(s), got {len(exprs)}")

    if op in ("product", "wedge"):
        if not exprs:
            raise _usage(f"--op {op} expects at least one expression")
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
        try:
            k = int(op[len("grade="):])
        except ValueError:
            raise _usage(f"--op grade expects an integer, got {op!r}") from None
        result = parse(exprs[0], sig).grade(k)
    elif op == "reverse":
        need(1)
        result = parse(exprs[0], sig).reverse()
    else:
        raise _usage(f"unknown --op {op!r}")

    print(to_json(result) if args.json else print_canonical(result))
    return EXIT_OK


# -- idempotent ----------------------------------------------------------

def _parse_generators(text: str, n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    gens = []
    for chunk in re.split(r",(?![^{]*\})", text):  # a comma inside e{...} separates indices
        token = chunk.strip()
        if not token:
            raise _usage("empty generator in --gens")
        try:
            mask = parse_blade(token[1:] if token[0] in "+-" else token, n)
        except ParseError as exc:
            raise _usage(f"generator {token!r} is not a signed blade like '+e135' or "
                         f"'+e{{1,10}}': {exc}") from None
        gens.append((-1 if token[0] == "-" else 1, mask_indices(mask)))
    return tuple(gens)


def _cmd_idempotent(args) -> int:
    sig = _parse_sig(args.sig)
    try:
        spec = IdempotentSpec(sig, _parse_generators(args.gens, sig.n))
    except ValueError as exc:
        raise _semantic(str(exc)) from None
    report = validate_generators(spec)

    if args.mode == "check":
        print(f"k: {report.k} (expected {report.expected_k})")
        print(f"valid: {_bool(report.ok)}")
        for v in report.violations:
            print(f"violation: {v}")
        return EXIT_OK if report.ok else EXIT_SEMANTIC

    if not report.ok:
        for v in report.violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_SEMANTIC

    f = build_idempotent(spec)
    if args.mode == "ideal":
        ideal = left_ideal_basis(f)
        print(f"dimension: {ideal.dimension}")
        table = blade_table(sig.n)
        reps = coset_basis(f, table.index)  # the table's own tuples, in canonical order
        print("coset basis: " + ", ".join(table.text[table.index[r]] for r in reps))
        return EXIT_OK

    # decompose
    pieces = decompose_algebra(spec)
    for i, piece in enumerate(pieces, start=1):
        print(f"piece {i}: {print_canonical(piece)}")
    orthogonal = all(is_orthogonal(a, b) for i, a in enumerate(pieces) for b in pieces[i + 1:])
    total = sum(pieces, Multivector.zero(sig))
    print(f"pairwise orthogonal: {_bool(orthogonal)}")
    print(f"sum to 1: {_bool(total == Multivector.scalar(sig, 1))}")
    return EXIT_OK


# -- structure -----------------------------------------------------------

def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _semantic(f"cannot read {path}: {exc}") from None


def _load_structure(kind: str, path: str):
    s = structure_from_json(_read_file(path))
    if not isinstance(s, _KINDS[kind][0]):
        raise _semantic(f"{path} holds a {type(s).__name__}, not a {kind} structure")
    return s


def _print_idempotent_report(f: Multivector, json_out: bool) -> None:
    dim = left_ideal_basis(f).dimension
    if json_out:
        print(to_json(f))
    else:
        print(print_canonical(f))
        print(f"primitive: {_bool(is_primitive(f))}, ideal dim {dim}")


def _validate_su3(s) -> int:
    ww = wedge(s.psi_plus, s.psi_minus)
    w3 = wedge(wedge(s.omega, s.omega), s.omega)
    vol_coef = ww.coefficient(tuple(range(1, 7)))
    compatible = (
        wedge(s.omega, s.psi_plus).is_zero()
        and wedge(s.omega, s.psi_minus).is_zero()
        and ww == ExteriorForm.blade(6, tuple(range(1, 7))).scale(vol_coef)
        and vol_coef > 0
        and not w3.is_zero()
    )
    print(f"psi+ ^ psi-: {print_canonical(ww)}")
    print(f"omega^3: {print_canonical(w3)}")
    print(f"compatible: {_bool(compatible)}")
    return EXIT_OK if compatible else EXIT_SEMANTIC


def _validate_g2(s) -> int:
    report = g2_metric(s)
    identity = all(report.metric[i][j] == (1 if i == j else 0) for i in range(7) for j in range(7))
    metric_text = "identity" if identity else "nonidentity"
    print(f"metric: {metric_text}; orbit: {report.tag}")
    return EXIT_OK if report.tag == "definite" else EXIT_SEMANTIC


def _validate_spin7(s) -> int:
    star = hodge_star(s.cayley)
    self_dual = star == s.cayley
    square = wedge(s.cayley, s.cayley)
    print(f"self-dual: {_bool(self_dual)}")
    print(f"Omega ^ Omega: {print_canonical(square)}")
    if not self_dual:
        return EXIT_SEMANTIC
    f = spin7_idempotent(s)
    dim = left_ideal_basis(f).dimension
    print(f"idempotent: primitive {_bool(is_primitive(f))}, ideal dim {dim}")
    return EXIT_OK


_VALIDATE = {"su3": _validate_su3, "g2": _validate_g2, "spin7": _validate_spin7}


def _cmd_structure(args) -> int:
    kind = args.kind
    _, model, _, fields = _KINDS[kind]
    if args.mode == "recover":
        if args.input is None:
            raise _usage("--recover needs --input with a JSON multivector")
        x = from_json(_read_file(args.input))
        if not isinstance(x, Multivector):
            raise _semantic("--recover expects a Clifford value, not a form")
        s = _RECOVER_OF[kind](x)
        print(structure_to_json(s) if args.json else
              "\n".join(f"{label}: {print_canonical(getattr(s, field))}" for field, label in fields))
        return EXIT_OK

    s = model() if args.input is None else _load_structure(kind, args.input)
    if args.mode == "to-idempotent":
        _print_idempotent_report(_IDEMPOTENT_OF[kind](s), args.json)
        return EXIT_OK
    return _VALIDATE[kind](s)


# -- classify ------------------------------------------------------------

def _cmd_classify(args) -> int:
    try:
        sig = Signature(args.p, args.q)
    except ValueError as exc:
        raise _semantic(str(exc)) from None
    cls = classify(sig)
    print(f"{cls}, minimal ideal dim {cls.minimal_ideal_dim}")
    return EXIT_OK


# -- verify-paper --------------------------------------------------------

def _cmd_verify_paper(args) -> int:
    golden = load_golden()
    if args.claim is not None:
        try:
            result = run_claim(args.claim)
        except KeyError as exc:
            raise _usage(str(exc.args[0])) from None
        claim = _claim_by_id(result.id)
        print(Report(results=(result,)).to_json() if args.format == "json" else "\n".join(
            [f"{result.id} {result.status} [{claim.category}] {claim.statement}", *_detail_lines(result)]))
        expected = golden.get(result.id)
        if result.status != expected:
            print(f"status drift: {result.id} expected {expected}, got {result.status}",
                  file=sys.stderr)
            return EXIT_SEMANTIC
        return EXIT_OK

    report = run_all(args.format)
    print(report.to_json() if args.format == "json" else report.to_text())
    deviations = report.golden_deviations()
    if deviations:
        for d in deviations:
            print(f"status drift: {d}", file=sys.stderr)
        return EXIT_SEMANTIC
    return EXIT_OK


# -- lift ----------------------------------------------------------------

def _cmd_lift(args) -> int:
    s = structure_from_json(_read_file(args.source))
    if not isinstance(s, SU3Structure):
        raise _semantic(f"lift expects an su3 structure, got {type(s).__name__}")
    phi = lift_su3_to_g2(s)
    f = g2_idempotent(phi)
    dim = left_ideal_basis(f).dimension
    if args.json:
        print(json.dumps(
            {"phi": json.loads(to_json(phi.phi)), "idempotent": json.loads(to_json(f))},
            separators=(", ", ": ")))
    else:
        print(f"phi: {print_canonical(phi.phi)}")
        print(f"idempotent: {print_canonical(f)}")
        print(f"primitive: {_bool(is_primitive(f))}, ideal dim {dim}")
    return EXIT_OK


# -- dispatch ------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffideal",
        description="Exact Clifford/exterior algebra, idempotents, ideals and structure tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate products, wedges, duals, grade parts")
    p_eval.add_argument("--sig", required=True, metavar="p,q")
    p_eval.add_argument("exprs", nargs="+", help="expressions; '-' reads stdin")
    p_eval.add_argument("--op", required=True,
                        help="product | wedge | star=CONVENTION | grade=k | reverse")
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(fn=_cmd_eval)

    p_idem = sub.add_parser("idempotent", help="build and inspect factored idempotents")
    p_idem.add_argument("--sig", required=True, metavar="p,q")
    p_idem.add_argument("--gens", required=True, metavar="'+e135,-e146,-e236'")
    group = p_idem.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", dest="mode", action="store_const", const="check")
    group.add_argument("--ideal", dest="mode", action="store_const", const="ideal")
    group.add_argument("--decompose", dest="mode", action="store_const", const="decompose")
    p_idem.set_defaults(fn=_cmd_idempotent)

    p_struct = sub.add_parser("structure", help="structure tensors and their idempotents")
    p_struct.add_argument("kind", choices=("su3", "g2", "spin7"))
    p_struct.add_argument("--model", action="store_true",
                          help="use the built-in model tensor")
    p_struct.add_argument("--input", metavar="file.json")
    mode = p_struct.add_mutually_exclusive_group(required=True)
    mode.add_argument("--to-idempotent", dest="mode", action="store_const", const="to-idempotent")
    mode.add_argument("--recover", dest="mode", action="store_const", const="recover")
    mode.add_argument("--validate", dest="mode", action="store_const", const="validate")
    p_struct.add_argument("--json", action="store_true")
    p_struct.set_defaults(fn=_cmd_structure)

    p_cls = sub.add_parser("classify", help="matrix-algebra type of R_{p,q}")
    p_cls.add_argument("p", type=int)
    p_cls.add_argument("q", type=int)
    p_cls.set_defaults(fn=_cmd_classify)

    p_verify = sub.add_parser("verify-paper", help="machine-check the documented identities")
    p_verify.add_argument("--claim", metavar="ID")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(fn=_cmd_verify_paper)

    p_lift = sub.add_parser("lift", help="lift an su3 structure to a g2 idempotent")
    p_lift.add_argument("--from", dest="source", required=True, metavar="su3.json")
    p_lift.add_argument("--json", action="store_true")
    p_lift.set_defaults(fn=_cmd_lift)

    return parser


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Rewrite ['--gens', '-e1234,...'] as ['--gens=-e1234,...'].

    argparse would otherwise read a value starting with '-' as a flag.
    """
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("--gens", "--from") and i + 1 < len(argv):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_merge_dash_values(sys.argv[1:] if argv is None else argv))
    if args.fn is _cmd_structure and args.model == (args.input is not None):
        parser.error("structure needs exactly one of --model or --input")
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # Nobody reads the rest; stdout goes to devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (StructureError, GeneratorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    raise SystemExit(main())
