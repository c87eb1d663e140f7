"""Text and JSON serialization for multivectors and exterior forms.

Text grammar (whitespace-insensitive)::

    expr     := ['-'] term (('+'|'-') term)*
    term     := rational ['*' blade] | blade
    blade    := 'e' digit+ | '1'
    rational := integer ['/' positive-integer]

Blade digits must be strictly increasing, so the notation is unambiguous
for dimensions up to 9; the JSON form carries index lists and covers the
full supported range.  Like terms are combined on input, and the printer
is the inverse of the parser on canonical output.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .algebra import MAX_DIM, Multivector, Signature, blade_mask, mask_indices
from .exterior import ExteriorForm

Value = Union[Multivector, ExteriorForm]


class ParseError(ValueError):
    """Syntax or range error in the text notation, with character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SchemaError(ValueError):
    """Malformed JSON payload, with the offending field path."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


@dataclass(frozen=True)
class ExprTerm:
    """One signed term of a parsed expression."""

    coef: Fraction
    indices: tuple[int, ...]


class _Scanner:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_digits(self) -> str:
        # ASCII only: str.isdigit also accepts superscripts etc., which int rejects
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        return self.text[start : self.pos]

    def blade(self) -> tuple[int, ...]:
        # caller has seen 'e' at self.pos
        self.pos += 1
        start = self.pos
        digits = self.take_digits()
        if not digits:
            raise ParseError("expected blade indices after 'e'", self.pos)
        indices = []
        prev = 0
        for offset, ch in enumerate(digits):
            i = int(ch)
            if i == 0:
                raise ParseError("blade index 0 is not valid", start + offset)
            if i <= prev:
                raise ParseError("blade indices must be strictly increasing", start + offset)
            if i > self.n:
                raise ParseError(f"blade index {i} exceeds dimension {self.n}", start + offset)
            indices.append(i)
            prev = i
        return tuple(indices)

    def integer(self, start: int, digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # past the interpreter's limit on integer string length
            raise ParseError(f"integer literal too long ({len(digits)} digits)", start) from None

    def rational(self) -> Fraction:
        start = self.pos
        digits = self.take_digits()
        if not digits:
            raise ParseError("expected a number", start)
        num = self.integer(start, digits)
        if self.peek() == "/":
            self.pos += 1
            den_start = self.pos
            den_digits = self.take_digits()
            if not den_digits:
                raise ParseError("expected a denominator", den_start)
            den = self.integer(den_start, den_digits)
            if den == 0:
                raise ParseError("zero denominator", den_start)
            return Fraction(num, den)
        return Fraction(num)

    def term(self) -> ExprTerm:
        ch = self.peek()
        if ch == "e":
            return ExprTerm(Fraction(1), self.blade())
        if ch in "0123456789":
            coef = self.rational()
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                self.skip_ws()
                ch = self.peek()
                if ch == "e":
                    return ExprTerm(coef, self.blade())
                if ch == "1":
                    self.pos += 1
                    return ExprTerm(coef, ())
                raise ParseError("expected a blade after '*'", self.pos)
            return ExprTerm(coef, ())
        raise ParseError("expected a term", self.pos)


def parse_terms(text: str, n: int) -> list[ExprTerm]:
    """Parse the text grammar into a list of signed terms."""
    sc = _Scanner(text, n)
    sc.skip_ws()
    if sc.pos == len(text):
        raise ParseError("empty expression", sc.pos)
    terms = []
    sign = 1
    if sc.peek() == "-":
        sign = -1
        sc.pos += 1
        sc.skip_ws()
    while True:
        t = sc.term()
        terms.append(ExprTerm(sign * t.coef, t.indices))
        sc.skip_ws()
        if sc.pos == len(text):
            return terms
        op = sc.peek()
        if op == "+":
            sign = 1
        elif op == "-":
            sign = -1
        else:
            raise ParseError("expected '+' or '-'", sc.pos)
        sc.pos += 1
        sc.skip_ws()


def _coerce_sig(sig, kind: str):
    if kind == "clifford":
        if isinstance(sig, Signature):
            return sig
        if isinstance(sig, (tuple, list)) and len(sig) == 2:
            return Signature(*sig)
        raise ValueError("clifford values need a Signature (p, q)")
    if kind == "form":
        if isinstance(sig, Signature):
            return sig.n
        if isinstance(sig, int):
            return sig
        raise ValueError("forms need a dimension n or a Signature")
    raise ValueError(f"unknown kind {kind!r} (expected 'clifford' or 'form')")


def parse(text: str, sig, kind: str = "clifford") -> Value:
    """Parse text into a Multivector (kind='clifford') or ExteriorForm (kind='form')."""
    target = _coerce_sig(sig, kind)
    n = target.n if isinstance(target, Signature) else target
    terms = parse_terms(text, n)
    acc: dict[int, Fraction] = {}
    for t in terms:
        mask = blade_mask(t.indices, n)
        acc[mask] = acc.get(mask, Fraction(0)) + t.coef
    if kind == "clifford":
        return Multivector(target, acc)
    return ExteriorForm(n, acc)


def print_canonical(x: Value) -> str:
    """Canonical text: terms by grade, then lexicographic blade order."""
    pieces = []
    for mask, coef in x.terms():
        mag = abs(coef)
        if mask == 0:
            body = str(mag)
        elif mag == 1:
            body = "e" + "".join(map(str, mask_indices(mask)))
        else:
            body = f"{mag}*e" + "".join(map(str, mask_indices(mask)))
        pieces.append((coef < 0, body))
    if not pieces:
        return "0"
    neg, body = pieces[0]
    out = ("-" if neg else "") + body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


# -- JSON ---------------------------------------------------------------

# integer ['/' positive-integer], as for the text grammar
_JSON_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def to_json_obj(x: Value) -> dict:
    if isinstance(x, Multivector):
        signature = [x.sig.p, x.sig.q]
        kind = "clifford"
    elif isinstance(x, ExteriorForm):
        signature = [0, x.n]
        kind = "form"
    else:
        raise TypeError(f"cannot serialize {type(x).__name__}")
    terms = [
        {"blade": list(mask_indices(mask)), "coef": str(coef)}
        for mask, coef in x.terms()
    ]
    return {"signature": signature, "kind": kind, "terms": terms}


def to_json(x: Value) -> str:
    """Byte-stable JSON for a multivector or form."""
    return json.dumps(to_json_obj(x), separators=(", ", ": "))


def _expect(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise SchemaError(message, path)


def from_json_obj(obj, path: str = "") -> Value:
    def sub(field: str) -> str:
        return f"{path}.{field}" if path else field

    _expect(isinstance(obj, dict), "expected an object", path)
    _expect("signature" in obj, "missing field 'signature'", path)
    _expect("kind" in obj, "missing field 'kind'", path)
    _expect("terms" in obj, "missing field 'terms'", path)

    sig = obj["signature"]
    _expect(
        isinstance(sig, list) and len(sig) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in sig),
        "expected [p, q] with non-negative integers",
        sub("signature"),
    )
    p, q = sig
    _expect(1 <= p + q <= MAX_DIM, f"total dimension must be in 1..{MAX_DIM}", sub("signature"))
    n = p + q

    kind = obj["kind"]
    _expect(kind in ("clifford", "form"), "expected 'clifford' or 'form'", sub("kind"))

    raw_terms = obj["terms"]
    _expect(isinstance(raw_terms, list), "expected a list", sub("terms"))

    acc: dict[int, Fraction] = {}
    for i, item in enumerate(raw_terms):
        tpath = f"{sub('terms')}[{i}]"
        _expect(isinstance(item, dict), "expected an object", tpath)
        _expect("blade" in item, "missing field 'blade'", tpath)
        _expect("coef" in item, "missing field 'coef'", tpath)
        blade = item["blade"]
        _expect(
            isinstance(blade, list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in blade),
            "expected a list of integers",
            f"{tpath}.blade",
        )
        try:
            mask = blade_mask(blade, n)
        except ValueError as exc:
            raise SchemaError(str(exc), f"{tpath}.blade") from None
        coef = item["coef"]
        _expect(isinstance(coef, str), "expected a string rational", f"{tpath}.coef")
        _expect(_JSON_RATIONAL.fullmatch(coef) is not None,
                "expected integer ['/' positive-integer]", f"{tpath}.coef")
        num, _, den = coef.partition("/")
        try:
            value = Fraction(int(num), int(den or 1))
        except ValueError:  # past the interpreter's limit on integer string length
            raise SchemaError("integer literal too long", f"{tpath}.coef") from None
        except ZeroDivisionError:
            raise SchemaError("zero denominator", f"{tpath}.coef") from None
        acc[mask] = acc.get(mask, Fraction(0)) + value

    if kind == "clifford":
        return Multivector(Signature(p, q), acc)
    return ExteriorForm(n, acc)


def from_json(text: str) -> Value:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", "") from None
    return from_json_obj(obj)
