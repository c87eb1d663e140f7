"""Text and JSON serialization for multivectors and exterior forms.

Text grammar (whitespace between terms and around '*' is ignored)::

    expr     := ['-'] term (('+'|'-') term)*
    term     := rational ['*' (blade | '1')] | blade
    blade    := 'e' digit+ | 'e{' integer (',' integer)* '}'
    rational := integer ['/' positive-integer]

Digits are ASCII.  Blade indices must be strictly increasing and lie in
1..n.  In the undelimited form each digit is one index; the delimited
form also writes indices >= 10, so the notation covers every dimension
up to 12.  The printer uses the delimited form only for a blade with an
index >= 10, so printed text for n <= 9 never contains it.  Like terms
are combined on input, and the printer is the inverse of the parser on
canonical output.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Union

from .algebra import (MAX_DIM, Multivector, Signature, _Record, blade_mask, blade_table,
                      mask_indices)
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


class ExprTerm(_Record):
    """One signed term of a parsed expression."""

    __slots__ = ("coef", "indices")

    coef: Fraction
    indices: tuple[int, ...]


# A term is a rational, optionally times a blade or '1', or a bare blade.  A
# match stops where the grammar can no longer continue, and the groups say
# which parts were present, so every error is raised from one match.
_BLADE = r"e(?:\{([0-9,]*)(\}?)|([0-9]*))"


@cache
def _grammar() -> tuple[re.Pattern, re.Pattern]:
    """The term and separator patterns, compiled on first use to keep them out of import."""
    return (re.compile(rf"([0-9]+)(?:(/)([0-9]*))?(?:\s*(\*)\s*(?:{_BLADE}|(1))?)?|{_BLADE}"),
            re.compile(r"\s*(?:([+-])\s*)?"))  # \s is str.isspace on every code point


_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


def _integer(digits: str, start: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on integer string length
        raise ParseError(f"integer literal too long ({len(digits)} digits)", start) from None


def _check_index(i: int, prev: int, n: int, position: int) -> None:
    if i == 0:
        raise ParseError("blade index 0 is not valid", position)
    if i <= prev:
        raise ParseError("blade indices must be strictly increasing", position)
    if i > n:
        raise ParseError(f"blade index {i} exceeds dimension {n}", position)


def _blade(m: re.Match, group: int, n: int) -> int:
    """Mask of the blade in groups group..group+2 of a term match."""
    braced, close, digits = m.group(group, group + 1, group + 2)
    if digits is not None:
        mask = blade_table(n).digits.get(digits)
        if mask is not None:
            return mask
        start = m.start(group + 2)
        if not digits:
            raise ParseError("expected blade indices after 'e'", start)
        prev = 0
        for offset, ch in enumerate(digits):  # raises: the table holds every valid blade
            _check_index(int(ch), prev, n, start + offset)
            prev = int(ch)
    pos = m.start(group)
    mask = prev = 0
    for piece in braced.split(","):
        if not piece:
            raise ParseError("expected a blade index", pos)
        i = _integer(piece, pos)
        _check_index(i, prev, n, pos)
        mask |= 1 << (i - 1)
        prev = i
        pos += len(piece) + 1
    if not close:
        raise ParseError("expected ',' or '}'", pos - 1)
    return mask


def parse_blade(text: str, n: int) -> int:
    """Mask of a single blade written in the text grammar, e.g. 'e135' or 'e{1,10}'."""
    m = _grammar()[0].match(text)
    if m is None or m.group(1) is not None:  # not a bare blade
        raise ParseError("expected a blade", 0)
    mask = _blade(m, 9, n)
    if m.end() != len(text):
        raise ParseError("unexpected text after the blade", m.end())
    return mask


def _scan(text: str, n: int) -> Iterator[tuple[Fraction, int]]:
    """(coefficient, blade mask) of each signed term, left to right."""
    term, separator = _grammar()
    end = len(text)
    sep = separator.match(text)
    op = sep.group(1)
    if op is None and sep.end() == end:
        raise ParseError("empty expression", end)
    if op == "+":
        raise ParseError("expected a term", sep.start(1))
    while True:
        pos = sep.end()
        m = term.match(text, pos)
        if m is None:
            raise ParseError("expected a term", pos)
        num, slash, den, star, braced, _, digits, one = m.group(1, 2, 3, 4, 5, 6, 7, 8)
        if num is None:
            yield (_MINUS_ONE if op == "-" else _ONE), _blade(m, 9, n)
        else:
            num = _integer(num, pos)
            if slash is None:
                den = 1
            elif not den:
                raise ParseError("expected a denominator", m.start(3))
            elif not (den := _integer(den, m.start(3))):
                raise ParseError("zero denominator", m.start(3))
            if star is None or one is not None:
                mask = 0
            elif braced is None and digits is None:
                raise ParseError("expected a blade after '*'", m.end())
            else:
                mask = _blade(m, 5, n)
            yield Fraction(-num if op == "-" else num, den), mask
        sep = separator.match(text, m.end())
        op = sep.group(1)
        if op is None:
            if sep.end() == end:
                return
            raise ParseError("expected '+' or '-'", sep.end())


def parse_terms(text: str, n: int) -> list[ExprTerm]:
    """Parse the text grammar into a list of signed terms."""
    return [ExprTerm(coef, mask_indices(mask)) for coef, mask in _scan(text, n)]


def _combine(pairs: Iterable[tuple[Fraction, int]]) -> dict[int, Fraction]:
    """Canonical term map of (coefficient, mask) pairs: like terms summed, zeros dropped."""
    acc: dict[int, Fraction] = {}
    for coef, mask in pairs:
        acc[mask] = acc[mask] + coef if mask in acc else coef
    return acc if all(acc.values()) else {m: c for m, c in acc.items() if c}


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
    terms = _combine(_scan(text, n))
    if kind == "clifford":
        return Multivector._from_canonical(target, terms)
    return ExteriorForm._from_canonical(n, terms)


def print_canonical(x: Value) -> str:
    """Canonical text: terms by grade, then lexicographic blade order."""
    text = blade_table(x.sig.n if isinstance(x, Multivector) else x.n).text
    out = []
    for mask, coef in x.terms():
        num, den = coef.numerator, coef.denominator
        out.append(" - " if num < 0 else " + ")
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if not mask:
            out.append(mag)
        elif mag == "1":
            out.append(text[mask])
        else:
            out.append(f"{mag}*{text[mask]}")
    if not out:
        return "0"
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


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

    pairs = []
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
        pairs.append((value, mask))

    if kind == "clifford":
        return Multivector._from_canonical(Signature(p, q), _combine(pairs))
    return ExteriorForm._from_canonical(n, _combine(pairs))


def from_json(text: str) -> Value:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides JSONDecodeError (a ValueError), json raises a plain ValueError for an
        # integer past the interpreter's string-length limit and RecursionError for
        # arrays or objects nested too deep
        raise SchemaError(f"invalid JSON: {exc}", "") from None
    return from_json_obj(obj)
