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

JSON layout: to_json, the package's only JSON writer, writes one line::

    {"signature": [p, q], "kind": "clifford", "terms": [{"blade": [1, 3], "coef": "-1/8"}, ...]}

with [0, n] and "form" for a form, one term per nonzero coefficient in
canonical order, increasing indices ([] for the scalar) and the reduced
coef ("a", or "a/b" when b > 1); structure_to_json splices it into
{"structure": kind, field: value, ...}.  The reader combines like terms in any order.

Each format has two readers and no third.  The direct reader takes the writer's own
layout in one pass: the printer's tokens in any term order (_read_printed), or to_json's
bytes with one trailing newline allowed (_read_written).  The general reader takes every
other input and names every error, each term by one plain path: _scan, or json.loads and
from_json_obj.  Both end in the same element builder, so they give the same values, and
the general readers' messages are the only error texts.

Numerators and denominators are bounded by the interpreter's limit on integer
string conversion (4,300 digits by default) both ways: the reader reports a
longer literal by position or path, and the writers name the blade whose
coefficient outgrew the bound.
"""

from __future__ import annotations

import re
import sys
from functools import cache
from collections.abc import Iterator
from math import gcd

from .algebra import MAX_DIM, Multivector, Signature, _index_table, blade_mask, blade_table
from .exterior import ExteriorForm, _dimension


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


class _DigitLimitError(ValueError):
    """A coefficient with a numerator or denominator too long for str() to write."""


def _digit_limit(x: Multivector | ExteriorForm) -> _DigitLimitError:
    """The writers' error, naming the first blade whose coefficient str() refuses.

    Built only after a conversion failed, so writing pays no per-term test.
    """
    for mask, coef in x.terms():
        try:
            str(coef)
        except ValueError:
            break
    name = blade_table(x._dim(x._space)).text[mask]
    return _DigitLimitError(f"cannot write the coefficient of blade {name}: its numerator or "
                            f"denominator has more than {sys.get_int_max_str_digits()} digits")


_BLADE = r"e(?:\{([0-9,]*)(\}?)|([0-9]*))"


@cache
def _grammar() -> re.Pattern:
    """One scan step, compiled on first use: groups 1 whitespace, 2 sign, 3-5 rational,
    6 '*', 7-9 blade or 10 '1' after '*', 11-13 bare blade.  Every part is optional and the
    groups say which matched, so each error comes from one match (\\s is str.isspace)."""
    return re.compile(rf"(\s*)(?:([+-])\s*)?(?:([0-9]+)(?:(/)([0-9]*))?"
                      rf"(?:\s*(\*)\s*(?:{_BLADE}|(1))?)?|{_BLADE})?")


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
    """Mask of the blade in groups group..group+2: 'e' and one digit per index, or 'e{'
    and comma-separated integers up to '}'."""
    braced, close, digits = m.group(group, group + 1, group + 2)
    if digits == "":
        raise ParseError("expected blade indices after 'e'", m.start(group + 2))
    pos = m.start(group + 2 if digits else group)
    mask = prev = 0
    for piece in digits or braced.split(","):
        if not piece:
            raise ParseError("expected a blade index", pos)
        i = _integer(piece, pos)
        _check_index(i, prev, n, pos)
        mask |= 1 << (i - 1)
        prev = i
        pos += len(piece) + (not digits)  # the comma after a delimited index
    if not digits and not close:
        raise ParseError("expected ',' or '}'", pos - 1)
    return mask


def parse_blade(text: str, n: int) -> int:
    """Mask of a single blade written in the text grammar, e.g. 'e135' or 'e{1,10}'."""
    m = _grammar().match(text)
    if m.end(1) or m.group(2) or m.group(11, 13) == (None, None):  # no bare blade at 0
        raise ParseError("expected a blade", 0)
    mask = _blade(m, 11, n)
    if m.end() != len(text):
        raise ParseError("unexpected text after the blade", m.end())
    return mask


def _scan(text: str, n: int) -> Iterator[tuple[int, int, int]]:
    """(numerator, denominator, blade mask) of each signed term, left to right."""
    match = _grammar().match
    end = len(text)
    m = match(text)
    if m.group(2) is None and m.end(1) == end:
        raise ParseError("empty expression", end)
    if m.group(2) == "+":
        raise ParseError("expected a term", m.end(1))
    while True:
        _, op, num, slash, den, star, braced, _, digits, one, bare_braced, _, bare = m.groups()
        if num is not None:
            num = _integer(num, m.start(3))
            if slash and not den:
                raise ParseError("expected a denominator", m.start(5))
            den = _integer(den, m.start(5)) if slash else 1
            if not den:
                raise ParseError("zero denominator", m.start(5))
            if star is None or one is not None:
                mask = 0
            elif braced is None and digits is None:
                raise ParseError("expected a blade after '*'", m.end())
            else:
                mask = _blade(m, 7, n)
            yield (-num if op == "-" else num), den, mask
        elif bare is not None or bare_braced is not None:
            yield (-1 if op == "-" else 1), 1, _blade(m, 11, n)
        else:
            raise ParseError("expected a term", m.end())
        m = match(text, m.end())
        if m.group(2) is None:
            if m.end(1) == end:
                return
            raise ParseError("expected '+' or '-'", m.end(1))


@cache
def _digits() -> dict[str, int]:
    """Mask of each undelimited index string of a blade at n = 9, built on first use: 'e' +
    key is blade_table(n).text[mask] when mask < 2^n, and names a blade beyond n otherwise."""
    return dict(zip(_index_table(1, 9, str)[1:], range(1, 512)))


def _read_printed(text: str, n: int) -> list[tuple[int, int, int]] | None:
    """_scan's triples for text laid out as print_canonical writes it, terms in any order,
    or None: ASCII terms N, N/D, eDIGITS or N[/D]*eDIGITS joined by ' + ' or ' - ' after
    an optional '-', each blade one of n's in the digit table."""
    if type(text) is not str or not text.isascii() or " + -" in text:
        return None
    digits, limit, terms = _digits(), 1 << n, []
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term[:1] == "-" else 1
        coef, star, blade = term[sign < 0:].partition("*")
        if not star and coef[:1] == "e":
            coef, blade = "1", coef
        mask = digits.get(blade[1:], limit) if blade[:1] == "e" else limit if star else 0
        num, slash, den = coef.partition("/")
        if mask >= limit or not num.isdigit() or slash and not den.isdigit():
            return None
        try:
            num, den = int(num), int(den or 1)
        except ValueError:  # past the interpreter's limit on integer string length
            return None
        if not den:
            return None
        terms.append((sign * num, den, mask))
    return terms


def _coerce_sig(sig, kind: str):
    if kind == "clifford":
        if isinstance(sig, Signature):
            return sig
        raise ValueError("clifford values need a Signature (p, q)")
    if kind == "form":
        if isinstance(sig, Signature):
            return sig.n
        if not isinstance(sig, int):
            raise ValueError("forms need a dimension n or a Signature")
        return _dimension(sig)
    raise ValueError(f"unknown kind {kind!r} (expected 'clifford' or 'form')")


def parse(text: str, sig, kind: str = "clifford") -> Multivector | ExteriorForm:
    """Parse text into a Multivector (kind='clifford') or ExteriorForm (kind='form')."""
    target = _coerce_sig(sig, kind)
    n = target.n if isinstance(target, Signature) else target
    terms = _read_printed(text, n)
    return (Multivector if kind == "clifford" else ExteriorForm)._combine(
        target, _scan(text, n) if terms is None else terms)


def _ratio(num: int, den: int) -> str:
    """num/den as the writers print it, reduced: "a", or "a/b" when b > 1."""
    if den == 1:
        return str(num)
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def print_canonical(x: Multivector | ExteriorForm) -> str:
    """Canonical text: terms by grade, then lexicographic blade order."""
    table = blade_table(x.sig.n if isinstance(x, Multivector) else x.n)
    text, t, den = table.text, x._terms, x._den
    out = []
    try:
        for mask in sorted(t, key=table.rank.__getitem__):
            c = _ratio(t[mask], den)
            if c[0] == "-":
                out.append(" - ")
                c = c[1:]
            else:
                out.append(" + ")
            out.append(c if not mask else text[mask] if c == "1" else f"{c}*{text[mask]}")
    except ValueError:
        raise _digit_limit(x) from None
    if not out:
        return "0"
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


# -- JSON ---------------------------------------------------------------

@cache
def _json_rational() -> re.Pattern:
    """integer ['/' positive-integer], as for the text grammar; compiled on first use."""
    return re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _space(x: Multivector | ExteriorForm) -> tuple[int, int, str]:
    """(p, q, kind) of the JSON signature and kind fields."""
    if isinstance(x, Multivector):
        return x.sig.p, x.sig.q, "clifford"
    if isinstance(x, ExteriorForm):
        return 0, x.n, "form"
    raise TypeError(f"cannot serialize {type(x).__name__}")


@cache
def _json_indices() -> tuple[list[str], ...]:
    """The indices of bits 0-3, 4-7 and 8-11 of a mask as JSON text, each followed by ', '."""
    return tuple(_index_table(first, 4, "{}, ".format) for first in range(1, MAX_DIM, 4))


def to_json(x: Multivector | ExteriorForm) -> str:
    """Byte-stable JSON for a multivector or form, in the layout the module docstring gives."""
    p, q, kind = _space(x)
    low, mid, high = _json_indices()
    t, den = x._terms, x._den
    try:
        terms = ", ".join([f'{{"blade": [{(low[m & 15] + mid[m >> 4 & 15] + high[m >> 8])[:-2]}], '
                           f'"coef": "{_ratio(t[m], den)}"}}'
                           for m in sorted(t, key=blade_table(p + q).rank.__getitem__)])
    except ValueError:
        raise _digit_limit(x) from None
    return f'{{"signature": [{p}, {q}], "kind": "{kind}", "terms": [{terms}]}}'


def _expect(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise SchemaError(message, path)


def _json_term(item, n: int, tpath: str) -> tuple[int, int, int]:
    """(numerator, denominator, mask) of one term, checked field by field; a refusal
    names the first fault and its path."""
    _expect(isinstance(item, dict), "expected an object", tpath)
    _expect("blade" in item, "missing field 'blade'", tpath)
    _expect("coef" in item, "missing field 'coef'", tpath)
    blade = item["blade"]
    _expect(isinstance(blade, list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in blade),
            "expected a list of integers", f"{tpath}.blade")
    try:
        mask = blade_mask(blade, n)
    except ValueError as exc:
        raise SchemaError(str(exc), f"{tpath}.blade") from None
    coef = item["coef"]
    _expect(isinstance(coef, str), "expected a string rational", f"{tpath}.coef")
    _expect(_json_rational().fullmatch(coef) is not None,
            "expected integer ['/' positive-integer]", f"{tpath}.coef")
    num, _, den = coef.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # past the interpreter's limit on integer string length
        raise SchemaError("integer literal too long", f"{tpath}.coef") from None
    _expect(den != 0, "zero denominator", f"{tpath}.coef")
    return num, den, mask


def from_json_obj(obj, path: str = "") -> Multivector | ExteriorForm:
    prefix = f"{path}." if path else ""
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", path)
    for field in ("signature", "kind", "terms"):
        if field not in obj:
            raise SchemaError(f"missing field '{field}'", path)
    sig, kind, raw_terms = obj["signature"], obj["kind"], obj["terms"]
    if not (isinstance(sig, list) and len(sig) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in sig)):
        raise SchemaError("expected [p, q] with non-negative integers", prefix + "signature")
    p, q = sig
    n = p + q
    if not 1 <= n <= MAX_DIM:
        raise SchemaError(f"total dimension must be in 1..{MAX_DIM}", prefix + "signature")
    if kind not in ("clifford", "form"):
        raise SchemaError("expected 'clifford' or 'form'", prefix + "kind")
    if not isinstance(raw_terms, list):
        raise SchemaError("expected a list", prefix + "terms")
    cls, space = (Multivector, Signature(p, q)) if kind == "clifford" else (ExteriorForm, n)
    return cls._combine(space, [_json_term(item, n, f"{prefix}terms[{i}]")
                                for i, item in enumerate(raw_terms)])


def _decode(text: str):
    """json.loads, with every refusal of the text raised as a SchemaError."""
    import json  # here, not at the top: a command that reads no JSON does not load it

    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides JSONDecodeError (a ValueError), json raises a plain ValueError for an
        # integer past the interpreter's string-length limit and RecursionError for
        # arrays or objects nested too deep
        raise SchemaError(f"invalid JSON: {exc}", "") from None


# one term of to_json's layout; the blade's text is checked by spelling its mask back
_JSON_TERM = r'\{"blade": \[([0-9, ]*)\], "coef": "(-?[0-9]+)(?:/([0-9]+))?"\}'


@cache
def _json_layout() -> tuple:
    """On first use: fullmatch of to_json's whole text (one trailing newline allowed),
    findall of its terms, and the bit of each index text ('' for the scalar's none)."""
    return (re.compile(r'\{"signature": \[(0|[1-9][0-9]?), (0|[1-9][0-9]?)\], "kind": '
                       rf'"(clifford|form)", "terms": \[((?:{_JSON_TERM}(?:, {_JSON_TERM})*)?)\]'
                       r'\}\n?').fullmatch, re.compile(_JSON_TERM).findall,
            {"": 0, **{str(i): 1 << (i - 1) for i in range(1, MAX_DIM + 1)}})


def _read_written(text: str) -> Multivector | ExteriorForm | None:
    """The value of text laid out as to_json writes it, terms in any order, or None.  A
    blade is read only when _json_indices spells its mask back: indices increasing, in 1..n
    and without leading zeros."""
    fullmatch, findall, bit = _json_layout()
    if type(text) is not str or not (m := fullmatch(text)):
        return None
    p, q, kind, body = int(m[1]), int(m[2]), m[3], m[4]
    if not 1 <= (n := p + q) <= MAX_DIM:
        return None
    (low, mid, high), terms = _json_indices(), []
    for blade, num, den in findall(body):
        try:
            mask = sum(map(bit.__getitem__, blade.split(", ")))
            num, den = int(num), int(den or 1)
        except (KeyError, ValueError):  # an index outside 1..12, or past int()'s digit limit
            return None
        if mask >> n or not den or blade != (low[mask & 15] + mid[mask >> 4 & 15]
                                             + high[mask >> 8])[:-2]:  # not spelled back
            return None
        terms.append((num, den, mask))
    cls, space = (Multivector, Signature(p, q)) if kind == "clifford" else (ExteriorForm, n)
    return cls._combine(space, terms)


def from_json(text: str) -> Multivector | ExteriorForm:
    x = _read_written(text)
    return from_json_obj(_decode(text)) if x is None else x
