import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffideal import (
    ExteriorForm,
    Multivector,
    ParseError,
    SchemaError,
    Signature,
    from_json,
    model_su3,
    parse,
    print_canonical,
    to_json,
)

from conftest import forms, multivectors, signatures

F6_DISPLAY = "1 + e135 - e146 - e236 - e245 - e3456 - e1234 - e1256"
F6_CANONICAL = "1/8 + 1/8*e135 - 1/8*e146 - 1/8*e236 - 1/8*e245 - 1/8*e1234 - 1/8*e1256 - 1/8*e3456"


def test_parse_eight_term_display(sig6):
    x = parse(F6_DISPLAY, sig6)
    assert len(x) == 8
    assert x.coefficient(()) == 1
    assert x.coefficient((1, 3, 5)) == 1
    assert x.coefficient((3, 4, 5, 6)) == -1


def test_parse_combines_like_terms(sig6):
    x = parse("1/2*e12 + 1/2*e12", sig6)
    assert x == Multivector.blade(sig6, (1, 2))


def test_parse_whitespace_insensitive(sig6):
    assert parse(" 1/2 * e12+e34 ", sig6) == parse("1/2*e12 + e34", sig6)


def test_parse_leading_minus_and_bare_rational(sig6):
    x = parse("-3/4 + 2*e1", sig6)
    assert x.coefficient(()) == Fraction(-3, 4)
    assert x.coefficient((1,)) == 2


def test_parse_form_kind():
    a = parse("e135 - e146", 6, kind="form")
    assert isinstance(a, ExteriorForm)
    assert a.coefficient((1, 3, 5)) == 1


@pytest.mark.parametrize("text", [
    "",
    "   ",
    "e21",
    "e11",
    "e0",
    "e7",          # exceeds n = 6
    "1/0",
    "e12 +",
    "e12 x",
    "+ e12",
    "3*",
    "e",
    "--e12",
])
def test_parse_errors_carry_position(text, sig6):
    with pytest.raises(ParseError) as err:
        parse(text, sig6)
    assert err.value.position >= 0
    assert "position" in str(err.value)


def test_parse_error_distinguishes_cases(sig6):
    with pytest.raises(ParseError, match="increasing"):
        parse("e21", sig6)
    with pytest.raises(ParseError, match="dimension"):
        parse("e7", sig6)
    with pytest.raises(ParseError, match="denominator"):
        parse("1/0", sig6)
    with pytest.raises(ParseError, match="empty"):
        parse("", sig6)


def test_print_canonical_zero(sig6):
    assert print_canonical(Multivector.zero(sig6)) == "0"
    assert print_canonical(ExteriorForm.zero(6)) == "0"


def test_print_canonical_frozen_idempotent(sig6):
    x = parse(F6_DISPLAY, sig6).scale(Fraction(1, 8))
    assert print_canonical(x) == F6_CANONICAL


def test_print_canonical_grade_then_lex_order(sig6):
    x = parse("e23 + e1 - e12 + 1", sig6)
    assert print_canonical(x) == "1 + e1 - e12 + e23"


def test_print_canonical_unit_coefficients_bare(sig6):
    assert print_canonical(parse("-1*e12", sig6)) == "-e12"
    assert print_canonical(parse("2/4*e12", sig6)) == "1/2*e12"


@settings(max_examples=300)
@given(signatures(8).flatmap(lambda s: multivectors(s, 6)))
def test_parse_print_roundtrip_clifford(x):
    assert parse(print_canonical(x), x.sig) == x


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=8).flatmap(lambda n: forms(n, 6)))
def test_parse_print_roundtrip_form(a):
    assert parse(print_canonical(a), a.n, kind="form") == a


def test_json_frozen_scalar(sig6):
    got = to_json(Multivector.scalar(sig6, 1))
    assert got == '{"signature": [0, 6], "kind": "clifford", "terms": [{"blade": [], "coef": "1"}]}'


def test_json_model_omega_three_records():
    obj = json.loads(to_json(model_su3().omega))
    assert obj["kind"] == "form"
    assert obj["signature"] == [0, 6]
    assert [t["blade"] for t in obj["terms"]] == [[1, 2], [3, 4], [5, 6]]
    assert all(t["coef"] == "1" for t in obj["terms"])


def test_json_malformed_blade_names_path():
    text = '{"signature": [0, 6], "kind": "clifford", "terms": [{"blade": [2, 1], "coef": "1"}]}'
    with pytest.raises(SchemaError) as err:
        from_json(text)
    assert "terms[0].blade" in str(err.value)


def test_json_schema_errors_name_fields():
    with pytest.raises(SchemaError, match="signature"):
        from_json('{"kind": "clifford", "terms": []}')
    with pytest.raises(SchemaError, match="kind"):
        from_json('{"signature": [0, 6], "terms": []}')
    with pytest.raises(SchemaError, match=r"terms\[0\].coef"):
        from_json('{"signature": [0, 6], "kind": "clifford", "terms": [{"blade": [1], "coef": "x"}]}')
    with pytest.raises(SchemaError):
        from_json("not json at all")


LONG_LITERAL = "7" * 5000


@pytest.mark.parametrize("coef", ["1.5e3", "1e999999", " +7 ", "1/0", LONG_LITERAL,
                                  "1/-2", "1_000", "\uff17", "7\n", "0x10", ""],
                         ids=lambda c: repr(c) if len(c) < 20 else f"{len(c)}-digit")
def test_json_coef_strict_rational_grammar(coef):
    text = json.dumps({"signature": [0, 6], "kind": "clifford",
                       "terms": [{"blade": [1], "coef": "1"}, {"blade": [2], "coef": coef}]})
    with pytest.raises(SchemaError) as err:
        from_json(text)
    assert err.value.path == "terms[1].coef"


def test_json_coef_accepts_documented_forms(sig6):
    text = json.dumps({"signature": [0, 6], "kind": "clifford",
                       "terms": [{"blade": [], "coef": "-0"}, {"blade": [1], "coef": "007"},
                                 {"blade": [2], "coef": "-6/4"}]})
    assert from_json(text) == Multivector(sig6, {0b1: 7, 0b10: Fraction(-3, 2)})


@pytest.mark.parametrize("text, position", [(LONG_LITERAL, 0), ("e1 + 1/" + LONG_LITERAL, 7)],
                         ids=["numerator", "denominator"])
def test_parse_overlong_integer_is_positioned(text, position, sig6):
    with pytest.raises(ParseError, match="too long") as err:
        parse(text, sig6)
    assert err.value.position == position


@settings(max_examples=300)
@given(signatures(8).flatmap(lambda s: multivectors(s, 6)))
def test_json_roundtrip_clifford(x):
    assert from_json(to_json(x)) == x


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=8).flatmap(lambda n: forms(n, 6)))
def test_json_roundtrip_form(a):
    assert from_json(to_json(a)) == a


def test_json_byte_stable(sig6):
    x = parse(F6_DISPLAY, sig6)
    assert to_json(x) == to_json(x)
    assert to_json(from_json(to_json(x))) == to_json(x)


def test_parser_fuzz_smoke():
    rng = random.Random(99)
    alphabet = "e0123456789+-*/ ."
    for _ in range(5000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        try:
            parse(text, Signature(0, 6))
        except ParseError:
            pass
