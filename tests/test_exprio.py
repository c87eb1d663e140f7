import copy
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
    structure_from_json,
    to_json,
)
from cliffideal import exprio
from cliffideal.algebra import blade_table, mask_indices
from cliffideal.exprio import parse_terms, to_json_obj

import oracles
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


# -- blades with indices >= 10 -------------------------------------------------

def test_delimited_blade_prints_and_parses_for_n_ge_10():
    sig = Signature(0, 10)
    x = Multivector.blade(sig, (1, 10))
    assert print_canonical(x) == "e{1,10}"
    assert parse("e{1,10}", sig) == x
    assert repr(x) == "Multivector(R_{0,10}, +1*e{1,10})"
    assert repr(ExteriorForm.blade(10, (1, 10), 2)) == "ExteriorForm(n=10, +2*e{1,10})"
    y = parse("1/2*e{2,11,12} - e{3} + e45 + e{1,2}", Signature(2, 10))
    assert print_canonical(y) == "-e3 + e12 + e45 + 1/2*e{2,11,12}"
    assert parse(print_canonical(y), y.sig) == y
    z = parse("e{1,3,5} - 2*e{9}", Signature(0, 12))  # delimited only when needed
    assert print_canonical(z) == "-2*e9 + e135"
    assert repr(z) == "Multivector(R_{0,12}, -2*e9 +1*e135)"


@pytest.mark.parametrize("text, message, position", [
    ("e{", "expected a blade index", 2),
    ("e{}", "expected a blade index", 2),
    ("e{1,}", "expected a blade index", 4),
    ("e{1 }", "expected ',' or '}'", 3),
    ("3*e{1,2", "expected ',' or '}'", 7),
    ("e{2,1}", "strictly increasing", 4),
    ("e{0}", "blade index 0 is not valid", 2),
    ("e1 + e{1,13}", "blade index 13 exceeds dimension 12", 9),
    ("e{" + "1" * 5000 + "}", "integer literal too long", 2),
])
def test_delimited_blade_errors_are_positioned(text, message, position):
    with pytest.raises(ParseError, match=message) as err:
        parse(text, Signature(0, 12))
    assert err.value.position == position


@settings(max_examples=200)
@given(st.integers(min_value=9, max_value=12).flatmap(
    lambda n: st.integers(min_value=0, max_value=n).flatmap(
        lambda p: multivectors(Signature(p, n - p), 8))))
def test_parse_print_roundtrip_n_up_to_12(x):
    assert parse(print_canonical(x), x.sig) == x
    a = ExteriorForm(x.sig.n, x.term_map())
    assert parse(print_canonical(a), a.n, kind="form") == a


# -- the regex scanner against the character scanner ----------------------------

FUZZ_ALPHABET = "e0123456789+-*/ \t\n.{},\x1c\x85\u3000\u0663\uff11\u00b2"


def _near_valid(rng, n):
    """A well-formed expression (both blade spellings) with up to two characters changed."""
    pieces = []
    for i in range(rng.randint(1, 4)):
        ind = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        if ind and (ind[-1] >= 10 or rng.random() < 0.3):
            blade = "e{" + ",".join(map(str, ind)) + "}"
        else:
            blade = "e" + "".join(map(str, ind)) if ind else "1"
        coef = rng.choice(("", "3", "1/2", "7/4", "0", "12/0"))
        body = f"{coef}{rng.choice(('*', ' * '))}{blade}" if coef else blade
        pieces.append(rng.choice(("", "-", " - ") if i == 0 else (" + ", "-", " -  ", "+")) + body)
    chars = list("".join(pieces))
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(chars) + 1)
        action = rng.random()
        if action < 0.4 and i < len(chars):
            del chars[i]
        elif action < 0.7:
            chars.insert(i, rng.choice(FUZZ_ALPHABET))
        elif i < len(chars):
            chars[i] = rng.choice(FUZZ_ALPHABET)
    return "".join(chars)


def test_parse_terms_matches_character_scanner():
    rng = random.Random(2604)
    accepted = 0
    for i in range(60_000):
        n = rng.randint(1, 12)
        if i % 2:
            text = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randint(0, 16)))
        else:
            text = _near_valid(rng, n)
        try:
            want = oracles.reference_parse_terms(text, n)
        except oracles.ScanError as exc:
            with pytest.raises(ParseError) as err:
                parse_terms(text, n)
            assert (str(err.value), err.value.position) == (str(exc), exc.position), (text, n)
        else:
            assert [(t.coef, t.indices) for t in parse_terms(text, n)] == want, (text, n)
            accepted += 1
    assert accepted > 10_000


def test_like_terms_that_cancel_are_dropped(sig6):
    x = parse("e1 + 1/2*e2 - e1 - 1/2*e2 + 0*e3 + e4", sig6)
    assert x.term_map() == {0b1000: 1}
    assert parse("e1 - e1", sig6).is_zero()
    assert parse("0", 6, kind="form").is_zero()
    text = json.dumps({"signature": [0, 6], "kind": "form",
                       "terms": [{"blade": [1], "coef": "1/2"}, {"blade": [1], "coef": "-2/4"},
                                 {"blade": [2], "coef": "0"}, {"blade": [3], "coef": "5"}]})
    assert from_json(text).term_map() == {0b100: 5}


@pytest.mark.parametrize("text, position", [("e1 +", 4), ("e1 -", 4), ("-", 1), ("3 - ", 4)])
def test_missing_term_after_a_sign(text, position):
    with pytest.raises(ParseError) as err:
        parse(text, Signature(0, 6))
    assert str(err.value) == f"expected a term (at position {position})"
    assert err.value.position == position


# -- JSON schema fuzz ----------------------------------------------------------

JUNK = (None, True, False, 0, -1, 7, 13, 1.5, "", "x", "1", "e1", [], {}, [0, 6], [[1]],
        {"blade": [], "coef": "1"}, {"signature": [0, 6]})
BAD_COEFS = ("1.5", "1e3", "1/0", "0x10", " 1", "+1", "1/-2", "", "--1", "1/", "/2", "½",
             "7" * 5000, "1/" + "3" * 5000, 1, 1.0, True, None, ["1"])
BAD_SIGNATURES = ([0, 13], [13, 0], [7, 6], [0, 0], [-1, 7], [6], [0, 6, 1], [True, 5],
                  [0, 6.0], ["0", "6"], (0, 6), "0,6", None)


def _random_payload(rng: random.Random) -> dict:
    n = rng.randint(1, 12)
    p = rng.randint(0, n)
    terms = []
    for _ in range(rng.randint(0, 6)):
        blade = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        num, den = rng.randint(-9, 9), rng.randint(1, 9)
        terms.append({"blade": blade, "coef": str(num) if den == 1 else f"{num}/{den}"})
    return {"signature": [p, n - p], "kind": rng.choice(("clifford", "form")), "terms": terms}


def _nodes(obj, path=()):
    """(path, value) of every node of a JSON-shaped value, the root first."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _set(obj, path, value):
    if not path:
        return value
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


def _pick(rng: random.Random, pool):
    return copy.deepcopy(rng.choice(pool))  # a fresh copy: later damage must not alias it


def _mutate(rng: random.Random, obj):
    """One random damage: a junk node, a bool for an int, a missing or extra
    key, a bad coef, signature or blade, or an extra level of nesting."""
    nodes = list(_nodes(obj))
    blades = [(path, v) for path, v in nodes if path[-1:] == ("blade",) and isinstance(v, list)]
    action = rng.randrange(8)
    if action == 0:
        path, _ = rng.choice(nodes)
        return _set(obj, path, _pick(rng, JUNK))
    if action == 1:
        ints = [path for path, v in nodes if type(v) is int]
        return _set(obj, rng.choice(ints), rng.choice((True, False))) if ints else obj
    if action == 2:
        dicts = [v for _, v in nodes if isinstance(v, dict) and v]
        if dicts:
            d = rng.choice(dicts)
            if rng.random() < 0.5:
                del d[rng.choice(list(d))]
            else:
                d[rng.choice(("extra", "blades", "Coef"))] = _pick(rng, JUNK)
        return obj
    if action == 3:
        coefs = [path for path, _ in nodes if path[-1:] == ("coef",)]
        return _set(obj, rng.choice(coefs), _pick(rng, BAD_COEFS)) if coefs else obj
    if action == 4:
        return _set(obj, ("signature",), _pick(rng, BAD_SIGNATURES)) if isinstance(obj, dict) else obj
    if action == 5 and blades:
        path, blade = rng.choice(blades)
        index = rng.choice((0, -1, 13, 100, True, 2.0, "3", None))
        return _set(obj, path, blade + [index] if rng.random() < 0.5 else [index] + blade)
    if action == 6 and blades:
        path, blade = rng.choice(blades)
        if blade:
            changed = blade[::-1] if len(blade) > 1 and rng.random() < 0.5 else blade + blade[-1:]
            return _set(obj, path, changed)
        return obj
    path, node = rng.choice(nodes)
    return _set(obj, path, [node] if rng.random() < 0.5 else {"terms": node})


def _space_and_terms(x):
    """What reference_from_json_obj returns for a loaded value."""
    if isinstance(x, Multivector):
        return "clifford", (x.sig.p, x.sig.q), {mask_indices(m): c for m, c in x.terms()}
    return "form", x.n, {mask_indices(m): c for m, c in x.terms()}


def test_json_schema_fuzz_loads_and_round_trips_or_rejects():
    """Each mutant loads to the oracle's value, or fails with its message and path."""
    rng = random.Random(5)
    loaded = rejected = 0
    for i in range(4000):
        obj = _random_payload(rng)
        for _ in range(rng.randint(0, 3)):
            obj = _mutate(rng, obj)
        text = json.dumps(obj)
        if i % 50 == 0:
            text = text[:rng.randrange(len(text) + 1)]  # cut short
        try:
            want = oracles.reference_from_json_obj(json.loads(text))
        except json.JSONDecodeError:
            with pytest.raises(SchemaError, match="^invalid JSON: "):
                from_json(text)
            rejected += 1
            continue
        except oracles.SchemaCheckError as exc:
            with pytest.raises(SchemaError) as err:
                from_json(text)
            assert (str(err.value), err.value.path) == (str(exc), exc.path), text
            rejected += 1
            continue
        x = from_json(text)
        assert _space_and_terms(x) == want, text
        assert all(type(c) is Fraction and c for c in x.term_map().values()), text
        assert from_json(to_json(x)) == x, text
        assert to_json(from_json(to_json(x))) == to_json(x), text
        loaded += 1
    assert loaded > 500 and rejected > 500


def test_to_json_is_json_dumps_of_to_json_obj():
    rng = random.Random(41)
    values = []
    for n in range(1, 13):
        p = rng.randint(0, n)
        values += [Multivector.zero(Signature(p, n - p)), ExteriorForm.zero(n),
                   Multivector.scalar(Signature(p, n - p), Fraction(-3, 7)),
                   ExteriorForm(n, {0: 5})]
    for _ in range(400):
        n = rng.randint(1, 12)
        p = rng.randint(0, n)
        terms = {rng.randrange(1 << n): Fraction(rng.randint(-10**12, 10**12),
                                                 rng.randint(1, 10**6))
                 for _ in range(rng.randint(0, 12))}
        values += [Multivector(Signature(p, n - p), terms), ExteriorForm(n, terms)]
    for x in values:
        assert to_json(x) == json.dumps(to_json_obj(x), separators=(", ", ": "))


@pytest.mark.parametrize("text, want", [("0*e1 + e2", {0b10: 1}), ("0", {}), ("0*e1", {}),
                                        ("-0/5*e12 + 3 - 0", {0: 3}), ("e1 + 0*e1", {0b1: 1})])
def test_zero_terms_leave_no_entry(text, want, sig6):
    for x in (parse(text, sig6), parse(text, 6, kind="form")):
        assert x.term_map() == want
        assert all(type(c) is Fraction for c in x.term_map().values())


@pytest.mark.parametrize("coef", ["0", "-0", "0/5", "-00/7"])
def test_json_zero_coefs_leave_no_entry(coef):
    for kind in ("clifford", "form"):
        alone = {"signature": [0, 6], "kind": kind, "terms": [{"blade": [1], "coef": coef}]}
        assert from_json(json.dumps(alone)).is_zero()
        alone["terms"].append({"blade": [2], "coef": "1"})
        x = from_json(json.dumps(alone))
        assert x.term_map() == {0b10: 1}
        assert type(x.term_map()[0b10]) is Fraction


@pytest.mark.parametrize("n", [0, 13, 14, 15, 16, 17, 30, -1, True])
def test_parse_form_rejects_a_dimension_outside_1_to_12(n):
    before = blade_table.cache_info().currsize
    with pytest.raises(ValueError) as err:
        parse("e1", n, kind="form")
    assert str(err.value) == f"dimension must be in 1..12, got {n!r}"
    assert blade_table.cache_info().currsize == before  # no table was built


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"signature": [0, 6], "kind": "form", "terms": ' + "[" * 100_000 + "]" * 100_000 + "}",
    '{"signature": [0, 1' + "0" * 5000 + '], "kind": "form", "terms": []}',
], ids=["deep-root", "deep-terms", "long-integer"])
def test_json_hostile_text_is_a_schema_error(text):
    for read in (from_json, structure_from_json):  # both readers share one decode step
        with pytest.raises(SchemaError, match="invalid JSON"):
            read(text)


# -- the writers' digit bound ---------------------------------------------------

WRITERS = (print_canonical, to_json, to_json_obj)


def _refused(x, blade: str):
    """The error every writer raises for x, which must name blade and the bound."""
    for write in WRITERS:
        with pytest.raises(ValueError) as err:
            write(x)
        assert type(err.value) is exprio._DigitLimitError
        assert str(err.value) == (f"cannot write the coefficient of blade {blade}: its numerator "
                                  f"or denominator has more than 4300 digits")


def test_an_accepted_sum_that_outgrows_the_bound_is_named(digit_limit, sig6):
    rng = random.Random(4300)
    dens = [rng.randrange(10 ** 1999, 10 ** 2000) for _ in range(3)]
    x = parse(" + ".join(f"1/{d}*e1" for d in dens), sig6)  # every literal is accepted
    assert x.coefficient((1,)).denominator >= 10 ** 4300  # more than 4,300 digits
    _refused(x, "e1")
    _refused(x + parse("e2 + 3*e12", sig6), "e1")  # the other terms are writable
    _refused(ExteriorForm(6, {0: x.coefficient((1,))}), "1")


@pytest.mark.parametrize("part", ["numerator", "denominator"])
def test_digit_bound_edges_round_trip_or_fail_both_ways(digit_limit, part, sig6):
    for digits in (4300, 4301):
        big, big_text = 10 ** (digits - 1) + 7, "1" + "0" * (digits - 2) + "7"  # coprime to 3
        coef, coef_text = ((Fraction(big, 3), big_text + "/3") if part == "numerator"
                           else (Fraction(3, big), "3/" + big_text))
        x = Multivector(sig6, {0b101: coef, 0: Fraction(1, 2)})
        text = f"1/2 + {coef_text}*e13"
        payload = json.dumps({"signature": [0, 6], "kind": "clifford",
                              "terms": [{"blade": [], "coef": "1/2"},
                                        {"blade": [1, 3], "coef": coef_text}]})
        if digits == 4300:
            assert print_canonical(x) == text and parse(text, sig6) == x
            assert to_json(x) == payload and from_json(payload) == x
            assert to_json_obj(x) == json.loads(payload)
        else:
            _refused(x, "e13")
            with pytest.raises(ParseError, match="integer literal too long"):
                parse(text, sig6)
            with pytest.raises(SchemaError, match="integer literal too long"):
                from_json(payload)
