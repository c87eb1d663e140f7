"""The record types: repr, ==, hash, immutability, construction, validation,
Signature ordering, copying and pickling, and what importing the CLI loads."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cliffideal
from cliffideal import (
    AlgebraClass,
    Claim,
    ClaimResult,
    ExteriorForm,
    G2Structure,
    GeneratorReport,
    IdealBasis,
    IdempotentSpec,
    Multivector,
    OrbitReport,
    Report,
    Signature,
    Spin7Structure,
    StructureError,
    SU3Structure,
    classify,
    g2_metric,
    left_ideal_basis,
    model_g2,
    model_spin7,
    model_su3,
    print_canonical,
    run_claim,
    validate_generators,
)
from cliffideal.linalg import RowBasis
from cliffideal.verifier import _catalog

# (1 + e1)/2 in R_{1,0}: a primitive idempotent whose ideal is one-dimensional
F10 = Multivector(Signature(1, 0), {0: Fraction(1, 2), 1: Fraction(1, 2)})
SPEC6 = ((1, (1, 3, 5)), (-1, (1, 4, 6)))


def _records():
    """One instance of each record type, by name."""
    return {
        "Signature": Signature(1, 0),
        "IdempotentSpec": IdempotentSpec(Signature(0, 6), SPEC6),
        "GeneratorReport": validate_generators(IdempotentSpec(Signature(0, 6), SPEC6)),
        "IdealBasis": left_ideal_basis(F10),
        "AlgebraClass": classify(Signature(0, 3)),
        "SU3Structure": model_su3(),
        "G2Structure": model_g2(),
        "Spin7Structure": model_spin7(),
        "OrbitReport": g2_metric(model_g2()),
        "Claim": Claim("X1", "S0", "demo", "e1 prints as e1", "e1", False, print_canonical),
        "ClaimResult": run_claim("C3"),
        "Report": Report((run_claim("C1"),)),
    }


RECORD_NAMES = list(_records())
RECORD_TYPES = (Signature, IdempotentSpec, GeneratorReport, IdealBasis, AlgebraClass,
                SU3Structure, G2Structure, Spin7Structure, OrbitReport, Claim, ClaimResult, Report)

_IDENTITY_7 = "(" + ", ".join(
    "(" + ", ".join("Fraction(1, 1)" if i == j else "Fraction(0, 1)" for j in range(7)) + ")"
    for i in range(7)) + ")"

REPRS = {
    "Signature": "Signature(p=1, q=0)",
    "IdempotentSpec": "IdempotentSpec(sig=Signature(p=0, q=6), "
                      "generators=((1, (1, 3, 5)), (-1, (1, 4, 6))))",
    "GeneratorReport": "GeneratorReport(ok=False, k=2, expected_k=3, "
                       "violations=('expected 3 generators for R_{0,6}, got 2',))",
    "IdealBasis": "IdealBasis(idempotent=Multivector(R_{1,0}, +1/2*1 +1/2*e1), dimension=1, "
                  "basis=(Multivector(R_{1,0}, +1/2*1 +1/2*e1),))",
    "AlgebraClass": "AlgebraClass(ring='H', matrix_size=1, summands=2, minimal_ideal_dim=4)",
    "SU3Structure": "SU3Structure(omega=ExteriorForm(n=6, +1*e12 +1*e34 +1*e56), "
                    "psi_plus=ExteriorForm(n=6, +1*e135 -1*e146 -1*e236 -1*e245), "
                    "psi_minus=ExteriorForm(n=6, +1*e136 +1*e145 +1*e235 -1*e246))",
    "G2Structure": "G2Structure(phi=ExteriorForm(n=7, +1*e123 +1*e145 +1*e167 +1*e246 "
                   "-1*e257 -1*e347 -1*e356))",
    "Spin7Structure": "Spin7Structure(cayley=ExteriorForm(n=8, +1*e1234 +1*e1256 +1*e1278 "
                      "+1*e1357 -1*e1368 -1*e1458 -1*e1467 -1*e2358 -1*e2367 -1*e2457 "
                      "+1*e2468 +1*e3456 +1*e3478 +1*e5678))",
    "OrbitReport": f"OrbitReport(metric={_IDENTITY_7}, determinant=Fraction(1, 1), tag='definite')",
    "Claim": f"Claim(id='X1', paper_ref='S0', category='demo', statement='e1 prints as e1', "
             f"paper_value='e1', uses_clifford_star=False, evaluate={print_canonical!r})",
    "ClaimResult": "ClaimResult(id='C3', status='FAIL', computed='14*e12345678', "
                   "paper='8*e12345678', note='the wedge square is 14, not 8, times the volume form')",
    "Report": "Report(results=(ClaimResult(id='C1', status='PASS', computed='4*e123456', "
              "paper='4*e123456', note=''),))",
}


_FIELD_NAMES = {
    "Signature": ["p", "q"],
    "IdempotentSpec": ["sig", "generators"],
    "GeneratorReport": ["ok", "k", "expected_k", "violations"],
    "IdealBasis": ["idempotent", "dimension", "basis"],
    "AlgebraClass": ["ring", "matrix_size", "summands", "minimal_ideal_dim"],
    "SU3Structure": ["omega", "psi_plus", "psi_minus"],
    "G2Structure": ["phi"],
    "Spin7Structure": ["cayley"],
    "OrbitReport": ["metric", "determinant", "tag"],
    "Claim": ["id", "paper_ref", "category", "statement", "paper_value",
              "uses_clifford_star", "evaluate"],
    "ClaimResult": ["id", "status", "computed", "paper", "note"],
    "Report": ["results"],
}


def _fields(x):
    """The record's public field values, in order: what == and hash compare."""
    return tuple(getattr(x, name) for name in _FIELD_NAMES[type(x).__name__])


def _all_fields(name):
    """Every constructor field of the record, in order (IdealBasis adds _rows)."""
    return _FIELD_NAMES[name] + (["_rows"] if name == "IdealBasis" else [])


def test_every_record_type_is_covered():
    assert [type(x) for x in _records().values()] == list(RECORD_TYPES)


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_repr_is_pinned(name):
    assert repr(_records()[name]) == REPRS[name]


def test_repr_of_a_classify_result():
    assert repr(classify(Signature(0, 6))) == \
        "AlgebraClass(ring='R', matrix_size=8, summands=1, minimal_ideal_dim=8)"
    assert repr(Signature(0, 6)) == "Signature(p=0, q=6)"


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_equality_and_hash_follow_the_fields(name):
    a, b = _records()[name], _records()[name]
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a))
    assert a != _fields(a)  # == holds only against the same class


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_construction_positional_and_keyword(name):
    x = _records()[name]
    cls = type(x)
    values = {f: getattr(x, f) for f in _all_fields(name)}
    assert cls(*values.values()) == x
    assert cls(**values) == x
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(*list(values.values())[:-1])
    with pytest.raises(TypeError):
        cls(**values, unknown=1)
    first = next(iter(values))
    with pytest.raises(TypeError):
        cls(*values.values(), **{first: values[first]})


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_fields_cannot_be_assigned_or_deleted(name):
    x = _records()[name]
    for field in _all_fields(name):
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert repr(x) == REPRS[name]


def test_ideal_basis_equality_ignores_rows():
    ideal = left_ideal_basis(F10)
    other = IdealBasis(idempotent=F10, dimension=1, basis=(F10,), _rows=RowBasis())
    assert other == ideal
    assert hash(other) == hash(ideal) == hash((F10, 1, (F10,)))
    assert "_rows" not in repr(other)
    assert IdealBasis(F10, 2, (F10,), ideal._rows) != ideal


@pytest.mark.parametrize("p, q", [(-1, 3), (3, -1), (0, 0), (0, 13), (7, 6)])
def test_signature_validation(p, q):
    with pytest.raises(ValueError):
        Signature(p, q)


def test_idempotent_spec_validation_and_normalisation():
    sig = Signature(0, 6)
    with pytest.raises(ValueError, match="sign"):
        IdempotentSpec(sig, ((2, (1, 3, 5)),))
    with pytest.raises(ValueError):
        IdempotentSpec(sig, ((1, (3, 1)),))
    with pytest.raises(ValueError):
        IdempotentSpec(sig, ((1, (1, 7)),))
    spec = IdempotentSpec(sig, [(1, [1, 3, 5]), (-1, [1, 4, 6])])
    assert spec.generators == SPEC6
    assert spec == IdempotentSpec(sig, SPEC6)


def test_structure_validation():
    su3, g2, spin7 = model_su3(), model_g2(), model_spin7()
    with pytest.raises(StructureError, match="omega"):
        SU3Structure(su3.psi_plus, su3.psi_plus, su3.psi_minus)
    with pytest.raises(StructureError, match="psi_minus"):
        SU3Structure(omega=su3.omega, psi_plus=su3.psi_plus, psi_minus=g2.phi)
    with pytest.raises(StructureError, match="phi"):
        G2Structure(su3.psi_plus)
    with pytest.raises(StructureError, match="pure 3-form"):
        G2Structure(phi=g2.phi + ExteriorForm.from_terms(7, [(1, (1, 2))]))
    with pytest.raises(StructureError, match="cayley"):
        Spin7Structure(cayley=ExteriorForm.from_terms(8, [(1, (1, 2, 3))]))
    assert Spin7Structure(spin7.cayley) == spin7


def test_signature_orders_by_p_then_q():
    a, b, c = Signature(0, 6), Signature(0, 7), Signature(1, 0)
    assert a < b < c and c > b > a
    assert a <= a and a >= a and not a < a and not a > a
    assert sorted([c, b, a, Signature(0, 1)]) == [Signature(0, 1), a, b, c]
    assert max(a, b, c) == c
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(a, op)((0, 6)) is NotImplemented
    with pytest.raises(TypeError):
        a < (0, 7)


def _copyable():
    """Every public record type and both element types."""
    values = dict(_records())
    values["catalog Claim"] = _catalog()["C1"]  # its evaluate is a closure: copies, no pickle
    values["Multivector"] = Multivector(Signature(0, 6), {0: Fraction(1, 8), 0b10101: -3})
    values["ExteriorForm"] = ExteriorForm.from_terms(7, [(2, (1, 2, 3)), (Fraction(-1, 3), (4,))])
    return values


@pytest.mark.parametrize("name", list(_copyable()))
def test_copy_deepcopy_and_pickle_round_trip(name):
    x = _copyable()[name]
    copies = [copy.copy(x), copy.deepcopy(x)]
    if name != "catalog Claim":
        copies += [pickle.loads(pickle.dumps(x, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert type(y) is type(x)
        assert y == x
        assert hash(y) == hash(x)
        assert repr(y) == repr(x)


def test_copied_ideal_basis_still_answers_membership():
    ideal = left_ideal_basis(F10)
    for y in (copy.deepcopy(ideal), pickle.loads(pickle.dumps(ideal))):
        assert y.contains(F10.scale(3))
        assert not y.contains(Multivector.scalar(F10.sig, 1))


def test_copied_elements_stay_immutable():
    x = copy.deepcopy(Multivector.scalar(Signature(0, 2), 1))
    with pytest.raises(AttributeError):
        x._terms = {}
    with pytest.raises(AttributeError):
        del x._terms


def test_cli_import_skips_introspection_modules():
    """A CLI command loads only what it runs: every CLI run starts a fresh
    interpreter and would pay for importing dataclasses, inspect, json, argparse,
    fractions, or the structures and verifier layers it never calls.  Those
    layers' names load on first access to the package (PEP 562)."""
    package_root = str(Path(cliffideal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    # argparse (with gettext and locale) runs only for help and refusals, fractions (with
    # decimal and numbers) only where a Fraction is built or read, and typing never: the
    # annotations are strings, and their names come from collections.abc
    never = {"cliffideal.structures", "cliffideal.verifier", "argparse", "gettext", "locale",
             "fractions", "decimal", "numbers", "typing"}
    cases = [(["classify", "0", "6"], {"dataclasses", "inspect", "json", *never}),
             (["eval", "--sig", "0,6", "--op", "product", "e135", "e246"], {"json", *never}),
             (["idempotent", "--sig", "0,6", "--gens", "+e135,-e146,-e236", "--ideal"], never),
             (["idempotent", "--sig", "0,6", "--gens", "+e135,-e146,-e236", "--decompose"], never),
             (["structure", "su3", "--model", "--to-idempotent"],
              {"cliffideal.verifier", "argparse", "typing"}),
             # the golden file is read by the module's loader, not through importlib.resources
             # and its zip and temporary-file machinery
             (["verify-paper"], {"importlib.resources", "zipfile", "tempfile", "argparse", "typing"})]
    for argv, unloaded in cases:
        # -S: no site hooks, so only the package's own imports are counted
        code = ("import sys; from cliffideal.cli import main; code = main(sys.argv[2:]); "
                "sys.stdout.flush(); print(code, sorted(set(sys.argv[1].split()) & set(sys.modules)), "
                "file=sys.stderr)")
        out = subprocess.run([sys.executable, "-S", "-c", code, " ".join(unloaded), *argv], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        assert out.stderr.splitlines()[-1] == "0 []", argv

    # the library alike: an int coefficient builds and scales without fractions, and reading a
    # coefficient out, a Fraction, is what loads it
    code = ("import sys; from cliffideal import ExteriorForm, Multivector, Signature; "
            "sig = Signature(0, 6); x = Multivector.zero(sig) + Multivector.scalar(sig, 1); "
            "w = ExteriorForm.from_terms(6, [(1, (1, 2))]).scale(2); y = 3 * x * 2; "
            "mods = ('fractions', 'decimal', 'numbers'); "
            "print([m for m in mods if m in sys.modules]); x.coefficient(()); "
            "print([m for m in mods if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["[]", "['fractions', 'decimal', 'numbers']"]

    lazy = cliffideal._LAZY
    assert set(lazy) <= set(cliffideal.__all__) <= set(dir(cliffideal))
    for name in cliffideal.__all__:
        value = getattr(cliffideal, name)
        assert vars(sys.modules[value.__module__])[name] is value, name
        if name in lazy:
            assert value.__module__ == f"cliffideal.{lazy[name]}" and name in vars(cliffideal), name
    namespace = {}
    exec("from cliffideal import *", namespace)
    assert {name: namespace[name] for name in cliffideal.__all__} == \
        {name: getattr(cliffideal, name) for name in cliffideal.__all__}
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cliffideal.no_such_name
