"""Exact Clifford/exterior algebra over the rationals.

Builds primitive idempotents and minimal left ideals of R_{p,q},
translates between idempotents and SU(3)/G2/Spin(7) structure tensors,
and machine-verifies the documented identities.  All arithmetic is
exact (integers over a common denominator, fractions.Fraction at the API);
there are no floats anywhere.

The engine modules load with the package.  The names from `structures` (the
structure records, models, idempotents, recoveries, lifts and their JSON) and
from `verifier` (Claim, ClaimResult, Report, load_golden, run_all, run_claim)
load on first use, through the _LAZY table below.
"""

from types import ModuleType as _ModuleType

from .algebra import (
    Multivector,
    Signature,
    blade_square_sign,
    geometric_product,
    grade_project,
    reverse,
    volume_element,
)
from .exterior import (
    ExteriorForm,
    HodgeConvention,
    clifford_hodge,
    hodge_star,
    interior_product,
    quantize,
    symbol,
    volume_form,
    wedge,
)
from .exprio import (
    ParseError,
    SchemaError,
    from_json,
    parse,
    print_canonical,
    to_json,
)
from .ideals import (
    AlgebraClass,
    GeneratorError,
    GeneratorReport,
    IdealBasis,
    IdempotentSpec,
    build_idempotent,
    classify,
    coset_basis,
    decompose_algebra,
    is_idempotent,
    is_orthogonal,
    is_primitive,
    left_ideal_basis,
    radon_hurwitz,
    validate_generators,
)

__version__ = "0.1.0"

# name -> the module that defines it, imported on first access (PEP 562)
_LAZY = {name: module for module, names in (
    ("structures", "G2Structure OrbitReport SU3Structure Spin7Structure StructureError "
                   "g2_idempotent g2_metric g2_recover lift_idempotent_6_to_7 lift_su3_to_g2 "
                   "model_g2 model_spin7 model_su3 spin7_idempotent spin7_recover "
                   "structure_from_json structure_to_json su3_idempotent su3_recover"),
    ("verifier", "Claim ClaimResult Report load_golden run_all run_claim"),
) for name in names.split()}

# every public name, imported above or listed in _LAZY, so each is written once
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)] + list(_LAZY))


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
