"""Exact Clifford/exterior algebra over the rationals.

Builds primitive idempotents and minimal left ideals of R_{p,q},
translates between idempotents and SU(3)/G2/Spin(7) structure tensors,
and machine-verifies the documented identities.  All arithmetic is
exact (integers over a common denominator, fractions.Fraction at the API);
there are no floats anywhere.
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
from .structures import (
    G2Structure,
    OrbitReport,
    SU3Structure,
    Spin7Structure,
    StructureError,
    g2_idempotent,
    g2_metric,
    g2_recover,
    lift_idempotent_6_to_7,
    lift_su3_to_g2,
    model_g2,
    model_spin7,
    model_su3,
    spin7_idempotent,
    spin7_recover,
    structure_from_json,
    structure_to_json,
    su3_idempotent,
    su3_recover,
)
from .verifier import (
    Claim,
    ClaimResult,
    Report,
    load_golden,
    run_all,
    run_claim,
)

__version__ = "0.1.0"

# every public name imported above, so each is written once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
