"""Exact commutative algebra for quotients of affine schemes by finite
equivalence relations.

Everything is symbolic: coefficients are rationals or prime-field elements,
never floats.  The package provides sparse multivariate polynomials, Groebner
bases, equivalence-relation checking, truncated coordinate rings of
quotients, invariants of finite group actions, pinched schemes, an
effectivity test for descent data, Frobenius exponents, and a small script
language exposed through the ``quotrel`` command.
"""

from .effectivity import CocycleData, check_cocycle, effectivity_test
from .eqrel import (
    RelationPresentation,
    relation_from_group_action,
    relation_from_map,
    verify_relation,
)
from .fields import GF, QQ
from .frobenius import frobenius_exponent
from .groebner import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    MembershipSieve,
    eliminate,
    finite_over_block,
    groebner_basis,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    is_unit_ideal,
    normal_form,
    radical_member,
)
from .invariants import (
    GroupAction,
    invariant_basis,
    orbit_symmetric_generators,
    reynolds_project,
)
from .pinch import (
    PinchInput,
    pinch_generators,
    subalgebra_intersection_trunc,
    verify_pushout,
    verify_pushout_diagram,
)
from .poly import (
    GREVLEX,
    LEX,
    BlockOrder,
    GrevlexOrder,
    LexOrder,
    ParseError,
    PolyRing,
    Polynomial,
    order_from_name,
)
from .quotient import (
    TruncatedSubalgebra,
    coequalizer_kernel_basis,
    noetherian_probe,
    present_subalgebra,
)
from .ring import (
    AmbientRing,
    FlatModel,
    RingElement,
    RingMap,
    subalgebra_member_ring,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientRing",
    "BlockOrder",
    "BudgetExceededError",
    "CocycleData",
    "DEFAULT_BUDGET",
    "FlatModel",
    "GF",
    "GREVLEX",
    "GrevlexOrder",
    "GroupAction",
    "LEX",
    "LexOrder",
    "MembershipSieve",
    "ParseError",
    "PinchInput",
    "PolyRing",
    "Polynomial",
    "QQ",
    "RelationPresentation",
    "RingElement",
    "RingMap",
    "TruncatedSubalgebra",
    "check_cocycle",
    "coequalizer_kernel_basis",
    "effectivity_test",
    "eliminate",
    "finite_over_block",
    "frobenius_exponent",
    "groebner_basis",
    "ideal_equal",
    "ideal_intersect",
    "ideal_member",
    "invariant_basis",
    "is_unit_ideal",
    "noetherian_probe",
    "normal_form",
    "orbit_symmetric_generators",
    "order_from_name",
    "pinch_generators",
    "present_subalgebra",
    "radical_member",
    "relation_from_group_action",
    "relation_from_map",
    "reynolds_project",
    "subalgebra_intersection_trunc",
    "subalgebra_member_ring",
    "verify_pushout",
    "verify_pushout_diagram",
    "verify_relation",
]
