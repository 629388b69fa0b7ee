"""wcpx: exact verification of weak, partial and unified crossed products.

Structures are finite-dimensional and given by structure constants over
the rationals or a prime field; every condition is an exact morphism
equality, so checks either pass or fail with a basis witness.
"""

__version__ = "0.1.0"

from .fields import QQ, FieldSpec, prime_field
from .linmaps import (LinMap, ObjectShape, Splitting, braiding, compose,
                      equals, identity, rank, split_idempotent, tensor)
from .reporting import Report
from .structures import (AlgebraData, BialgebraData, CoalgebraData, HopfData,
                         check_algebra, check_bialgebra, check_coalgebra, check_hopf)
from .weak_crossed import (CrossedSystem, WeakCrossedProduct, build_algebra,
                           build_nabla, build_products, check_cocycle,
                           check_compat, check_preunit, check_twisted,
                           normalize_sigma)
from .partial_crossed import (TwistedPartialAction, check_partial_action,
                              check_units_and_cocycle, theorem_equivalence_suite)
from .unified_product import (ExtendingDatum, PreHopfObject, check_be,
                              check_extending_datum, check_nabla_identity,
                              theorem_equivalence_suite_unified)

__all__ = [
    "QQ", "FieldSpec", "prime_field",
    "LinMap", "ObjectShape", "Splitting", "braiding", "compose", "equals",
    "identity", "rank", "split_idempotent", "tensor",
    "Report",
    "AlgebraData", "BialgebraData", "CoalgebraData", "HopfData",
    "check_algebra", "check_bialgebra", "check_coalgebra", "check_hopf",
    "CrossedSystem", "WeakCrossedProduct", "build_algebra", "build_nabla",
    "build_products", "check_cocycle", "check_compat", "check_preunit",
    "check_twisted", "normalize_sigma",
    "TwistedPartialAction", "check_partial_action", "check_units_and_cocycle",
    "theorem_equivalence_suite",
    "ExtendingDatum", "PreHopfObject", "check_be",
    "check_extending_datum", "check_nabla_identity", "theorem_equivalence_suite_unified",
]
