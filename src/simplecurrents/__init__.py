"""Simple-current auto-equivalences of modular tensor categories.

The package builds the modular data of level-k categories of simple Lie
algebras from first principles (alcove weights, Kac-Walton fusion, exact
conformal-weight twists), exposes abstract fusion-ring and modular-data
types for externally supplied categories, and constructs and classifies the
monoidal auto-equivalences induced by invertible objects.
"""

from .angles import RationalAngle, ZERO_ANGLE, angle, primitive_angles
from .catfile import (CategoryFileError, build_category_file, load_category,
                      save_category)
from .currents import (CoprimalityError, CurrentAutoEq, InadmissibleZetaError,
                       admissible_zetas, all_autoequivalences, alpha_symbol,
                       braided_symbol_condition, classify_braided,
                       classify_pivotal, commute_test, compose,
                       construct_autoeq, epsilon_scalar, exists_autoequivalence,
                       generated_group, hexagon_holds, order_bound, profile)
from .fusion import (FusionRing, NotInvertibleError, axiom_violation,
                     fuse_permutation, invertible_order, invertibles,
                     is_ring_automorphism, verify_axioms)
from .groups import ClosureCapExceededError, GroupReport
from .lie import (LieAlgebraSpec, OutOfAlcoveError, alcove_weights,
                  conformal_weight, fusion_coefficients, inner_product,
                  lie_algebra, parse_weight_label, quantum_dimension,
                  tensor_decompose, weight_label, weight_multiplicities,
                  weyl_dimension)
from .modular import (InconsistentDataError, InvertibleProfile,
                      ModularCategoryData, build_wzw_data, grading,
                      grading_support, monodromy)

__version__ = "0.1.0"

__all__ = [
    "RationalAngle", "ZERO_ANGLE", "angle", "primitive_angles",
    "LieAlgebraSpec", "OutOfAlcoveError", "lie_algebra", "inner_product",
    "alcove_weights", "weight_multiplicities", "weyl_dimension",
    "tensor_decompose", "fusion_coefficients", "conformal_weight",
    "quantum_dimension", "weight_label", "parse_weight_label",
    "FusionRing", "NotInvertibleError", "axiom_violation", "verify_axioms",
    "invertibles", "invertible_order", "fuse_permutation",
    "is_ring_automorphism",
    "ModularCategoryData", "InvertibleProfile", "InconsistentDataError",
    "build_wzw_data", "monodromy", "grading",
    "grading_support",
    "CurrentAutoEq", "CoprimalityError", "InadmissibleZetaError",
    "profile", "exists_autoequivalence", "admissible_zetas",
    "construct_autoeq", "all_autoequivalences", "classify_braided",
    "classify_pivotal", "order_bound", "commute_test", "compose",
    "generated_group", "alpha_symbol", "hexagon_holds",
    "braided_symbol_condition", "epsilon_scalar",
    "GroupReport", "ClosureCapExceededError",
    "CategoryFileError", "build_category_file", "save_category",
    "load_category",
]
