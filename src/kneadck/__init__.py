"""K-groups of Cuntz-Krieger algebras from periodic kneading sequences.

The pipeline: parse a kneading word over {R, L, C}; order its critical
orbit symbolically; build the Markov transition matrix and the related
integer matrix family; compute K0, K1, and the Bowen-Franks group by exact
Smith-normal-form arithmetic; and cross-check the closed form
a = |1 + sum of partial products| that determines both K-groups.  A small
floating-point module recovers the superstable parameter realizing a word
inside the quadratic family.
"""

from .dynamics import (
    C_TOL,
    QuadMap,
    SolverError,
    SuperstableResult,
    find_superstable_mu,
    iterate,
    numeric_itinerary,
)
from .intlinalg import (
    AbelianGroup,
    SmithForm,
    as_int_matrix,
    cokernel,
    determinant,
    eye_int,
    is_irreducible,
    is_unimodular,
    kernel_rank,
    smith_diagonal,
    smith_normal_form,
    zeros_int,
)
from .ktheory import (
    KGroupReport,
    TheoremViolationError,
    bf_group,
    closed_form_a,
    k_groups,
)
from .markov import (
    ConstructionError,
    OrbitModel,
    TheoremMatrices,
    build_matrices,
    build_orbit,
    transition_matrix,
)
from .symbolic import (
    DomainError,
    KneadingWord,
    Order,
    ParseError,
    Symbol,
    SymbolSeq,
    ThetaPrefix,
    enumerate_admissible,
    invariant_coordinate,
    is_admissible,
    mt_compare,
    parse_word,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "C_TOL",
    "ConstructionError",
    "DomainError",
    "KGroupReport",
    "KneadingWord",
    "Order",
    "OrbitModel",
    "ParseError",
    "QuadMap",
    "SmithForm",
    "SolverError",
    "SuperstableResult",
    "Symbol",
    "SymbolSeq",
    "TheoremMatrices",
    "TheoremViolationError",
    "ThetaPrefix",
    "as_int_matrix",
    "bf_group",
    "build_matrices",
    "build_orbit",
    "closed_form_a",
    "cokernel",
    "determinant",
    "enumerate_admissible",
    "eye_int",
    "find_superstable_mu",
    "invariant_coordinate",
    "is_admissible",
    "is_irreducible",
    "is_unimodular",
    "iterate",
    "k_groups",
    "kernel_rank",
    "mt_compare",
    "numeric_itinerary",
    "parse_word",
    "smith_diagonal",
    "smith_normal_form",
    "transition_matrix",
    "zeros_int",
]
