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
    numeric_itinerary,
)
from .intlinalg import AbelianGroup, smith_diagonal
from .ktheory import (
    KGroupReport,
    TheoremViolationError,
    VerifyReport,
    closed_form_a,
    k_groups,
    verify,
)
from .markov import (
    ConstructionError,
    OrbitModel,
    TheoremMatrices,
    build_matrices,
    build_orbit,
)
from .symbolic import (
    DomainError,
    KneadingWord,
    ParseError,
    Symbol,
    enumerate_admissible,
    invariant_coordinate,
    is_admissible,
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
    "OrbitModel",
    "ParseError",
    "QuadMap",
    "SolverError",
    "SuperstableResult",
    "Symbol",
    "TheoremMatrices",
    "TheoremViolationError",
    "VerifyReport",
    "build_matrices",
    "build_orbit",
    "closed_form_a",
    "enumerate_admissible",
    "find_superstable_mu",
    "invariant_coordinate",
    "is_admissible",
    "k_groups",
    "numeric_itinerary",
    "parse_word",
    "smith_diagonal",
    "verify",
]
