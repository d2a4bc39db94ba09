import kneadck

# The public names of the package.  A name leaves this list only with its
# removal from the API, so a deleted function cannot quietly come back.
PUBLIC = [
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


def test_all_is_pinned():
    assert kneadck.__all__ == PUBLIC


def test_all_is_sorted_without_duplicates():
    assert kneadck.__all__ == sorted(set(kneadck.__all__))


def test_every_name_resolves():
    for name in kneadck.__all__:
        assert hasattr(kneadck, name), name
