"""K-groups and the Bowen-Franks group of a kneading word's transition matrix.

Two independent routes are computed and compared: the closed form

    a = |1 + sum_{l=1}^{n-1} prod_{i=1}^{l} e_i|

over the word's symbol values, predicting K0 = Z_a (with Z_0 = Z, Z_1 = 0)
and K1 = Z exactly when a = 0; and the Smith-normal-form route, which reads
K0 as the cokernel and K1 as the kernel of I - A^T over the integers.  For
admissible words the two must agree, and a disagreement raises
:class:`TheoremViolationError` rather than being swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import (
    AbelianGroup,
    as_int_matrix,
    cokernel,
    eye_int,
    is_irreducible,
    smith_diagonal,
)
from .markov import build_orbit, transition_matrix
from .symbolic import DomainError, KneadingWord, is_admissible


class TheoremViolationError(RuntimeError):
    """The closed form and the Smith-normal-form route disagreed."""


@dataclass(frozen=True)
class KGroupReport:
    """K-group data of one word, with the flags needed to interpret it."""

    word: KneadingWord
    a_closed_form: int
    K0: AbelianGroup
    K1: AbelianGroup
    BF: AbelianGroup
    irreducible: bool
    admissible: bool


def closed_form_a(w: KneadingWord) -> int:
    """Exact evaluation of a = |1 + sum of partial products of e_1..e_{n-1}|."""
    if w.n < 2:
        raise DomainError("closed form requires period >= 2")
    total = 1
    prod = 1
    for v in w.values()[:-1]:
        prod *= v
        total += prod
    return abs(total)


def k_groups(w: KneadingWord) -> KGroupReport:
    """Full K-group report for a word of period >= 2.

    Inadmissible words are processed too (their transition matrix is still
    defined); the report then carries ``admissible=False`` and the
    closed-form/SNF agreement is not enforced, since the closed form is
    only claimed for admissible input.
    """
    if w.n < 2:
        raise DomainError("K-group computation requires period >= 2")
    admissible = is_admissible(w)
    a = closed_form_a(w)
    A = transition_matrix(build_orbit(w))
    r = A.shape[0]
    # One Smith diagonal of I - A^T gives K0 and K1; BF = coker(I - A) is
    # K0 again, since a square matrix and its transpose share a Smith form.
    diag = smith_diagonal(eye_int(r) - A.T)
    K0 = AbelianGroup.from_diagonal(diag)
    K1 = AbelianGroup(diag.count(0), ())
    BF = K0
    irreducible = is_irreducible(A)

    if admissible:
        if K0 != AbelianGroup.cyclic(a):
            raise TheoremViolationError(
                f"{w}: closed form predicts K0 = {AbelianGroup.cyclic(a)}, "
                f"cokernel route gives {K0}"
            )
        expected_k1 = AbelianGroup(1 if a == 0 else 0, ())
        if K1 != expected_k1:
            raise TheoremViolationError(
                f"{w}: a = {a} predicts K1 = {expected_k1}, kernel route gives {K1}"
            )

    return KGroupReport(
        word=w,
        a_closed_form=a,
        K0=K0,
        K1=K1,
        BF=BF,
        irreducible=irreducible,
        admissible=admissible,
    )


def bf_group(A) -> AbelianGroup:
    """Cokernel of I - A for any square 0-1 matrix (flow-equivalence invariant)."""
    M = as_int_matrix(A)
    r, c = M.shape
    if r != c:
        raise ValueError("matrix must be square")
    if not ((M == 0) | (M == 1)).all():
        raise ValueError("matrix entries must be 0 or 1")
    return cokernel(eye_int(r) - M)
