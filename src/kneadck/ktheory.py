"""K-groups and the Bowen-Franks group of a kneading word's transition matrix.

Two independent routes are compared: the closed form
``a = |1 + theta_1 + ... + theta_{n-1}|``, the kneading determinant at
t = 1 summed over the invariant coordinates ``theta_k = e_1 ... e_k``,
predicting K0 = Z_a (with Z_0 = Z, Z_1 = 0) and K1 = Z exactly when a = 0;
and the Smith-normal-form route, which reads K0 as the cokernel and K1 as
the kernel of I - A^T over the integers.  Both checks are stated once, in
:func:`_closed_form_failures`, on the cokernel read off the Smith
diagonal of the rows that :func:`_differenced_rows` builds from the runs
of ones that make up the rows of A: (I - A) D with D unimodular.
:func:`k_groups`, given the ordered orbit of
:func:`~kneadck.markov.build_orbit`, raises :class:`TheoremViolationError`
with the first one an admissible word fails, and reads irreducibility off
the same runs, so it forms no dense matrix.  :func:`verify` scores both
beside the checks on the matrix family for every admissible word up to a
period, one word at a time, on the family's run form
(:func:`~kneadck.family._word_checks`), which compares the runs with the
signed runs of the other route to A.  Every elimination is one call of
:func:`~kneadck.intlinalg.smith_diagonal` on rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import AbelianGroup, _strongly_connected, smith_diagonal
from .markov import OrbitModel, build_orbit, transition_intervals
from .symbolic import _TOKENS, DomainError, KneadingWord, invariant_coordinate, search_admissible


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
    """Exact a of a word: :func:`_a_from_theta` of the invariant coordinates
    of its symbols before the final C."""
    if w.n < 2:
        raise DomainError("closed form requires period >= 2")
    return _a_from_theta(invariant_coordinate(w.symbols[:-1]))


def _a_from_theta(theta) -> int:
    """a = |1 + theta_1 + ... + theta_{n-1}| from the invariant coordinates
    of a word's symbols before its C, as :func:`closed_form_a` computes them
    and :func:`~kneadck.symbolic.search_admissible` gives them beside each
    word's text."""
    return abs(1 + sum(theta))


def _differenced_rows(runs) -> list[dict[int, int]]:
    """The rows of (I - A) D, as :func:`~kneadck.intlinalg.smith_diagonal`
    takes them, from the runs of A.

    D, 1 on the diagonal and -1 just above it, is unimodular, so (I - A) D
    has the Smith form of I - A^T: row k is +1 at k, -1 at k + 1, -1 at
    ``lo`` and +1 at ``hi`` for the k-th run ``(lo, hi)`` of A, summed where
    they meet, less column n - 1.
    """
    c = len(runs)
    rows = []
    for k, (lo, hi) in enumerate(runs):
        R = {k: 1, k + 1: -1}
        e = R.get(lo, 0) - 1
        if e:
            R[lo] = e
        else:
            del R[lo]
        e = R.get(hi, 0) + 1
        if e:
            R[hi] = e
        else:
            del R[hi]
        R.pop(c, None)
        rows.append(R)
    return rows


def _closed_form_failures(a: int, K0: AbelianGroup) -> dict[str, str]:
    """The closed form's checks that K0 = coker(I - A^T), read off its
    Smith diagonal, fails, each with its failure text, in check order.
    The kernel rank of the square I - A^T is K0's free rank."""
    failures = {}
    expected_K0 = AbelianGroup.cyclic(a)
    if K0 != expected_K0:
        failures["closed_form_k0"] = (
            f"closed form a={a} predicts K0={expected_K0}, SNF route gives {K0}"
        )
    kr, expected_kr = K0.free_rank, 1 if a == 0 else 0
    if kr != expected_kr:
        failures["k1_rank"] = f"a={a} predicts kernel rank {expected_kr}, SNF route gives {kr}"
    return failures


def k_groups(m: OrbitModel) -> KGroupReport:
    """Full K-group report for the ordered orbit ``m`` of a word.

    The word and its admissibility are read off ``m``.  Inadmissible
    words are processed too (their transition matrix is still defined);
    the report then carries ``admissible=False`` and the closed-form/SNF
    agreement is not enforced, since the closed form is only claimed for
    admissible input.
    """
    a = closed_form_a(m.word)
    runs = transition_intervals(m)
    # One Smith diagonal, of (I - A) D, gives K0 and, as its free rank,
    # K1; BF = coker(I - A) is K0 again, since I - A and I - A^T share a
    # Smith form.
    K0 = AbelianGroup.from_diagonal(smith_diagonal(_differenced_rows(runs), len(runs)))
    failures = _closed_form_failures(a, K0)
    if m.admissible and failures:
        raise TheoremViolationError(f"{m.word}: {next(iter(failures.values()))}")
    return KGroupReport(
        word=m.word,
        a_closed_form=a,
        K0=K0,
        K1=AbelianGroup(K0.free_rank, ()),
        BF=K0,
        irreducible=_strongly_connected([range(*run) for run in runs]),
        admissible=m.admissible,
    )


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of :func:`verify`, field for field the ``results`` of
    ``kneadck verify --format machine``."""

    n_max: int
    words_checked: int
    checks: dict[str, int]  # passing words per check, in the order verify runs them
    skipped: dict[str, list[str]]  # words a check does not apply to
    a_zero: dict[str, list[str]]  # "reducible" and "irreducible" a = 0 words
    violations: list[dict]  # {"word", "check", "detail"} per failed check
    ok: bool


def verify(n_max: int) -> VerifyReport:
    """Check every admissible word of period 2 to ``n_max``.

    Only checks a word can fail are scored.  The identities that the
    family builder defines or raises :class:`ConstructionError` on are
    not counted again; ``block_form`` with ``construction_equivalence``
    carries the kneading determinant ``det(I - tA) = sum theta_k t^k``.
    Each word's checks, its two Smith eliminations included, come from
    :func:`~kneadck.family._word_checks` on the run form of its family,
    which returns only the checks the word fails or skips, with their
    failure texts; a check passes for every other word.
    :data:`~kneadck.family.CHECKS` is the one list of the checks and orders
    ``checks`` and each word's violations.  Each word's text and invariant
    coordinates are read once, from
    :func:`~kneadck.symbolic.search_admissible`.  One INFO record per
    period goes to this module's logger.
    """
    import logging  # only verify logs; a deferred import keeps it off start-up

    from .family import CHECKS, _word_checks  # family imports this module's helpers

    if n_max < 2:
        raise DomainError("verification sweep requires n_max >= 2")
    missed: dict[str, int] = {}  # words per check that fail it or skip it
    skipped: dict[str, list[str]] = {}
    violations: list[dict] = []
    words_checked = 0
    # a = 0 words split by strong connectivity of A.  Reported verbatim,
    # not scored: reducibility in the a = 0 regime tracks factorizability
    # into shorter words, and non-factorizable a = 0 words, which exist
    # from n = 8 on, have strongly connected matrices.
    a_zero = {"reducible": [], "irreducible": []}

    symbol = _TOKENS.__getitem__
    for n in range(2, n_max + 1):
        for text, theta in search_admissible(n):
            model = build_orbit(KneadingWord(tuple(map(symbol, text))))
            runs = transition_intervals(model)
            a = _a_from_theta(theta)
            for name, detail in _word_checks(model, runs, a).items():
                missed[name] = missed.get(name, 0) + 1
                if detail is None:
                    skipped.setdefault(name, []).append(text)
                else:
                    violations.append({"word": text, "check": name, "detail": detail})
            words_checked += 1
            if a == 0:
                irreducible = _strongly_connected([range(*run) for run in runs])
                a_zero["irreducible" if irreducible else "reducible"].append(text)

        logging.getLogger(__name__).info(
            "period %d: %d words checked, %d violations", n, words_checked, len(violations)
        )

    return VerifyReport(
        n_max=n_max,
        words_checked=words_checked,
        checks={name: words_checked - missed.get(name, 0) for name in CHECKS},
        skipped=dict(sorted(skipped.items())),
        a_zero=a_zero,
        violations=violations,
        ok=not violations,
    )
