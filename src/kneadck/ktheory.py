"""K-groups and the Bowen-Franks group of a kneading word's transition matrix.

Two independent routes are compared: the closed form
``a = |1 + theta_1 + ... + theta_{n-1}|``, the kneading determinant at
t = 1 summed over the invariant coordinates ``theta_k = e_1 ... e_k``,
predicting K0 = Z_a (with Z_0 = Z, Z_1 = 0) and K1 = Z exactly when a = 0;
and the Smith-normal-form route, which reads K0 as the cokernel and K1 as
the kernel of I - A^T over the integers.  Both checks are stated once, in
:func:`_closed_form_checks`: :func:`k_groups`, given the ordered orbit of
:func:`~kneadck.markov.build_orbit`, raises :class:`TheoremViolationError`
with the first one an admissible word fails, and :func:`verify` records
both beside the checks on the matrix family for every admissible word up
to a period.  Both read the Smith rows, of (I - A) D with D unimodular,
and irreducibility off the runs of ones that make up the rows of A, so
``k_groups`` forms no dense matrix.  ``verify`` spells the runs out as
one stack of covering matrices per stack of families, to compare the
two routes to A entry by entry.  Every elimination is one call of
:func:`~kneadck.intlinalg.smith_diagonal` on rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import mul

import numpy as np

from .intlinalg import AbelianGroup, _strongly_connected, smith_diagonal
from .markov import OrbitModel, _eta_T_times, _family_stack, build_orbit, transition_intervals
from .symbolic import DomainError, KneadingWord, enumerate_admissible

_log = logging.getLogger(__name__)

#: Words per matrix-family stack in :func:`verify`.  A stack spreads
#: numpy's per-call cost over its words; a cap keeps its arrays from
#: growing with the number of words of a period.
_STACK = 32


#: The checks :func:`verify` scores, in the order it runs them per word.
_CHECKS = (
    "closed_form_k0",
    "k1_rank",
    "identity_A_eta",
    "block_form",
    "construction_equivalence",
    "snf_multiset",
    "cokernel_bridge",
    "zero_rows_cols",
    "not_permutation",
)


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
    """Exact a = |1 + theta_1 + ... + theta_{n-1}|: its terms are the running
    products, from 1, of the symbols before the final C."""
    if w.n < 2:
        raise DomainError("closed form requires period >= 2")
    return abs(sum(accumulate(w.symbols[:-1], mul, initial=1)))


def _closed_form_checks(a: int, runs):
    """The Smith diagonal of I - A^T and the closed form's two checks on it.

    D, 1 on the diagonal and -1 just above it, is unimodular, so the rows
    of (I - A) D have that Smith form: row k is +1 at k, -1 at k + 1, -1 at
    ``lo`` and +1 at ``hi`` for the k-th run ``(lo, hi)`` of A, summed where
    they meet, less column n - 1.  Each check is ``(name, passed,
    detail)``; ``detail()`` builds the failure text only when it fails.
    """
    c = len(runs)
    rows = []
    for k, (lo, hi) in enumerate(runs):
        R = {k: 1, k + 1: -1}
        for j, e in ((lo, -1), (hi, 1)):
            e += R.get(j, 0)
            if e:
                R[j] = e
            else:
                del R[j]
        R.pop(c, None)
        rows.append(R)
    diag = smith_diagonal(rows, c)
    K0 = AbelianGroup.from_diagonal(diag)
    expected_K0 = AbelianGroup.cyclic(a)
    kr = diag.count(0)
    expected_kr = 1 if a == 0 else 0
    return diag, (
        (
            "closed_form_k0",
            K0 == expected_K0,
            lambda: f"closed form a={a} predicts K0={expected_K0}, SNF route gives {K0}",
        ),
        (
            "k1_rank",
            kr == expected_kr,
            lambda: f"a={a} predicts kernel rank {expected_kr}, SNF route gives {kr}",
        ),
    )


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
    # One Smith diagonal, of (I - A) D, gives K0 and K1; BF = coker(I - A)
    # is K0 again, since I - A and I - A^T share a Smith form.
    diag, checks = _closed_form_checks(a, runs)
    if m.admissible:
        for _, passed, detail in checks:
            if not passed:
                raise TheoremViolationError(f"{m.word}: {detail()}")
    K0 = AbelianGroup.from_diagonal(diag)
    return KGroupReport(
        word=m.word,
        a_closed_form=a,
        K0=K0,
        K1=AbelianGroup(diag.count(0), ()),
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


def _stack_checks(n: int, t, runs):
    """The checks of :func:`verify` that one stack decides for all its
    words at once.

    ``t`` is the family stack of words of period n and ``runs[b]`` the
    runs of ``transition_intervals`` for word b.  Returns ``(passed,
    details)``: ``passed[name]`` lists one bool per word, and
    ``details[name](b)`` builds the failure text of word b.  Every check
    reads the returned stack.  The products are index maps: ``eta`` has
    +1 at column ``rank[k + 1]`` and -1 at ``rank[k]`` in row k, where
    ``rank`` (``rho - 1``) is read off ``t.eta``, so row k of
    ``eta theta`` is theta's row ``rank[k + 1]`` less row ``rank[k]``.
    The covering matrices of the runs are one stack, +1 at ``lo``, -1 at
    ``hi`` and a running sum along each row, so a row is 1 exactly on
    ``lo <= j < hi``.  ``not_permutation`` applies from n = 3 on.
    """
    stack = np.arange(len(runs))[:, None]
    rank = np.concatenate([t.eta.argmin(axis=2), t.eta[:, -1:].argmax(axis=2)], axis=1)
    A_eta = _eta_T_times(t.A.transpose(0, 2, 1), rank).transpose(0, 2, 1)
    G = t.theta[stack, rank]
    eta_theta = G[:, 1:] - G[:, :-1]
    tp = t.thetaprime

    lohi = np.array(runs, dtype=np.int64)
    steps = np.zeros((len(runs), n - 1, n), dtype=np.int64)
    rows = np.arange(n - 1)
    steps[stack, rows, lohi[..., 0]] = 1
    steps[stack, rows, lohi[..., 1]] -= 1
    cover = steps.cumsum(axis=2)[..., : n - 1] > 0

    passed = {
        "identity_A_eta": (A_eta == eta_theta).all(axis=(1, 2)),
        "block_form": ~tp[:, n - 1].any(axis=1)
        & (tp[:, : n - 1, : n - 1] == t.Aprime).all(axis=(1, 2)),
        "construction_equivalence": (t.A == cover).all(axis=(1, 2)),
        # A zero row of A is an empty run, a zero column one no run covers.
        "zero_rows_cols": cover.any(axis=2).all(axis=1) & cover.any(axis=1).all(axis=1),
    }
    details = {
        "identity_A_eta": lambda b: f"lhs {A_eta[b].tolist()} vs rhs {eta_theta[b].tolist()}",
        "block_form": lambda b: f"thetaprime {tp[b].tolist()} vs top-left block "
        f"{t.Aprime[b].tolist()}",
        "construction_equivalence": lambda b: f"covering runs {runs[b]} vs signed route "
        f"{t.A[b].tolist()}",
        "zero_rows_cols": lambda b: _zero_rows_cols_detail(n, runs[b]),
        "not_permutation": lambda b: f"A is a permutation matrix: runs {runs[b]}",
    }
    if n > 2:
        # For n >= 3 the two intervals adjacent to the turning point map
        # onto spans sharing the top interval, so A cannot be a
        # permutation matrix.  The covering A is 0-1, so one nonzero per
        # row and column decides it.
        passed["not_permutation"] = ~(
            (cover.sum(axis=2) == 1).all(axis=1) & (cover.sum(axis=1) == 1).all(axis=1)
        )
    return {name: ok.tolist() for name, ok in passed.items()}, details


def _zero_rows_cols_detail(n: int, runs) -> str:
    empty = [k for k, (lo, hi) in enumerate(runs) if lo >= hi]
    covered = {j for run in runs for j in range(*run)}
    return (
        f"A has zero rows {empty} and zero columns "
        f"{sorted(set(range(n - 1)) - covered)}: runs {runs}"
    )


def _rows_of_i_minus(theta) -> list[dict[int, int]]:
    """The rows of ``I - theta`` for a stack of n x n slices, as the
    ``{col: value}`` dicts of :func:`~kneadck.intlinalg.smith_diagonal`,
    slice after slice, each in ascending column order: one
    ``np.nonzero`` of the whole stack."""
    B, n, _ = theta.shape
    M = -theta
    M[:, range(n), range(n)] += 1
    b, i, j = np.nonzero(M)
    rows: list[dict[int, int]] = [{} for _ in range(B * n)]
    for r, c, e in zip((b * n + i).tolist(), j.tolist(), M[b, i, j].tolist()):
        rows[r][c] = e
    return rows


def verify(n_max: int) -> VerifyReport:
    """Check every admissible word of period 2 to ``n_max``.

    Only checks a word can fail are scored.  The identities that the
    family builder defines or raises :class:`ConstructionError` on are
    not counted again; ``block_form`` with ``construction_equivalence``
    carries the kneading determinant ``det(I - tA) = sum theta_k t^k``.
    The family is built as stacks of up to ``_STACK`` (32) words of one
    period (see :func:`~kneadck.markov.build_matrices`), and
    ``identity_A_eta``, ``block_form``, ``construction_equivalence``,
    ``zero_rows_cols`` and ``not_permutation`` are decided for a whole
    stack at once (see :func:`_stack_checks`), against the covering
    matrices of the runs, built as one stack too.  Every word still gets
    every check; counts are added per stack, and failure texts are built
    only for failing words, in word-then-check order.  Per word run the
    closed form, the runs and two Smith eliminations, of ``(I - A) D``
    and ``I - theta``.  One INFO record per period goes to this module's
    logger.
    """
    if n_max < 2:
        raise DomainError("verification sweep requires n_max >= 2")
    counts = dict.fromkeys(_CHECKS, 0)
    skipped: dict[str, list[str]] = {}
    violations: list[dict] = []
    words_checked = 0
    # a = 0 words split by strong connectivity of A.  Reported verbatim,
    # not scored: reducibility in the a = 0 regime tracks factorizability
    # into shorter words, and non-factorizable a = 0 words, which exist
    # from n = 8 on, have strongly connected matrices.
    a_zero = {"reducible": [], "irreducible": []}

    for n in range(2, n_max + 1):
        words = enumerate_admissible(n)
        for start in range(0, len(words), _STACK):
            models = [build_orbit(word) for word in words[start : start + _STACK]]
            t = _family_stack(models)
            runs = [transition_intervals(model) for model in models]
            passed, details = _stack_checks(n, t, runs)
            for name, ok in passed.items():
                counts[name] += sum(ok)
            if n == 2:
                # The single-interval partition forces A = [[1]].
                skipped.setdefault("not_permutation", []).extend(str(m.word) for m in models)
            theta_rows = _rows_of_i_minus(t.theta)

            for b, model in enumerate(models):
                word = model.word
                words_checked += 1
                a = closed_form_a(word)
                diag_a, closed_form_checks = _closed_form_checks(a, runs[b])

                # One SNF of I - theta feeds both the multiset and the bridge.
                diag = smith_diagonal(theta_rows[b * n : (b + 1) * n], n)
                expected_diag = sorted([a] + [1] * (n - 1))
                # The bridge reuses the diagonal of (I - A) D: once
                # construction_equivalence holds, A == t.A[b], and that
                # diagonal is the Smith form of I - t.A[b].
                bridge_lhs = AbelianGroup.from_diagonal(diag_a)
                bridge_rhs = AbelianGroup.from_diagonal(diag)
                word_checks = (
                    *closed_form_checks,
                    (
                        "snf_multiset",
                        sorted(diag) == expected_diag,
                        lambda: f"SNF diagonal {sorted(diag)} vs expected {expected_diag}",
                    ),
                    (
                        "cokernel_bridge",
                        bridge_lhs == bridge_rhs,
                        lambda: f"from A: {bridge_lhs}, from theta: {bridge_rhs}",
                    ),
                )
                failed = {}
                for name, ok, detail in word_checks:
                    counts[name] += ok
                    if not ok:
                        failed[name] = detail
                for name, ok in passed.items():
                    if not ok[b]:
                        failed[name] = partial(details[name], b)
                violations.extend(
                    {"word": str(word), "check": name, "detail": failed[name]()}
                    for name in _CHECKS
                    if name in failed
                )

                if a == 0:
                    irreducible = _strongly_connected([range(*run) for run in runs[b]])
                    a_zero["irreducible" if irreducible else "reducible"].append(str(word))

            # Free this stack before the next one is built.
            del t, passed, details, theta_rows

        _log.info(
            "period %d: %d words checked, %d violations", n, words_checked, len(violations)
        )

    return VerifyReport(
        n_max=n_max,
        words_checked=words_checked,
        checks=counts,
        skipped=dict(sorted(skipped.items())),
        a_zero=a_zero,
        violations=violations,
        ok=not violations,
    )
