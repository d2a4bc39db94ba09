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
irreducibility and, in ``verify``, the checks on the entries of A off the
runs of ones that make up the rows of A, so neither forms a dense
covering matrix.  Every elimination is one call of
:func:`~kneadck.intlinalg.smith_diagonal` on rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .intlinalg import AbelianGroup, _strongly_connected, smith_diagonal
from .markov import OrbitModel, _family_stack, build_orbit, transition_intervals
from .symbolic import DomainError, KneadingWord, enumerate_admissible

_log = logging.getLogger(__name__)

#: Words per matrix-family stack in :func:`verify`.  A stack spreads
#: numpy's per-call cost over its words; a cap keeps its arrays from
#: growing with the number of words of a period.
_STACK = 32


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


def verify(n_max: int) -> VerifyReport:
    """Check every admissible word of period 2 to ``n_max``.

    Only checks a word can fail are scored.  The identities that the
    family builder defines or raises :class:`ConstructionError` on are
    not counted again; ``block_form`` with ``construction_equivalence``
    carries the kneading determinant ``det(I - tA) = sum theta_k t^k``.
    The family is built as stacks of up to ``_STACK`` (32) words of one
    period (see :func:`~kneadck.markov.build_matrices`), and
    ``identity_A_eta`` and ``block_form`` are decided for a whole stack by
    one batched comparison each; every word still gets every check, in
    the same order.  Two Smith eliminations run per word, of
    ``(I - A) D`` and ``I - theta``.  One INFO record per period goes to
    this module's logger.
    """
    if n_max < 2:
        raise DomainError("verification sweep requires n_max >= 2")
    counts: dict[str, int] = {}
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
            A_eta, eta_theta = t.A @ t.eta, t.eta @ t.theta
            identity_A_eta = (A_eta == eta_theta).all(axis=(1, 2)).tolist()
            tp = t.thetaprime
            zero_last_row = ~tp[:, n - 1, :].any(axis=1)
            block_form = (
                zero_last_row & (tp[:, : n - 1, : n - 1] == t.Aprime).all(axis=(1, 2))
            ).tolist()
            A_rows, theta_rows = t.A.tolist(), t.theta.tolist()

            for b, model in enumerate(models):
                word = model.word
                words_checked += 1
                a = closed_form_a(word)
                runs = transition_intervals(model)

                def record(name: str, ok: bool, detail) -> None:
                    # detail() builds the failure text, only for a failing check.
                    counts.setdefault(name, 0)
                    if ok:
                        counts[name] += 1
                    else:
                        violations.append({"word": str(word), "check": name, "detail": detail()})

                diag_a, closed_form_checks = _closed_form_checks(a, runs)
                for check in closed_form_checks:
                    record(*check)

                record(
                    "identity_A_eta",
                    identity_A_eta[b],
                    lambda: f"lhs {A_eta[b].tolist()} vs rhs {eta_theta[b].tolist()}",
                )

                record(
                    "block_form",
                    block_form[b],
                    lambda: f"thetaprime {tp[b].tolist()} vs top-left block "
                    f"{t.Aprime[b].tolist()}",
                )

                # Row k of the covering A is 1 on the k-th run and 0 elsewhere.
                signed = A_rows[b]
                record(
                    "construction_equivalence",
                    all(
                        row[lo:hi] == [1] * (hi - lo) and not any(row[:lo] + row[hi:])
                        for row, (lo, hi) in zip(signed, runs)
                    ),
                    lambda: f"covering runs {runs} vs signed route {signed}",
                )

                # One SNF of I - theta feeds both the multiset and the bridge.
                # Its row i is row i of theta, less 1 at i, negated.
                rows = []
                for i, row in enumerate(theta_rows[b]):
                    row[i] -= 1
                    rows.append({j: -e for j, e in enumerate(row) if e})
                diag = smith_diagonal(rows, n)
                expected_diag = sorted([a] + [1] * (n - 1))
                record(
                    "snf_multiset",
                    sorted(diag) == expected_diag,
                    lambda: f"SNF diagonal {sorted(diag)} vs expected {expected_diag}",
                )

                # The bridge reuses the diagonal of (I - A) D: once
                # construction_equivalence holds, A == t.A[b], and that
                # diagonal is the Smith form of I - t.A[b].
                bridge_lhs = AbelianGroup.from_diagonal(diag_a)
                bridge_rhs = AbelianGroup.from_diagonal(diag)
                record(
                    "cokernel_bridge",
                    bridge_lhs == bridge_rhs,
                    lambda: f"from A: {bridge_lhs}, from theta: {bridge_rhs}",
                )

                # A zero row of A is an empty run, a zero column one no run covers.
                empty = [k for k, (lo, hi) in enumerate(runs) if lo >= hi]
                covered = {j for run in runs for j in range(*run)}
                record(
                    "zero_rows_cols",
                    not empty and len(covered) == n - 1,
                    lambda: f"A has zero rows {empty} and zero columns "
                    f"{sorted(set(range(n - 1)) - covered)}: runs {runs}",
                )

                # For n >= 3 the two intervals adjacent to the turning point
                # map onto spans sharing the top interval, so A cannot be a
                # permutation matrix; the single-interval partition (n = 2)
                # forces A = [[1]] and is skipped with a report.  A is 0-1 by
                # construction, so one nonzero per row and column decides it:
                # runs of length 1 with distinct starts.
                if n == 2:
                    counts.setdefault("not_permutation", 0)
                    skipped.setdefault("not_permutation", []).append(str(word))
                else:
                    permutation = len({lo for lo, hi in runs if hi - lo == 1}) == n - 1
                    record(
                        "not_permutation",
                        not permutation,
                        lambda: f"A is a permutation matrix: runs {runs}",
                    )

                if a == 0:
                    irreducible = _strongly_connected([range(*run) for run in runs])
                    a_zero["irreducible" if irreducible else "reducible"].append(str(word))

            # Free this stack before the next one is built.
            del t, A_eta, eta_theta, tp

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
