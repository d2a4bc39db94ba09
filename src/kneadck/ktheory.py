"""K-groups and the Bowen-Franks group of a kneading word's transition matrix.

Two independent routes are compared: the closed form
``a = |1 + theta_1 + ... + theta_{n-1}|``, the kneading determinant at
t = 1 summed over the invariant coordinates ``theta_k = e_1 ... e_k``,
predicting K0 = Z_a, as :meth:`~kneadck.intlinalg.AbelianGroup.cyclic`
reads it, and K1 = Z exactly when a = 0; and the Smith-normal-form
route, which reads K0 as the cokernel and K1 as the kernel of I - A^T
over the integers.  Both checks are stated once, in
:func:`_closed_form_failures`, on the cokernel read off the Smith
diagonal of the rows that :func:`_differenced_rows` builds from the runs
of ones that make up the rows of A: (I - A) D with D unimodular.
:func:`k_groups`, given the ordered orbit of
:func:`~kneadck.markov.build_orbit`, raises :class:`TheoremViolationError`
with the first one an admissible word fails, and reads irreducibility off
the same runs, so it forms no dense matrix: :func:`_irreducible` searches
the graph of A from vertex 0, forward and backward; one loop is strongly
connected, an empty run is not, and no runs at all are.
:func:`verify` scores both
beside the checks on the matrix family for every admissible word up to a
period, one word at a time: :func:`_word_checks` decides the nine
:data:`CHECKS` on the run form of :func:`~kneadck.markov._run_form`,
comparing the runs with the signed runs of the other route to A, and
records each check the word fails, with its text, under its name.  Every
elimination is one call of :func:`~kneadck.intlinalg.smith_diagonal` on
rows, through this module's one binding of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .intlinalg import AbelianGroup, smith_diagonal
from .markov import OrbitModel, _run_form, _spell, build_orbit, transition_intervals
from .symbolic import DomainError, KneadingWord, invariant_coordinate, parse_word, search_admissible


#: The nine checks of :func:`verify`, in scoring order.
CHECKS = (
    "closed_form_k0", "k1_rank", "identity_A_eta", "block_form", "construction_equivalence",
    "snf_multiset", "cokernel_bridge", "zero_rows_cols", "not_permutation",
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
    """Exact ``a = |1 + theta_1 + ... + theta_{n-1}|`` of a word, from the
    invariant coordinates of its symbols before the final C."""
    if w.n < 2:
        raise DomainError("closed form requires period >= 2")
    return abs(1 + sum(invariant_coordinate(w.symbols[:-1])))


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


def _k0(runs) -> AbelianGroup:
    """K0 = coker(I - A^T) of the matrix A with the given runs, read off
    the Smith diagonal of (I - A) D; its free rank is the kernel rank of
    I - A^T.  BF = coker(I - A) is the same group, since I - A and
    I - A^T share a Smith form."""
    return AbelianGroup.from_diagonal(smith_diagonal(_differenced_rows(runs), len(runs)))


def _irreducible(runs) -> bool:
    """Whether the matrix A with the given runs is strongly connected: every
    vertex reaches every vertex by a path of length >= 1, so ``[(0, 1)]``
    (one loop) is, ``[(0, 0)]`` is not, and ``[]`` is.  Vertex 0 must reach
    every vertex, itself included, both forward along the runs and backward
    along ``into``, the rows whose runs cover each column: two searches in
    one loop, O(n + edges)."""
    succ = [range(*run) for run in runs]
    into = [[] for _ in runs]
    for i, out in enumerate(succ):
        for j in out:
            into[j].append(i)
    for adj in (succ, into) if runs else ():
        seen = [False] * len(adj)
        stack = [*adj[0]]
        while stack:
            v = stack.pop()
            if not seen[v]:
                seen[v] = True
                stack += adj[v]
        if not all(seen):
            return False
    return True


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


def _rows_of_i_minus_theta(eps) -> list[dict[int, int]]:
    """The rows of ``I - theta``, as :func:`~kneadck.intlinalg.smith_diagonal`
    takes them: the 1 of ``I`` first, then minus the entries of ``theta``,
    summed where they meet.  Pivoting on the diagonal first makes less
    fill than pivoting on column 0, which every row holds."""
    n = len(eps)
    rows = [{i: 1, i + 1: -e, 0: e} if e else {i: 1} for i, e in enumerate(eps[:-1])]
    rows[0] = {0: 1 + eps[0], 1: -eps[0]}
    rows.append({n - 1: 1, 0: -eps[-1]})
    for i in (0, n - 1):
        rows[i] = {j: e for j, e in rows[i].items() if e}
    return rows


def _word_checks(m: OrbitModel, runs, a: int) -> dict[str, str | None]:
    """The checks of :func:`verify` that the word of the ordered orbit
    ``m`` does not pass, given its runs of
    :func:`~kneadck.markov.transition_intervals` and its closed form ``a``.

    Returns one record ``{check: text}`` in the order of :data:`CHECKS`:
    that of :func:`_closed_form_failures`, where each later check that
    fails adds its text, spelled out only then, and ``None`` marks a check
    that does not apply: ``not_permutation`` at n = 2, where the single
    interval forces A = [[1]].  Row t of ``A eta`` is
    ``s (e_rank[hi] - e_rank[lo])`` for the run ``(s, lo, hi)`` of A, and
    ``identity_A_eta`` compares it with ``theta[rank[t+1]] - theta[rank[t]]``,
    row t of ``eta theta``.  ``block_form`` asks that ``Aprime = X A^T Xinv``
    be the top-left block T of ``thetaprime = Yinv theta^T Y`` and that
    the last row of ``thetaprime`` be zero.  Given ``X Xinv = I``, the first
    is ``X A^T = T X``, the transpose of that comparison restricted to
    the columns < n - 1; the last row holds differences of the row sums
    of ``theta``.  Two Smith eliminations run, of the rows of ``(I - A) D``
    built from the runs and of ``I - theta``; the bridge reuses the first,
    which is the Smith form of ``I - A`` once ``construction_equivalence``
    holds.  The checks on the covering matrix read the runs.
    """
    f = _run_form(m)
    eps, rank = f.eps, f.rank
    n = len(eps)
    last = n - 1
    # Row i of theta is eps[i] at column (i + 1) % n less eps[i] at column
    # 0, the last row included, since the table has made eps[n - 1] = 0.
    col = [*range(1, n), 0]
    lhs = [[0] * n for _ in range(last)]  # A eta
    rhs = [[0] * n for _ in range(last)]  # eta theta
    for L, R, (s, lo, hi), i, k in zip(lhs, rhs, f.A, rank, rank[1:]):
        L[rank[hi]] += s
        L[rank[lo]] -= s
        R[col[k]] += eps[k]
        R[col[i]] -= eps[i]
        R[0] += eps[i] - eps[k]
    identity = lhs == rhs
    # The last row of thetaprime holds differences of the row sums of
    # theta, which are 0 but for the last row's, eps[n - 1].
    block = eps[-1] == 0 and (identity or all(L[:last] == R[:last] for L, R in zip(lhs, rhs)))

    # cover[j] counts the runs that cover column j.
    depth = [0] * n
    for lo, hi in runs:
        if lo < hi:
            depth[lo] += 1
            depth[hi] -= 1
    cover = list(accumulate(depth))[:last]
    width = [hi - lo for lo, hi in runs]

    K0 = _k0(runs)
    dtheta = smith_diagonal(_rows_of_i_minus_theta(eps), n)
    failed = _closed_form_failures(a, K0)
    if not identity:
        failed["identity_A_eta"] = f"lhs {lhs} vs rhs {rhs}"
    spelled = None  # the dense family, spelled at most once, for a failure text
    if not block:
        spelled = _spell(f)
        failed["block_form"] = f"thetaprime {spelled.thetaprime} vs top-left block {spelled.Aprime}"
    # No signed run is empty, since u takes n distinct values.
    if f.A != [(1, lo, hi) for lo, hi in runs]:
        spelled = spelled or _spell(f)
        failed["construction_equivalence"] = f"covering runs {runs} vs signed route {spelled.A}"
    diagonal, expected = sorted(dtheta), sorted([a] + [1] * last)
    if diagonal != expected:
        failed["snf_multiset"] = f"SNF diagonal {diagonal} vs expected {expected}"
    K0_theta = AbelianGroup.from_diagonal(dtheta)
    if K0 != K0_theta:
        failed["cokernel_bridge"] = f"from A: {K0}, from theta: {K0_theta}"
    # A zero row of A is an empty run, a zero column one no run covers.
    if not (min(width) > 0 and min(cover) > 0):
        failed["zero_rows_cols"] = (
            f"A has zero rows {[k for k, w in enumerate(width) if w <= 0]} "
            f"and zero columns {[j for j, c in enumerate(cover) if not c]}: runs {runs}"
        )
    # For n >= 3 the two intervals adjacent to the turning point map onto
    # spans sharing the top interval: a column of A holds two ones.
    if n == 2:
        failed["not_permutation"] = None
    elif set(width) == set(cover) == {1}:
        failed["not_permutation"] = f"A is a permutation matrix: runs {runs}"
    return {name: failed[name] for name in CHECKS if name in failed}


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
    K0 = _k0(runs)
    failures = _closed_form_failures(a, K0)
    if m.admissible and failures:
        raise TheoremViolationError(f"{m.word}: {next(iter(failures.values()))}")
    return KGroupReport(
        word=m.word,
        a_closed_form=a,
        K0=K0,
        K1=AbelianGroup(K0.free_rank, ()),
        BF=K0,
        irreducible=_irreducible(runs),
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
    :func:`_word_checks` on the run form of its family, which returns
    only the checks the word fails or skips, with their failure texts; a
    check passes for every other word.  :data:`CHECKS` is the one list of
    the checks and orders ``checks`` and each word's violations.  Each
    word's text and ``a`` are read once, from
    :func:`~kneadck.symbolic.search_admissible`.  One INFO record per
    period goes to this module's logger.
    """
    import logging  # only verify logs; a deferred import keeps it off start-up

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

    for n in range(2, n_max + 1):
        for text, a in search_admissible(n):
            model = build_orbit(parse_word(text))
            runs = transition_intervals(model)
            for name, detail in _word_checks(model, runs, a).items():
                missed[name] = missed.get(name, 0) + 1
                if detail is None:
                    skipped.setdefault(name, []).append(text)
                else:
                    violations.append({"word": text, "check": name, "detail": detail})
            words_checked += 1
            if a == 0:
                a_zero["irreducible" if _irreducible(runs) else "reducible"].append(text)

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
