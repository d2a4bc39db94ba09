"""The matrix family of one word in run form, and its dense spelling.

Every factor of the construction is a permutation, a signed diagonal, a
bidiagonal or a matrix of running sums.  So every row of ``A``,
``alpha`` and ``R`` is one signed run, every row of ``eta`` the
difference of two unit rows and every row of ``theta`` two symbol values
at most, and each identity of the construction takes O(n) per word.
:func:`_run_form` builds that form in pure Python and decides the
construction table on it, :func:`_word_checks` decides the nine checks
of :func:`~kneadck.ktheory.verify` on it, and :func:`_spell`, the one
function of the package that imports numpy, writes the 13 fields out as
dense ``int64`` arrays for :func:`~kneadck.markov.build_matrices`.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .intlinalg import AbelianGroup, smith_diagonal
from .ktheory import _closed_form_failures, _differenced_rows
from .markov import ConstructionError, OrbitModel, TheoremMatrices


#: The nine checks of :func:`~kneadck.ktheory.verify`, in scoring order.
CHECKS = (
    "closed_form_k0", "k1_rank", "identity_A_eta", "block_form", "construction_equivalence",
    "snf_multiset", "cokernel_bridge", "zero_rows_cols", "not_permutation",
)


class RunForm(NamedTuple):
    """One word's matrix family in run form, 0-based throughout.

    ``rank[t]`` is the orbit index at spatial rank t (``rho[t] - 1``),
    ``pos`` its inverse, and ``nL`` the spatial rank of the turning point.
    Row k of ``eta`` is +1 at ``rank[k + 1]`` and -1 at ``rank[k]``.  The
    symbol values ``eps`` make ``theta = gamma omega``: row i < n - 1 is
    ``eps[i]`` at column i + 1 and ``-eps[i]`` at column 0, the last row
    ``eps[n - 1]`` at column 0.  Row t of ``A`` is ``s`` on the columns
    ``lo <= k < hi`` of ``A[t] = (s, lo, hi)``, with ``lo < hi``.
    """

    rank: list[int]
    pos: list[int]
    nL: int
    eps: list[int]
    A: list[tuple[int, int, int]]


def _run_form(m: OrbitModel) -> RunForm:
    """The family of the ordered orbit ``m`` in run form, by the formulas
    documented at :func:`~kneadck.markov.build_matrices`.

    ``R = Yinv^T inc Xinv^T`` has row j ``[k < pos[j]] - [k < nL]`` and a
    zero last row, as if the turning point sat at ``pos[n - 1] = nL``.  Row
    t of ``eta omega`` is ``e_s[t+1] - e_s[t]``, with ``s[t] = rho[t] % n``
    the orbit successor of spatial rank t, so row t of
    ``alpha = eta omega R`` is ``[k < u[t+1]] - [k < u[t]]`` with ``u`` the
    ranks of R's rows at ``s``: one signed run, which ``A = beta alpha``
    flips right of the turning point.  The runs never come from
    :func:`~kneadck.markov.transition_intervals`, so the two routes to
    ``A`` stay independent.

    One table then decides the word, in this order: the final symbol value
    is 0; every entry is in {-1, 0, 1}, which the symbol values decide, as
    every other entry is the sign of a run or of a permutation;
    ``eta^T = Y inc X``, that is, every row of ``eta`` sums to zero;
    ``X Xinv = I``, whose row j is ``e_j`` less ones wherever
    ``pos[j] = nL``; and ``alpha eta = eta omega``, whose row t telescopes
    to ``e_rank[u[t+1]] - e_rank[u[t]]``, so it holds exactly when
    ``rank[u[t]] = s[t]`` for every t.  The first failing row raises
    :class:`ConstructionError` as ``"<word>: <row>"``.
    """
    n, nL = m.n, m.nL
    eps = list(map(int, m.word.symbols))
    rank = [r - 1 for r in m.rho]
    pos = [0] * n
    for t, j in enumerate(rank):
        pos[j] = t
    R_rank = pos[:-1] + [nL]
    succ = [r % n for r in m.rho]
    u = [R_rank[s] for s in succ]
    sign = [1] * nL + [-1] * (n - 1 - nL)
    A = [(g, u0, u1) if u0 < u1 else (-g, u1, u0) for g, u0, u1 in zip(sign, u, u[1:])]
    table = (
        ("final symbol value must be 0", eps[-1] != 0),
        ("matrix family has an entry outside {-1, 0, 1}", min(eps) < -1 or max(eps) > 1),
        # A row of eta sums to zero when both or neither of its ranks is a
        # column; a rank of n or more has already failed as an index of pos.
        ("eta-transpose does not factor as Y inc X", min(rank) < 0 <= max(rank)),
        ("top block of eta-transpose fails X Xinv = I", nL in pos[:-1]),
        ("alpha fails alpha eta = eta omega", [rank[x] for x in u] != succ),
    )
    for row, failed in table:
        if failed:
            raise ConstructionError(f"{m.word}: {row}")
    return RunForm(rank, pos, nL, eps, A)


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
    """The checks of :func:`~kneadck.ktheory.verify` that the word of the
    ordered orbit ``m`` does not pass, given its runs of
    :func:`~kneadck.markov.transition_intervals` and its closed form ``a``.

    Returns ``{check: text}`` in the order of :data:`CHECKS`, with the
    failure text of each failed check, spelled out only then, and ``None``
    for a check that does not apply: ``not_permutation`` at n = 2, where
    the single interval forces A = [[1]].  Row t of ``A eta`` is
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

    dA = smith_diagonal(_differenced_rows(runs), last)
    dtheta = smith_diagonal(_rows_of_i_minus_theta(eps), n)
    bridge = AbelianGroup.from_diagonal(dA), AbelianGroup.from_diagonal(dtheta)
    closed = _closed_form_failures(a, bridge[0])
    expected = sorted([a] + [1] * last)

    verdicts = (  # in the order of CHECKS
        "closed_form_k0" not in closed,
        "k1_rank" not in closed,
        identity,
        block,
        # No signed run is empty, since u takes n distinct values.
        f.A == [(1, lo, hi) for lo, hi in runs],
        sorted(dtheta) == expected,
        bridge[0] == bridge[1],
        # A zero row of A is an empty run, a zero column one no run covers.
        min(width) > 0 and min(cover) > 0,
        # For n >= 3 the two intervals adjacent to the turning point map
        # onto spans sharing the top interval, so A cannot be a
        # permutation matrix: one entry in each row and in each column.
        not (set(width) == set(cover) == {1}) if n > 2 else None,
    )
    if all(verdicts):
        return {}
    details = {
        "closed_form_k0": lambda: closed["closed_form_k0"],
        "k1_rank": lambda: closed["k1_rank"],
        "identity_A_eta": lambda: f"lhs {lhs} vs rhs {rhs}",
        "block_form": lambda: f"thetaprime {(t := _spell(f)).thetaprime.tolist()} "
        f"vs top-left block {t.Aprime.tolist()}",
        "construction_equivalence": lambda: f"covering runs {runs} vs signed route "
        f"{_spell(f).A.tolist()}",
        "snf_multiset": lambda: f"SNF diagonal {sorted(dtheta)} vs expected {expected}",
        "cokernel_bridge": lambda: "from A: {}, from theta: {}".format(*bridge),
        "zero_rows_cols": lambda: f"A has zero rows {[k for k, w in enumerate(width) if w <= 0]} "
        f"and zero columns {[j for j, c in enumerate(cover) if not c]}: runs {runs}",
        "not_permutation": lambda: f"A is a permutation matrix: runs {runs}",
    }
    return {
        name: ok if ok is None else details[name]()
        for name, ok in zip(CHECKS, verdicts)
        if not ok
    }


def _spell(f: RunForm) -> TheoremMatrices:
    """The 13 fields of the family in run form ``f`` as dense ``int64``
    arrays, by the formulas of :func:`~kneadck.markov.build_matrices`.

    No product is formed.  ``A`` is spelled from its signed runs, and
    ``Aprime = X A^T Xinv`` by two index maps: column j of ``A eta`` is
    A's column ``pos[j] - 1`` less its column ``pos[j]``, read as zero off
    A, and ``X A^T`` is the transpose of its top block; column j of
    ``M Xinv`` is ``S[:, pos[j]] - S[:, nL]``, with ``S[:, k]`` the sum of
    M's columns 0 to k - 1.  The largest value any step computes is a
    running sum of at most n entries of size at most 2, so nothing can
    overflow int64.
    """
    import numpy as np  # the one import of numpy in the package

    n = len(f.eps)
    ranks = np.arange(n)
    pos = np.array(f.pos[:-1])
    eps = np.array(f.eps, dtype=np.int64)

    omega = np.zeros((n, n), dtype=np.int64)
    omega[ranks, (ranks + 1) % n] = 1
    pi = np.zeros((n, n), dtype=np.int64)
    pi[ranks, f.rank] = 1
    # phi differences the rows of I, eta = phi pi those of pi; Y is I with
    # minus ones left of its last diagonal entry.
    Y = np.eye(n, dtype=np.int64)
    phi = Y[1:] - Y[:-1]
    Y[n - 1, : n - 1] = -1
    eta = pi[1:] - pi[:-1]
    # Diagonal carries the symbol values, last column their negatives; the
    # two clauses agree at (n, n) because the final value is 0.  M @ omega
    # moves column j - 1 of M to column j.
    gamma = np.diag(eps)
    gamma[: n - 1, n - 1] = -eps[: n - 1]
    theta = gamma[:, (ranks - 1) % n]
    beta = np.diag(np.where(ranks[:-1] < f.nL, 1, -1))
    X = eta[:, : n - 1].T.copy()

    A = np.zeros((n - 1, n - 1), dtype=np.int64)
    for t, (s, lo, hi) in enumerate(f.A):
        A[t, lo:hi] = s
    alpha = beta.diagonal()[:, None] * A
    P = np.zeros((n - 1, n + 1), dtype=np.int64)
    P[:, 1:-1] = A
    S = np.zeros((n - 1, n), dtype=np.int64)
    np.cumsum((P[:, :-1] - P[:, 1:])[:, pos].T, axis=1, out=S[:, 1:])
    Aprime = S[:, pos] - S[:, [f.nL]]
    # Yinv theta^T Y: theta^T less its last column, then the column sums
    # as the last row.
    thetaprime = theta.T.copy()
    thetaprime[:, : n - 1] -= thetaprime[:, n - 1 :]
    thetaprime[n - 1] = thetaprime.sum(axis=0)
    family = A, theta, omega, phi, pi, eta, alpha, beta, gamma, Y, X, Aprime, thetaprime
    return TheoremMatrices(*family)
