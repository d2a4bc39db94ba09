"""The matrix family as stacks of dense ``int64`` arrays; no other module imports numpy.

The family is built as stacks, one slice per word, for any number of
words of one period (see :func:`_family_stack`); one word's family is
the one-slice stack.  The matrices are ``np.int64`` arrays with entries
in {-1, 0, 1}.  Every factor is a permutation, a signed diagonal, a
bidiagonal or a matrix of running sums, so no matrix product is formed:
each product of the construction is an index map on the stack, a
gather, a difference or a running sum, in O(n^2) per word.  The largest
value any step computes is a running sum of at most n entries of size
at most 2, so nothing can overflow int64.  The inverses the construction
needs are written down in closed form, and one table decides, slice by
slice, in this order: the final symbol, the entry range, and the three
identities that confirm them.  :func:`_stack_checks` scores the nine
checks of :func:`~kneadck.ktheory.verify` on one stack.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .intlinalg import AbelianGroup, smith_diagonal
from .ktheory import _closed_form_failures, _differenced_rows
from .markov import ConstructionError, TheoremMatrices


def _times_eta(M, pos):
    """``M @ eta`` for a stack M with n - 1 columns, one per interval.

    Row k of ``eta`` is +1 at ``rank[k + 1]`` and -1 at ``rank[k]``, with
    ``rank = rho - 1``, and ``pos[b, j]``, the 0-based spatial rank of
    orbit point j + 1, inverts ``rank``.  So column j of the product is
    M's column ``pos[j] - 1`` less its column ``pos[j]``, read as zero off
    M.
    """
    B, r, c = M.shape
    P = np.zeros((B, r, c + 2), dtype=np.int64)
    P[..., 1:-1] = M
    return np.take_along_axis(P[..., :-1] - P[..., 1:], pos[:, None], axis=2)


def _times_Xinv(M, pos, nL):
    """``M @ Xinv`` for a stack M with n - 1 columns.

    ``pos`` is as at :func:`_times_eta` and ``nL[b]`` is the spatial rank
    of the turning point.  With ``S[:, m]`` the sum of M's columns 0 to
    m - 1, column j of the product is ``S[:, pos[j]] - S[:, nL]``: the sum
    of columns nL to pos[j] - 1, or minus that of columns pos[j] to nL - 1.
    """
    B, r, c = M.shape
    S = np.zeros((B, r, c + 1), dtype=np.int64)
    np.cumsum(M, axis=2, out=S[..., 1:])
    left = np.take_along_axis(S, nL[:, None, None], axis=2)
    return np.take_along_axis(S, pos[:, None, :c], axis=2) - left


def _family_stack(models) -> TheoremMatrices:
    """The matrix families of models that all have one period n, as stacks.

    Every field has shape (B, rows, cols), slice b belonging to
    ``models[b]``.  The formulas are those documented at
    :func:`~kneadck.markov.build_matrices`, with a leading batch axis.
    One table then decides every slice, row by row: the final symbol
    value is 0; every entry of the 13 fields and of the unreturned ``R``
    is in {-1, 0, 1}; ``eta^T = Y inc X``; ``X Xinv = I``;
    ``alpha eta = eta omega``.  The first failing slice raises
    :class:`ConstructionError` with its word and its first failing row,
    ``"<word>: <row>"``.
    """
    words = [m.word for m in models]
    n = models[0].n
    B = len(models)
    stack = np.arange(B)[:, None]
    ranks = np.arange(n)
    eps = np.fromiter(chain.from_iterable(w.symbols for w in words), np.int64, B * n)
    eps = eps.reshape(B, n)
    rank = np.fromiter(chain.from_iterable(m.rho for m in models), np.int64, B * n)
    rank = rank.reshape(B, n) - 1  # rank[b, t] = rho[t] - 1
    nL = np.array([m.nL for m in models])
    pos = np.empty((B, n), dtype=np.int64)
    pos[stack, rank] = ranks  # pos[b, j] is the 0-based spatial rank of orbit point j+1

    omega = np.zeros((B, n, n), dtype=np.int64)
    omega[:, ranks, (ranks + 1) % n] = 1
    # M @ omega moves column j - 1 of M to column j.
    shift = (ranks - 1) % n

    pi = np.zeros((B, n, n), dtype=np.int64)
    pi[stack, ranks, rank] = 1

    # phi differences the rows of I, eta = phi pi those of pi; Y is I with
    # minus ones left of its last diagonal entry.
    Y = np.zeros((B, n, n), dtype=np.int64)
    Y[:, ranks, ranks] = 1
    phi = Y[:, 1:] - Y[:, :-1]
    Y[:, n - 1, : n - 1] = -1

    eta = pi[:, 1:] - pi[:, :-1]

    # Diagonal carries the symbol values, last column their negatives; the
    # two clauses overlap at (n, n) and agree because the final value is 0.
    gamma = np.zeros((B, n, n), dtype=np.int64)
    gamma[:, ranks, ranks] = eps
    gamma[:, : n - 1, n - 1] = -eps[:, : n - 1]

    theta = gamma[..., shift]

    sign = np.where(ranks[:-1] < nL[:, None], 1, -1)
    beta = np.zeros((B, n - 1, n - 1), dtype=np.int64)
    beta[:, ranks[:-1], ranks[:-1]] = sign

    X = eta[..., : n - 1].transpose(0, 2, 1).copy()

    # R = Yinv^T inc Xinv^T is Xinv^T over a zero row.  Interval k joins
    # spatial ranks k and k+1, 0-based.  Left of the turning point (rank
    # nL) it is undone by the points at or below its left end, right of it
    # by the points above its right end: R[j, k] is +1 for nL <= k <
    # pos[j] and -1 for pos[j] <= k < nL, that is [k < pos[j]] - [k < nL].
    k = ranks[: n - 1]
    R = np.subtract(k < pos[:, :, None], k < nL[:, None, None], dtype=np.int64)
    R[:, n - 1] = 0

    # Row k of eta omega is +1 at rho[k+1] % n and -1 at rho[k] % n, so
    # alpha = eta omega R differences the rows of R in that order.
    eta_omega = eta[..., shift]
    G = R[stack, (rank + 1) % n]
    alpha = G[:, 1:] - G[:, :-1]
    A = alpha * sign[:, :, None]
    # Aprime = X A^T Xinv, where X A^T is the transpose of A X^T, the top
    # block of A eta.
    Aprime = _times_Xinv(_times_eta(A, pos)[..., : n - 1].transpose(0, 2, 1), pos, nL)
    # Yinv theta^T Y: theta^T less its last column, then the column sums
    # as the last row.
    thetaprime = theta.transpose(0, 2, 1).copy()
    thetaprime[..., : n - 1] -= thetaprime[..., n - 1 :]
    thetaprime[:, n - 1] = thetaprime.sum(axis=1)

    family = [A, theta, omega, phi, pi, eta, alpha, beta, gamma, Y, X, Aprime, thetaprime]
    # The range row decides each matrix on its own, with no concatenated
    # copy of the family, and slice by slice only if the whole stack fails.
    out_of_range = np.zeros(B, dtype=bool)
    for M in (*family, R):
        if M.min() < -1 or M.max() > 1:
            out_of_range |= (M.min(axis=(1, 2)) < -1) | (M.max(axis=(1, 2)) > 1)
    identity = np.eye(n - 1, dtype=np.int64)
    table = (
        ("final symbol value must be 0", eps[:, -1] != 0),
        ("matrix family has an entry outside {-1, 0, 1}", out_of_range),
        # Y inc X is X over minus its column sums.
        ("eta-transpose does not factor as Y inc X", eta[..., n - 1] != -X.sum(axis=1)),
        ("top block of eta-transpose fails X Xinv = I", _times_Xinv(X, pos, nL) != identity),
        ("alpha fails alpha eta = eta omega", _times_eta(alpha, pos) != eta_omega),
    )
    failed = np.array([fails.reshape(B, -1).any(axis=1) for _, fails in table])
    if failed.any():
        b = failed.any(axis=0).argmax()
        raise ConstructionError(f"{words[b]}: {table[failed[:, b].argmax()][0]}")
    return TheoremMatrices(*family)


def _stack_checks(n: int, t, runs, a):
    """The nine checks of :func:`verify` on one stack of words of period n.

    ``t`` is the family stack, and ``runs[b]`` and ``a[b]`` are the runs of
    ``transition_intervals`` and the closed form of word b.  Returns
    ``(passed, details)``: ``passed`` names all nine checks in scoring
    order, each with one bool per word, or ``None`` where the check does
    not apply to the period, and ``details[name](b)`` builds the failure
    text of word b.  Per word run two Smith eliminations, of the rows of
    ``(I - A) D`` built from the runs and of ``I - theta``; the bridge
    reuses the first, since once ``construction_equivalence`` holds its
    diagonal is the Smith form of ``I - t.A[b]``.  The checks on the
    family read the returned stack.  The products are index maps: row k of
    ``eta theta`` is theta's row ``rank[k + 1]`` less row ``rank[k]``,
    where ``rank`` (``rho - 1``) is read off ``t.eta``.  The covering
    matrices of the runs are one stack, 1 exactly on ``lo <= j < hi`` in
    row k.  For n = 2 ``not_permutation`` is ``None``: the single-interval
    partition forces A = [[1]], and :func:`verify` records the skip.
    """
    stack = np.arange(len(runs))[:, None]
    rank = np.concatenate([t.eta.argmin(axis=2), t.eta[:, -1:].argmax(axis=2)], axis=1)
    A_eta = _times_eta(t.A, rank.argsort(axis=1))
    G = t.theta[stack, rank]
    eta_theta = G[:, 1:] - G[:, :-1]
    tp = t.thetaprime
    lohi = np.array(runs, dtype=np.int64)[..., None]
    cols = np.arange(n - 1)
    cover = (lohi[:, :, 0] <= cols) & (cols < lohi[:, :, 1])

    theta_rows = _rows_of_i_minus(t.theta)
    diags = []  # per word, the Smith diagonals of (I - A) D and of I - theta
    for b, word_runs in enumerate(runs):
        rows = theta_rows[b * n : (b + 1) * n]
        diags.append((smith_diagonal(_differenced_rows(word_runs), n - 1), smith_diagonal(rows, n)))
    expected = [sorted([ab] + [1] * (n - 1)) for ab in a]
    bridge = [tuple(map(AbelianGroup.from_diagonal, pair)) for pair in diags]
    closed = [_closed_form_failures(ab, K0) for ab, (K0, _) in zip(a, bridge)]

    permutation = (cover.sum(axis=2) == 1).all(axis=1) & (cover.sum(axis=1) == 1).all(axis=1)
    passed = {
        "closed_form_k0": ["closed_form_k0" not in f for f in closed],
        "k1_rank": ["k1_rank" not in f for f in closed],
        "identity_A_eta": (A_eta == eta_theta).all(axis=(1, 2)),
        "block_form": ~tp[:, n - 1].any(axis=1)
        & (tp[:, : n - 1, : n - 1] == t.Aprime).all(axis=(1, 2)),
        "construction_equivalence": (t.A == cover).all(axis=(1, 2)),
        "snf_multiset": [sorted(d) == e for (_, d), e in zip(diags, expected)],
        "cokernel_bridge": [lhs == rhs for lhs, rhs in bridge],
        # A zero row of A is an empty run, a zero column one no run covers.
        "zero_rows_cols": cover.any(axis=2).all(axis=1) & cover.any(axis=1).all(axis=1),
        # For n >= 3 the two intervals adjacent to the turning point map
        # onto spans sharing the top interval, so A cannot be a
        # permutation matrix.  The covering A is 0-1, so one nonzero per
        # row and column decides it.
        "not_permutation": ~permutation if n > 2 else None,
    }
    details = {
        "closed_form_k0": lambda b: closed[b]["closed_form_k0"],
        "k1_rank": lambda b: closed[b]["k1_rank"],
        "identity_A_eta": lambda b: f"lhs {A_eta[b].tolist()} vs rhs {eta_theta[b].tolist()}",
        "block_form": lambda b: f"thetaprime {tp[b].tolist()} vs top-left block "
        f"{t.Aprime[b].tolist()}",
        "construction_equivalence": lambda b: f"covering runs {runs[b]} vs signed route "
        f"{t.A[b].tolist()}",
        "snf_multiset": lambda b: f"SNF diagonal {sorted(diags[b][1])} vs expected {expected[b]}",
        "cokernel_bridge": lambda b: "from A: {}, from theta: {}".format(*bridge[b]),
        "zero_rows_cols": lambda b: _zero_rows_cols_detail(n, runs[b]),
        "not_permutation": lambda b: f"A is a permutation matrix: runs {runs[b]}",
    }
    return {k: ok if ok is None else np.asarray(ok).tolist() for k, ok in passed.items()}, details


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
