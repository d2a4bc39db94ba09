"""Critical orbit, Markov partition, and the associated integer matrices.

A kneading word of period n determines n orbit points given symbolically by
the shifts of the periodic kneading sequence.  Sorting them in the signed
order yields the partition of the invariant interval cut at the turning
point, and from the ordering permutation every matrix of the K-group
computation is assembled: the cyclic shift, the ordering permutation, the
interval-boundary difference, their product eta, the signed diagonal pieces,
the transition matrix and its runs, and the unimodular matrices X and Y
that relate the two chain-level descriptions.

Everything here is exact integer arithmetic; no floats and no fractions.
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
identities that confirm them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .symbolic import DomainError, KneadingWord, Symbol, shift_keys


class ConstructionError(RuntimeError):
    """An internal invariant of the matrix construction failed; the message
    reads ``"<word>: <check>"``."""


@dataclass(frozen=True)
class OrbitModel:
    """The critical orbit in symbolic form.

    Orbit point i (1-based) is the i-th image of the turning point, whose
    itinerary is the kneading sequence shifted ``i - 1`` times.  ``rho``
    lists the orbit indices in spatial order (``rho[0]`` is the leftmost
    point).  ``nL`` counts the partition intervals strictly left of the
    turning point; the other ``n - 1 - nL`` lie right of it.
    """

    word: KneadingWord
    rho: tuple[int, ...]
    nL: int

    @property
    def n(self) -> int:
        return self.word.n

    @property
    def admissible(self) -> bool:
        """True iff the word itself, orbit point 1, is the orbit maximum."""
        return self.rho[-1] == 1


def build_orbit(w: KneadingWord) -> OrbitModel:
    """Sort the orbit points of a kneading word into spatial order.

    The points are sorted by their signed-order keys, which end at the ``C``
    (see :func:`~kneadck.symbolic.shift_keys`).  The word is admissible
    exactly when it is the largest of them.  Inadmissible words are accepted
    and flagged by ``admissible``, with no warning: the constructions below
    stay defined, but the K-group theorems only cover admissible input.
    """
    n = w.n
    if n < 2:
        raise DomainError("orbit construction requires period >= 2")
    keys = tuple(shift_keys(w))
    order = sorted(range(n), key=keys.__getitem__)
    rho = tuple(i + 1 for i in order)
    for k in range(n - 1):
        if keys[order[k]] >= keys[order[k + 1]]:
            raise ConstructionError(
                f"{w}: orbit points {rho[k]} and {rho[k + 1]} do not compare strictly"
            )

    nL = w.symbols.count(Symbol.L)
    # The turning point is the n-th orbit point and splits the partition.
    if rho[nL] != n:
        raise ConstructionError(f"{w}: turning point is not at spatial rank nL+1")
    return OrbitModel(word=w, rho=rho, nL=nL)


@dataclass(frozen=True)
class TheoremMatrices:
    """The matrix family of one kneading word, in the display order of
    ``kneadck matrices``.

    Shapes: ``theta``, ``omega``, ``pi``, ``gamma``, ``Y``, ``thetaprime``
    are n x n; ``phi`` and ``eta`` are (n-1) x n; ``A``, ``alpha``,
    ``beta``, ``X``, ``Aprime`` are (n-1) x (n-1).
    """

    A: np.ndarray
    theta: np.ndarray
    omega: np.ndarray
    phi: np.ndarray
    pi: np.ndarray
    eta: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    Y: np.ndarray
    X: np.ndarray
    Aprime: np.ndarray
    thetaprime: np.ndarray


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
    :func:`build_matrices`, with a leading batch axis, and every product
    of them is an index map on the stack: a gather of rows or columns, a
    difference of two, or a running sum.  One table then decides every
    slice, row by row: the final symbol value is 0; every entry of the
    13 fields and of the unreturned ``R`` is in {-1, 0, 1};
    ``eta^T = Y inc X``; ``X Xinv = I``; ``alpha eta = eta omega``.  The
    first failing slice raises :class:`ConstructionError` with its word
    and its first failing row, ``"<word>: <row>"``.
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


def build_matrices(m: OrbitModel) -> TheoremMatrices:
    """Assemble every matrix of the construction from the ordered orbit.

    The family is built as the one-word slice of a stack; see
    :func:`_family_stack`, which builds it for many words of one period
    at once.  The transpose of ``eta = phi pi`` must factor as
    ``Y inc X``, where ``X`` is its top square block: the signed
    incidence matrix of the path of spatial ranks with the turning point
    removed.  The inverse of ``X`` is therefore a pair of running sums,
    one on each side of the turning point, and ``Y`` is inverted by
    flipping the sign of its last row.  Together they give an integer
    right inverse ``R = Yinv^T inc Xinv^T`` of ``eta`` and with it
    ``alpha = eta omega R``; then ``theta = gamma omega``,
    ``A = beta alpha``, ``Aprime = X A^T Xinv`` and
    ``thetaprime = Yinv theta^T Y``.  No product is formed: each factor
    is a permutation, a signed diagonal, a bidiagonal or a matrix of
    running sums, so each product is a gather of rows or columns, a
    difference of two, or a running sum.  Every matrix is ``int64``.
    The table of :func:`_family_stack` checks the final symbol and the
    entry range of every matrix, the unreturned ``R`` included, and then
    confirms the route by three identities, each in the same sparse form:
    ``eta^T = Y inc X``, ``X Xinv = I``, which also proves ``X``
    unimodular, and ``alpha eta = eta omega``, which pins ``alpha`` down
    uniquely because ``eta`` has full row rank.  Failure of any row is a
    bug, not bad input, and raises :class:`ConstructionError` with the
    word, ``"<word>: <row>"``.
    """
    t = _family_stack([m])
    return TheoremMatrices(**{name: M[0] for name, M in vars(t).items()})


def transition_intervals(m: OrbitModel) -> list[tuple[int, int]]:
    """The rows of the 0-1 interval-covering matrix as runs of ones, built
    independently of ``build_matrices``.

    Interval k sits between the k-th and (k+1)-st orbit points in spatial
    order.  One application of the map sends each orbit point to its orbit
    successor and is monotone on either side of the turning point (the
    partition is cut exactly there), so the image of interval k is the
    interval spanned by the successors of its two endpoints: it covers the
    intervals ``lo <= j < hi`` of the k-th run ``(lo, hi)``, 0-based and
    half-open.  Purely combinatorial and O(n): only the ordering
    permutation is consulted, never numeric orbits.
    """
    n = m.n
    pos = [0] * (n + 1)  # pos[j] is the 0-based spatial rank of orbit point j
    for rank, orbit in enumerate(m.rho):
        pos[orbit] = rank
    image = [pos[orbit % n + 1] for orbit in m.rho]
    return [(min(u, v), max(u, v)) for u, v in zip(image, image[1:])]

