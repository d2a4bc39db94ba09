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
Every factor of the construction is a permutation, a signed diagonal, a
bidiagonal or a matrix of running sums, so :func:`_run_form` builds the
family as signed runs and single entries in O(n) per word, in pure
Python; its identities follow from the rules that :class:`OrbitModel` and
:class:`~kneadck.symbolic.KneadingWord` check, so it refuses nothing.
:func:`_spell` writes the 13 fields of :func:`build_matrices` out as lists
of rows of Python ints, each row from its nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .symbolic import DomainError, KneadingWord, Symbol, shift_keys


class ConstructionError(RuntimeError):
    """An orbit model is malformed: :class:`OrbitModel` raises it, and
    nothing else does; the message reads ``"<word>: <check>"``."""


@dataclass(frozen=True)
class OrbitModel:
    """The critical orbit in symbolic form.

    Orbit point i (1-based) is the i-th image of the turning point, whose
    itinerary is the kneading sequence shifted ``i - 1`` times.  ``rho``
    lists the orbit indices in spatial order (``rho[0]`` is the leftmost
    point).  ``nL`` counts the partition intervals strictly left of the
    turning point, orbit point n; the other ``n - 1 - nL`` lie right of
    it.  :class:`ConstructionError` refuses a ``rho`` that is not a
    permutation of 1..n, and then an ``nL`` with ``rho[nL]`` other than n.
    """

    word: KneadingWord
    rho: tuple[int, ...]
    nL: int

    def __post_init__(self) -> None:
        if sorted(self.rho) != list(range(1, self.n + 1)):
            raise ConstructionError(f"{self.word}: rho is not a permutation of 1..n")
        if not 0 <= self.nL < self.n or self.rho[self.nL] != self.n:
            raise ConstructionError(f"{self.word}: turning point is not at spatial rank nL+1")

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
    (see :func:`~kneadck.symbolic.shift_keys`), so no two tie: shift i's key
    has n - i characters and its only ``"1"`` last.  The word is admissible
    exactly when it is the largest of them.  Inadmissible words are accepted
    and flagged by ``admissible``, with no warning: the constructions below
    stay defined, but the K-group theorems only cover admissible input.
    """
    n = w.n
    if n < 2:
        raise DomainError("orbit construction requires period >= 2")
    keys = ("", *shift_keys(w))  # keys[i] is the key of orbit point i
    rho = tuple(sorted(range(1, n + 1), key=keys.__getitem__))
    return OrbitModel(word=w, rho=rho, nL=w.symbols.count(Symbol.L))


@dataclass(frozen=True)
class TheoremMatrices:
    """The matrix family of one kneading word, in the display order of
    ``kneadck matrices``.

    Each field is a list of rows of Python ints in {-1, 0, 1}.  Shapes
    (rows x columns): ``theta``, ``omega``, ``pi``, ``gamma``, ``Y``,
    ``thetaprime`` are n x n; ``phi`` and ``eta`` are (n-1) x n; ``A``,
    ``alpha``, ``beta``, ``X``, ``Aprime`` are (n-1) x (n-1).
    """

    A: list[list[int]]
    theta: list[list[int]]
    omega: list[list[int]]
    phi: list[list[int]]
    pi: list[list[int]]
    eta: list[list[int]]
    alpha: list[list[int]]
    beta: list[list[int]]
    gamma: list[list[int]]
    Y: list[list[int]]
    X: list[list[int]]
    Aprime: list[list[int]]
    thetaprime: list[list[int]]


def build_matrices(m: OrbitModel) -> TheoremMatrices:
    """Assemble every matrix of the construction from the ordered orbit.

    The transpose of ``eta = phi pi`` must factor as ``Y inc X``, where
    ``X`` is its top square block: the signed incidence matrix of the path
    of spatial ranks with the turning point removed.  The inverse of ``X``
    is therefore a pair of running sums, one on each side of the turning
    point, and ``Y`` is inverted by flipping the sign of its last row.
    Together they give an integer right inverse ``R = Yinv^T inc Xinv^T``
    of ``eta`` and with it ``alpha = eta omega R``; then
    ``theta = gamma omega``, ``A = beta alpha``, ``Aprime = X A^T Xinv``
    and ``thetaprime = Yinv theta^T Y``; their identities follow from the
    rule :class:`OrbitModel` checks.  The family is built in run form by
    :func:`_run_form` and spelled out by :func:`_spell` with no product formed.
    """
    return _spell(_run_form(m))


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
    of :func:`build_matrices`.

    ``R = Yinv^T inc Xinv^T`` has row j ``[k < pos[j]] - [k < nL]`` and a
    zero last row, as if the turning point sat at ``pos[n - 1] = nL``.  Row
    t of ``eta omega`` is ``e_s[t+1] - e_s[t]``, with ``s[t] = rho[t] % n``
    the orbit successor of spatial rank t, so row t of
    ``alpha = eta omega R`` is ``[k < u[t+1]] - [k < u[t]]`` with ``u`` the
    ranks of R's rows at ``s``: one signed run, which ``A = beta alpha``
    flips right of the turning point.  The runs never come from
    :func:`transition_intervals`, so the two routes to ``A`` stay
    independent.

    The identities of the construction follow from the rule that
    :class:`OrbitModel` checks: ``rank`` is a permutation and
    ``pos[n - 1] = nL``.  So no rank is negative, every row of ``eta``
    sums to zero, and ``eta^T = Y inc X``; no ``pos[j]`` but the last is
    ``nL``, so ``X Xinv = I`` and ``X`` is unimodular; and row t of
    ``alpha eta`` telescopes to ``e_rank[u[t+1]] - e_rank[u[t]]``, with
    ``rank[u[t]] = rank[pos[s[t]]] = s[t]``, so ``alpha eta = eta omega``.
    Conversely, ``rank[u[t]] = s[t]`` for every t closes the values of
    ``rank`` under ``x -> x + 1 mod n``, with -1 going to 0, so they are
    all of 0..n-1, and the t with ``s[t] = n - 1`` gives ``rho[nL] = n``.
    The symbol values are those :class:`~kneadck.symbolic.KneadingWord`
    allows, the final one 0 and the others -1 or +1; every other entry is
    the sign of a run or of a permutation, so every entry is in {-1, 0, 1}.
    """
    n, nL = m.n, m.nL
    eps = list(map(int, m.word.symbols))
    rank = [r - 1 for r in m.rho]
    pos = [0] * n
    for t, j in enumerate(rank):
        pos[j] = t
    u = [pos[r % n] for r in m.rho]
    sign = [1] * nL + [-1] * (n - 1 - nL)
    A = [(g, u0, u1) if u0 < u1 else (-g, u1, u0) for g, u0, u1 in zip(sign, u, u[1:])]
    return RunForm(rank, pos, nL, eps, A)


def _spell(f: RunForm) -> TheoremMatrices:
    """The 13 fields of the family in run form ``f`` as lists of rows of
    Python ints, by the formulas of :func:`build_matrices`.

    No product is formed: each row is written from its nonzeros.  ``A`` is
    spelled from its signed runs, and ``Aprime = X A^T Xinv`` by two index
    maps: row j of ``M = X A^T`` is ``-s`` at t where ``rank[lo] = j`` and
    ``s`` where ``rank[hi] = j``, for the run ``(s, lo, hi)`` of row t; row
    j of ``M Xinv`` is ``S[pos[i]] - S[nL]`` at column i, with ``S[k]`` the
    sum of the first k entries of row j of M.
    """
    rank, pos, nL, n = f.rank, f.pos[:-1], f.nL, len(f.rank)

    def rows(width, entries):
        spelled = []
        for pairs in entries:
            row = [0] * width
            for j, e in pairs:
                row[j] = e
            spelled.append(row)
        return spelled

    def run(s, lo, hi):
        return [0] * lo + [s] * (hi - lo) + [0] * (n - 1 - hi)

    omega = rows(n, [[((i + 1) % n, 1)] for i in range(n)])
    pi = rows(n, [[(j, 1)] for j in rank])
    # phi and eta = phi pi difference the rows of I and of pi; Y is I with -1s left of (n, n).
    phi = rows(n, [[(k, -1), (k + 1, 1)] for k in range(n - 1)])
    eta = rows(n, [[(rank[k], -1), (rank[k + 1], 1)] for k in range(n - 1)])
    Y = rows(n, [[(i, 1)] for i in range(n - 1)]) + [[-1] * (n - 1) + [1]]
    # Diagonal carries the symbol values, last column their negatives; the
    # two clauses agree at (n, n) because the final value is 0.  M omega
    # moves column j - 1 of M to column j.
    gamma = rows(n, [[(n - 1, -e), (i, e)] for i, e in enumerate(f.eps)])
    theta = rows(n, [[(0, -e), ((i + 1) % n, e)] for i, e in enumerate(f.eps)])
    sign = [1] * nL + [-1] * (n - 1 - nL)
    beta = rows(n - 1, [[(t, g)] for t, g in enumerate(sign)])
    # Row i of X is column i of eta, which holds 1 in row pos[i] - 1 and -1 in row pos[i].
    X = rows(n - 1, [[(k, e) for k, e in ((p - 1, 1), (p, -1)) if 0 <= k < n - 1] for p in pos])
    A = [run(*r) for r in f.A]
    alpha = [run(g * s, lo, hi) for g, (s, lo, hi) in zip(sign, f.A)]
    Aprime = [[0] * (n - 1) for _ in range(n - 1)]  # X A^T, then times Xinv
    for t, (s, lo, hi) in enumerate(f.A):
        for k, e in ((lo, -s), (hi, s)):
            if rank[k] < n - 1:
                Aprime[rank[k]][t] = e
    for j, row in enumerate(Aprime):
        S = list(accumulate(row, initial=-sum(row[:nL])))
        Aprime[j] = [*map(S.__getitem__, pos)]
    # Yinv theta^T Y is theta^T less its last column, with the column sums
    # as its last row; the final value is 0, so both are zero.  Row 0 holds
    # minus the symbol values, and row j in 1..n-2 holds eps[j - 1] at j - 1.
    units = rows(n, [[(j, e)] for j, e in enumerate(f.eps[:-2])])
    thetaprime = [[-e for e in f.eps], *units, [0] * n]
    family = A, theta, omega, phi, pi, eta, alpha, beta, gamma, Y, X, Aprime, thetaprime
    return TheoremMatrices(*family)


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
    return [(u, v) if u < v else (v, u) for u, v in zip(image, image[1:])]

