"""Critical orbit, Markov partition, and the associated integer matrices.

A kneading word of period n determines n orbit points given symbolically by
the shifts of the periodic kneading sequence.  Sorting them in the signed
order yields the partition of the invariant interval cut at the turning
point, and from the ordering permutation every matrix of the K-group
computation is assembled: the cyclic shift, the ordering permutation, the
interval-boundary difference, their product eta, the signed diagonal pieces,
the transition matrix, and the unimodular transforms that relate the two
chain-level descriptions.

Everything here is exact integer arithmetic; no floats and no fractions.
The inverses the construction needs are written down in closed form and
each is confirmed by an exact matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intlinalg import as_int_matrix, eye_int, zeros_int
from .symbolic import DomainError, KneadingWord, Symbol, shift_keys


class ConstructionError(RuntimeError):
    """An internal invariant of the matrix construction failed."""


@dataclass(frozen=True)
class OrbitModel:
    """The critical orbit in symbolic form.

    Orbit point i (1-based) is the i-th image of the turning point, whose
    itinerary is the kneading sequence shifted ``i - 1`` times.  ``rho``
    lists the orbit indices in spatial order (``rho[0]`` is the leftmost
    point).  ``nL`` and ``nR`` count the partition intervals strictly left
    and right of the turning point; ``nL + nR = n - 1``.
    """

    word: KneadingWord
    rho: tuple[int, ...]
    nL: int
    nR: int

    @property
    def n(self) -> int:
        return self.word.n

    @property
    def admissible(self) -> bool:
        """True iff the word itself, orbit point 1, is the orbit maximum."""
        return self.rho[-1] == 1

    def position(self, i: int) -> int:
        """Spatial rank (1-based) of orbit point ``i`` (1-based)."""
        return self.rho.index(i) + 1


def build_orbit(w: KneadingWord) -> OrbitModel:
    """Sort the orbit points of a kneading word into spatial order.

    The points are sorted by their signed-order keys (see
    :func:`~kneadck.symbolic.shift_keys`).  The word is admissible exactly
    when it is the largest of them.  Inadmissible words are accepted and
    flagged by ``admissible``, with no warning: the constructions below
    remain formally defined, but the K-group theorems only cover admissible
    input.
    """
    n = w.n
    if n < 2:
        raise DomainError("orbit construction requires period >= 2")
    keys = shift_keys(w)
    order = sorted(range(n), key=keys.__getitem__)
    rho = tuple(i + 1 for i in order)
    for k in range(n - 1):
        if keys[order[k]] >= keys[order[k + 1]]:
            raise ConstructionError(
                f"orbit points {rho[k]} and {rho[k + 1]} of {w} do not compare strictly"
            )

    nL = sum(1 for s in w.symbols[:-1] if s is Symbol.L)
    nR = sum(1 for s in w.symbols[:-1] if s is Symbol.R)
    # The turning point is the n-th orbit point and splits the partition.
    if rho[nL] != n:
        raise ConstructionError("turning point is not at spatial rank nL+1")
    return OrbitModel(word=w, rho=rho, nL=nL, nR=nR)


@dataclass(frozen=True)
class TheoremMatrices:
    """The full matrix family of one kneading word.

    Shapes: ``omega``, ``pi``, ``gamma``, ``theta``, ``Y``, ``Yinv``,
    ``thetaprime`` are n x n; ``phi`` and ``eta`` are (n-1) x n; ``inc``
    and ``R`` (the right inverse of ``eta``) are n x (n-1); ``A``,
    ``alpha``, ``beta``, ``X``, ``Xinv``, ``Aprime`` are (n-1) x (n-1).
    """

    omega: np.ndarray
    pi: np.ndarray
    phi: np.ndarray
    eta: np.ndarray
    A: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    theta: np.ndarray
    Y: np.ndarray
    inc: np.ndarray
    X: np.ndarray
    Aprime: np.ndarray
    thetaprime: np.ndarray
    Xinv: np.ndarray
    Yinv: np.ndarray
    R: np.ndarray


def build_matrices(m: OrbitModel) -> TheoremMatrices:
    """Assemble every matrix of the construction from the ordered orbit.

    The transpose of ``eta`` must factor as ``Y @ inc @ X``, where ``X`` is
    its top square block: the signed incidence matrix of the path of
    spatial ranks with the turning point removed.  The inverse of ``X`` is
    therefore a pair of running sums, one on each side of the turning
    point, and ``Y`` is inverted by flipping the sign of its last row.
    Together they give an integer right inverse ``R`` of ``eta`` and with
    it ``alpha = eta @ omega @ R``.  Two exact products confirm the route:
    ``X @ Xinv == I``, which also proves ``X`` unimodular, and
    ``alpha @ eta == eta @ omega``, which pins ``alpha`` down uniquely
    because ``eta`` has full row rank.  Failure of any of these is a bug,
    not bad input, and raises :class:`ConstructionError`.
    """
    n = m.n
    eps = m.word.values()

    omega = zeros_int(n, n)
    for i in range(n - 1):
        omega[i, i + 1] = 1
    omega[n - 1, 0] = 1

    pi = zeros_int(n, n)
    for k in range(n):
        pi[k, m.rho[k] - 1] = 1

    phi = zeros_int(n - 1, n)
    for k in range(n - 1):
        phi[k, k] = -1
        phi[k, k + 1] = 1

    eta = phi @ pi

    # Diagonal carries the symbol values, last column their negatives; the
    # two clauses overlap at (n, n) and agree because the final value is 0.
    if eps[-1] != 0:
        raise ConstructionError("final symbol value must be 0")
    gamma = zeros_int(n, n)
    for i in range(n):
        gamma[i, i] = eps[i]
    for i in range(n - 1):
        gamma[i, n - 1] = -eps[i]

    theta = gamma @ omega

    beta = zeros_int(n - 1, n - 1)
    for k in range(n - 1):
        beta[k, k] = 1 if k < m.nL else -1

    Y = eye_int(n)
    Yinv = eye_int(n)
    for j in range(n - 1):
        Y[n - 1, j] = -1
        Yinv[n - 1, j] = 1

    inc = zeros_int(n, n - 1)
    for k in range(n - 1):
        inc[k, k] = 1

    etaT = eta.T.copy()
    X = as_int_matrix(etaT[: n - 1, :])
    if not np.array_equal(etaT, Y @ inc @ X):
        raise ConstructionError("eta-transpose does not factor as Y inc X")

    # Interval k joins spatial ranks k+1 and k+2.  Left of the turning point
    # (rank c) it is undone by the points at or below its left end, right of
    # it by the points above its right end.
    c = m.nL + 1
    p = [m.position(j + 1) for j in range(n - 1)]
    Xinv = zeros_int(n - 1, n - 1)
    for k in range(n - 1):
        for j in range(n - 1):
            if k <= c - 2 and p[j] <= k + 1:
                Xinv[k, j] = -1
            elif k >= c - 1 and p[j] >= k + 2:
                Xinv[k, j] = 1
    if not np.array_equal(X @ Xinv, eye_int(n - 1)):
        raise ConstructionError("top block of eta-transpose fails X Xinv = I")

    R = Yinv.T @ inc @ Xinv.T
    eta_omega = eta @ omega
    alpha = eta_omega @ R
    if not np.array_equal(alpha @ eta, eta_omega):
        raise ConstructionError("alpha fails alpha eta = eta omega")

    A = beta @ alpha
    Aprime = X @ A.T @ Xinv
    thetaprime = Yinv @ theta.T @ Y

    return TheoremMatrices(
        omega=omega,
        pi=pi,
        phi=phi,
        eta=eta,
        A=A,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        theta=theta,
        Y=Y,
        inc=inc,
        X=X,
        Aprime=Aprime,
        thetaprime=thetaprime,
        Xinv=Xinv,
        Yinv=Yinv,
        R=R,
    )


def transition_matrix(m: OrbitModel) -> np.ndarray:
    """0-1 interval-covering matrix, built independently of ``build_matrices``.

    Interval k sits between the k-th and (k+1)-st orbit points in spatial
    order.  One application of the map sends each orbit point to its orbit
    successor and is monotone on either side of the turning point (the
    partition is cut exactly there), so the image of interval k is the
    interval spanned by the successors of its two endpoints; entry (k, j)
    is 1 iff that span covers interval j.  Purely combinatorial: only the
    ordering permutation is consulted, never numeric orbits.
    """
    n = m.n
    pos = {orbit: rank for rank, orbit in enumerate(m.rho, start=1)}
    A = zeros_int(n - 1, n - 1)
    for k in range(1, n):
        u = pos[m.rho[k - 1] % n + 1]
        v = pos[m.rho[k] % n + 1]
        lo, hi = min(u, v), max(u, v)
        for j in range(lo, hi):
            A[k - 1, j - 1] = 1
    return A
