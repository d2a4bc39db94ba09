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
in {-1, 0, 1}, a bound that holds per slice (see
:func:`_check_entry_bound`) and under which no product of them can wrap.
The inverses the construction needs are written down in closed form and
each is confirmed, slice by slice, by an exact matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _check_entry_bound(n: int, words, mats) -> None:
    """The int64 overflow guard of the matrix family, decided per slice.

    ``mats`` holds stacks of shape (B, rows, cols), slice b belonging to
    ``words[b]``, and matrices shared by every slice.  Raises
    :class:`ConstructionError` naming the first word whose slice fails,
    unless ``n < 2**31`` and every matrix of the slice has its entries in
    {-1, 0, 1}.  Every product of the family, here and in
    :func:`~kneadck.ktheory.verify`, has at most three factors of size at
    most n, so under the bound a product of two factors is at most n in
    magnitude and one of three at most n**2 < 2**62: none can wrap.
    Checking the finished family suffices.  The first products have
    factors set entry by entry to -1, 0 or 1, and every later factor is an
    earlier product, exact by induction, whose value this check bounds.
    """
    entries = np.concatenate([M.ravel() for M in mats])
    if n < 2**31 and entries.min() >= -1 and entries.max() <= 1:
        return
    # Out of bound somewhere: find the first slice that is.
    bad = np.full(len(words), n >= 2**31)
    for M in mats:
        bad |= (M.min(axis=(-2, -1)) < -1) | (M.max(axis=(-2, -1)) > 1)
    raise ConstructionError(
        f"{words[bad.argmax()]}: period {n} matrix family leaves the int64 bound"
    )


def _family_stack(models) -> TheoremMatrices:
    """The matrix families of models that all have one period n, as stacks.

    Every field has shape (B, rows, cols), slice b belonging to
    ``models[b]``.  The formulas are those documented at
    :func:`build_matrices`, with a leading batch axis: every product is one
    batched product, and the entry bound and then the three identities
    are decided per slice.  The first slice out of bound, or else the
    first failing an identity, raises :class:`ConstructionError` with its
    word and its first failed check.
    ``omega``, ``phi``, ``Y``, ``Yinv`` and ``inc`` do not depend on the
    word, so each is built once and shared by every product; the first
    three are repeated over the stack only for the result.
    """
    words = [m.word for m in models]
    n = models[0].n
    B = len(models)
    stack = np.arange(B)[:, None]
    ranks = np.arange(n)
    eps = np.array([w.symbols for w in words], dtype=np.int64)
    rho = np.array([m.rho for m in models])
    nL = np.array([m.nL for m in models])

    omega = np.zeros((n, n), dtype=np.int64)
    omega[ranks, (ranks + 1) % n] = 1

    pi = np.zeros((B, n, n), dtype=np.int64)
    pi[stack, ranks, rho - 1] = 1

    phi = np.eye(n - 1, n, 1, dtype=np.int64) - np.eye(n - 1, n, dtype=np.int64)

    eta = phi @ pi

    # Diagonal carries the symbol values, last column their negatives; the
    # two clauses overlap at (n, n) and agree because the final value is 0.
    nonzero = eps[:, -1] != 0
    if nonzero.any():
        raise ConstructionError(f"{words[nonzero.argmax()]}: final symbol value must be 0")
    gamma = np.zeros((B, n, n), dtype=np.int64)
    gamma[:, ranks, ranks] = eps
    gamma[:, : n - 1, n - 1] = -eps[:, : n - 1]

    theta = gamma @ omega

    beta = np.zeros((B, n - 1, n - 1), dtype=np.int64)
    beta[:, ranks[:-1], ranks[:-1]] = np.where(ranks[:-1] < nL[:, None], 1, -1)

    Y = np.eye(n, dtype=np.int64)
    Y[n - 1, : n - 1] = -1
    Yinv = np.eye(n, dtype=np.int64)
    Yinv[n - 1, : n - 1] = 1

    inc = np.eye(n, n - 1, dtype=np.int64)

    etaT = eta.transpose(0, 2, 1).copy()
    X = etaT[:, : n - 1, :]

    # Interval k joins spatial ranks k+1 and k+2.  Left of the turning point
    # (rank c) it is undone by the points at or below its left end, right of
    # it by the points above its right end.
    c = nL[:, None, None] + 1
    k = ranks[: n - 1, None]
    p = np.empty((B, n), dtype=np.int64)
    p[stack, rho - 1] = ranks + 1  # p[b, j] is the spatial rank of orbit point j+1
    p = p[:, None, : n - 1]
    Xinv = ((k >= c - 1) & (p >= k + 2)).astype(np.int64) - ((k <= c - 2) & (p <= k + 1))

    R = Yinv.T @ inc @ Xinv.transpose(0, 2, 1)
    eta_omega = eta @ omega
    alpha = eta_omega @ R
    A = beta @ alpha
    Aprime = X @ A.transpose(0, 2, 1) @ Xinv
    thetaprime = Yinv @ theta.transpose(0, 2, 1) @ Y

    family = [A, theta, omega, phi, pi, eta, alpha, beta, gamma, Y, X, Aprime, thetaprime]
    _check_entry_bound(n, words, [*family, inc, Xinv, Yinv, R])

    identity = np.eye(n - 1, dtype=np.int64)
    checks = (
        ("eta-transpose does not factor as Y inc X", etaT != Y @ inc @ X),
        ("top block of eta-transpose fails X Xinv = I", X @ Xinv != identity),
        ("alpha fails alpha eta = eta omega", alpha @ eta != eta_omega),
    )
    failed = np.array([unequal.any(axis=(1, 2)) for _, unequal in checks])
    if failed.any():
        b = failed.any(axis=0).argmax()
        raise ConstructionError(f"{words[b]}: {checks[failed[:, b].argmax()][0]}")

    def shared(M):
        return M[None].repeat(B, axis=0)

    return TheoremMatrices(
        A=A,
        theta=theta,
        omega=shared(omega),
        phi=shared(phi),
        pi=pi,
        eta=eta,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        Y=shared(Y),
        X=X,
        Aprime=Aprime,
        thetaprime=thetaprime,
    )


def build_matrices(m: OrbitModel) -> TheoremMatrices:
    """Assemble every matrix of the construction from the ordered orbit.

    The family is built as the one-word slice of a stack; see
    :func:`_family_stack`, which builds it for many words of one period
    at once.  The transpose of ``eta`` must factor as ``Y @ inc @ X``, where
    ``X`` is its top square block: the signed incidence matrix of the path
    of spatial ranks with the turning point removed.  The inverse of ``X``
    is therefore a pair of running sums, one on each side of the turning
    point, and ``Y`` is inverted by flipping the sign of its last row.
    Together they give an integer right inverse ``R`` of ``eta`` and with
    it ``alpha = eta @ omega @ R``.  Every matrix, including the unreturned
    ``inc``, ``Xinv``, ``Yinv`` and ``R``, is ``int64`` and passes
    :func:`_check_entry_bound`, per slice, before any identity is checked.
    Two exact products then confirm the route: ``X @ Xinv == I``, which
    also proves ``X`` unimodular, and ``alpha @ eta == eta @ omega``, which
    pins ``alpha`` down uniquely because ``eta`` has full row rank.  Failure
    of any of these is a bug, not bad input, and raises
    :class:`ConstructionError` with the word, ``"<word>: <check>"``.
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

