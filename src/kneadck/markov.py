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
:func:`build_matrices` builds the matrices in :mod:`kneadck.family`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .symbolic import DomainError, KneadingWord, Symbol, shift_keys

if TYPE_CHECKING:
    import numpy as np


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
    and ``thetaprime = Yinv theta^T Y``.  The family is first built in
    run form (:func:`~kneadck.family._run_form`), where every row of
    ``R``, ``alpha`` and ``A`` is one signed run, and its table checks the
    final symbol and the entry range, then confirms the route by three
    identities: ``eta^T = Y inc X``, ``X Xinv = I``, which also proves
    ``X`` unimodular, and ``alpha eta = eta omega``, which pins ``alpha``
    down uniquely because ``eta`` has full row rank.  Failure of any row
    is a bug, not bad input, and raises :class:`ConstructionError` with
    the word, ``"<word>: <row>"``.  The 13 fields are then spelled out
    as dense ``int64`` arrays with no product formed
    (:func:`~kneadck.family._spell`).
    """
    from .family import _run_form, _spell  # numpy loads with the first family spelled

    return _spell(_run_form(m))


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

