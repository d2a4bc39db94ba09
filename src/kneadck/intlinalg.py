"""Exact integer matrix arithmetic on arbitrary-precision entries.

Matrices are dense numpy arrays with ``dtype=object`` holding Python ints,
so no intermediate result can overflow regardless of size.  Provides the
Smith normal form with its unimodular transforms, cokernels and kernel
ranks of square matrices (the raw material of the K-group computations),
fraction-free determinants, and strong connectivity of 0-1 matrices.
All arithmetic stays in the integers; nothing here uses fractions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_int_matrix(data) -> np.ndarray:
    """Coerce nested lists / arrays to a 2-D object array of Python ints.

    Fixed-width integer inputs are widened to Python ints so later row
    operations cannot overflow.
    """
    M = np.array(data, dtype=object)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
    out = np.empty(M.shape, dtype=object)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            e = M[i, j]
            if isinstance(e, (bool, np.bool_)) or not isinstance(e, (int, np.integer)):
                raise ValueError(f"non-integer entry {e!r} at {(i, j)}")
            out[i, j] = int(e)
    return out


def eye_int(n: int) -> np.ndarray:
    return np.eye(n, dtype=object)


def zeros_int(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=object)


@dataclass(frozen=True)
class SmithForm:
    """Unimodular factorization ``D = U @ M @ V``.

    ``D`` is diagonal with nonnegative entries, each dividing the next,
    zeros trailing; ``U`` and ``V`` have determinant +-1.
    """

    U: np.ndarray
    D: np.ndarray
    V: np.ndarray

    @property
    def diagonal(self) -> tuple[int, ...]:
        r, c = self.D.shape
        return tuple(int(self.D[k, k]) for k in range(min(r, c)))


def _min_abs_pivot(D: np.ndarray, t: int):
    # Smallest |entry| in the working submatrix, ties by lowest (row, col).
    best = None
    r, c = D.shape
    for i in range(t, r):
        for j in range(t, c):
            e = D[i, j]
            if e != 0 and (best is None or abs(e) < best[0]):
                best = (abs(e), i, j)
    return None if best is None else (best[1], best[2])


def smith_normal_form(M) -> SmithForm:
    """Smith normal form with transforms, deterministic for a given input.

    Pivoting picks the nonzero entry of minimal absolute value (ties by
    lowest row, then column); division with remainder strictly shrinks the
    pivot, so the reduction terminates.  Before advancing, the pivot is
    forced to divide the remaining submatrix, which yields the divisibility
    chain on the diagonal directly.
    """
    D = as_int_matrix(M).copy()
    r, c = D.shape
    U = eye_int(r)
    V = eye_int(c)

    t = 0
    while t < min(r, c):
        pivot = _min_abs_pivot(D, t)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            D[[t, pi], :] = D[[pi, t], :]
            U[[t, pi], :] = U[[pi, t], :]
        if pj != t:
            D[:, [t, pj]] = D[:, [pj, t]]
            V[:, [t, pj]] = V[:, [pj, t]]

        while True:
            if D[t, t] < 0:
                D[t, :] = -D[t, :]
                U[t, :] = -U[t, :]
            d = D[t, t]

            restart = False
            for i in range(t + 1, r):
                if D[i, t] != 0:
                    q = D[i, t] // d
                    if q != 0:
                        D[i, :] -= q * D[t, :]
                        U[i, :] -= q * U[t, :]
                    if D[i, t] != 0:
                        # Remainder in (0, d): a strictly smaller pivot.
                        D[[t, i], :] = D[[i, t], :]
                        U[[t, i], :] = U[[i, t], :]
                        restart = True
                        break
            if restart:
                continue

            for j in range(t + 1, c):
                if D[t, j] != 0:
                    q = D[t, j] // d
                    if q != 0:
                        D[:, j] -= q * D[:, t]
                        V[:, j] -= q * V[:, t]
                    if D[t, j] != 0:
                        D[:, [t, j]] = D[:, [j, t]]
                        V[:, [t, j]] = V[:, [j, t]]
                        restart = True
                        break
            if restart:
                continue

            bad = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if D[i, j] % d != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            # Pull the offending row up; the column sweep then shrinks the pivot.
            D[t, :] += D[bad, :]
            U[t, :] += U[bad, :]

        t += 1

    return SmithForm(U=U, D=D, V=V)


def determinant(M) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    D = as_int_matrix(M).copy()
    r, c = D.shape
    if r != c:
        raise ValueError("determinant requires a square matrix")
    n = r
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if D[k, k] == 0:
            for i in range(k + 1, n):
                if D[i, k] != 0:
                    D[[k, i], :] = D[[i, k], :]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                D[i, j] = (D[i, j] * D[k, k] - D[i, k] * D[k, j]) // prev
            D[i, k] = 0
        prev = D[k, k]
    return sign * int(D[n - 1, n - 1])


def is_unimodular(M) -> bool:
    """True iff the square integer matrix has determinant +1 or -1."""
    return abs(determinant(M)) == 1


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in canonical invariant-factor form."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for k, t in enumerate(self.torsion):
            if t < 2:
                raise ValueError("torsion invariant factors must be >= 2")
            if k > 0 and t % self.torsion[k - 1] != 0:
                raise ValueError("torsion factors must form a divisibility chain")

    @classmethod
    def cyclic(cls, a: int) -> "AbelianGroup":
        """Z_a with the conventions Z_0 = Z and Z_1 = 0."""
        if a < 0:
            raise ValueError("cyclic order must be nonnegative")
        if a == 0:
            return cls(1, ())
        if a == 1:
            return cls(0, ())
        return cls(0, (a,))

    @classmethod
    def from_diagonal(cls, diag) -> "AbelianGroup":
        """The cokernel of a square matrix, read off its Smith diagonal."""
        return cls(sum(1 for d in diag if d == 0), tuple(d for d in diag if d >= 2))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel(M) -> AbelianGroup:
    """The group Z^r / M Z^r of a square integer matrix, from its SNF."""
    A = as_int_matrix(M)
    r, c = A.shape
    if r != c:
        raise ValueError("cokernel requires a square matrix")
    return AbelianGroup.from_diagonal(smith_normal_form(A).diagonal)


def kernel_rank(M) -> int:
    """Rank of the integer null space of a square matrix (zeros in the SNF)."""
    A = as_int_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError("kernel_rank requires a square matrix")
    return sum(1 for d in smith_normal_form(A).diagonal if d == 0)


def is_irreducible(A) -> bool:
    """Strong connectivity of the digraph of a 0-1 matrix.

    Edge i -> j iff ``a_ij = 1``; irreducible iff every vertex reaches every
    vertex by a path of length >= 1 (so ``[[1]]`` is irreducible and
    ``[[0]]`` is not).
    """
    M = as_int_matrix(A)
    r, c = M.shape
    if r != c:
        raise ValueError("irreducibility requires a square matrix")
    if any(M[i, j] not in (0, 1) for i in range(r) for j in range(c)):
        raise ValueError("matrix entries must be 0 or 1")
    reach = M.astype(bool)
    for k in range(r):
        reach |= np.outer(reach[:, k], reach[k, :])
    return bool(reach.all())
