"""Exact integer matrix arithmetic.

Matrices handed in and out are dense numpy arrays with ``dtype=object``
holding Python ints.  The Smith elimination starts on ``int64`` when every
entry lies below 2**62 in absolute value.  Before each update it bounds,
in Python ints, the largest entry the update can produce; if that bound
could reach 2**62 it converts its working array to ``dtype=object`` and
carries on with the same code, so results are exact at any size.

Provides the Smith normal form with its unimodular transforms, the Smith
diagonal alone, cokernels of square matrices (the raw material of the
K-group computations), and strong connectivity of 0-1 matrices.  One
elimination loop serves every Smith entry point, and the Smith diagonal
answers every other integer question of the package: a kernel rank is its
number of zeros, and a square matrix is unimodular exactly when its
diagonal is all ones.  All arithmetic stays in the integers; nothing here
uses fractions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# int64 elimination is exact while every entry stays below _EXACT.
_EXACT = 1 << 62


def as_int_matrix(data) -> np.ndarray:
    """Coerce nested lists / arrays to a 2-D object array of Python ints.

    Fixed-width integer inputs are widened to Python ints so later row
    operations cannot overflow.
    """
    M = np.array(data, dtype=object)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
    if isinstance(data, np.ndarray) and data.dtype.kind in "iu":
        return M
    entries = M.ravel().tolist()
    if set(map(type, entries)) <= {int}:
        return M
    for k, e in enumerate(entries):
        if isinstance(e, (bool, np.bool_)) or not isinstance(e, (int, np.integer)):
            raise ValueError(f"non-integer entry {e!r} at {divmod(k, M.shape[1])}")
        entries[k] = int(e)
    out = np.empty(M.size, dtype=object)
    out[:] = entries
    return out.reshape(M.shape)


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


def _abs_max(x) -> int:
    return int(np.abs(x).max()) if x.size else 0


def _sub_outer(W: np.ndarray, rows, cols, q, v) -> np.ndarray:
    """``W[rows, cols] -= outer(q, v)``; returns W, widened to Python ints
    first when an int64 result could reach 2**62."""
    ix = (rows[:, None], cols)
    block = W[ix]
    if W.dtype != object and _abs_max(q) * _abs_max(v) + _abs_max(block) >= _EXACT:
        W, block, q, v = (x.astype(object) for x in (W, block, q, v))
    W[ix] = block - np.outer(q, v)
    return W


def _pivot(W: np.ndarray, t: int, r: int, c: int):
    """Position of the smallest nonzero |entry| of ``W[t:r, t:c]``, ties by
    lowest (row, col); None when that block is zero."""
    units = (np.abs(W[t, t:c]) == 1).nonzero()[0]
    if units.size:
        # A unit is a minimum, and none can come earlier in row order.
        return t, t + int(units[0])
    a = np.abs(W[t:r, t:c])
    nonzero = a != 0
    if not nonzero.any():
        return None
    a[~nonzero] = a.max() + 1
    i, j = divmod(int(np.argmin(a)), c - t)
    return t + i, t + j


def _eliminate(M, transforms: bool) -> tuple[np.ndarray, int, int]:
    """The Smith elimination loop, shared by every SNF entry point.

    Works on ``W = [[M, I_r], [I_c, 0]]`` when ``transforms`` is set, else
    on ``M`` alone: row operations on the top ``r`` rows carry ``U`` along in
    the top-right block, column operations on the left ``c`` columns carry
    ``V`` in the bottom-left block, so one code path serves both.  Returns
    ``(W, r, c)`` with the Smith form in ``W[:r, :c]``.

    Pivoting picks the nonzero entry of minimal absolute value (ties by
    lowest row, then column).  Row and column sweeps divide by the pivot;
    a nonzero remainder is a strictly smaller pivot, so the reduction
    terminates.  A unit pivot, almost every pivot of ``I - A^T``, leaves no
    remainder and divides everything: its row sweep is one rank-1
    Schur-complement update, and the pivot is final.  Before advancing, a
    non-unit pivot is forced to divide the remaining block by pulling an
    offending row up, which yields the divisibility chain on the diagonal
    directly.
    """
    A = as_int_matrix(M)
    r, c = A.shape
    if transforms:
        W = np.zeros((r + c, c + r), dtype=object)
        W[:r, :c] = A
        W[:r, c:] = eye_int(r)
        W[r:, :c] = eye_int(c)
    else:
        W = A
    try:
        small = W.astype(np.int64)
    except OverflowError:
        pass
    else:
        if not small.size or (small.max() < _EXACT and small.min() > -_EXACT):
            W = small

    for t in range(min(r, c)):
        while True:
            pivot = _pivot(W, t, r, c)
            if pivot is None:
                return W, r, c
            pi, pj = pivot
            if pi != t:
                W[[t, pi], :] = W[[pi, t], :]
            if pj != t:
                W[:, [t, pj]] = W[:, [pj, t]]
            if W[t, t] < 0:
                W[t, :] = -W[t, :]
            d = int(W[t, t])

            # Row and column sweeps by floor division.  The pivot is the
            # block's smallest |entry|, so every nonzero it divides gives a
            # nonzero multiplier.
            rows = t + 1 + W[t + 1 : r, t].nonzero()[0]
            if rows.size:
                cols = t + W[t, t:].nonzero()[0]
                W = _sub_outer(W, rows, cols, W[rows, t] // d, W[t, cols])
            cols = t + 1 + W[t, t + 1 : c].nonzero()[0]
            if cols.size:
                q = W[t, cols] // d
                rows = t + 1 + W[t + 1 :, t].nonzero()[0]
                if rows.size:
                    W = _sub_outer(W, rows, cols, W[rows, t], q)
                # Row t's share of the column operations, W[t, cols] - d * q.
                W[t, cols] %= d
            if d == 1:
                # A unit leaves no remainder and divides everything.
                break
            if W[t + 1 : r, t].any() or W[t, t + 1 : c].any():
                # A nonzero remainder is a smaller pivot.
                continue
            bad = ((W[t + 1 : r, t + 1 : c] % d).any(axis=1)).nonzero()[0]
            if not bad.size:
                break
            # Pull the offending row up; the column sweep then shrinks the pivot.
            k = t + 1 + int(bad[0])
            cols = t + 1 + W[k, t + 1 :].nonzero()[0]
            W = _sub_outer(W, np.array([t]), cols, np.array([-1]), W[k, cols])
    return W, r, c


def smith_normal_form(M) -> SmithForm:
    """Smith normal form with transforms, deterministic for a given input.

    ``U`` and ``V`` come from the same elimination as :func:`smith_diagonal`,
    which is the cheaper call when only the diagonal is needed.
    """
    W, r, c = _eliminate(M, transforms=True)
    W = W.astype(object)
    return SmithForm(U=W[:r, c:], D=W[:r, :c], V=W[r:, :c])


def smith_diagonal(M) -> tuple[int, ...]:
    """The Smith diagonal of M (invariant factors, zeros trailing), without
    building the unimodular transforms."""
    W, r, c = _eliminate(M, transforms=False)
    return tuple(int(d) for d in W.diagonal())


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
    return AbelianGroup.from_diagonal(smith_diagonal(A))


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
    if not ((M == 0) | (M == 1)).all():
        raise ValueError("matrix entries must be 0 or 1")
    reach = M.astype(bool)
    for k in range(r):
        reach |= np.outer(reach[:, k], reach[k, :])
    return bool(reach.all())
