"""Exact integer matrix arithmetic.

The package's own matrices are dense ``np.int64`` arrays from
:func:`eye_int` and :func:`zeros_int`; :mod:`kneadck.markov` bounds their
entries so that no product of them can wrap.  The Smith elimination reads
the nonzeros off the array as Python ints, so every entry it forms is
exact at any size and no entry bound has to be tracked there.  Foreign
input, such as nested lists, is checked and widened to Python ints by
:func:`as_int_matrix` first.

Provides the Smith diagonal (the invariant factors alone, with no
unimodular change of basis), cokernels of square matrices (the raw
material of the K-group computations), and strong connectivity of 0-1
matrices.  One elimination, :func:`smith_diagonal`, answers every integer
question of the package: a cokernel is read off the diagonal, a kernel
rank is its number of zeros, and a square matrix is unimodular exactly
when its diagonal is all ones.  It runs in two stages.  A sparse pass on
rows stored as dicts takes every unit pivot it can find, which for the
package's sparse matrices is nearly all of them.  The unit-free block
left over goes to a dense minimal-pivot loop.  All arithmetic stays in
the integers; nothing here uses fractions.
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


def _int_array(M) -> np.ndarray:
    """``M`` itself when it is a 2-D numpy integer array, such as the
    package's own matrices, else ``as_int_matrix(M)``.

    Either way ``tolist`` yields Python ints, so the package's matrices
    reach the Smith elimination without a copy or a scan of their entries.
    """
    if isinstance(M, np.ndarray) and M.dtype.kind in "iu" and M.ndim == 2:
        return M
    return as_int_matrix(M)


def eye_int(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def zeros_int(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def smith_diagonal(M) -> tuple[int, ...]:
    """The Smith diagonal of M: its invariant factors, each dividing the
    next, zeros trailing.  Deterministic for a given input.

    A sparse pass eliminates unit pivots first.  It reads the nonzeros once
    into one ``{col: value}`` dict per row and one set of rows per column.
    The shortest row that holds a +-1 gives the pivot, in the column of its
    units with the fewest nonzeros (Markowitz's order, restricted to
    units).  A unit divides everything, so the row sweep alone clears its
    column, and the pivot row and column then drop out with a 1 on the
    diagonal.  When no live entry is a unit, the nonzero rows and columns
    left are packed into a dense block for :func:`_remainder_diagonal`.
    The result is one 1 per unit pivot, then the block's diagonal, then
    zeros up to ``min(rows, cols)``: already the divisibility chain.
    """
    A = _int_array(M)
    r, c = A.shape
    rows: list[dict[int, int]] = [{} for _ in range(r)]
    cols: list[set[int]] = [set() for _ in range(c)]
    ii, jj = np.nonzero(A)
    for i, j, e in zip(ii.tolist(), jj.tolist(), A[ii, jj].tolist()):
        rows[i][j] = e
        cols[j].add(i)

    # Rows by length.  An entry is stale once its row has changed length;
    # a row taken out without a unit waits until an update puts it back.
    by_len: list[list[int]] = [[] for _ in range(c + 1)]
    for i, R in enumerate(rows):
        if R:
            by_len[len(R)].append(i)
    k = 1
    units = 0
    while True:
        while k <= c and not by_len[k]:
            k += 1
        if k > c:
            break
        p = by_len[k].pop()
        P = rows[p]
        if len(P) != k:
            continue
        q = None
        for j, e in P.items():
            if e == 1 or e == -1:
                m = len(cols[j])
                if q is None or m < fewest:
                    q, fewest = j, m
        if q is None:
            continue
        u = P.pop(q)
        rows[p] = {}
        units += 1
        for j in P:
            cols[j].discard(p)
        Cq = cols[q]
        Cq.discard(p)
        # Row sweep: a unit pivot clears its column by itself.
        for i in Cq:
            R = rows[i]
            f = R.pop(q) * u
            for j, e in P.items():
                if j in R:
                    v = R[j] - f * e
                    if v:
                        R[j] = v
                    else:
                        del R[j]
                        cols[j].discard(i)
                else:
                    R[j] = -f * e
                    cols[j].add(i)
            size = len(R)
            if size:
                by_len[size].append(i)
                if size < k:
                    k = size
        Cq.clear()

    live = sorted({j for R in rows for j in R})
    W = [[R.get(j, 0) for j in live] for R in rows if R]
    diag = (1,) * units + _remainder_diagonal(W, len(live))
    return diag + (0,) * (min(r, c) - len(diag))


def _remainder_diagonal(W: list[list[int]], c: int) -> tuple[int, ...]:
    """The Smith diagonal of the ``len(W) x c`` block ``W``, rows of Python
    ints that are eliminated in place.

    Pivoting picks the nonzero entry of minimal absolute value (ties by
    lowest row, then column); a unit in row ``t`` is such an entry.  The
    row sweep subtracts multiples of the pivot row, by floor division, from
    each row with a nonzero entry below the pivot; the column sweep then
    visits only the rows whose entry survived as a remainder.  A nonzero
    remainder is a strictly smaller pivot, so the reduction terminates, and
    a unit pivot leaves none and is final.  Before advancing, a non-unit
    pivot is forced to divide the remaining block by pulling an offending
    row up, which yields the divisibility chain on the diagonal directly.
    """
    r = len(W)

    for t in range(min(r, c)):
        while True:
            pj = next((j for j in range(t, c) if W[t][j] in (1, -1)), None)
            if pj is None:
                block = [
                    (abs(e), i, j)
                    for i in range(t, r)
                    for j, e in enumerate(W[i][t:], t)
                    if e
                ]
                if not block:
                    # The rest of the diagonal is zero.
                    return tuple(W[k][k] for k in range(min(r, c)))
                _, pi, pj = min(block)
                W[t], W[pi] = W[pi], W[t]
            if pj != t:
                for row in W:
                    row[t], row[pj] = row[pj], row[t]
            row = W[t]
            if row[t] < 0:
                row[:] = [-e for e in row]
            d = row[t]

            # Row sweep.  The pivot is the block's smallest |entry|, so every
            # nonzero it divides gives a nonzero multiplier.
            pivot_row = [(j, e) for j, e in enumerate(row[t:], t) if e]
            survivors = []
            for Wi in W[t + 1 :]:
                if Wi[t]:
                    q = Wi[t] // d
                    for j, e in pivot_row:
                        Wi[j] -= q * e
                    if Wi[t]:
                        survivors.append(Wi)
            # Column sweep; row t's share is its remainder mod d.
            cols = [(j, e // d) for j, e in pivot_row if j > t]
            if cols:
                for Wi in survivors:
                    e = Wi[t]
                    for j, q in cols:
                        Wi[j] -= e * q
                for j, _ in cols:
                    row[j] %= d
            if d == 1:
                # A unit leaves no remainder and divides everything.
                break
            if survivors or any(row[t + 1 :]):
                # A nonzero remainder is a smaller pivot.
                continue
            bad = next((Wi for Wi in W[t + 1 :] if any(e % d for e in Wi[t + 1 :])), None)
            if bad is None:
                break
            # Pull the offending row up; the column sweep then shrinks the pivot.
            row[t + 1 :] = [a + b for a, b in zip(row[t + 1 :], bad[t + 1 :])]
    return tuple(W[k][k] for k in range(min(r, c)))


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
    """The group Z^r / M Z^r of a square integer matrix, from its Smith
    diagonal."""
    A = _int_array(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError("cokernel requires a square matrix")
    return AbelianGroup.from_diagonal(smith_diagonal(A))


def is_irreducible(A) -> bool:
    """Strong connectivity of the digraph of a 0-1 matrix.

    Edge i -> j iff ``a_ij = 1``; irreducible iff every vertex reaches every
    vertex by a path of length >= 1 (so ``[[1]]`` is irreducible and
    ``[[0]]`` is not).  That holds exactly when vertex 0 reaches every
    vertex, itself included, by such a path both forward and backward, so
    two graph searches over the nonzeros decide it in O(n + nnz) after one
    scan of the entries.
    """
    M = _int_array(A)
    r, c = M.shape
    if r != c:
        raise ValueError("irreducibility requires a square matrix")
    if not ((M == 0) | (M == 1)).all():
        raise ValueError("matrix entries must be 0 or 1")
    succ = [[] for _ in range(r)]
    pred = [[] for _ in range(r)]
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(M))):
        succ[i].append(j)
        pred[j].append(i)
    return r == 0 or (_reaches_all(succ) and _reaches_all(pred))


def _reaches_all(adj: list[list[int]]) -> bool:
    """True iff vertex 0 reaches every vertex by a path of length >= 1."""
    seen = [False] * len(adj)
    stack = list(adj[0])
    count = 0
    while stack:
        v = stack.pop()
        if not seen[v]:
            seen[v] = True
            count += 1
            stack.extend(adj[v])
    return count == len(adj)
