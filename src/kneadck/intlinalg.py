"""Exact integer matrix arithmetic.

The package's own matrices are dense ``np.int64`` arrays from
:func:`eye_int` and :func:`zeros_int`; :mod:`kneadck.markov` bounds their
entries so that no product of them can wrap.  The Smith elimination works
on the nonzeros alone, as Python ints, so every entry it forms is exact
at any size and no entry bound has to be tracked there.  Foreign input,
such as nested lists, is checked and widened to Python ints by
:func:`as_int_matrix` first.

Provides the Smith diagonal (the invariant factors alone, with no
unimodular change of basis) and strong connectivity of 0-1 matrices.  One
elimination answers every integer question of the package: a cokernel is
read off the diagonal, a kernel rank is its number of zeros, and a square
matrix is unimodular exactly when its diagonal is all ones.  It is one
sparse loop on rows stored as dicts, in which unit and non-unit pivots
take the same step; for the package's sparse matrices nearly every pivot
is a unit.  :mod:`kneadck.ktheory` feeds it, and the graph search, rows
it builds from the runs of ``A``, with no dense array.  All arithmetic
stays in the integers; nothing here uses fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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

    Reads the nonzeros off the array into one ``{col: value}`` dict per
    row, in row-major order, and runs :func:`_smith_rows` on them: one
    sparse elimination on those dicts and one set of rows per column.  The
    pivot is a +-1 while one is live, from the shortest row holding one,
    in its sparsest column (Markowitz's order, restricted to units); else
    the entry of least absolute value, ties to the lowest row, then
    column.  Every pivot ``d`` takes the same step.  The row sweep
    subtracts floor multiples of the pivot row from each row of its
    column; a nonzero remainder is a smaller pivot, and the pivot stays
    live.  Once the column is clear, the column sweep reduces the pivot
    row mod ``d``; the pivot drops out as one factor when nothing is left
    beside it, as a unit always does.  Newman's gcd/lcm exchange then puts
    the factors into divisibility order.
    """
    A = _int_array(M)
    rows: list[dict[int, int]] = [{} for _ in range(A.shape[0])]
    ii, jj = np.nonzero(A)
    for i, j, e in zip(ii.tolist(), jj.tolist(), A[ii, jj].tolist()):
        rows[i][j] = e
    return _smith_rows(rows, A.shape[1])


def _smith_rows(rows: list[dict[int, int]], c: int) -> tuple[int, ...]:
    """The loop of :func:`smith_diagonal` on the r x c matrix whose row i
    has the nonzeros ``rows[i]``; it consumes ``rows``.  Dict order steers
    the pivot choice, so rows in ascending column order give exactly the
    elimination of the scan."""
    r = len(rows)
    cols: list[set[int]] = [set() for _ in range(c)]
    for i, R in enumerate(rows):
        for j in R:
            cols[j].add(i)

    # Rows by length.  An entry is stale once its row has changed length;
    # a row taken out without a unit waits until an update puts it back.
    # The walk restarts after each non-unit pivot, so it stops at top, not c.
    by_len: list[list[int]] = [[] for _ in range(c + 1)]
    live = [i for i, R in enumerate(rows) if R]
    for i in live:
        by_len[len(rows[i])].append(i)
    top = max(map(len, rows), default=0)
    k = 1
    units = 0
    factors: list[int] = []
    while True:
        q = None
        while q is None and k <= top:
            if not by_len[k]:
                k += 1
                continue
            p = by_len[k].pop()
            P = rows[p]
            if len(P) == k:
                for j, e in P.items():
                    if e == 1 or e == -1:
                        m = len(cols[j])
                        if q is None or m < fewest:
                            q, fewest = j, m
        if q is None:
            # No live unit.  Rows never come back to life, so the list of
            # live rows only shrinks.
            live = [i for i in live if rows[i]]
            if not live:
                break
            least, p = min((min(map(abs, rows[i].values())), i) for i in live)
            P = rows[p]
            q = min(j for j, e in P.items() if abs(e) == least)
        d = P.pop(q)
        Cq = cols[q]
        Cq.discard(p)
        # Row sweep.  The pivot is a unit or the least |entry|, so every
        # multiplier is nonzero.
        left = []
        for i in Cq:
            R = rows[i]
            x = R.pop(q)
            f, x = x // d, x % d
            if x:
                R[q] = x
                left.append(i)
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
                if size > top:
                    top = size
        if left:
            # The remainders are smaller pivots; the column sweep waits
            # until they are gone.
            P[q] = d
            cols[q] = {p, *left}
            continue
        # Column sweep: q holds only the pivot, so reducing the pivot row
        # mod d is a column operation.
        Cq.clear()
        kept = {}
        for j, e in P.items():
            if e % d:
                kept[j] = e % d
            else:
                cols[j].discard(p)
        if not kept:
            rows[p] = {}
            if d == 1 or d == -1:
                units += 1
            else:
                factors.append(abs(d))
            continue
        kept[q] = d
        rows[p] = kept
        Cq.add(p)
        by_len[len(kept)].append(p)
        k = min(k, len(kept))

    # Newman's gcd/lcm exchange: afterwards each factor divides the next.
    for s in range(len(factors)):
        for t in range(s + 1, len(factors)):
            g = gcd(factors[s], factors[t])
            factors[s], factors[t] = g, factors[s] // g * factors[t]
    diag = (1,) * units + tuple(factors)
    return diag + (0,) * (min(r, c) - len(diag))


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

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


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
    return _strongly_connected([np.flatnonzero(row).tolist() for row in M])


def _strongly_connected(succ) -> bool:
    """Strong connectivity of the digraph with edges i -> j in ``succ[i]``."""
    pred = [[] for _ in succ]
    for i, out in enumerate(succ):
        for j in out:
            pred[j].append(i)
    return not succ or (_reaches_all(succ) and _reaches_all(pred))


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
