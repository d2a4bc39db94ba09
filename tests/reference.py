"""Reference implementations the tests check the package against.

Each one takes a different route from the code under test: the signed
order by a direct pairwise scan instead of string keys, the determinant
by Bareiss elimination instead of the Smith diagonal, and strong
connectivity by a dense transitive closure instead of graph searches.
"""

from __future__ import annotations

import enum

import numpy as np


class Order(enum.IntEnum):
    """Outcome of a signed-order comparison."""

    LT = -1
    EQ = 0
    GT = 1


def mt_compare(a, b, depth: int) -> Order:
    """Signed-order (Milnor-Thurston) comparison of two symbol sequences.

    Scans for the first index where the sequences disagree; compares those
    symbols spatially (L < C < R) and flips the verdict when the product of
    the common prefix values is negative.  A common prefix containing C
    forces equal invariant coordinates, so the comparison saturates to EQ,
    as it does when no disagreement occurs within ``depth``.

    Accepts any integer-indexable sequence of symbols: symbol sequences,
    words' symbol tuples, finite prefixes of numeric itineraries.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    sign = 1
    for k in range(depth):
        sa, sb = a[k], b[k]
        if sa != sb:
            if sign == 0:
                return Order.EQ
            # Symbol values are R = -1, C = 0, L = +1, so L < C < R
            # spatially is the reversed value order.
            spatial = -1 if int(sa) > int(sb) else 1
            return Order(spatial * sign)
        sign *= int(sa)
    return Order.EQ


def determinant(M) -> int:
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination."""
    D = [[int(e) for e in row] for row in M]
    n = len(D)
    if any(len(row) != n for row in D):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if D[k][k] == 0:
            for i in range(k + 1, n):
                if D[i][k] != 0:
                    D[k], D[i] = D[i], D[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                D[i][j] = (D[i][j] * D[k][k] - D[i][k] * D[k][j]) // prev
            D[i][k] = 0
        prev = D[k][k]
    return sign * D[n - 1][n - 1]


def is_irreducible_dense(A) -> bool:
    """Strong connectivity of a 0-1 matrix by Warshall's transitive closure:
    ``reach[i, j]`` ends true iff a path of length >= 1 leads from i to j."""
    reach = np.array(A, dtype=bool)
    for k in range(len(reach)):
        reach |= np.outer(reach[:, k], reach[k, :])
    return bool(reach.all())
