"""Reference implementations the tests check the package against.

Each one takes a different route from the code under test: the signed
order by a direct pairwise scan instead of string keys, the determinant
by Bareiss elimination instead of the Smith diagonal, the Smith form with
its unimodular transforms by extended-gcd (Bezout) steps instead of the
sparse unit and Euclid sweeps and gcd/lcm exchange of ``smith_diagonal``,
and strong connectivity by a dense transitive closure instead of graph
searches.  :func:`rows_of` and :func:`covering_matrix` are the dense
adapters the package no longer has: a dense matrix as the rows that
``smith_diagonal`` takes, and the 0-1 covering matrix spelled out from
the runs.  :func:`coordinate_by_int` converts every symbol to an int
where the package multiplies the enum values directly.  :func:`rotation` cuts the shifts of a periodic word to a
finite depth, for the pairwise checks of the signed order.
:func:`charpoly` gives the kneading determinant ``det(I - tM)``, which the
package never computes.  :func:`reference_superstable_mu` bisects on the
string key of the whole critical orbit at every step, where the package
reads the orbit's invariant coordinate against the word's and stops at the
first coordinate that disagrees.  :func:`family_by_products` builds the
matrix family by batched dense products of its factors, where the package
writes each row from its nonzeros.  :func:`dense` turns the package's family,
lists of rows of Python ints, into ``int64`` arrays for the tests that form
products or take slices of its fields.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from kneadck.dynamics import C_TOL, QuadMap, SolverError, SuperstableResult, numeric_itinerary
from kneadck.intlinalg import smith_diagonal
from kneadck.markov import TheoremMatrices, transition_intervals
from kneadck.symbolic import DomainError, Symbol, is_admissible, order_key


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


def rotation(w, i: int, depth: int) -> tuple:
    """Symbols i, ..., i + depth - 1 of the periodic sequence ``(w)^inf``."""
    return tuple(w.symbols[(i + k) % w.n] for k in range(depth))


def coordinate_by_int(seq, depth: int) -> tuple[int, ...]:
    """The invariant coordinate ``theta_k = e_0 ... e_k``, k < depth, with an
    ``int()`` of every symbol before it is multiplied in."""
    if depth < 1:
        raise ValueError("depth must be positive")
    entries = []
    prod = 1
    for k in range(depth):
        prod *= int(seq[k])
        entries.append(prod)
    return tuple(entries)


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


def charpoly(M) -> list[int]:
    """Coefficients ``[1, c_1, ..., c_n]`` of ``det(tI - M) = t^n + c_1
    t^(n-1) + ... + c_n`` for a square integer matrix, which are also those
    of ``det(I - tM) = 1 + c_1 t + ... + c_n t^n``.

    Berkowitz's division-free algorithm (Inf. Process. Lett. 18, 1984) over
    Python ints: with ``M_i`` the leading i x i block, ``M_(i+1) = [[M_i,
    C], [R, a]]`` multiplies the coefficients of ``M_i`` by the lower
    triangular Toeplitz matrix whose first column is ``1, -a, -R C,
    -R M_i C, ..., -R M_i^(i-1) C``.
    """
    A = [[int(e) for e in row] for row in M]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("charpoly requires a square matrix")
    p = [1]
    for i in range(n):
        R = A[i][:i]
        v = [A[k][i] for k in range(i)]  # M_i^j C, from j = 0
        col = [1, -A[i][i]]
        for _ in range(i):
            col.append(-sum(r * x for r, x in zip(R, v)))
            v = [sum(A[k][j] * v[j] for j in range(i)) for k in range(i)]
        p = [sum(col[k - j] * p[j] for j in range(min(k, i) + 1)) for k in range(i + 2)]
    return p


def rows_of(M) -> list[dict[int, int]]:
    """The nonzeros of a dense integer matrix as one ``{col: value}`` dict
    per row, row-major, in ascending column order: the rows of a scan."""
    return [{j: e for j, e in enumerate(row) if e} for row in np.asarray(M).tolist()]


def smith_of(M) -> tuple[int, ...]:
    """``smith_diagonal`` of a dense matrix, fed the rows of :func:`rows_of`."""
    return smith_diagonal(rows_of(M), np.shape(M)[1])


def covering_matrix(m) -> np.ndarray:
    """The dense 0-1 covering matrix of an orbit model: entry (k, j) is 1
    iff the k-th run of ``transition_intervals(m)`` covers interval j."""
    A = np.zeros((m.n - 1, m.n - 1), dtype=np.int64)
    for k, (lo, hi) in enumerate(transition_intervals(m)):
        A[k, lo:hi] = 1
    return A


def dense(t: TheoremMatrices) -> TheoremMatrices:
    """The 13 fields of a family as dense ``int64`` arrays, in field order."""
    return TheoremMatrices(*(np.array(M, dtype=np.int64) for M in vars(t).values()))


def family_by_products(models) -> TheoremMatrices:
    """The matrix families of models of one period n as stacks, every
    product a batched dense ``@`` of its factors.

    Each factor is written down entry by entry: the cyclic shift
    ``omega``, the ordering permutation ``pi``, the boundary difference
    ``phi``, the signed diagonals ``gamma`` and ``beta``, ``Y`` and its
    inverse, the inclusion ``inc`` and the closed-form inverse ``Xinv``
    of the top block ``X`` of ``eta^T``.  Then ``eta = phi pi``,
    ``theta = gamma omega``, ``R = Yinv^T inc Xinv^T``,
    ``alpha = eta omega R``, ``A = beta alpha``, ``Aprime = X A^T Xinv``
    and ``thetaprime = Yinv theta^T Y``.  No identity is checked.
    """
    n = models[0].n
    B = len(models)
    stack = np.arange(B)[:, None]
    ranks = np.arange(n)
    eps = np.array([m.word.symbols for m in models], dtype=np.int64)
    rho = np.array([m.rho for m in models])
    nL = np.array([m.nL for m in models])

    omega = np.zeros((n, n), dtype=np.int64)
    omega[ranks, (ranks + 1) % n] = 1
    pi = np.zeros((B, n, n), dtype=np.int64)
    pi[stack, ranks, rho - 1] = 1
    phi = np.eye(n - 1, n, 1, dtype=np.int64) - np.eye(n - 1, n, dtype=np.int64)
    eta = phi @ pi

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

    X = eta.transpose(0, 2, 1)[:, : n - 1, :].copy()
    # Interval k joins spatial ranks k+1 and k+2; c is the turning point's.
    c = nL[:, None, None] + 1
    k = ranks[: n - 1, None]
    p = np.empty((B, n), dtype=np.int64)
    p[stack, rho - 1] = ranks + 1
    p = p[:, None, : n - 1]
    Xinv = ((k >= c - 1) & (p >= k + 2)).astype(np.int64) - ((k <= c - 2) & (p <= k + 1))

    R = Yinv.T @ inc @ Xinv.transpose(0, 2, 1)
    alpha = eta @ omega @ R
    A = beta @ alpha

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
        Aprime=X @ A.transpose(0, 2, 1) @ Xinv,
        thetaprime=Yinv @ theta.transpose(0, 2, 1) @ Y,
    )


def is_irreducible_dense(A) -> bool:
    """Strong connectivity of a 0-1 matrix by Warshall's transitive closure:
    ``reach[i, j]`` ends true iff a path of length >= 1 leads from i to j."""
    reach = np.array(A, dtype=bool)
    for k in range(len(reach)):
        reach |= np.outer(reach[:, k], reach[k, :])
    return bool(reach.all())


@dataclass(frozen=True)
class SmithForm:
    """Unimodular factorization ``D = U @ M @ V`` as object arrays of
    Python ints: ``D`` diagonal with nonnegative entries, each dividing the
    next, zeros trailing; ``U`` and ``V`` of determinant +-1."""

    U: np.ndarray
    D: np.ndarray
    V: np.ndarray

    @property
    def diagonal(self) -> tuple[int, ...]:
        r, c = self.D.shape
        return tuple(int(self.D[k, k]) for k in range(min(r, c)))


def _clearing_step(a: int, b: int) -> tuple[int, int, int, int]:
    """``(x, y, u, v)`` of determinant 1 with ``u a + v b = 0``: the step
    ``(a, b) -> (x a + y b, 0)``.  It keeps ``a`` when ``a`` divides ``b``,
    and otherwise puts ``+-gcd(a, b)``, which is smaller, in its place."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    x0, y0, x1, y1, g, h = 1, 0, 0, 1, a, b
    while h:
        q, rem = divmod(g, h)
        g, h = h, rem
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0, -(b // g), a // g


def smith_normal_form(M) -> SmithForm:
    """Smith normal form with transforms, by extended-gcd steps.

    At step ``t`` the first nonzero entry of the remaining block, in row
    order, is moved to ``(t, t)``.  Each entry below it is cleared by the
    2 x 2 row operation of :func:`_clearing_step`, and each entry to its
    right by the matching column operation.  Every pass either clears row
    and column ``t`` or strictly shrinks the pivot, so it ends.  If the
    pivot then fails to divide an entry of the remaining block, that
    entry's row is added to row ``t`` and the step repeats.
    """
    r, c = np.shape(M)
    D = [[int(e) for e in row] for row in np.asarray(M, dtype=object)]
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    V = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_op(i, k, x, y, u, v):
        # (row i, row k) <- (x row i + y row k, u row i + v row k), in D and U.
        for X in (D, U):
            X[i], X[k] = (
                [x * p + y * q for p, q in zip(X[i], X[k])],
                [u * p + v * q for p, q in zip(X[i], X[k])],
            )

    def col_op(j, k, x, y, u, v):
        # (col j, col k) <- (x col j + y col k, u col j + v col k), in D and V.
        for X in (D, V):
            for row in X:
                row[j], row[k] = x * row[j] + y * row[k], u * row[j] + v * row[k]

    for t in range(min(r, c)):
        pivot = next(((i, j) for i in range(t, r) for j in range(t, c) if D[i][j]), None)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            row_op(t, i, 0, 1, 1, 0)
        if j != t:
            col_op(t, j, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, r):
                if D[i][t]:
                    row_op(t, i, *_clearing_step(D[t][t], D[i][t]))
            for j in range(t + 1, c):
                if D[t][j]:
                    col_op(t, j, *_clearing_step(D[t][t], D[t][j]))
            if any(D[i][t] for i in range(t + 1, r)):
                continue
            bad = next(
                (i for i in range(t + 1, r) for j in range(t + 1, c) if D[i][j] % D[t][t]),
                None,
            )
            if bad is None:
                break
            row_op(t, bad, 1, 1, 0, 1)
        if D[t][t] < 0:
            D[t] = [-e for e in D[t]]
            U[t] = [-e for e in U[t]]

    return SmithForm(
        U=np.array(U, dtype=object).reshape(r, r),
        D=np.array(D, dtype=object).reshape(r, c),
        V=np.array(V, dtype=object).reshape(c, c),
    )


def critical_orbit_key(mu: float, n: int) -> tuple[str, float]:
    """Order key of f(c), ..., f^n(c) under ``x -> mu x (1 - x)``, and f^n(c).

    Reads C only at c exactly, so it keys the double-precision orbit; the
    key ends at C when the orbit is superstable.
    """
    C, L, R = Symbol.C, Symbol.L, Symbol.R
    x = 0.5
    symbols = []
    for _ in range(n):
        x = mu * x * (1.0 - x)
        symbols.append(C if x == 0.5 else L if x < 0.5 else R)
    return order_key(symbols), x


def reference_superstable_mu(w) -> SuperstableResult:
    """Bisection of [2, 4] on :func:`critical_orbit_key` against the word's
    key, with the same exits, confirmation and refusals as
    ``find_superstable_mu``."""
    n = w.n
    if n < 2:
        raise DomainError("superstable search requires period >= 2")
    if not is_admissible(w):
        raise SolverError(f"word {w} is not admissible; no quadratic map realizes it")

    target = order_key(w.symbols)
    lo, hi = 2.0, 4.0
    while True:
        mu = 0.5 * (lo + hi)
        key, x = critical_orbit_key(mu, n)
        if key == target or mu == lo or mu == hi:
            break
        if key < target:
            lo = mu
        else:
            hi = mu

    residual = abs(x - 0.5)
    m = QuadMap(mu)
    itinerary = numeric_itinerary(m, m.step(m.c), 2 * n, tol=C_TOL)
    if itinerary != w.symbols * 2:
        raise SolverError(
            f"double precision cannot resolve {w}: mu = {mu!r} leaves residual {residual:.3g}"
        )
    return SuperstableResult(mu=mu, residual=residual, itinerary=itinerary)
