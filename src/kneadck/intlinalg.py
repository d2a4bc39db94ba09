"""Exact integer matrix arithmetic, in Python ints and without numpy.

Provides the Smith diagonal (the invariant factors alone, with no
unimodular change of basis) and the abelian group read off it.  One
elimination answers every integer question of the package: a cokernel
is read off the diagonal, a kernel rank is its number of zeros, and a
square matrix is unimodular exactly when its diagonal is all ones.  It
is one sparse loop on rows stored as ``{col: value}`` dicts, exact at
any size.  For the package's sparse matrices nearly every pivot is a
unit, and a unit pivot takes a sweep of its own, with no division; only
the rest take Euclid's floor-division steps.  :mod:`kneadck.ktheory`
builds its rows from the runs of ``A`` and the rows of ``theta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def smith_diagonal(rows: list[dict[int, int]], c: int) -> tuple[int, ...]:
    """The Smith diagonal of the r x c matrix whose row i has the nonzeros
    ``rows[i]``: its invariant factors, each dividing the next, zeros
    trailing.  Deterministic for a given input.

    Each row is a ``{col: value}`` dict whose columns lie in ``range(c)``
    and whose values are nonzero ``int``s; anything else raises
    :class:`ValueError`.  The loop consumes ``rows``: it rewrites the list
    and its dicts in place.  Rows come off one stack, last row first; each
    nonempty row pivots on its first entry of least |value| in dict order,
    a +-1 if it has one.  That order makes little fill on the
    column-differenced rows of ``I - A`` (at most 4 nonzeros each), but may
    make much more on others.  A unit pivot ``d`` clears its column by
    subtracting ``x * d`` times the pivot row from each row holding ``x``
    there, and the pivot row drops out as a 1.  Any other pivot takes
    Euclid's steps: the row sweep subtracts floor multiples of the pivot
    row from each row of its column, and rows with a nonzero remainder go
    back on the stack above it.  Once the column is clear, the column
    sweep reduces the pivot row mod ``d``: it drops out as one factor when
    nothing is left beside the pivot, and goes back on the stack
    otherwise.  Each column keeps an append-only list of the rows that
    have held it, so a cancellation leaves the list alone: a sweep skips
    a listed row that has since lost the column and sweeps a row listed
    twice once.  By Newman's Euclid argument this ends: after a step that
    emits no factor, the next row popped holds an entry below ``|d|``, so
    the pivots strictly decrease between factors, of which there are at
    most ``r``.  Newman's gcd/lcm exchange then puts the factors into
    divisibility order.
    """
    r = len(rows)
    cols: list[list[int]] = [[] for _ in range(c)]
    for i, R in enumerate(rows):
        for j, e in R.items():
            if type(j) is not int or not 0 <= j < c:
                raise ValueError(f"column {j!r} of row {i} is not in range({c})")
            if type(e) is not int or not e:
                raise ValueError(f"non-integer or zero entry {e!r} at ({i}, {j})")
            cols[j].append(i)

    stack = list(range(r))
    units = 0
    factors: list[int] = []
    while stack:
        p = stack.pop()
        P = rows[p]
        if not P:
            continue
        for q, d in P.items():
            if d == 1 or d == -1:
                break
        else:
            least = min(map(abs, P.values()))
            q = next(j for j, e in P.items() if abs(e) == least)
        d = P.pop(q)
        # Row sweep.  A unit pivot clears q from each row by x*d times the
        # pivot row, with no division, and then drops out as a 1.  Any
        # other pivot is least in its own row only, so f may be 0; a row
        # keeps its remainder in q, so a row listed twice is taken once.
        # A listed row that no longer holds q, the pivot row among them,
        # pops 0 and is skipped.
        unit = d == 1 or d == -1
        left = []
        for i in cols[q] if unit else dict.fromkeys(cols[q]):
            R = rows[i]
            x = R.pop(q, 0)
            if not x:
                continue
            if unit:
                f = x * d
            else:
                f, x = x // d, x % d
                if x:
                    R[q] = x
                    left.append(i)
                if not f:
                    continue
            for j, e in P.items():
                if j in R:
                    v = R[j] - f * e
                    if v:
                        R[j] = v
                    else:
                        del R[j]
                else:
                    R[j] = -f * e
                    cols[j].append(i)
        if unit:
            rows[p] = {}
            units += 1
            continue
        if left:
            # The remainders are smaller pivots; the column sweep waits
            # until they are gone.
            P[q] = d
            cols[q] = [p, *left]
            stack.append(p)
            stack += left
            continue
        # Column sweep: q holds only the pivot, so reducing the pivot row
        # mod d is a column operation.
        kept = {j: e % d for j, e in P.items() if e % d}
        if not kept:
            rows[p] = {}
            factors.append(abs(d))
            continue
        kept[q] = d
        rows[p] = kept
        cols[q] = [p]
        stack.append(p)

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
        """Z_a for ``a >= 0``: the cokernel of the 1 x 1 matrix ``[a]``."""
        if a < 0:
            raise ValueError("cyclic order must be nonnegative")
        return cls.from_diagonal((a,))

    @classmethod
    def from_diagonal(cls, diag) -> "AbelianGroup":
        """The cokernel of a square matrix, read off its Smith diagonal: a
        Z for each 0, nothing for each +-1 and Z_|d| for any other d.  So
        Z_0 = Z and Z_1 = 0."""
        return cls(diag.count(0), tuple(t for t in map(abs, diag) if t >= 2))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

