"""Floating-point engine for the quadratic family f(x) = mu x (1 - x).

Numerically iterates the map, reads off itineraries relative to the turning
point c = 1/2, and locates the superstable parameter whose kneading
sequence matches a given admissible word.  This is the numeric
cross-validation of the symbolic pipeline: the symbolic side predicts the
itinerary, the solver recovers it from actual orbits.

The kneading sequence of f_mu is monotone in mu under the signed order
(Milnor and Thurston, LNM 1342, 1988), so the solver is one bisection of
mu on the :func:`~kneadck.symbolic.order_key` of the critical orbit.  In
double precision it resolves every admissible word of period <= 13;
``RL^12C``, whose parameter lies within 4e-8 of 4, and some longer words
raise :class:`SolverError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .symbolic import DomainError, KneadingWord, Symbol, is_admissible, order_key

#: Tolerance for declaring an orbit point equal to the turning point.  The
#: map has zero derivative at c, so orbit points near c carry roughly the
#: square root of full precision.
C_TOL = 1e-9


class SolverError(RuntimeError):
    """The superstable-parameter search failed."""


@dataclass(frozen=True)
class QuadMap:
    """The map x -> mu x (1 - x) on [0, 1], with turning point c = 1/2."""

    mu: float
    c: float = field(default=0.5, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.mu <= 4.0:
            raise DomainError("parameter must lie in [0, 4]")

    def step(self, x: float) -> float:
        return self.mu * x * (1.0 - x)


def numeric_itinerary(
    map: QuadMap, x0: float, depth: int, tol: float = C_TOL
) -> tuple[Symbol, ...]:
    """Symbols of x0, f(x0), ..., f^(depth-1)(x0) relative to c.

    Symbol k is C when |f^k(x0) - c| <= tol, else L left of c, R right.
    Returns a finite prefix; it is index-compatible with the symbol
    sequences of the symbolic module.
    """
    if not 0.0 <= x0 <= 1.0:
        raise DomainError("starting point must lie in [0, 1]")
    if depth < 1:
        raise DomainError("depth must be positive")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError("tolerance must be positive and finite")
    out = []
    x = x0
    for _ in range(depth):
        if abs(x - map.c) <= tol:
            out.append(Symbol.C)
        elif x < map.c:
            out.append(Symbol.L)
        else:
            out.append(Symbol.R)
        x = map.step(x)
    return tuple(out)


@dataclass(frozen=True)
class SuperstableResult:
    """Root of f^n(c) = c realizing a kneading word of period n, with the
    ``itinerary`` of f(c), 2n symbols at C-tolerance 1e-9, that confirmed it."""

    mu: float
    residual: float
    itinerary: tuple[Symbol, ...]


def _critical_orbit(mu: float, n: int) -> tuple[str, float]:
    # Key, to depth n, of the itinerary of f(c), and f^n(c).  Unlike
    # numeric_itinerary this reads C only at c exactly, so the key is the
    # kneading key of the double-precision orbit.
    x = 0.5
    symbols = []
    for _ in range(n):
        x = mu * x * (1.0 - x)
        symbols.append(Symbol.C if x == 0.5 else Symbol.L if x < 0.5 else Symbol.R)
    return order_key(symbols, n), x


def find_superstable_mu(w: KneadingWord) -> SuperstableResult:
    """Parameter of the map whose kneading sequence equals the given word.

    The kneading sequence of f_mu grows with mu in the signed order, so one
    bisection of [2, 4] on the key of f(c)'s itinerary, against the word's
    key, finds the superstable parameter.  It runs until the keys agree or
    the midpoint stops moving: full double precision in mu is needed,
    because d/dmu of f^n(c) grows like 4^n.  The numeric itinerary of f(c)
    must then reproduce the word for 2n symbols with C-tolerance 1e-9;
    where it does not, double precision cannot resolve the word.
    """
    n = w.n
    if n < 2:
        raise DomainError("superstable search requires period >= 2")
    if not is_admissible(w):
        raise SolverError(f"word {w} is not admissible; no quadratic map realizes it")

    target = order_key(w.symbols, n)
    lo, hi = 2.0, 4.0
    while True:
        mu = 0.5 * (lo + hi)
        key, x = _critical_orbit(mu, n)
        if key == target or mu == lo or mu == hi:
            break
        if key < target:
            lo = mu
        else:
            hi = mu

    residual = abs(x - 0.5)
    m = QuadMap(mu)
    itinerary = numeric_itinerary(m, m.step(m.c), 2 * n, tol=C_TOL)
    if itinerary != w.sequence().prefix(2 * n):
        raise SolverError(
            f"double precision cannot resolve {w}: mu = {mu!r} leaves residual {residual:.3g}"
        )
    return SuperstableResult(mu=mu, residual=residual, itinerary=itinerary)
