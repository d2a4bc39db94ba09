"""Floating-point engine for the quadratic family f(x) = mu x (1 - x).

Numerically iterates the map, reads off itineraries relative to the turning
point c = 1/2, and locates the superstable parameter whose kneading
sequence matches a given admissible word.  This is the numeric
cross-validation of the symbolic pipeline: the symbolic side predicts the
itinerary, the solver recovers it from actual orbits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .symbolic import DomainError, KneadingWord, Symbol, is_admissible

#: Tolerance for declaring an orbit point equal to the turning point.  Kept
#: separate from the root tolerance: the map has zero derivative at c, so
#: orbit points near c carry roughly the square root of full precision.
C_TOL = 1e-9

#: Finest grid step of the superstable search: 2 * 10**6 points, 16 MB per
#: float array.  A finer step would allocate gigabytes, or fail in numpy.
MIN_GRID_STEP = 1e-6


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
    """Root of f^n(c) = c realizing a kneading word."""

    mu: float
    residual: float
    word_confirmed: bool


def _critical_value_after(mu: float, n: int) -> float:
    x = 0.5
    for _ in range(n):
        x = mu * x * (1.0 - x)
    return x


def _bisect_to_saturation(lo: float, hi: float, g_lo: float, n: int) -> float:
    # Requires a sign change on [lo, hi].  Runs until the midpoint stops
    # moving: full double precision in mu costs ~40 extra halvings and is
    # needed because d/dmu of f^n(c) grows like 4^n, which would otherwise
    # blow a coarse mu error up into a visible orbit residual.
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        g_mid = _critical_value_after(mid, n) - 0.5
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid


def find_superstable_mu(
    w: KneadingWord, tol: float = 1e-12, grid_step: float = 1e-4
) -> SuperstableResult:
    """Parameter of the map whose kneading sequence equals the given word.

    Scans g(mu) = f^n(c) - c for sign changes over a uniform grid on
    (2, 4], refines each bracket by bisection (to full precision, which is
    tighter than any reachable tol), and keeps the roots whose numeric
    itinerary of f(c) reproduces the word for 2n symbols with C-tolerance
    1e-9.  Returns the smallest confirmed root; warns if several distinct
    roots confirm, which would mean the word does not pin the parameter.
    """
    n = w.n
    if n < 2:
        raise DomainError("superstable search requires period >= 2")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError("tolerance must be positive and finite")
    if not MIN_GRID_STEP <= grid_step <= 0.5:
        raise DomainError(f"grid step must lie in [{MIN_GRID_STEP:g}, 0.5]")
    if not is_admissible(w):
        raise SolverError(f"word {w} is not admissible; no quadratic map realizes it")

    steps = max(2, int(round(2.0 / grid_step)))
    mus = np.linspace(2.0, 4.0, steps + 1)[1:]  # open at 2: f(c) = c there
    x = np.full(mus.shape, 0.5)
    for _ in range(n):
        x = mus * x * (1.0 - x)
    g = x - 0.5

    roots = []
    for i in range(len(mus) - 1):
        if g[i] == 0.0:
            roots.append(float(mus[i]))
        elif g[i] * g[i + 1] < 0.0:
            roots.append(_bisect_to_saturation(float(mus[i]), float(mus[i + 1]), float(g[i]), n))
    if g[-1] == 0.0:
        roots.append(float(mus[-1]))

    target = w.sequence().prefix(2 * n)
    confirmed = []
    for mu in roots:
        m = QuadMap(mu)
        if numeric_itinerary(m, m.step(m.c), 2 * n, tol=C_TOL) == target:
            confirmed.append(mu)

    if not confirmed:
        raise SolverError(
            f"no grid bracket reproduced {w}; the word may need a finer grid step"
        )
    if len(confirmed) > 1:
        warnings.warn(
            f"multiple parameters reproduce {w}: {confirmed}; returning the smallest",
            stacklevel=2,
        )
    mu = confirmed[0]
    residual = abs(_critical_value_after(mu, n) - 0.5)
    return SuperstableResult(mu=mu, residual=residual, word_confirmed=True)
