"""Oracles the benchmark checks kneadck's outputs against.

Nothing here imports kneadck.  Each oracle is a closed formula or a direct
re-implementation of a definition, so a change to the code under test can
neither alter the benchmark's inputs nor the answers they are held to.
Words are plain strings over ``R``, ``L`` and ``C``.
"""

from __future__ import annotations

import math
import random

#: Symbol values: the sign of the map's slope on each side of the turning point.
SYMBOL_VALUE = {"R": -1, "L": 1, "C": 0}

#: Spatial rank on the interval: L < C < R.
_SPATIAL_RANK = {"L": 0, "C": 1, "R": 2}

#: Superstable parameter of period 2 (word RC): mu^2 - 2 mu - 4 = 0.
RC_MU = 1.0 + math.sqrt(5.0)


def mobius(n: int) -> int:
    """The Moebius function, by trial division."""
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def a000048(n: int) -> int:
    """Number of admissible kneading words of period ``n`` (OEIS A000048).

    ``(1/2n) * sum over odd divisors d of n of mu(d) * 2^(n/d)``: the count
    of superstable windows of period ``n`` in the quadratic family.
    """
    if n < 1:
        raise ValueError("period must be positive")
    total = sum(mobius(d) << (n // d) for d in range(1, n + 1, 2) if n % d == 0)
    count, rest = divmod(total, 2 * n)
    if rest:
        raise ArithmeticError(f"A000048 sum for n = {n} is not divisible by 2n")
    return count


def closed_form_a(word: str) -> int:
    """``a = |1 + sum over l < n of the product of the first l symbol values|``."""
    total = 1
    prod = 1
    for ch in word[:-1]:
        prod *= SYMBOL_VALUE[ch]
        total += prod
    return abs(total)


def k0_payload(a: int) -> dict:
    """``Z_a`` in the CLI's group schema, with ``Z_0 = Z`` and ``Z_1 = 0``."""
    if a == 0:
        return {"free_rank": 1, "torsion": []}
    return {"free_rank": 0, "torsion": [] if a == 1 else [a]}


def k1_payload(a: int) -> dict:
    """``K1 = Z`` exactly when ``a = 0``, else trivial."""
    return {"free_rank": 1 if a == 0 else 0, "torsion": []}


def signed_compare(x: str, y: str) -> int:
    """Order of two equal-length symbol strings under the signed order.

    Returns -1, 0 or 1.  At the first index where they differ the symbols
    are compared spatially; the verdict flips when the common prefix holds
    an odd number of ``R`` (orientation-reversing) symbols, and a ``C`` in
    the common prefix makes the sequences equal.
    """
    flips = 0
    for sx, sy in zip(x, y):
        if sx != sy:
            verdict = 1 if _SPATIAL_RANK[sx] > _SPATIAL_RANK[sy] else -1
            return -verdict if flips % 2 else verdict
        if sx == "C":
            return 0
        if sx == "R":
            flips += 1
    return 0


def is_shift_maximal(word: str) -> bool:
    """True iff ``word^inf`` is not exceeded by any of its shifts.

    Compared over two periods, which decides the order of two periodic
    sequences of that period.
    """
    n = len(word)
    seq = word * 2
    return all(signed_compare(seq[i:] + seq[:i], seq) <= 0 for i in range(1, n))


def is_word_form(word: str, n: int) -> bool:
    """True iff ``word`` has length ``n`` and the form ``R{L,R}*C``."""
    return (
        len(word) == n
        and word[0] == "R"
        and word[-1] == "C"
        and set(word[1:-1]) <= {"L", "R"}
    )


def random_admissible(rng: random.Random, n: int) -> str:
    """A uniform admissible word of period ``n >= 2``, by rejection sampling.

    Candidates are ``R``, then ``n - 2`` uniform draws from ``L``/``R``,
    then ``C``; every admissible word has that form.
    """
    while True:
        word = "R" + "".join(rng.choice("LR") for _ in range(n - 2)) + "C"
        if is_shift_maximal(word):
            return word
