"""Symbols, kneading words, itineraries and the signed (Milnor-Thurston) order.

A unimodal map of the interval is encoded by tracking on which side of the
turning point ``c`` each iterate falls: ``R`` (right, value -1), ``L`` (left,
value +1) or ``C`` (at ``c``, value 0).  A *kneading word* ``W`` stands for
the periodic kneading sequence ``(W)^inf`` of a map whose critical orbit is
periodic; it ends in ``C`` because the orbit returns to ``c`` exactly at the
period.

Sequences of symbols are ordered by the signed order: at the first index
where two sequences disagree, compare the symbols spatially (``L < C < R``)
and flip the outcome if the product of the common prefix values is negative
(the map reverses orientation right of ``c``).  This is the order under
which itineraries are monotone in the point, so sorting the shifts of a
kneading word recovers the spatial layout of the critical orbit.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass


class ParseError(ValueError):
    """Raised when a word or symbol cannot be parsed."""


class DomainError(ValueError):
    """Raised when an operation is applied outside its domain (e.g. period 1)."""


class Symbol(enum.IntEnum):
    """One itinerary symbol; the integer value is the orientation sign."""

    R = -1
    C = 0
    L = 1

    @classmethod
    def from_token(cls, token: str) -> "Symbol":
        token = token.strip()
        if token in ("R", "L", "C"):
            return cls[token]
        if token in _NUMERIC_TOKENS:
            return _NUMERIC_TOKENS[token]
        raise ParseError(f"unknown symbol {token!r}")

    @property
    def numeric(self) -> str:
        """Signed numeric rendering (``-1``, ``+1``, ``0``)."""
        return "0" if self is Symbol.C else f"{int(self):+d}"

    def __str__(self) -> str:
        return self.name


_NUMERIC_TOKENS = {"-1": Symbol.R, "+1": Symbol.L, "1": Symbol.L, "0": Symbol.C}

#: Spatial comparison key: L < C < R on the interval.
def _spatial_key(s: Symbol) -> int:
    return -int(s)


class Order(enum.IntEnum):
    """Outcome of a signed-order comparison."""

    LT = -1
    EQ = 0
    GT = 1


@dataclass(frozen=True)
class SymbolSeq:
    """An eventually periodic symbol sequence ``preperiod (period)^inf``.

    Indexing is total: ``seq[k]`` is defined for every ``k >= 0``.
    """

    preperiod: tuple[Symbol, ...]
    period: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty")

    def __getitem__(self, k: int) -> Symbol:
        if k < 0:
            raise IndexError("symbol index must be nonnegative")
        if k < len(self.preperiod):
            return self.preperiod[k]
        return self.period[(k - len(self.preperiod)) % len(self.period)]

    def shift(self, i: int = 1) -> "SymbolSeq":
        """Drop the first ``i`` symbols; shifting by the period is a no-op."""
        if i < 0:
            raise ValueError("shift amount must be nonnegative")
        if i <= len(self.preperiod):
            return SymbolSeq(self.preperiod[i:], self.period)
        r = (i - len(self.preperiod)) % len(self.period)
        return SymbolSeq((), self.period[r:] + self.period[:r])

    def prefix(self, depth: int) -> tuple[Symbol, ...]:
        return tuple(self[k] for k in range(depth))

    def text(self, depth: int) -> str:
        return "".join(s.name for s in self.prefix(depth))


@dataclass(frozen=True)
class KneadingWord:
    """A finite word over {R, L, C} ending in its only ``C``.

    Stands for the periodic kneading sequence ``(word)^inf`` of a map whose
    turning point is periodic with period ``n = len(word)``.
    """

    symbols: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ParseError("empty word")
        if self.symbols[-1] is not Symbol.C:
            raise ParseError("kneading word must end in C")
        if any(s is Symbol.C for s in self.symbols[:-1]):
            raise ParseError("C may appear only in the final position")

    @property
    def n(self) -> int:
        return len(self.symbols)

    def sequence(self) -> SymbolSeq:
        """The purely periodic sequence ``(word)^inf``."""
        return SymbolSeq((), self.symbols)

    def values(self) -> tuple[int, ...]:
        return tuple(int(s) for s in self.symbols)

    def __str__(self) -> str:
        return "".join(s.name for s in self.symbols)

    @property
    def numeric(self) -> str:
        return ",".join(s.numeric for s in self.symbols)


def parse_word(text: str) -> KneadingWord:
    """Parse ``"RLLRRC"`` or comma-separated ``"-1,+1,+1,-1,-1,0"``.

    Both notations are accepted everywhere a word is read.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty word")
    if "," in text or text[0] in "+-0123456789":
        symbols = tuple(Symbol.from_token(t) for t in text.split(","))
    else:
        symbols = tuple(Symbol.from_token(ch) for ch in text)
    return KneadingWord(symbols)


@dataclass(frozen=True)
class ThetaPrefix:
    """Prefix of the invariant coordinate: entry k is the product of the
    first k+1 symbol values.  Entries are in {-1, 0, +1} and a 0 is
    followed only by 0s (the product absorbs it)."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        seen_zero = False
        for e in self.entries:
            if e not in (-1, 0, 1):
                raise ValueError(f"invalid invariant-coordinate entry {e}")
            if seen_zero and e != 0:
                raise ValueError("nonzero entry after a zero")
            seen_zero = seen_zero or e == 0


def invariant_coordinate(seq, depth: int) -> ThetaPrefix:
    """Cumulative products of the symbol values, to the given depth."""
    if depth < 1:
        raise ValueError("depth must be positive")
    entries = []
    prod = 1
    for k in range(depth):
        prod *= int(seq[k])
        entries.append(prod)
    return ThetaPrefix(tuple(entries))


def mt_compare(a, b, depth: int) -> Order:
    """Signed-order comparison of two symbol sequences.

    Scans for the first index where the sequences disagree; compares those
    symbols spatially (L < C < R) and flips the verdict when the product of
    the common prefix values is negative.  A common prefix containing C
    forces equal invariant coordinates, so the comparison saturates to EQ,
    as it does when no disagreement occurs within ``depth``.

    Accepts :class:`SymbolSeq` or any integer-indexable sequence of symbols,
    e.g. the finite prefixes produced by numeric itineraries.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    sign = 1
    for k in range(depth):
        sa, sb = a[k], b[k]
        if sa != sb:
            if sign == 0:
                return Order.EQ
            spatial = -1 if _spatial_key(sa) < _spatial_key(sb) else 1
            return Order(spatial * sign)
        sign *= int(sa)
    return Order.EQ


def is_admissible(w: KneadingWord) -> bool:
    """True iff the word is maximal in its shift orbit under the signed order.

    Exactly the shift-maximal words arise as kneading sequences of actual
    quadratic maps; every proper shift of the periodic sequence must not
    exceed the sequence itself.
    """
    n = w.n
    if n < 2:
        raise DomainError("admissibility is defined for period >= 2")
    seq = w.sequence()
    depth = 2 * n
    return all(mt_compare(seq.shift(i), seq, depth) is not Order.GT for i in range(1, n))


def enumerate_admissible(n: int) -> list[KneadingWord]:
    """All admissible words of length ``n``, in lexicographic text order.

    Candidates are the words R?...?C with ? over {L, R}: an admissible word
    must begin with R, since the first critical image is the orbit maximum
    and any word beginning with L is exceeded by whichever of its shifts
    starts with R (or C, which also beats L spatially).  Generation over
    the free positions in L-before-R order is already lexicographic.
    """
    if n < 2:
        raise DomainError("enumeration is defined for period >= 2")
    words = []
    for tail in itertools.product((Symbol.L, Symbol.R), repeat=n - 2):
        w = KneadingWord((Symbol.R,) + tail + (Symbol.C,))
        if is_admissible(w):
            words.append(w)
    return words
