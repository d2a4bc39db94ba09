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

The signed order is the reversed lexicographic order of the invariant
coordinate ``theta_k = e_0 ... e_k`` (Milnor and Thurston, LNM 1342, 1988).
So one string key per sequence, :func:`order_key`, replaces pairwise
comparisons: the shifts of a word are sorted by key, admissibility is a
handful of string comparisons, and enumeration prunes a prefix as soon as
one of its shifts exceeds it.  :func:`mt_compare` is the direct pairwise
comparison, kept as the reference the keys are checked against.
"""

from __future__ import annotations

import enum
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

_LETTER = {Symbol.R: "R", Symbol.C: "C", Symbol.L: "L"}

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
        return "".join(map(_LETTER.__getitem__, self.prefix(depth)))


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
        return "".join(map(_LETTER.__getitem__, self.symbols))

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


#: Key characters of the invariant coordinates +1, 0, -1.  Characters of
#: ``-theta`` in string order make string order the signed order.
_KEY_CHAR = {1: "0", 0: "1", -1: "2"}
_ZERO = _KEY_CHAR[0]
#: Negates every coordinate of a key.
_MIRROR = str.maketrans("02", "20")


def order_key(seq, depth: int) -> str:
    """Key of a symbol sequence whose string order is the signed order.

    Character k stands for ``-theta_k``, so ``order_key(a, depth)`` compares
    with ``order_key(b, depth)`` exactly as ``mt_compare(a, b, depth)`` says.
    Accepts the same sequences as :func:`mt_compare`.
    """
    return "".join(map(_KEY_CHAR.__getitem__, invariant_coordinate(seq, depth).entries))


def shift_keys(w: KneadingWord) -> tuple[str, ...]:
    """Keys, to depth 2n, of the n shifts of ``(w)^inf``; entry i is shift i.

    The final ``C`` makes every coordinate of ``(w)^inf`` from n-1 on 0,
    so its key is the word's own key padded with zeros.  Shift i has the
    coordinates ``theta_{i+k} / theta_{i-1}``: the suffix of that key from
    i, mirrored when ``theta_{i-1} = -1``, padded with zeros again.
    """
    n = w.n
    key = order_key(w.symbols, n) + _ZERO * n
    mirror = key.translate(_MIRROR)
    return (key,) + tuple(
        (key if key[i - 1] == _KEY_CHAR[1] else mirror)[i:] + _ZERO * i for i in range(1, n)
    )


def is_admissible(w: KneadingWord) -> bool:
    """True iff the word is maximal in its shift orbit under the signed order.

    Exactly the shift-maximal words arise as kneading sequences of actual
    quadratic maps; no proper shift of the periodic sequence may exceed the
    sequence itself.  That is n-1 string comparisons of the shifts' keys
    (:func:`shift_keys`) with the word's.
    """
    if w.n < 2:
        raise DomainError("admissibility is defined for period >= 2")
    word, *shifts = shift_keys(w)
    return all(k <= word for k in shifts)


def enumerate_admissible(n: int) -> list[KneadingWord]:
    """All admissible words of length ``n``, in lexicographic text order.

    An admissible word begins with R: the first critical image is the orbit
    maximum, and a word beginning with L is exceeded by its shift that
    starts with R (or with C, which also beats L).  The free positions
    between that R and the final C are filled depth first, L before R, so
    the words come out in text order.  Along the way the generator keeps
    the invariant coordinates of the prefix and the shifts whose
    coordinates so far equal the word's.  A prefix is dropped as soon as
    one of those tied shifts exceeds it, and a shift leaves the tie once it
    falls below.  The final C gives each tied shift i the coordinate 0
    against the word's ``theta_{n-1-i}``, so it exceeds the word exactly
    when that coordinate is +1.
    """
    if n < 2:
        raise DomainError("enumeration is defined for period >= 2")
    last = n - 1
    words = []
    # Frames: (prefix, its invariant coordinates, tied shifts).  R is
    # pushed before L so that L is popped, and extended, first.
    stack = [((Symbol.R,), (-1,), ())]
    while stack:
        prefix, theta, tied = stack.pop()
        m = len(prefix)
        if m == last:
            if all(theta[last - i] < 0 for i in tied):
                words.append(KneadingWord(prefix + (Symbol.C,)))
            continue
        for s in (Symbol.R, Symbol.L):
            t = theta[-1] * s
            still = []
            for i in tied:
                # Coordinate m-i of shift i against the word's own; the
                # smaller coordinate belongs to the larger sequence.
                c = theta[i - 1] * t
                if c < theta[m - i]:
                    break
                if c == theta[m - i]:
                    still.append(i)
            else:
                # Shift m starts with s against the word's R: tied iff s is R.
                if s is Symbol.R:
                    still.append(m)
                stack.append((prefix + (s,), theta + (t,), still))
    return words
