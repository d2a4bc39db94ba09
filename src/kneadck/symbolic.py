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
comparisons: the shifts of a word are sorted by keys ending at their ``C``,
and admissibility is a few string comparisons.  Enumeration is one depth
first search, :func:`search_admissible`, which prunes a prefix once one of
its shifts exceeds it and returns each admissible word's text with its
``a = |1 + theta_1 + ... + theta_{n-1}|``, summed along the way from the
invariant coordinates it computes, so a listing of words and their ``a``
needs no word object and no second pass over the words.
Symbols are ints (an ``IntEnum``), so the per-symbol loops multiply them as
they are and scan them with ``in``.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
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

    def __str__(self) -> str:
        return self.name


#: The symbol of each letter, and of each token of comma-separated text,
#: keyed as stripped: the letters and the signed numbers.
_LETTERS = dict(Symbol.__members__)
_TOKENS = {**_LETTERS, "-1": Symbol.R, "+1": Symbol.L, "1": Symbol.L, "0": Symbol.C}

_LETTER = {Symbol.R: "R", Symbol.C: "C", Symbol.L: "L"}


@dataclass(frozen=True)
class KneadingWord:
    """A finite word over {R, L, C} ending in its only ``C``.

    Stands for the periodic kneading sequence ``(word)^inf`` of a map whose
    turning point is periodic with period ``n = len(word)``.  Every entry
    before ``Symbol.C`` must equal R or L (plain ints -1 and +1 do), and no
    later construction checks a symbol again.
    """

    symbols: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ParseError("empty word")
        if self.symbols[-1] is not Symbol.C:
            raise ParseError("kneading word must end in C")
        if not {Symbol.R, Symbol.L}.issuperset(self.symbols[:-1]):
            s = next(s for s in self.symbols if s not in (Symbol.R, Symbol.L))
            if s == Symbol.C:
                raise ParseError("C may appear only in the final position")
            raise ParseError(f"only R and L may precede the final C, not {s!r}")

    @property
    def n(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return _word_text(self.symbols)


def _word_text(symbols) -> str:
    """The letters of a symbol sequence, e.g. ``"RLLRRC"``."""
    return "".join(map(_LETTER.__getitem__, symbols))


def parse_word(text: str) -> KneadingWord:
    """Parse letters ``"RLLRRC"`` or comma-separated ``"-1,+1,+1,-1,-1,0"``,
    as everywhere a word is read: letters are R, L and C only, and each
    token, stripped, is a letter or a signed number.  Text that starts
    with a sign or a digit is read as tokens."""
    text = text.strip()
    if not text:
        raise ParseError("empty word")
    if "," in text or text[0] in "+-0123456789":
        tokens, table = [token.strip() for token in text.split(",")], _TOKENS
    else:
        tokens, table = text, _LETTERS
    symbols = tuple(map(table.get, tokens))
    if None in symbols:
        raise ParseError(f"unknown symbol {tokens[symbols.index(None)].strip()!r}")
    return KneadingWord(symbols)


def invariant_coordinate(seq) -> tuple[int, ...]:
    """Cumulative products of the values of a non-empty symbol sequence.

    Entries are plain ints in {-1, 0, +1} (the product starts from the int
    1), and a 0 is followed only by 0s.
    """
    if not seq:
        raise ValueError("sequence must be non-empty")
    entries = []
    prod = 1
    for s in seq:
        prod *= s
        entries.append(prod)
    return tuple(entries)


#: Key characters of the invariant coordinates +1, 0, -1.  Characters of
#: ``-theta`` in string order make string order the signed order.
_KEY_CHAR = {1: "0", 0: "1", -1: "2"}
#: Negates every coordinate of a key.
_MIRROR = str.maketrans("02", "20")


def order_key(seq) -> str:
    """Key of a finite symbol sequence whose string order is the signed order.

    Character k stands for ``-theta_k``, so ``order_key(a)`` compares with
    ``order_key(b)`` as ``a`` with ``b`` in the signed order, for ``a`` and
    ``b`` of one length.  Accepts any non-empty sequence of symbols, e.g. a
    word's symbols or the finite prefixes produced by numeric itineraries.
    """
    return "".join(map(_KEY_CHAR.__getitem__, invariant_coordinate(seq)))


def shift_keys(w: KneadingWord) -> Iterator[str]:
    """Keys of the n shifts of ``(w)^inf``, each ending at its ``C``, in shift order.

    Shift i has the coordinates ``theta_{i+k} / theta_{i-1}``: the suffix
    from i of the word's own key, mirrored when ``theta_{i-1} = -1``, so
    its key has n - i characters.  The final ``C`` is the only ``"1"`` of
    each key, so two keys differ at or before the end of the shorter one,
    and their string order is that of the full periodic sequences.
    """
    key = order_key(w.symbols)
    mirror = key.translate(_MIRROR)
    yield key
    for i in range(1, w.n):
        yield (key if key[i - 1] == _KEY_CHAR[1] else mirror)[i:]


def is_admissible(w: KneadingWord) -> bool:
    """True iff the word is maximal in its shift orbit under the signed order.

    Exactly the shift-maximal words arise as kneading sequences of actual
    quadratic maps; no proper shift of the periodic sequence may exceed the
    sequence itself.  That is up to n-1 string comparisons of the shifts'
    keys (:func:`shift_keys`) with the word's, built one at a time, so an
    inadmissible word stops at the first shift that exceeds it.
    """
    if w.n < 2:
        raise DomainError("admissibility is defined for period >= 2")
    keys = shift_keys(w)
    word = next(keys)
    return all(k <= word for k in keys)


def search_admissible(n: int) -> list[tuple[str, int]]:
    """The admissible words of length ``n`` in lexicographic text order, each
    as its text and its ``a = |1 + theta_1 + ... + theta_{n-1}|``.

    An admissible word begins with R: the first critical image is the orbit
    maximum, and a word beginning with L is exceeded by its shift that
    starts with R (or with C, which also beats L).  The free positions
    between that R and the final C are filled depth first, L before R, so
    the words come out in text order.  Along the way the search keeps the
    text, the invariant coordinates and their running sum plus one for the
    prefix, and the shifts whose coordinates so far equal the word's.  A
    prefix is dropped as soon as one of those tied shifts exceeds it, and a
    shift leaves the tie once it falls below.  The final C gives each tied
    shift i the coordinate 0 against the word's ``theta_{n-1-i}``, so it
    exceeds the word exactly when that coordinate is +1.  A prefix one
    symbol short of the C decides its two words in place, L before R,
    instead of pushing them as frames, and reads the word's last
    coordinate as the one it adds, without building the word's coordinates.
    The search returns a list, not a generator, so a caller's timing of it
    is the search's own.
    """
    if n < 2:
        raise DomainError("enumeration is defined for period >= 2")
    if n == 2:
        return [("RC", 0)]
    last = n - 1
    found = []
    # Frames: (text of the prefix, its invariant coordinates, 1 plus their
    # sum, tied shifts).  R is pushed before L so that L is popped, and
    # extended, first.  The symbol values are plain ints: R is -1 and L is +1.
    stack = [("R", (-1,), 0, ())]
    while stack:
        prefix, theta, total, tied = stack.pop()
        m = len(prefix)
        if m == last - 1:
            # Each of the two words is decided here: a tied shift i now
            # meets the C against the word's coordinate last - i, which is
            # t for shift 1 and theta[last - i] for the others.
            for s, ending in ((1, "LC"), (-1, "RC")):
                t = theta[-1] * s
                for i in tied:
                    c = theta[i - 1] * t
                    if c < theta[m - i]:
                        break
                    if c == theta[m - i] and (theta[last - i] if i > 1 else t) > 0:
                        break
                else:
                    # Shift m, tied on its R, then meets the C against theta_1.
                    if s > 0 or (theta[1] if m > 1 else t) < 0:
                        found.append((prefix + ending, abs(total + t)))
            continue
        for s, letter in ((-1, "R"), (1, "L")):
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
                if s < 0:
                    still.append(m)
                stack.append((prefix + letter, theta + (t,), total + t, still))
    return found


def enumerate_admissible(n: int) -> list[KneadingWord]:
    """All admissible words of length ``n``, in lexicographic text order: one
    :class:`KneadingWord` per word that :func:`search_admissible` finds,
    read from its text by :func:`parse_word`."""
    return [parse_word(text) for text, _ in search_admissible(n)]
