import inspect
import itertools
import random
from collections.abc import Iterator

import pytest
from hypothesis import given, strategies as st

import kneadck.symbolic
from kneadck.dynamics import QuadMap, numeric_itinerary
from kneadck.ktheory import closed_form_a
from kneadck.markov import build_orbit
from kneadck.symbolic import (
    DomainError,
    KneadingWord,
    ParseError,
    Symbol,
    enumerate_admissible,
    invariant_coordinate,
    is_admissible,
    order_key,
    parse_word,
    search_admissible,
    shift_keys,
)

from reference import Order, coordinate_by_int, mt_compare, rotation

# Known counts of admissible words by period; any ordering bug in the
# signed comparison breaks these immediately.
ADMISSIBLE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 9, 8: 16, 9: 28, 10: 51}


# Each malformed input with its exact ParseError message.  A padded token
# is named stripped, so inner spaces in letters read as an empty symbol.
MALFORMED = {
    "": "empty word",
    "RL": "kneading word must end in C",
    "RCL": "kneading word must end in C",
    "RLCRC": "C may appear only in the final position",
    "CC": "C may appear only in the final position",
    "RLX": "unknown symbol 'X'",
    "R1C": "unknown symbol '1'",
    "RL0": "unknown symbol '0'",
    "-2,0": "unknown symbol '-2'",
    "0,1": "kneading word must end in C",
    "-1,,0": "unknown symbol ''",
    "R L C": "unknown symbol ''",
    "R,L,X": "unknown symbol 'X'",
    "-1, +2,0": "unknown symbol '+2'",
}


def numeric(w):
    """The signed numeric text of a word, e.g. ``-1,+1,0`` for RLC."""
    return ",".join("0" if s is Symbol.C else f"{int(s):+d}" for s in w.symbols)


def words(max_n=8):
    return [w for n in range(2, max_n + 1) for w in enumerate_admissible(n)]


def every_word(n):
    """All words {L, R}^(n-1) C, admissible or not, in text order."""
    return [
        KneadingWord(tail + (Symbol.C,))
        for tail in itertools.product((Symbol.L, Symbol.R), repeat=n - 1)
    ]


def reference_admissible(w):
    """Shift-maximality by direct pairwise comparison, without keys."""
    depth = 2 * w.n
    word = rotation(w, 0, depth)
    return all(
        mt_compare(rotation(w, i, depth), word, depth) is not Order.GT for i in range(1, w.n)
    )


def brute_force_admissible(n):
    """Every candidate R{L, R}^(n-2)C through is_admissible, in text order."""
    candidates = (
        KneadingWord((Symbol.R,) + tail + (Symbol.C,))
        for tail in itertools.product((Symbol.L, Symbol.R), repeat=n - 2)
    )
    return [w for w in candidates if is_admissible(w)]


def mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def a000048(n):
    """(1/2n) sum over odd d | n of mu(d) 2^(n/d): superstable windows of period n."""
    total = sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1, 2) if n % d == 0)
    return total // (2 * n)


class TestParsing:
    def test_letters(self):
        w = parse_word("RLLRRC")
        assert w.symbols == (-1, 1, 1, -1, -1, 0)
        assert str(w) == "RLLRRC"
        assert w.n == 6

    def test_numeric_notation(self):
        assert parse_word("-1,+1,+1,-1,-1,0") == parse_word("RLLRRC")
        assert parse_word("-1,1,0") == parse_word("RLC")

    def test_numeric_round_trip(self):
        w = parse_word("RLLRRC")
        assert numeric(w) == "-1,+1,+1,-1,-1,0"
        assert parse_word(numeric(w)) == w

    def test_lowercase_rejected(self):
        with pytest.raises(ParseError, match="^unknown symbol 'r'$"):
            parse_word("rlc")

    @pytest.mark.parametrize("bad", list(MALFORMED))
    def test_malformed(self, bad):
        with pytest.raises(ParseError) as exc:
            parse_word(bad)
        assert str(exc.value) == MALFORMED[bad]

    def test_padded_numbers_tolerated(self):
        assert parse_word("-1, +1,0") == parse_word("RLC")
        assert parse_word("+1 ,0") == parse_word("LC")

    def test_plain_zero_before_the_end_rejected(self):
        # 0 == Symbol.C, so a plain 0 is a C before the end.
        with pytest.raises(ParseError, match="^C may appear only in the final position$"):
            KneadingWord((Symbol.R, 0, Symbol.C))

    def test_comma_separated_letters_tolerated(self):
        assert parse_word("R,L,C") == parse_word("RLC")

    def test_single_c_parses(self):
        # Period 1 is parseable; rejection happens at the domain layer.
        assert parse_word("C").n == 1

    # Each entry before the C that is not R or L, with its exact message.
    NOT_R_OR_L = {
        2: "only R and L may precede the final C, not 2",
        -2: "only R and L may precede the final C, not -2",
        2**40: "only R and L may precede the final C, not 1099511627776",
        "R": "only R and L may precede the final C, not 'R'",
        None: "only R and L may precede the final C, not None",
        0.5: "only R and L may precede the final C, not 0.5",
    }

    @pytest.mark.parametrize("bad", list(NOT_R_OR_L), ids=repr)
    def test_entry_before_the_c_must_be_r_or_l(self, bad):
        with pytest.raises(ParseError) as exc:
            KneadingWord((Symbol.R, bad, Symbol.L, Symbol.C))
        assert str(exc.value) == self.NOT_R_OR_L[bad]

    def test_plain_unit_ints_are_r_and_l(self):
        assert KneadingWord((-1, 1, Symbol.C)) == parse_word("RLC")
        assert str(KneadingWord((-1, 1, Symbol.C))) == "RLC"

    @pytest.mark.parametrize("consumer", [str, build_orbit, is_admissible, closed_form_a])
    def test_a_word_outside_the_rule_reaches_no_consumer(self, consumer):
        # Without the rule these words were made, and then str, build_orbit
        # and is_admissible raised a bare KeyError or TypeError, while
        # closed_form_a answered 3 for (2, C).
        for symbols in ((2, Symbol.C), ("R", Symbol.C), (Symbol.R, None, Symbol.C)):
            with pytest.raises(ParseError, match="^only R and L may precede the final C"):
                consumer(KneadingWord(symbols))

    def test_entry_beyond_the_bound_is_refused(self):
        # The bad value sits in the middle word of three, which the word's
        # rule refuses; the other two are sound.
        words = enumerate_admissible(6)[:3]
        for w in words:
            assert KneadingWord(w.symbols) == w
        for bad in (2, -2, 2**40, -(2**40)):
            symbols = list(words[1].symbols)
            symbols[2] = bad
            with pytest.raises(ParseError) as exc:
                KneadingWord(tuple(symbols))
            assert str(exc.value) == f"only R and L may precede the final C, not {bad}"

    def test_refusals_are_decided_in_order(self):
        # On RLLRRC, an entry beyond the bound is named; a final symbol
        # other than C comes first, and the first culprit is the one named.
        with pytest.raises(ParseError, match="^only R and L may precede the final C, not 2$"):
            KneadingWord((Symbol.R, 2, Symbol.L, Symbol.R, Symbol.R, Symbol.C))
        with pytest.raises(ParseError, match="^kneading word must end in C$"):
            KneadingWord((Symbol.R, 2, Symbol.L, Symbol.R, Symbol.R, Symbol.R))
        with pytest.raises(ParseError, match="^only R and L may precede the final C, not 2$"):
            KneadingWord((Symbol.R, 2, Symbol.C, Symbol.R, Symbol.R, Symbol.C))
        with pytest.raises(ParseError, match="^C may appear only in the final position$"):
            KneadingWord((Symbol.R, Symbol.C, 2, Symbol.R, Symbol.R, Symbol.C))

    def test_empty_symbol_tuple_rejected(self):
        with pytest.raises(ParseError, match="^empty word$"):
            KneadingWord(())

    def test_symbol_values(self):
        assert int(Symbol.R) == -1
        assert int(Symbol.L) == 1
        assert int(Symbol.C) == 0
        assert [str(s) for s in (Symbol.R, Symbol.C, Symbol.L)] == ["R", "C", "L"]


class TestInvariantCoordinate:
    def test_partial_products(self):
        theta = invariant_coordinate(parse_word("RLLRRC").symbols)
        assert theta == (-1, -1, -1, 1, -1, 0)

    def test_zero_absorbs(self):
        theta = invariant_coordinate(rotation(parse_word("RC"), 0, 5))
        assert theta == (-1, 0, 0, 0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            invariant_coordinate(parse_word("RC").symbols[:0])
        with pytest.raises(ValueError):
            order_key(())


KEY_CHAR = {1: "0", 0: "1", -1: "2"}


class TestCoordinateKernels:
    """invariant_coordinate and order_key against the int() loop of reference."""

    def check(self, seq, depth):
        expected = coordinate_by_int(seq, depth)
        theta = invariant_coordinate(seq[:depth])
        assert theta == expected
        assert all(type(c) is int for c in theta)
        assert order_key(seq[:depth]) == "".join(KEY_CHAR[c] for c in expected)

    @pytest.mark.parametrize("corpus", ["admissible", "forced"])
    def test_words(self, corpus):
        ws = words(14) if corpus == "admissible" else [
            w for n in range(2, 11) for w in every_word(n)
        ]
        assert len(ws) == (1279 if corpus == "admissible" else 1022)
        for w in ws:
            self.check(w.symbols, w.n)
            self.check(w.symbols, 1)
            self.check(rotation(w, 1, 2 * w.n), 2 * w.n)

    def test_numeric_prefixes(self):
        for mu in (2.5, 3.2, 3.5, 3.8318740553, 3.9, 4.0):
            m = QuadMap(mu)
            for x0 in (0.5, m.step(0.5), 0.1):
                seq = numeric_itinerary(m, x0, 30)
                self.check(seq, 30)
            # A list, as the bisection of find_superstable_mu builds it.
            x, seq = 0.5, []
            for _ in range(30):
                x = mu * x * (1.0 - x)
                seq.append(Symbol.C if x == 0.5 else Symbol.L if x < 0.5 else Symbol.R)
            self.check(seq, 30)
            self.check(seq, 7)

    def test_depth_errors(self):
        seq = parse_word("RLC").symbols
        for depth in (0, -1):
            with pytest.raises(ValueError):
                coordinate_by_int(seq, depth)
        with pytest.raises(IndexError):
            coordinate_by_int(seq, 4)
        with pytest.raises(IndexError):
            coordinate_by_int([], 1)
        with pytest.raises(ValueError):
            invariant_coordinate([])


class TestSignedOrder:
    def test_first_symbol_spatial(self):
        a = rotation(parse_word("LC"), 0, 4)   # starts left of c
        b = rotation(parse_word("RC"), 0, 4)   # starts right of c
        assert mt_compare(a, b, 4) is Order.LT
        assert mt_compare(b, a, 4) is Order.GT

    def test_sign_flip_after_r(self):
        # Common prefix R has negative product, so the spatial verdict flips.
        a = rotation(parse_word("RLC"), 0, 6)
        b = rotation(parse_word("RRC"), 0, 6)
        assert mt_compare(a, b, 6) is Order.GT

    def test_equal_sequences(self):
        s = rotation(parse_word("RLC"), 0, 12)
        assert mt_compare(s, s, 12) is Order.EQ

    def test_finite_prefixes_accepted(self):
        a = (Symbol.R, Symbol.L)
        b = (Symbol.R, Symbol.R)
        assert mt_compare(a, b, 2) is Order.GT

    @given(st.integers(2, 7), st.integers(2, 7), st.integers(0, 6), st.integers(0, 6))
    def test_antisymmetry(self, i, j, si, sj):
        ws = words(6)
        a = rotation(ws[i % len(ws)], si, 14)
        b = rotation(ws[j % len(ws)], sj, 14)
        assert int(mt_compare(a, b, 14)) == -int(mt_compare(b, a, 14))

    @given(st.integers(0, 400), st.integers(0, 400))
    def test_matches_invariant_coordinate_order(self, i, j):
        # The signed order reverses the numeric lexicographic order of the
        # cumulative-product coordinates.
        ws = words(7)
        depth = 18
        a = rotation(ws[i % len(ws)], 0, depth)
        b = rotation(ws[j % len(ws)], 0, depth)
        ta = invariant_coordinate(a[:depth])
        tb = invariant_coordinate(b[:depth])
        expected = Order.EQ if ta == tb else (Order.LT if ta > tb else Order.GT)
        assert mt_compare(a, b, depth) is expected


def _cmp(a, b):
    return (a > b) - (a < b)


symbol_lists = st.lists(st.sampled_from(list(Symbol)), min_size=12, max_size=12)


class TestOrderKeys:
    @given(symbol_lists, symbol_lists, st.integers(1, 12))
    def test_key_order_is_signed_order(self, a, b, depth):
        assert _cmp(order_key(a[:depth]), order_key(b[:depth])) == int(mt_compare(a, b, depth))

    def test_key_characters(self):
        # theta = (-1, -1, -1, 1, -1, 0) for RLLRRC; the key spells -theta.
        assert order_key(parse_word("RLLRRC").symbols) == "222021"

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            order_key(())

    @pytest.mark.parametrize("n", range(2, 9))
    def test_shift_keys_are_keys_of_the_shifts(self, n):
        for w in every_word(n):
            keys = shift_keys(w)
            assert isinstance(keys, Iterator)
            keys = list(keys)
            assert len(keys) == n
            for i in range(n):
                assert keys[i] == order_key(rotation(w, i, n - i))
                # Past the C the periodic sequence keys as "1"s, so the key
                # to depth 2n is this key padded and orders the same.
                assert keys[i] + "1" * (n + i) == order_key(rotation(w, i, 2 * n))
                assert keys[i].index("1") == n - 1 - i
            assert sum(map(len, keys)) == n * (n + 1) // 2

    @pytest.mark.parametrize("n", [*range(2, 9), 64, 128, 256, 512, 1024, 2048, 4096])
    def test_shift_keys_are_distinct(self, n):
        # Every word up to n = 8, then three seeded words {L, R}^(n-1) C.
        # A key's only "1" is its last character, its C, so two keys differ
        # by the end of the shorter one, and build_orbit's order is strict.
        rng = random.Random(n)
        bits = [[rng.choice((Symbol.L, Symbol.R)) for _ in range(n - 1)] for _ in range(3)]
        for w in every_word(n) if n < 9 else [KneadingWord((*b, Symbol.C)) for b in bits]:
            keys = list(shift_keys(w))
            assert len(set(keys)) == n
            assert all(k.find("1") == len(k) - 1 for k in keys), str(w)
            ordered = [keys[i - 1] for i in build_orbit(w).rho]
            assert all(a < b for a, b in zip(ordered, ordered[1:])), str(w)


class TestAdmissibility:
    @pytest.mark.parametrize("good", ["RC", "RLC", "RLLC", "RLRC", "RLLRRC"])
    def test_admissible(self, good):
        assert is_admissible(parse_word(good))

    @pytest.mark.parametrize("bad", ["LC", "RRC", "LRC", "LLC", "RRLC"])
    def test_inadmissible(self, bad):
        assert not is_admissible(parse_word(bad))

    def test_period_one_rejected(self):
        with pytest.raises(DomainError):
            is_admissible(parse_word("C"))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_keys_agree_with_pairwise_reference(self, n):
        # L-first and other inadmissible words included.
        for w in every_word(n):
            assert is_admissible(w) == reference_admissible(w), str(w)

    @pytest.mark.parametrize("n", [64, 128])
    def test_keys_agree_with_pairwise_reference_long(self, n):
        rng = random.Random(n)
        found = 0
        for _ in range(300):
            w = KneadingWord(
                (Symbol.R,)
                + tuple(rng.choice((Symbol.L, Symbol.R)) for _ in range(n - 2))
                + (Symbol.C,)
            )
            expected = reference_admissible(w)
            assert is_admissible(w) == expected, str(w)
            found += expected
        assert found > 0

    def test_shift_maximality_is_what_is_checked(self):
        w = parse_word("RLLRRC")
        depth = 2 * w.n
        assert all(
            mt_compare(rotation(w, i, depth), rotation(w, 0, depth), depth) is not Order.GT
            for i in range(1, w.n)
        )


class TestEnumeration:
    @pytest.mark.parametrize("n,count", sorted(ADMISSIBLE_COUNTS.items()))
    def test_counts(self, n, count):
        assert len(enumerate_admissible(n)) == count

    @pytest.mark.parametrize("n", range(2, 21))
    def test_count_oracle(self, n):
        assert len(enumerate_admissible(n)) == a000048(n)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_equals_candidate_filter(self, n):
        assert enumerate_admissible(n) == brute_force_admissible(n)

    def test_contents_small(self):
        assert [str(w) for w in enumerate_admissible(2)] == ["RC"]
        assert [str(w) for w in enumerate_admissible(3)] == ["RLC"]
        assert [str(w) for w in enumerate_admissible(4)] == ["RLLC", "RLRC"]

    def test_lexicographic_order(self):
        texts = [str(w) for w in enumerate_admissible(7)]
        assert texts == sorted(texts)

    def test_all_start_with_r(self):
        assert all(str(w)[0] == "R" for w in words(8))

    def test_all_admissible(self):
        assert all(is_admissible(w) for w in words(8))

    def test_too_short(self):
        with pytest.raises(DomainError):
            enumerate_admissible(1)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_search_too_short(self, n):
        with pytest.raises(DomainError):
            search_admissible(n)

    @pytest.mark.parametrize("n", [*range(2, 15), 20])
    def test_search_gives_each_words_text_and_a(self, n):
        found = search_admissible(n)
        assert all(type(e) is tuple and len(e) == 2 for e in found)
        assert all(type(text) is str and type(a) is int for text, a in found)
        texts = [text for text, _ in found]
        assert all(a < b for a, b in zip(texts, texts[1:]))
        assert texts == [str(w) for w in enumerate_admissible(n)]
        # closed_form_a sums invariant_coordinate, a route the search never takes.
        assert all(a == closed_form_a(parse_word(text)) for text, a in found)

    def test_search_is_a_public_list(self):
        # The bench tracer wraps public functions and closes a span when a
        # call returns: a generator would leave the search's time to its
        # caller, and a private name would hide it.
        assert kneadck.symbolic.search_admissible is search_admissible
        assert search_admissible.__module__ == kneadck.symbolic.__name__
        assert not search_admissible.__name__.startswith("_")
        assert not inspect.isgeneratorfunction(search_admissible)
        assert type(search_admissible(6)) is list

    @given(st.integers(0, 36))
    def test_parse_round_trip(self, i):
        ws = words(8)
        w = ws[i % len(ws)]
        assert parse_word(str(w)) == w
        assert parse_word(numeric(w)) == w
