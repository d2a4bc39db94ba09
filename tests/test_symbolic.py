import itertools
import random

import pytest
from hypothesis import given, strategies as st

from kneadck.symbolic import (
    DomainError,
    KneadingWord,
    Order,
    ParseError,
    Symbol,
    SymbolSeq,
    ThetaPrefix,
    enumerate_admissible,
    invariant_coordinate,
    is_admissible,
    mt_compare,
    order_key,
    parse_word,
    shift_keys,
)

# Known counts of admissible words by period; any ordering bug in the
# signed comparison breaks these immediately.
ADMISSIBLE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 9, 8: 16, 9: 28, 10: 51}


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
    seq = w.sequence()
    return all(
        mt_compare(seq.shift(i), seq, 2 * w.n) is not Order.GT for i in range(1, w.n)
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
        assert w.values() == (-1, 1, 1, -1, -1, 0)
        assert str(w) == "RLLRRC"
        assert w.n == 6

    def test_numeric_notation(self):
        assert parse_word("-1,+1,+1,-1,-1,0") == parse_word("RLLRRC")
        assert parse_word("-1,1,0") == parse_word("RLC")

    def test_numeric_round_trip(self):
        w = parse_word("RLLRRC")
        assert w.numeric == "-1,+1,+1,-1,-1,0"
        assert parse_word(w.numeric) == w

    def test_lowercase_rejected(self):
        with pytest.raises(ParseError):
            parse_word("rlc")

    @pytest.mark.parametrize(
        "bad", ["", "RL", "RCL", "RLCRC", "CC", "RLX", "-2,0", "0,1", "-1,,0"]
    )
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_word(bad)

    def test_comma_separated_letters_tolerated(self):
        assert parse_word("R,L,C") == parse_word("RLC")

    def test_single_c_parses(self):
        # Period 1 is parseable; rejection happens at the domain layer.
        assert parse_word("C").n == 1

    def test_symbol_values(self):
        assert int(Symbol.R) == -1
        assert int(Symbol.L) == 1
        assert int(Symbol.C) == 0


class TestSymbolSeq:
    def test_periodic_indexing(self):
        s = parse_word("RLC").sequence()
        assert [s[k] for k in range(7)] == [
            Symbol.R, Symbol.L, Symbol.C, Symbol.R, Symbol.L, Symbol.C, Symbol.R,
        ]

    def test_shift_rotates(self):
        s = parse_word("RLC").sequence()
        assert s.shift(1).prefix(3) == (Symbol.L, Symbol.C, Symbol.R)
        assert s.shift(3) == s

    def test_shift_negative(self):
        with pytest.raises(ValueError):
            parse_word("RC").sequence().shift(-1)

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            SymbolSeq((), ())

    def test_text(self):
        assert parse_word("RLC").sequence().text(6) == "RLCRLC"


class TestInvariantCoordinate:
    def test_partial_products(self):
        theta = invariant_coordinate(parse_word("RLLRRC").sequence(), 6)
        assert theta.entries == (-1, -1, -1, 1, -1, 0)

    def test_zero_absorbs(self):
        theta = invariant_coordinate(parse_word("RC").sequence(), 5)
        assert theta.entries == (-1, 0, 0, 0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThetaPrefix((2,))
        with pytest.raises(ValueError):
            ThetaPrefix((1, 0, -1))
        with pytest.raises(ValueError):
            invariant_coordinate(parse_word("RC").sequence(), 0)


class TestSignedOrder:
    def test_first_symbol_spatial(self):
        a = parse_word("LC").sequence()   # starts left of c
        b = parse_word("RC").sequence()   # starts right of c
        assert mt_compare(a, b, 4) is Order.LT
        assert mt_compare(b, a, 4) is Order.GT

    def test_sign_flip_after_r(self):
        # Common prefix R has negative product, so the spatial verdict flips.
        a = parse_word("RLC").sequence()
        b = parse_word("RRC").sequence()
        assert mt_compare(a, b, 6) is Order.GT

    def test_equal_sequences(self):
        s = parse_word("RLC").sequence()
        assert mt_compare(s, s, 12) is Order.EQ

    def test_finite_prefixes_accepted(self):
        a = (Symbol.R, Symbol.L)
        b = (Symbol.R, Symbol.R)
        assert mt_compare(a, b, 2) is Order.GT

    @given(st.integers(2, 7), st.integers(2, 7), st.integers(0, 6), st.integers(0, 6))
    def test_antisymmetry(self, i, j, si, sj):
        ws = words(6)
        a = ws[i % len(ws)].sequence().shift(si)
        b = ws[j % len(ws)].sequence().shift(sj)
        assert int(mt_compare(a, b, 14)) == -int(mt_compare(b, a, 14))

    @given(st.integers(0, 400), st.integers(0, 400))
    def test_matches_invariant_coordinate_order(self, i, j):
        # The signed order reverses the numeric lexicographic order of the
        # cumulative-product coordinates.
        ws = words(7)
        a = ws[i % len(ws)].sequence()
        b = ws[j % len(ws)].sequence()
        depth = 18
        ta = invariant_coordinate(a, depth).entries
        tb = invariant_coordinate(b, depth).entries
        expected = Order.EQ if ta == tb else (Order.LT if ta > tb else Order.GT)
        assert mt_compare(a, b, depth) is expected


def _cmp(a, b):
    return (a > b) - (a < b)


symbol_lists = st.lists(st.sampled_from(list(Symbol)), min_size=12, max_size=12)


class TestOrderKeys:
    @given(symbol_lists, symbol_lists, st.integers(1, 12))
    def test_key_order_is_signed_order(self, a, b, depth):
        assert _cmp(order_key(a, depth), order_key(b, depth)) == int(mt_compare(a, b, depth))

    def test_key_characters(self):
        # theta = (-1, -1, -1, 1, -1, 0) for RLLRRC; the key spells -theta.
        assert order_key(parse_word("RLLRRC").symbols, 6) == "222021"

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            order_key(parse_word("RC").sequence(), 0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_shift_keys_are_keys_of_the_shifts(self, n):
        for w in every_word(n):
            seq = w.sequence()
            keys = shift_keys(w)
            assert len(keys) == n
            for i in range(n):
                assert keys[i] == order_key(seq.shift(i), 2 * n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_shift_keys_are_distinct(self, n):
        for w in every_word(n):
            assert len(set(shift_keys(w))) == n


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
        seq = w.sequence()
        assert all(
            mt_compare(seq.shift(i), seq, 2 * w.n) is not Order.GT
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

    @given(st.integers(0, 36))
    def test_parse_round_trip(self, i):
        ws = words(8)
        w = ws[i % len(ws)]
        assert parse_word(str(w)) == w
        assert parse_word(w.numeric) == w
