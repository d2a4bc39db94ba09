import random
import warnings

import numpy as np
import pytest

from kneadck import intlinalg, ktheory
from kneadck.intlinalg import AbelianGroup, as_int_matrix, cokernel, eye_int, is_irreducible
from kneadck.ktheory import TheoremViolationError, closed_form_a, k_groups
from kneadck.markov import build_orbit, transition_matrix
from kneadck.symbolic import (
    DomainError,
    KneadingWord,
    Symbol,
    enumerate_admissible,
    is_admissible,
    parse_word,
)

TRIVIAL = AbelianGroup(0, ())
Z = AbelianGroup(1, ())


def bowen_franks(A) -> AbelianGroup:
    """The Bowen-Franks group coker(I - A) of a square matrix."""
    M = as_int_matrix(A)
    return cokernel(eye_int(len(M)) - M)


def count_smith_loops(monkeypatch) -> list:
    """Record the shape of every matrix the one Smith loop runs on, whether
    a caller reaches it directly or through ``cokernel``."""
    runs = []
    loop = intlinalg.smith_diagonal

    def counting(M):
        runs.append(np.shape(M))
        return loop(M)

    for module in (intlinalg, ktheory):
        monkeypatch.setattr(module, "smith_diagonal", counting)
    return runs


def all_words(max_n):
    out = []
    for n in range(2, max_n + 1):
        out.extend(enumerate_admissible(n))
    return out


def star(a: KneadingWord, b: KneadingWord) -> KneadingWord:
    """Renormalization product of two kneading words.

    Each symbol of ``b`` is appended to a copy of the head of ``a``,
    orientation-reversed when the head contains an odd number of R's.
    """
    head = a.symbols[:-1]
    flip = sum(1 for s in head if s is Symbol.R) % 2 == 1
    conj = {Symbol.R: Symbol.L, Symbol.L: Symbol.R, Symbol.C: Symbol.C}
    out = []
    for s in b.symbols:
        out.extend(head)
        out.append(conj[s] if flip else s)
    return KneadingWord(tuple(out))


def star_words(max_n):
    """All admissible words of period <= max_n that factor as a product."""
    found = set()
    words = {n: list(enumerate_admissible(n)) for n in range(2, max_n + 1)}
    for m in range(2, max_n // 2 + 1):
        for p in range(2, max_n // m + 1):
            for a in words[m]:
                for b in words[p]:
                    found.add(str(star(a, b)))
    return found


class TestClosedForm:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("RC", 0),
            ("RLC", 1),
            ("RLLC", 2),
            ("RLRC", 0),
            ("RLLRRC", 2),
            ("RLLRLC", 0),
        ],
    )
    def test_fixtures(self, text, expected):
        assert closed_form_a(parse_word(text)) == expected

    def test_rejects_fixed_point(self):
        with pytest.raises(DomainError):
            closed_form_a(parse_word("C"))

    @pytest.mark.parametrize("word", all_words(8), ids=str)
    def test_alternating_sum_form(self, word):
        # a = |1 + sum over l of the product of the first l symbol values|.
        eps = word.values()[:-1]
        total = 1
        prod = 1
        for e in eps:
            prod *= e
            total += prod
        assert closed_form_a(word) == abs(total)


class TestKGroups:
    def test_period_six_fixture(self):
        rep = k_groups(parse_word("RLLRRC"))
        assert rep.a_closed_form == 2
        assert rep.K0 == AbelianGroup(0, (2,))
        assert str(rep.K0) == "Z_2"
        assert rep.K1 == TRIVIAL
        assert rep.BF == AbelianGroup(0, (2,))
        assert rep.irreducible
        assert rep.admissible

    def test_period_two(self):
        rep = k_groups(parse_word("RC"))
        assert rep.a_closed_form == 0
        assert rep.K0 == Z
        assert rep.K1 == Z
        assert rep.irreducible

    def test_trivial_group(self):
        rep = k_groups(parse_word("RLC"))
        assert rep.a_closed_form == 1
        assert rep.K0 == TRIVIAL
        assert rep.K0.is_trivial
        assert rep.K1 == TRIVIAL

    def test_reducible_zero_a(self):
        rep = k_groups(parse_word("RLRC"))
        assert rep.a_closed_form == 0
        assert rep.K0 == Z
        assert rep.K1 == Z
        assert not rep.irreducible

    def test_inadmissible_reported_not_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = k_groups(parse_word("LLC"))
        assert rep.admissible is False

    def test_disagreement_raises_for_admissible_words_only(self, monkeypatch):
        # A Smith diagonal of all zeros contradicts the closed form on RLC
        # (a = 1); LRC is inadmissible, so the disagreement is not enforced.
        monkeypatch.setattr(ktheory, "smith_diagonal", lambda M: (0,) * M.shape[0])
        with pytest.raises(TheoremViolationError) as exc:
            k_groups(parse_word("RLC"))
        assert str(exc.value) == "RLC: closed form a=1 predicts K0=0, SNF route gives Z^2"
        rep = k_groups(parse_word("LRC"))
        assert rep.admissible is False
        assert rep.K0 == rep.K1 == AbelianGroup(2, ())

    @pytest.mark.parametrize("word", all_words(10), ids=str)
    def test_closed_form_matches_snf(self, word):
        rep = k_groups(word)
        a = rep.a_closed_form
        assert rep.K0 == AbelianGroup.cyclic(a)
        if a == 0:
            assert rep.K1 == Z
        else:
            assert rep.K1 == TRIVIAL

    @pytest.mark.parametrize("word", all_words(12), ids=str)
    def test_bf_equals_k0(self, word):
        rep = k_groups(word)
        assert rep.BF == rep.K0 == bowen_franks(transition_matrix(build_orbit(word)))

    def test_one_snf_per_word(self, monkeypatch):
        runs = count_smith_loops(monkeypatch)
        for word in all_words(8):
            runs.clear()
            k_groups(word)
            assert runs == [(word.n - 1, word.n - 1)], word

    def test_four_snfs_per_verified_word(self, monkeypatch):
        # I - A^T, X, Y and I - theta; the cokernel bridge reuses the first.
        runs = count_smith_loops(monkeypatch)
        report = ktheory.verify(8)
        assert report.ok
        assert len(runs) == 4 * report.words_checked

    @pytest.mark.parametrize("n", [256, 512, 2048])
    def test_long_random_words(self, n):
        # A uniform admissible word, seeded: an R, n - 2 uniform L/R bits,
        # then C, kept when admissible.  Most long candidates are not, and
        # the full check builds n keys of 2n characters, so a cheap
        # necessary test screens first: a later run R L^k longer than
        # the first run of L exceeds the word in the signed order (both
        # start R L^m, whose sign is -1, and then L < R is flipped).
        rng = random.Random(1)
        while True:
            bits = format(rng.getrandbits(n - 2), f"0{n - 2}b")
            text = "R" + bits.translate(str.maketrans("01", "LR")) + "C"
            runs = text[1:-1].split("R")
            if max(map(len, runs)) == len(runs[0]):
                word = parse_word(text)
                if is_admissible(word):
                    break
        rep = k_groups(word)
        assert rep.K0 == AbelianGroup.cyclic(closed_form_a(word))
        assert rep.K1 == (Z if rep.a_closed_form == 0 else TRIVIAL)


class TestBowenFranks:
    def test_period_six_matrix(self):
        A = [
            [0, 1, 1, 0, 0],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1],
            [0, 0, 1, 1, 0],
            [1, 1, 0, 0, 0],
        ]
        assert bowen_franks(A) == AbelianGroup(0, (2,))

    def test_identity(self):
        assert bowen_franks(eye_int(2)) == AbelianGroup(2, ())

    def test_swap(self):
        assert bowen_franks([[0, 1], [1, 0]]) == Z

    def test_input_validation(self):
        with pytest.raises(ValueError, match="square"):
            cokernel([[0, 1, 1], [1, 0, 0]])
        with pytest.raises(ValueError, match="non-integer"):
            bowen_franks([[0, 0.5], [1, 0]])


class TestRenormalization:
    """How vanishing torsion order relates to reducibility.

    Products of shorter words are always reducible, and among a = 0 words
    the reducible ones are exactly the products.  But a = 0 alone does not
    force reducibility, and products do not force a = 0: both implications
    fail on concrete small words, pinned below.
    """

    def test_star_fixture(self):
        a = star(parse_word("RLC"), parse_word("RC"))
        assert str(a) == "RLLRLC"
        b = star(parse_word("RC"), parse_word("RLC"))
        assert str(b) == "RLRRRC"

    @pytest.mark.parametrize("text", sorted(star_words(10)))
    def test_products_admissible(self, text):
        assert is_admissible(parse_word(text))

    @pytest.mark.parametrize("text", sorted(star_words(12)))
    def test_products_reducible(self, text):
        A = transition_matrix(build_orbit(parse_word(text)))
        assert not is_irreducible(A)

    def test_zero_a_reducible_words_are_exactly_products(self):
        stars = star_words(12)
        for word in all_words(12):
            rep = k_groups(word)
            if rep.a_closed_form != 0:
                continue
            assert (not rep.irreducible) == (str(word) in stars)

    def test_zero_a_does_not_force_reducible(self):
        # Smallest witnesses: the period-2 word and two period-8 words.
        for text in ("RC", "RLLRLRRC", "RLLRRRLC"):
            rep = k_groups(parse_word(text))
            assert rep.a_closed_form == 0
            assert rep.irreducible

    def test_product_does_not_force_zero_a(self):
        w = star(parse_word("RLC"), parse_word("RLC"))
        assert str(w) == "RLLRLRRLC"
        rep = k_groups(w)
        assert rep.a_closed_form == 1
        assert rep.K0.is_trivial
        assert not rep.irreducible

    def test_zero_a_census(self):
        # 63 words with a = 0 up to period 12: 21 reducible, 42 not.
        reducible = irreducible = 0
        for word in all_words(12):
            rep = k_groups(word)
            if rep.a_closed_form != 0:
                continue
            if rep.irreducible:
                irreducible += 1
            else:
                reducible += 1
        assert reducible == 21
        assert irreducible == 42
