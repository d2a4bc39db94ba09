import math
import random

import pytest

from kneadck.cli import main
from kneadck.dynamics import (
    C_TOL,
    QuadMap,
    SolverError,
    find_superstable_mu,
    numeric_itinerary,
)
from kneadck.symbolic import (
    DomainError,
    KneadingWord,
    Symbol,
    enumerate_admissible,
    is_admissible,
    parse_word,
)

from reference import (
    Order,
    critical_orbit_key,
    mt_compare,
    reference_superstable_mu,
    rotation,
)

GOLDEN_MU = 1.0 + math.sqrt(5.0)  # superstable parameter of the period-2 word

#: ``find-mu`` stderr on the words double precision cannot resolve, with
#: the ``mu`` and residual at which the bisection stops.
REFUSALS = {
    "RLLLLLLLLLLLLC": "error: double precision cannot resolve RLLLLLLLLLLLLC: "
    "mu = 3.9999999632328542 leaves residual 1.6e-09\n",
    "RLLLLRRRRRLRLLRLRRLC": "error: double precision cannot resolve RLLLLRRRRRLRLLRLRRLC: "
    "mu = 3.9956029965960136 leaves residual 6.76e-10\n",
    "RLLLLLLLLRLRLRLLLRC": "error: double precision cannot resolve RLLLLLLLLRLRLRLLLRC: "
    "mu = 3.999975322746347 leaves residual 1.11e-10\n",
}


def all_words(max_n):
    out = []
    for n in range(2, max_n + 1):
        out.extend(enumerate_admissible(n))
    return out


def seeded_words(n, count=8):
    """The admissible words of period n that
    ``TestCoverage.test_long_words_resolve_or_refuse`` draws."""
    rng = random.Random(1)
    out = []
    while len(out) < count:
        middle = tuple(rng.choice((Symbol.L, Symbol.R)) for _ in range(n - 2))
        word = KneadingWord((Symbol.R, *middle, Symbol.C))
        if is_admissible(word):
            out.append(word)
    return out


def solve(solver, word):
    """The solver's result as exact text: hex floats and the itinerary, or
    the refusal message."""
    try:
        res = solver(word)
    except SolverError as e:
        return str(e)
    return res.mu.hex(), res.residual.hex(), res.itinerary


class TestQuadMap:
    def test_step(self):
        m = QuadMap(4.0)
        assert m.c == 0.5
        assert m.step(0.5) == 1.0
        assert m.step(1.0) == 0.0
        assert m.step(0.0) == 0.0

    def test_mu_range(self):
        QuadMap(0.0)
        QuadMap(4.0)
        with pytest.raises(DomainError):
            QuadMap(-0.1)
        with pytest.raises(DomainError):
            QuadMap(4.0000001)

class TestItinerary:
    def test_full_map_critical_orbit(self):
        # c -> 1 -> 0 -> 0 under mu = 4.
        seq = numeric_itinerary(QuadMap(4.0), 0.5, 4)
        assert seq == (Symbol.C, Symbol.R, Symbol.L, Symbol.L)

    def test_period_two_orbit(self):
        m = QuadMap(GOLDEN_MU)
        seq = numeric_itinerary(m, m.step(m.c), 8)
        assert seq == rotation(parse_word("RC"), 0, 8)

    def test_period_three_orbit(self):
        m = QuadMap(3.8318740553)
        seq = numeric_itinerary(m, m.step(m.c), 6)
        assert seq == rotation(parse_word("RLC"), 0, 6)

    def test_tolerance_band(self):
        m = QuadMap(4.0)
        assert numeric_itinerary(m, 0.5 + 1e-12, 1, tol=1e-9) == (Symbol.C,)
        assert numeric_itinerary(m, 0.5 + 1e-6, 1, tol=1e-9) == (Symbol.R,)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(DomainError):
            numeric_itinerary(QuadMap(3.2), 0.5, 4, tol=tol)

    @pytest.mark.parametrize("x0", [-1e-9, 1.0 + 1e-9, 2.0, float("nan")])
    def test_rejects_start_outside_the_interval(self, x0):
        with pytest.raises(DomainError, match=r"^starting point must lie in \[0, 1\]$"):
            numeric_itinerary(QuadMap(3.5), x0, 4)

    @pytest.mark.parametrize("depth", [0, -3])
    def test_rejects_depth_below_one(self, depth):
        with pytest.raises(DomainError, match="^depth must be positive$"):
            numeric_itinerary(QuadMap(3.5), 0.5, depth)

    def test_shift_law(self):
        # Away from the turning point the itinerary of f(x) is the shifted
        # itinerary of x.
        rng = random.Random(41)
        m = QuadMap(3.97)
        checked = 0
        while checked < 50:
            x = rng.uniform(0.0, 1.0)
            seq = numeric_itinerary(m, x, 13, tol=1e-12)
            if Symbol.C in seq:
                continue
            assert numeric_itinerary(m, m.step(x), 12, tol=1e-12) == seq[1:]
            checked += 1


class TestSuperstableSolver:
    def test_period_two(self):
        word = parse_word("RC")
        res = find_superstable_mu(word)
        assert abs(res.mu - GOLDEN_MU) < 1e-9
        assert res.residual < 1e-9
        assert res.itinerary == rotation(word, 0, 4)

    def test_period_three(self):
        word = parse_word("RLC")
        res = find_superstable_mu(word)
        assert abs(res.mu - 3.8318740553) < 1e-8
        assert res.residual < 1e-9
        assert res.itinerary == rotation(word, 0, 6)

    def test_period_six(self):
        res = find_superstable_mu(parse_word("RLLRRC"))
        assert abs(res.mu - 3.937536445) < 1e-8
        assert res.residual < 1e-9

    @pytest.mark.parametrize("word", all_words(13), ids=str)
    def test_sweep_realizes_every_word(self, word):
        res = find_superstable_mu(word)
        assert res.itinerary == rotation(word, 0, 2 * word.n)
        assert res.residual < 1e-9
        m = QuadMap(res.mu)
        depth = 2 * word.n
        itin = numeric_itinerary(m, m.step(m.c), depth, tol=C_TOL)
        assert itin == rotation(word, 0, depth)

    def test_rejects_inadmissible(self):
        with pytest.raises(SolverError):
            find_superstable_mu(parse_word("LRC"))

    def test_rejects_fixed_point(self):
        with pytest.raises(DomainError):
            find_superstable_mu(parse_word("C"))

    def test_matches_reference_bisection(self):
        # The early-stopping bisection against the whole-orbit key of the
        # reference: the same mu, residual and itinerary bit for bit, or the
        # same refusal, on every word with n <= 14, the seeded longer words
        # and the refused words.
        corpus = all_words(14)
        for n in range(15, 21):
            corpus.extend(seeded_words(n))
        corpus.extend(map(parse_word, REFUSALS))
        for word in corpus:
            expected = solve(reference_superstable_mu, word)
            assert solve(find_superstable_mu, word) == expected, str(word)

    def test_rejects_bad_controls(self):
        # The bisection takes the word alone: no tolerance, no grid step.
        w = parse_word("RLC")
        for control in ({"tol": 1e-12}, {"grid_step": 1e-4}):
            with pytest.raises(TypeError):
                find_superstable_mu(w, **control)


class TestCoverage:
    def test_precision_limit_exits_4(self, capsys):
        # The parameter of RL^12C lies within 4e-8 of 4, where the critical
        # orbit cannot be resolved in double precision.
        word = "R" + "L" * 12 + "C"
        assert main(["find-mu", word]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == REFUSALS[word]

    @pytest.mark.parametrize("word", ["RLLLLRRRRRLRLLRLRRLC", "RLLLLLLLLRLRLRLLLRC"])
    def test_long_refusals_exit_4(self, word, capsys):
        assert main(["find-mu", word]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == REFUSALS[word]

    @pytest.mark.parametrize("n", range(15, 21))
    def test_long_words_resolve_or_refuse(self, n):
        # Either a confirmed parameter or SolverError; never an unconfirmed mu.
        rng = random.Random(1)
        tried = 0
        while tried < 8:
            middle = tuple(rng.choice((Symbol.L, Symbol.R)) for _ in range(n - 2))
            word = KneadingWord((Symbol.R, *middle, Symbol.C))
            if not is_admissible(word):
                continue
            tried += 1
            try:
                res = find_superstable_mu(word)
            except SolverError as e:
                assert "double precision cannot resolve" in str(e)
                continue
            assert res.itinerary == rotation(word, 0, 2 * n), str(word)
            assert res.residual < 1e-9, str(word)
            m = QuadMap(res.mu)
            itin = numeric_itinerary(m, m.step(m.c), 2 * n, tol=C_TOL)
            assert itin == rotation(word, 0, 2 * n), str(word)


class TestOrderRealization:
    def test_symbolic_order_matches_spatial_order(self):
        # For points with C-free itineraries, the signed symbolic order
        # must agree with the numeric order on the interval.
        rng = random.Random(43)
        m = QuadMap(3.99)
        depth = 20
        checked = 0
        while checked < 200:
            x, y = rng.uniform(0, 1), rng.uniform(0, 1)
            ix = numeric_itinerary(m, x, depth, tol=1e-12)
            iy = numeric_itinerary(m, y, depth, tol=1e-12)
            if Symbol.C in ix or Symbol.C in iy or ix == iy:
                continue
            cmp = mt_compare(ix, iy, depth)
            if cmp is Order.EQ:
                continue
            assert (cmp is Order.LT) == (x < y), (x, y, ix, iy)
            checked += 1

    def test_kneading_key_is_monotone_in_mu(self):
        # The premise of the superstable bisection: the key of f(c)'s
        # itinerary never decreases as mu grows.
        rng = random.Random(44)
        for _ in range(500):
            mu1, mu2 = sorted((rng.uniform(2.0, 3.99), rng.uniform(2.0, 3.99)))
            assert critical_orbit_key(mu1, 10)[0] <= critical_orbit_key(mu2, 10)[0], (mu1, mu2)
