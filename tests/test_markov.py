import dataclasses
import functools
import itertools
import random
import re
import warnings

import numpy as np
import pytest

from kneadck import markov, symbolic
from kneadck.ktheory import _rows_of_i_minus_theta
from kneadck.markov import (
    ConstructionError,
    OrbitModel,
    _run_form,
    build_matrices,
    build_orbit,
    transition_intervals,
)
from kneadck.symbolic import (
    DomainError,
    KneadingWord,
    Symbol,
    enumerate_admissible,
    is_admissible,
    order_key,
    parse_word,
    shift_keys,
)

from reference import (
    Order,
    charpoly,
    coordinate_by_int,
    covering_matrix,
    dense,
    determinant,
    family_by_products,
    mt_compare,
    rotation,
    rows_of,
    smith_of,
)
from test_ktheory import random_word, with_symbol


def pipeline(text):
    m = build_orbit(parse_word(text))
    return m, build_matrices(m)


def all_words(max_n):
    out = []
    for n in range(2, max_n + 1):
        out.extend(enumerate_admissible(n))
    return out


def random_words(n, count, seed):
    """Admissible words of period n by rejection sampling: R, uniform L/R, C."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        w = KneadingWord(
            (Symbol.R,)
            + tuple(rng.choice((Symbol.L, Symbol.R)) for _ in range(n - 2))
            + (Symbol.C,)
        )
        if is_admissible(w):
            out.append(w)
    return out


def every_word(n):
    """All words {L, R}^(n-1) C, admissible or not."""
    return [
        KneadingWord(tail + (Symbol.C,))
        for tail in itertools.product((Symbol.L, Symbol.R), repeat=n - 1)
    ]


def pairwise_rho(w):
    """Spatial order of the orbit points by a pairwise mt_compare sort."""
    n = w.n
    points = [rotation(w, i, 2 * n) for i in range(n)]

    def cmp(i, j):
        return int(mt_compare(points[i - 1], points[j - 1], 2 * n))

    return tuple(sorted(range(1, n + 1), key=functools.cmp_to_key(cmp)))


class TestPeriodSixFixture:
    """Every matrix of the period-6 word RLLRRC, frozen entry by entry."""

    def setup_method(self):
        self.m, self.t = pipeline("RLLRRC")

    def test_rho(self):
        assert self.m.rho == (2, 3, 6, 4, 5, 1)
        assert (self.m.nL, self.m.n - 1 - self.m.nL) == (2, 3)

    def test_omega(self):
        expected = [
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0, 0],
        ]
        assert np.array_equal(self.t.omega, expected)

    def test_pi(self):
        expected = [
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [1, 0, 0, 0, 0, 0],
        ]
        assert np.array_equal(self.t.pi, expected)

    def test_phi(self):
        expected = [
            [-1, 1, 0, 0, 0, 0],
            [0, -1, 1, 0, 0, 0],
            [0, 0, -1, 1, 0, 0],
            [0, 0, 0, -1, 1, 0],
            [0, 0, 0, 0, -1, 1],
        ]
        assert np.array_equal(self.t.phi, expected)

    def test_theta(self):
        expected = [
            [1, -1, 0, 0, 0, 0],
            [-1, 0, 1, 0, 0, 0],
            [-1, 0, 0, 1, 0, 0],
            [1, 0, 0, 0, -1, 0],
            [1, 0, 0, 0, 0, -1],
            [0, 0, 0, 0, 0, 0],
        ]
        assert np.array_equal(self.t.theta, expected)

    def test_transition_matrix(self):
        expected = [
            [0, 1, 1, 0, 0],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1],
            [0, 0, 1, 1, 0],
            [1, 1, 0, 0, 0],
        ]
        assert np.array_equal(covering_matrix(self.m), expected)
        assert np.array_equal(self.t.A, expected)


class TestSmallFixtures:
    def test_rlc(self):
        m, t = pipeline("RLC")
        assert m.rho == (2, 3, 1)
        assert (m.nL, m.n - 1 - m.nL) == (1, 1)
        assert np.array_equal(t.A, [[0, 1], [1, 1]])
        assert np.array_equal(
            t.theta, [[1, -1, 0], [-1, 0, 1], [0, 0, 0]]
        )
        assert np.array_equal(t.eta, [[0, -1, 1], [1, 0, -1]])
        assert np.array_equal(t.alpha, [[0, 1], [-1, -1]])
        assert np.array_equal(t.beta, [[1, 0], [0, -1]])

    def test_rc(self):
        m, t = pipeline("RC")
        assert m.rho == (2, 1)
        assert (m.nL, m.n - 1 - m.nL) == (0, 1)
        assert np.array_equal(t.A, [[1]])
        assert np.array_equal(t.alpha, [[-1]])
        assert np.array_equal(t.beta, [[-1]])
        assert np.array_equal(covering_matrix(m), [[1]])


class TestOrbitModel:
    @pytest.mark.parametrize("word", all_words(8), ids=str)
    def test_invariants(self, word):
        m = build_orbit(word)
        n = word.n
        depth = 2 * n
        # Orbit point i is the word's sequence shifted i - 1 times, so the
        # next point's itinerary is this one's shifted once.
        points = [rotation(word, i, depth) for i in range(n)]
        for i in range(n):
            assert points[(i + 1) % n][:-1] == points[i][1:]
        assert sorted(m.rho) == list(range(1, n + 1))
        for k in range(n - 1):
            lhs = points[m.rho[k] - 1]
            rhs = points[m.rho[k + 1] - 1]
            assert mt_compare(lhs, rhs, depth) is Order.LT
        assert m.nL == sum(1 for s in word.symbols[:-1] if s is Symbol.L)
        assert m.n - 1 - m.nL == sum(1 for s in word.symbols[:-1] if s is Symbol.R)
        # The turning point splits the left intervals from the right ones.
        assert m.rho[m.nL] == n

    @pytest.mark.parametrize("n", range(2, 11))
    def test_rho_is_the_pairwise_sort(self, n):
        for w in every_word(n):
            assert build_orbit(w).rho == pairwise_rho(w), str(w)

    @pytest.mark.parametrize("word", random_words(64, 3, 7) + random_words(128, 2, 7), ids=str)
    def test_rho_is_the_pairwise_sort_long(self, word):
        assert build_orbit(word).rho == pairwise_rho(word)

    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_keys_ending_at_c_order_as_padded_keys_long(self, n):
        # Two seeded words R{L,R}^(n-2)C, admissible or not, and one
        # admissible word, against the keys to depth 2n of their shifts.
        rng = random.Random(n)
        ws = [
            KneadingWord(
                (Symbol.R,)
                + tuple(rng.choice((Symbol.L, Symbol.R)) for _ in range(n - 2))
                + (Symbol.C,)
            )
            for _ in range(2)
        ] + [random_word(n)]
        for w in ws:
            # Shift i of (w)^inf to depth 2n, as rotation(w, i, 2 * n) spells it.
            periodic = w.symbols * 3
            padded = [order_key(periodic[i : i + 2 * n]) for i in range(n)]
            m = build_orbit(w)
            assert m.rho == tuple(sorted(range(1, n + 1), key=lambda i: padded[i - 1]))
            assert is_admissible(w) == m.admissible == (max(padded) == padded[0])
        if n == 256:
            assert m.rho == pairwise_rho(w)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_admissible_flag(self, n):
        for w in every_word(n):
            assert build_orbit(w).admissible == is_admissible(w), str(w)

    def test_admissible_word_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build_orbit(parse_word("RLLRRC")).admissible

    def test_rejects_fixed_point(self):
        with pytest.raises(DomainError):
            build_orbit(parse_word("C"))

    def test_tied_keys_are_refused_at_the_first_tie(self, monkeypatch):
        # RLLRRC sorts as 2 < 3 < 6 < 4 < 5 < 1.  Giving point 3 the key of
        # point 2 and point 1 the key of point 5 ties two pairs; the stable
        # sort puts the lower orbit index first, and the refusal names the
        # tie that comes first in spatial order.
        real = list(shift_keys(parse_word("RLLRRC")))
        keys = real.copy()
        keys[2], keys[0] = real[1], real[4]
        monkeypatch.setattr(markov, "shift_keys", lambda w: iter(keys))
        with pytest.raises(ConstructionError) as info:
            build_orbit(parse_word("RLLRRC"))
        assert str(info.value) == "RLLRRC: orbit points 2 and 3 do not compare strictly"
        # With the first tie undone, the refusal names the second one.
        keys[2] = real[2]
        with pytest.raises(ConstructionError) as info:
            build_orbit(parse_word("RLLRRC"))
        assert str(info.value) == "RLLRRC: orbit points 1 and 5 do not compare strictly"

    def test_turning_point_off_its_rank_is_refused(self, monkeypatch):
        # RLLRRC sorts as 2 < 3 < 6 < 4 < 5 < 1 with nL = 2.  A distinct key
        # below the C's "1" for point 4 moves it to rank 2, so the turning
        # point 6 lands at rank 4 instead of nL + 1 = 3.
        keys = list(shift_keys(parse_word("RLLRRC")))
        keys[3] = "01"
        monkeypatch.setattr(markov, "shift_keys", lambda w: iter(keys))
        with pytest.raises(ConstructionError) as info:
            build_orbit(parse_word("RLLRRC"))
        assert str(info.value) == "RLLRRC: turning point is not at spatial rank nL+1"

    def test_inadmissible_constructs_without_a_warning(self):
        # Flagged by ``admissible`` alone: building the orbit warns nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = build_orbit(parse_word("LLC"))
        assert m.admissible is False
        assert len(transition_intervals(m)) == 2


def assert_identities(word):
    """The identities of the matrix family of one word."""
    n = word.n
    m = build_orbit(word)
    t = dense(build_matrices(m))

    # Intertwinings between the two chain-level descriptions.
    assert np.array_equal(t.A @ t.eta, t.eta @ t.theta)
    assert np.array_equal(t.beta @ t.eta, t.eta @ t.gamma)
    assert np.array_equal(t.alpha @ t.eta, t.eta @ t.omega)

    # Factorizations.
    assert np.array_equal(t.theta, t.gamma @ t.omega)
    assert np.array_equal(t.A, t.beta @ t.alpha)
    assert np.array_equal(t.eta.T, t.Y @ np.eye(n, n - 1, dtype=np.int64) @ t.X)

    assert abs(determinant(t.X)) == 1
    assert abs(determinant(t.Y)) == 1
    assert set(smith_of(t.X)) == {1}
    assert set(smith_of(t.Y)) == {1}

    # Each row of eta is a difference of two permutation rows, so
    # every row sums to zero.
    assert all(int(s) == 0 for s in t.eta.sum(axis=1))

    # thetaprime is Aprime extended by a zero row and a cyclic column.
    assert all(int(e) == 0 for e in t.thetaprime[n - 1, :])
    assert np.array_equal(t.thetaprime[: n - 1, : n - 1], t.Aprime)


class TestMatrixRelations:
    """Structural identities that must hold for every admissible word."""

    @pytest.mark.parametrize("word", all_words(10), ids=str)
    def test_identities(self, word):
        assert_identities(word)

    # build_matrices raises on the identities it checks for any word, so
    # none may fail on a forced, inadmissible one either.
    @pytest.mark.parametrize("n", range(2, 10))
    def test_identities_on_forced_words(self, n):
        for word in every_word(n):
            assert_identities(word)

    @pytest.mark.parametrize("word", all_words(10), ids=str)
    def test_transition_matrix_agrees(self, word):
        m = build_orbit(word)
        assert np.array_equal(covering_matrix(m), build_matrices(m).A)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_transition_intervals_cover_every_column(self, n):
        for w in every_word(n):
            runs = transition_intervals(build_orbit(w))
            assert len(runs) == n - 1, str(w)
            assert all(0 <= lo < hi <= n - 1 for lo, hi in runs), str(w)
            covered = set().union(*(range(lo, hi) for lo, hi in runs))
            assert covered == set(range(n - 1)), str(w)

    def test_transition_intervals_are_the_rows_of_A(self):
        # A from the eta/alpha route, independent of the runs.
        words = all_words(12)
        assert len(words) == 379
        for w in words:
            m = build_orbit(w)
            A = dense(build_matrices(m)).A
            for row, (lo, hi) in zip(A, transition_intervals(m)):
                assert np.flatnonzero(row).tolist() == list(range(lo, hi)), str(w)
                assert set(row[lo:hi].tolist()) == {1}, str(w)

    @pytest.mark.parametrize("word", all_words(10), ids=str)
    def test_transition_matrix_shape(self, word):
        m = build_orbit(word)
        A = covering_matrix(m)
        n = word.n
        assert A.shape == (n - 1, n - 1)
        assert all(int(e) in (0, 1) for e in A.ravel())
        assert all(any(int(e) for e in A[i, :]) for i in range(n - 1))
        assert all(any(int(e) for e in A[:, j]) for j in range(n - 1))

    @pytest.mark.parametrize("word", all_words(10), ids=str)
    def test_not_permutation_beyond_period_two(self, word):
        if word.n == 2:
            pytest.skip("single-interval partition forces A = [[1]]")
        A = covering_matrix(build_orbit(word))
        row_sums = [int(s) for s in A.sum(axis=1)]
        assert any(s != 1 for s in row_sums)


def kneading_determinant(w):
    """``[1, theta_1, ..., theta_(n-1)]``, the coefficients of
    ``sum theta_k t^k`` with ``theta_k = e_1 ... e_k``."""
    return [1, *coordinate_by_int(w.symbols, w.n - 1)]


class TestKneadingDeterminant:
    """``det(I - tA) = sum theta_k t^k`` (Milnor and Thurston, LNM 1342).

    ``verify`` scores no check for it: ``block_form`` makes ``I - t theta``
    block triangular over ``I - tA`` for the ``A`` of ``build_matrices``,
    and ``construction_equivalence`` holds exactly where the identity holds
    on the covering ``A``, the admissible words.
    """

    def test_charpoly_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(5)
        dense = [
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            for n in (rng.randint(0, 6) for _ in range(20))
        ]
        family = []
        for text in ("RC", "RLC", "RLLRRC", "RLRRC", "RRLLRLC", "RLLLRLRRLRC"):
            m, tm = pipeline(text)
            family += [covering_matrix(m), tm.theta]
        for M in dense + family:
            expected = sympy.Matrix(len(M), len(M), [int(e) for row in M for e in row])
            coeffs = [int(c) for c in expected.charpoly(t).all_coeffs()]
            assert charpoly(M) == coeffs, M

    def test_covering_matrix_of_admissible_words(self):
        for w in all_words(12):
            A = covering_matrix(build_orbit(w))
            assert charpoly(A) == kneading_determinant(w), w

    def test_theta_of_every_word(self):
        # det(theta) = 0, since the last row of gamma is zero.
        for n in range(2, 10):
            for w in every_word(n):
                theta = build_matrices(build_orbit(w)).theta
                assert charpoly(theta) == kneading_determinant(w) + [0], w

    def test_both_fail_on_inadmissible_words(self):
        for n in range(2, 10):
            for w in every_word(n):
                m = build_orbit(w)
                if m.admissible:
                    continue
                A = covering_matrix(m)
                assert charpoly(A) != kneading_determinant(w), w
                assert not np.array_equal(A, build_matrices(m).A), w


class TestIntegerRoute:
    """The closed-form inverses behind alpha, checked by exact products."""

    @pytest.mark.parametrize(
        "word",
        all_words(12) + random_words(16, 3, 1) + random_words(32, 3, 2) + random_words(64, 2, 3),
        ids=str,
    )
    def test_inverses(self, word):
        n = word.n
        t = dense(build_matrices(build_orbit(word)))
        assert set(smith_of(t.X)) == {1}
        assert set(smith_of(t.Y)) == {1}
        # eta has an integer right inverse exactly when its Smith diagonal
        # is all ones.
        assert smith_of(t.eta) == (1,) * (n - 1)
        assert np.array_equal(t.alpha @ t.eta, t.eta @ t.omega)

    @pytest.mark.parametrize("word", all_words(10), ids=str)
    def test_alpha_matches_rational_oracle(self, word):
        # alpha is the unique solution of alpha eta = eta omega; sympy
        # solves its normal equations (eta eta^T) alpha^T = (eta omega eta^T)^T
        # over the rationals, independently of the integer route.
        sympy = pytest.importorskip("sympy")
        t = dense(build_matrices(build_orbit(word)))
        eta = sympy.Matrix(t.eta.tolist())
        omega = sympy.Matrix(t.omega.tolist())
        expected = (eta * eta.T).LUsolve((eta * omega * eta.T).T).T
        assert sympy.Matrix(t.alpha.tolist()) == expected

    def test_turning_point_off_its_rank_is_refused(self):
        # RLLRRC puts the turning point (orbit point 6) at rank nL + 1 = 3;
        # moving it to rank 2 leaves a consistent-looking model whose
        # closed-form inverse of X cannot hold.
        m = build_orbit(parse_word("RLLRRC"))
        assert m.rho == (2, 3, 6, 4, 5, 1)
        bad = OrbitModel(word=m.word, rho=(2, 6, 3, 4, 5, 1), nL=m.nL)
        with pytest.raises(ConstructionError):
            build_matrices(bad)


class TestFamilyStack:
    """The run form behind ``build_matrices`` and ``verify``: each slice
    that ``build_matrices`` spells out reads as the form's runs, ranks and
    symbol values."""

    @staticmethod
    def assert_slices_match(words):
        for w in words:
            m = build_orbit(w)
            f, t = _run_form(m), dense(build_matrices(m))
            n, tag = w.n, str(w)
            assert f.rank == [r - 1 for r in m.rho] and f.nL == m.nL, tag
            assert [f.rank[j] for j in f.pos] == list(range(n)), tag
            assert [(k, f.rank[k + 1], f.rank[k]) for k in range(n - 1)] == [
                (k, row.tolist().index(1), row.tolist().index(-1)) for k, row in enumerate(t.eta)
            ], tag
            assert f.eps == t.gamma.diagonal().tolist() == [s.value for s in w.symbols], tag
            for row, (s, lo, hi) in zip(t.A.tolist(), f.A):
                assert lo < hi and row == [s if lo <= j < hi else 0 for j in range(n - 1)], tag
            assert _rows_of_i_minus_theta(f.eps) == rows_of(np.eye(n, dtype=np.int64) - t.theta)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_slices_of_forced_words_match_build_matrices(self, n):
        self.assert_slices_match(every_word(n))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_slices_of_admissible_words_match_build_matrices(self, n):
        self.assert_slices_match(enumerate_admissible(n))

    def test_refusal_names_the_first_failing_word(self):
        # The off-rank RLLRRC model of test_turning_point_off_its_rank_is_refused,
        # third among sound period-6 models: each word is decided on its
        # own, and the refusal names the one that fails.
        m = build_orbit(parse_word("RLLRRC"))
        bad = OrbitModel(word=m.word, rho=(2, 6, 3, 4, 5, 1), nL=m.nL)
        good = [build_orbit(w) for w in enumerate_admissible(6) if str(w) != "RLLRRC"]
        assert len(good) >= 3
        message = "^RLLRRC: top block of eta-transpose fails X Xinv = I$"
        built = []
        with pytest.raises(ConstructionError, match=message):
            for model in [good[0], good[1], bad, *good[2:]]:
                built.append(_run_form(model))
        assert len(built) == 2
        with pytest.raises(ConstructionError, match=message):
            build_matrices(bad)


class TestIndexMaps:
    """The family spelled out from the run form equals the one built by
    dense products of the factors, field by field, with one dtype and
    shape, one word at a time."""

    @staticmethod
    def assert_stacks_match(words):
        models = [build_orbit(w) for w in words]
        products = family_by_products(models)
        for b, m in enumerate(models):
            maps = dense(build_matrices(m))
            for name, M in vars(products).items():
                S = getattr(maps, name)
                assert S.dtype == M.dtype == np.int64, name
                assert S.shape == M.shape[1:], name
                assert np.array_equal(S, M[b]), (name, str(m.word))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_admissible_words_in_stacks_of_32(self, n):
        words = enumerate_admissible(n)
        for start in range(0, len(words), 32):
            self.assert_stacks_match(words[start : start + 32])

    @pytest.mark.parametrize("n", range(2, 10))
    def test_forced_words(self, n):
        self.assert_stacks_match(every_word(n))

    @pytest.mark.parametrize("n,count,seed", [(64, 4, 11), (128, 3, 12), (256, 2, 13)])
    def test_random_words(self, n, count, seed):
        self.assert_stacks_match(random_words(n, count, seed))


class TestInt64Family:
    """The family is rows of Python ints in {-1, 0, 1}, so it fits the int64
    arrays of ``reference.dense``; the range is decided per word by the
    range row of the run form's table."""

    RANGE = re.escape("matrix family has an entry outside {-1, 0, 1}")

    @pytest.mark.parametrize("n", range(2, 11))
    def test_every_matrix_is_rows_of_unit_ints(self, n):
        # Every word {L, R}^(n-1) C, inadmissible (forced) ones included,
        # against the shapes of the TheoremMatrices docstring.  Lists, unlike
        # arrays, can be ragged, so every row is measured.
        square, wide, small = (n, n), (n - 1, n), (n - 1, n - 1)
        shapes = dict.fromkeys(["theta", "omega", "pi", "gamma", "Y", "thetaprime"], square)
        shapes |= dict.fromkeys(["phi", "eta"], wide)
        shapes |= dict.fromkeys(["A", "alpha", "beta", "X", "Aprime"], small)
        for w in every_word(n):
            t = build_matrices(build_orbit(w))
            for name in (f.name for f in dataclasses.fields(t)):
                M, (r, c) = getattr(t, name), shapes[name]
                assert type(M) is list and len(M) == r, (str(w), name)
                assert all(type(row) is list and len(row) == c for row in M), (str(w), name)
                entries = {(type(e), e) for row in M for e in row}
                assert entries <= {(int, -1), (int, 0), (int, 1)}, (str(w), name)
            # No two rows are one list, so writing into a field changes no other.
            every_row = [row for M in vars(t).values() for row in M]
            assert len(set(map(id, every_row))) == len(every_row), str(w)

    @staticmethod
    def with_symbol(monkeypatch, m, k, value):
        """``test_ktheory.with_symbol``, with a value no symbol has spelled X."""
        if value not in (-1, 0, 1):
            monkeypatch.setitem(symbolic._LETTER, value, "X")
        return with_symbol(m, k, value)

    def test_guard_refuses_an_entry_beyond_the_bound(self, monkeypatch):
        # The bad value sits in the middle word of three, which the refusal
        # names with the range row; the other two are sound.
        models = [build_orbit(w) for w in enumerate_admissible(6)[:3]]
        for m in models:
            _run_form(m)
        for bad in (2, -2, 2**40, -(2**40)):
            model = self.with_symbol(monkeypatch, models[1], 2, bad)
            assert str(model.word)[2] == "X"
            with pytest.raises(ConstructionError, match=f"^{model.word}: {self.RANGE}$"):
                _run_form(model)
            with pytest.raises(ConstructionError, match=f"^{model.word}: {self.RANGE}$"):
                build_matrices(model)

    def test_rows_are_decided_in_table_order(self, monkeypatch):
        # The off-rank RLLRRC model of test_turning_point_off_its_rank_is_refused
        # fails X Xinv = I and nothing before it.
        m = build_orbit(parse_word("RLLRRC"))
        off_rank = OrbitModel(word=m.word, rho=(2, 6, 3, 4, 5, 1), nL=m.nL)
        with pytest.raises(ConstructionError, match="^RLLRRC: top block of eta-transpose"):
            _run_form(off_rank)
        # A word that fails both is named with the range row.
        both = self.with_symbol(monkeypatch, off_rank, 1, 2)
        with pytest.raises(ConstructionError, match=f"^RXLRRC: {self.RANGE}$"):
            _run_form(both)
        # A final symbol other than C comes before the range.
        final = self.with_symbol(monkeypatch, both, 5, Symbol.R)
        with pytest.raises(ConstructionError, match="^RXLRRR: final symbol value must be 0$"):
            _run_form(final)
