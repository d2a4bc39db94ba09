import functools
import itertools
import random
import warnings

import numpy as np
import pytest

from kneadck.intlinalg import as_int_matrix, eye_int
from kneadck.markov import (
    ConstructionError,
    OrbitModel,
    build_matrices,
    build_orbit,
    transition_matrix,
)
from kneadck.symbolic import (
    DomainError,
    KneadingWord,
    Symbol,
    enumerate_admissible,
    is_admissible,
    parse_word,
)

from reference import Order, determinant, mt_compare


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
    points = [w.sequence().shift(i) for i in range(n)]

    def cmp(i, j):
        return int(mt_compare(points[i - 1], points[j - 1], 2 * n))

    return tuple(sorted(range(1, n + 1), key=functools.cmp_to_key(cmp)))


class TestPeriodSixFixture:
    """Every matrix of the period-6 word RLLRRC, frozen entry by entry."""

    def setup_method(self):
        self.m, self.t = pipeline("RLLRRC")

    def test_rho(self):
        assert self.m.rho == (2, 3, 6, 4, 5, 1)
        assert (self.m.nL, self.m.nR) == (2, 3)

    def test_omega(self):
        expected = [
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0, 0],
        ]
        assert np.array_equal(self.t.omega, as_int_matrix(expected))

    def test_pi(self):
        expected = [
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [1, 0, 0, 0, 0, 0],
        ]
        assert np.array_equal(self.t.pi, as_int_matrix(expected))

    def test_phi(self):
        expected = [
            [-1, 1, 0, 0, 0, 0],
            [0, -1, 1, 0, 0, 0],
            [0, 0, -1, 1, 0, 0],
            [0, 0, 0, -1, 1, 0],
            [0, 0, 0, 0, -1, 1],
        ]
        assert np.array_equal(self.t.phi, as_int_matrix(expected))

    def test_theta(self):
        expected = [
            [1, -1, 0, 0, 0, 0],
            [-1, 0, 1, 0, 0, 0],
            [-1, 0, 0, 1, 0, 0],
            [1, 0, 0, 0, -1, 0],
            [1, 0, 0, 0, 0, -1],
            [0, 0, 0, 0, 0, 0],
        ]
        assert np.array_equal(self.t.theta, as_int_matrix(expected))

    def test_transition_matrix(self):
        expected = [
            [0, 1, 1, 0, 0],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1],
            [0, 0, 1, 1, 0],
            [1, 1, 0, 0, 0],
        ]
        assert np.array_equal(transition_matrix(self.m), as_int_matrix(expected))
        assert np.array_equal(self.t.A, as_int_matrix(expected))


class TestSmallFixtures:
    def test_rlc(self):
        m, t = pipeline("RLC")
        assert m.rho == (2, 3, 1)
        assert (m.nL, m.nR) == (1, 1)
        assert np.array_equal(t.A, as_int_matrix([[0, 1], [1, 1]]))
        assert np.array_equal(
            t.theta, as_int_matrix([[1, -1, 0], [-1, 0, 1], [0, 0, 0]])
        )
        assert np.array_equal(t.eta, as_int_matrix([[0, -1, 1], [1, 0, -1]]))
        assert np.array_equal(t.alpha, as_int_matrix([[0, 1], [-1, -1]]))
        assert np.array_equal(t.beta, as_int_matrix([[1, 0], [0, -1]]))

    def test_rc(self):
        m, t = pipeline("RC")
        assert m.rho == (2, 1)
        assert (m.nL, m.nR) == (0, 1)
        assert np.array_equal(t.A, as_int_matrix([[1]]))
        assert np.array_equal(t.alpha, as_int_matrix([[-1]]))
        assert np.array_equal(t.beta, as_int_matrix([[-1]]))
        assert np.array_equal(transition_matrix(m), as_int_matrix([[1]]))


class TestOrbitModel:
    @pytest.mark.parametrize("word", all_words(8), ids=str)
    def test_invariants(self, word):
        m = build_orbit(word)
        n = word.n
        seq = word.sequence()
        depth = 2 * n
        # Orbit point i is the word's sequence shifted i - 1 times.
        points = [seq.shift(i) for i in range(n)]
        for i in range(n):
            assert points[i].prefix(depth) == tuple(seq[i + k] for k in range(depth))
        assert sorted(m.rho) == list(range(1, n + 1))
        for k in range(n - 1):
            lhs = points[m.rho[k] - 1]
            rhs = points[m.rho[k + 1] - 1]
            assert mt_compare(lhs, rhs, depth) is Order.LT
        assert m.nL + m.nR == n - 1
        assert m.nL == sum(1 for s in word.symbols[:-1] if s is Symbol.L)
        # The turning point splits the left intervals from the right ones.
        assert m.rho[m.nL] == n
        assert m.position(n) == m.nL + 1
        for rank, orbit in enumerate(m.rho, start=1):
            assert m.position(orbit) == rank

    @pytest.mark.parametrize("n", range(2, 11))
    def test_rho_is_the_pairwise_sort(self, n):
        for w in every_word(n):
            assert build_orbit(w).rho == pairwise_rho(w), str(w)

    @pytest.mark.parametrize("word", random_words(64, 3, 7) + random_words(128, 2, 7), ids=str)
    def test_rho_is_the_pairwise_sort_long(self, word):
        assert build_orbit(word).rho == pairwise_rho(word)

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

    def test_inadmissible_warns_but_constructs(self):
        # Flagged by ``admissible`` alone: building the orbit warns nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = build_orbit(parse_word("LLC"))
        assert m.admissible is False
        A = transition_matrix(m)
        assert A.shape == (2, 2)


class TestMatrixRelations:
    """Structural identities that must hold for every admissible word."""

    @pytest.mark.parametrize("word", all_words(10), ids=str)
    def test_identities(self, word):
        n = word.n
        m = build_orbit(word)
        t = build_matrices(m)

        # Intertwinings between the two chain-level descriptions.
        assert np.array_equal(t.A @ t.eta, t.eta @ t.theta)
        assert np.array_equal(t.beta @ t.eta, t.eta @ t.gamma)
        assert np.array_equal(t.alpha @ t.eta, t.eta @ t.omega)

        # Factorizations.
        assert np.array_equal(t.theta, t.gamma @ t.omega)
        assert np.array_equal(t.A, t.beta @ t.alpha)
        assert np.array_equal(t.eta.T, t.Y @ t.inc @ t.X)

        assert abs(determinant(t.X)) == 1
        assert abs(determinant(t.Y)) == 1

        # Each row of eta is a difference of two permutation rows, so
        # every row sums to zero.
        assert all(int(s) == 0 for s in t.eta.sum(axis=1))

        # thetaprime is Aprime extended by a zero row and a cyclic column.
        assert all(int(e) == 0 for e in t.thetaprime[n - 1, :])
        assert np.array_equal(t.thetaprime[: n - 1, : n - 1], t.Aprime)

    @pytest.mark.parametrize("word", all_words(10), ids=str)
    def test_transition_matrix_agrees(self, word):
        m = build_orbit(word)
        assert np.array_equal(transition_matrix(m), build_matrices(m).A)

    @pytest.mark.parametrize("word", all_words(10), ids=str)
    def test_transition_matrix_shape(self, word):
        m = build_orbit(word)
        A = transition_matrix(m)
        n = word.n
        assert A.shape == (n - 1, n - 1)
        assert all(int(e) in (0, 1) for e in A.ravel())
        assert all(any(int(e) for e in A[i, :]) for i in range(n - 1))
        assert all(any(int(e) for e in A[:, j]) for j in range(n - 1))

    @pytest.mark.parametrize("word", all_words(10), ids=str)
    def test_not_permutation_beyond_period_two(self, word):
        if word.n == 2:
            pytest.skip("single-interval partition forces A = [[1]]")
        A = transition_matrix(build_orbit(word))
        row_sums = [int(s) for s in A.sum(axis=1)]
        assert any(s != 1 for s in row_sums)


class TestIntegerRoute:
    """The closed-form inverses behind alpha, checked by exact products."""

    @pytest.mark.parametrize(
        "word",
        all_words(12) + random_words(16, 3, 1) + random_words(32, 3, 2) + random_words(64, 2, 3),
        ids=str,
    )
    def test_inverses(self, word):
        n = word.n
        t = build_matrices(build_orbit(word))
        assert np.array_equal(t.X @ t.Xinv, eye_int(n - 1))
        assert np.array_equal(t.Y @ t.Yinv, eye_int(n))
        assert np.array_equal(t.eta @ t.R, eye_int(n - 1))
        assert np.array_equal(t.alpha @ t.eta, t.eta @ t.omega)

    @pytest.mark.parametrize("word", all_words(10), ids=str)
    def test_alpha_matches_rational_oracle(self, word):
        # alpha is the unique solution of alpha eta = eta omega; sympy
        # solves its normal equations (eta eta^T) alpha^T = (eta omega eta^T)^T
        # over the rationals, independently of the integer route.
        sympy = pytest.importorskip("sympy")
        t = build_matrices(build_orbit(word))
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
        bad = OrbitModel(word=m.word, rho=(2, 6, 3, 4, 5, 1), nL=m.nL, nR=m.nR)
        with pytest.raises(ConstructionError):
            build_matrices(bad)
