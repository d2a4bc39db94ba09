import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kneadck.intlinalg import (
    AbelianGroup,
    as_int_matrix,
    cokernel,
    eye_int,
    is_irreducible,
    smith_diagonal,
    zeros_int,
)
from kneadck.markov import build_matrices, build_orbit, transition_matrix
from kneadck.symbolic import KneadingWord, Symbol, enumerate_admissible

from reference import determinant, is_irreducible_dense, smith_normal_form

# 5x5 transition matrix of the period-6 fixture word, frozen by hand.
A6 = [
    [0, 1, 1, 0, 0],
    [0, 0, 0, 1, 1],
    [0, 0, 0, 0, 1],
    [0, 0, 1, 1, 0],
    [1, 1, 0, 0, 0],
]


def random_matrix(rng, max_dim=6, bound=9):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    return [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]


def check_smith_invariants(M):
    """Certify ``smith_diagonal(M)`` by the reference Smith form: ``U M V = D``
    with unimodular ``U`` and ``V``, and ``D``'s diagonal a divisibility
    chain equal to the package's diagonal."""
    M = as_int_matrix(M)
    f = smith_normal_form(M)
    assert np.array_equal(f.U @ M @ f.V, f.D)
    assert abs(determinant(f.U)) == 1
    assert abs(determinant(f.V)) == 1
    r, c = f.D.shape
    for i in range(r):
        for j in range(c):
            if i != j:
                assert f.D[i, j] == 0
    diag = f.diagonal
    assert smith_diagonal(M) == diag
    assert all(d >= 0 for d in diag)
    for k in range(len(diag) - 1):
        if diag[k] == 0:
            assert diag[k + 1] == 0
        else:
            assert diag[k + 1] % diag[k] == 0
    return f


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_diagonal(eye_int(3)) == (1, 1, 1)
        assert np.array_equal(check_smith_invariants(eye_int(3)).D, eye_int(3))

    def test_zero(self):
        assert smith_diagonal(zeros_int(2, 3)) == (0, 0)
        assert check_smith_invariants(zeros_int(2, 3)).diagonal == (0, 0)

    def test_known_diagonals(self):
        assert smith_diagonal([[2, 4], [6, 8]]) == (2, 4)
        assert smith_diagonal([[0, 1, 0], [1, 1, -1], [0, 0, 1]]) == (1, 1, 1)

    def test_period_six_shift_block(self):
        # I minus the signed shift matrix of the period-6 fixture word.
        M = [
            [0, 1, 0, 0, 0, 0],
            [1, 1, -1, 0, 0, 0],
            [1, 0, 1, -1, 0, 0],
            [-1, 0, 0, 1, 1, 0],
            [-1, 0, 0, 0, 1, 1],
            [0, 0, 0, 0, 0, 1],
        ]
        assert smith_diagonal(M) == (1, 1, 1, 1, 1, 2)

    def test_deterministic(self):
        # The loop works on a copy: the input is left as it was.
        M = np.array([[3, 1, -4], [2, -3, 1], [-9, 5, 5]])
        before = M.copy()
        assert smith_diagonal(M) == smith_diagonal(M) == (1, 1, 11)
        assert np.array_equal(M, before)

    def test_random_reconstruction(self):
        rng = random.Random(7)
        for _ in range(120):
            check_smith_invariants(random_matrix(rng))

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_property_reconstruction(self, rows):
        check_smith_invariants(rows)

    def test_transpose_invariance(self):
        rng = random.Random(11)
        for _ in range(60):
            M = as_int_matrix(random_matrix(rng))
            assert smith_diagonal(M) == smith_diagonal(M.T)

    def test_determinant_vs_diagonal(self):
        rng = random.Random(13)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 5)
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            d = determinant(M)
            if d == 0:
                continue
            prod = 1
            for e in smith_diagonal(M):
                prod *= e
            assert abs(d) == prod
            checked += 1

    def test_sympy_cross_check(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(17)
        dense = [
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            for n in (rng.randint(1, 5) for _ in range(25))
        ]
        # Mostly zero with small entries, like I - A^T, but with enough
        # non-unit entries to need remainders and the divisibility pull-up.
        sparse = [
            [[rng.choice((-2, -1, 0, 0, 0, 0, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
            for n in (rng.randint(2, 10) for _ in range(40))
        ]
        for M in dense + sparse:
            n = len(M)
            theirs = sympy_snf(sympy.Matrix(M))
            # The divisibility chain in order: sympy's nonzero |d| ascending,
            # then its zeros.
            found = [abs(int(theirs[i, i])) for i in range(n)]
            diag = tuple(sorted(d for d in found if d)) + (0,) * found.count(0)
            assert smith_diagonal(M) == diag
            assert smith_normal_form(M).diagonal == diag

    def test_entries_are_arbitrary_precision(self):
        big = 10**40
        assert smith_diagonal([[big, 1], [1, big]]) == (1, big * big - 1)

    def test_promotes_when_int64_could_overflow(self):
        # The first update writes 1 - a**2, just inside 2**62; the second
        # writes 1 - 2 * a**2, beyond it, and the result must stay exact.
        a = 2**31 - 1
        M = [[1, a, 0], [a, 1, a], [0, a, 1]]
        assert smith_diagonal(M) == (1, 1, 2 * a * a - 1)
        check_smith_invariants(M)

    def test_int64_and_object_paths_agree(self):
        # Scaling by 2**62 scales the diagonal; the scaled entries and
        # their products lie far beyond 64-bit arithmetic.
        rng = random.Random(29)
        k = 2**62
        for _ in range(60):
            M = as_int_matrix(random_matrix(rng, bound=2**30))
            assert smith_diagonal(k * M) == tuple(k * d for d in smith_diagonal(M))

    @pytest.mark.parametrize("bits", [62, 63, 64, 70, 130])
    def test_entries_beyond_int64(self, bits):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(bits)
        for _ in range(8):
            n = rng.randint(2, 5)
            M = [
                [rng.choice([rng.randint(-(2**bits), 2**bits), rng.randint(-3, 3)])
                 for _ in range(n)]
                for _ in range(n)
            ]
            f = check_smith_invariants(M)
            theirs = sympy_snf(sympy.Matrix(M))
            assert sorted(f.diagonal) == sorted(abs(int(theirs[i, i])) for i in range(n))

    @given(
        st.lists(
            st.lists(
                st.one_of(st.integers(-9, 9), st.integers(-(2**66), 2**66)),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_property_mixed_magnitudes(self, rows):
        check_smith_invariants(rows)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            smith_diagonal([[1.5, 0], [0, 1]])
        with pytest.raises(ValueError):
            as_int_matrix([[True, False]])
        with pytest.raises(ValueError):
            as_int_matrix([1, 2, 3])
        with pytest.raises(ValueError, match=r"at \(0, 1\)"):
            as_int_matrix([[1, 2.0]])
        with pytest.raises(ValueError):
            as_int_matrix(np.array([[True]]))
        with pytest.raises(ValueError):
            as_int_matrix(np.array([[1.0]]))
        with pytest.raises(ValueError):
            as_int_matrix(np.arange(3))

    def test_fixed_width_inputs_are_widened(self):
        for data in (np.array([[2**62, -3]]), np.array([[7, 5]], dtype=np.uint8),
                     [[np.int8(7), 5]], np.array([[np.int64(7), 5]], dtype=object)):
            M = as_int_matrix(data)
            assert M.dtype == object and M.shape == (1, 2)
            assert all(type(e) is int for e in M.ravel())
        M = as_int_matrix(np.array([[2**62, -3]]))
        assert (M * 4)[0, 0] == 2**64


@st.composite
def sparse_matrices(draw, entries):
    """r x c object arrays, 0 <= r, c <= 12, with at most a third of the
    cells drawn from ``entries``, so zero rows and columns are common."""
    r = draw(st.integers(0, 12))
    c = draw(st.integers(0, 12))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, max(r - 1, 0)), st.integers(0, max(c - 1, 0)), entries),
            max_size=r * c // 3,
        )
    )
    M = np.zeros((r, c), dtype=object)
    for i, j, e in cells:
        M[i, j] = e
    return M


HUGE = st.integers(-(2**70), 2**70)


class TestSparseUnitPass:
    """``smith_diagonal`` against the reference Smith form, tuple for tuple,
    on the package's own sparse matrices and on random sparse ones."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_admissible_word(self, n):
        # I - A^T of k_groups, and I - theta, X and Y of verify.
        for w in enumerate_admissible(n):
            m = build_orbit(w)
            t = build_matrices(m)
            A = transition_matrix(m)
            for M in (eye_int(n - 1) - A.T, eye_int(n) - t.theta, t.X, t.Y):
                assert smith_diagonal(M) == smith_normal_form(M).diagonal, w

    def test_forced_words_beyond_the_nonzero_bound(self):
        # I - A^T of kgroups --force on every word {L, R}^(n-1) C.  An
        # admissible word's A has at most 2(n-1) nonzeros; forced words
        # exceed that, and the pass must not rely on it.
        beyond = 0
        for n in range(2, 11):
            for tail in itertools.product((Symbol.L, Symbol.R), repeat=n - 1):
                A = transition_matrix(build_orbit(KneadingWord(tail + (Symbol.C,))))
                beyond += np.count_nonzero(A) > 2 * (n - 1)
                M = eye_int(n - 1) - A.T
                assert smith_diagonal(M) == smith_normal_form(M).diagonal, tail
        assert beyond > 0

    @given(sparse_matrices(st.one_of(st.sampled_from([-2, -1, 1, 2]), HUGE)))
    @settings(max_examples=150, deadline=None)
    def test_property_sparse(self, M):
        assert smith_diagonal(M) == smith_normal_form(M).diagonal

    @given(
        sparse_matrices(
            st.one_of(st.sampled_from([-3, -2, 2, 4, 6]), HUGE.filter(lambda e: abs(e) > 1))
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_property_no_units(self, M):
        # No unit pivot at all: the whole matrix is the remainder.
        assert smith_diagonal(M) == smith_normal_form(M).diagonal


class TestDeterminant:
    def test_fixtures(self):
        assert determinant([[2, 0], [0, 3]]) == 6
        assert determinant([[1, 2], [2, 4]]) == 0
        assert determinant([[0, 1], [1, 0]]) == -1
        assert determinant([[7]]) == 7

    def test_pivot_fallback(self):
        assert determinant([[0, 2, 1], [3, 0, 0], [0, 0, 4]]) == -24

    def test_requires_square(self):
        with pytest.raises(ValueError):
            determinant([[1, 2, 3]])


def all_ones_diagonal(M):
    """The unimodularity test of ``verify``: a Smith diagonal of all ones."""
    return all(d == 1 for d in smith_diagonal(M))


@st.composite
def square_matrices(draw):
    """Square integer matrices up to 8 x 8: half with small random entries,
    half a product of elementary row operations with the first row then
    scaled by 0, +-1 or +-2, so unimodular matrices are common."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        entries = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
        return [entries[i * n : (i + 1) * n] for i in range(n)]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
    for i, j, q in draw(st.lists(ops, max_size=12)):
        if i != j:
            M[i] = [a + q * b for a, b in zip(M[i], M[j])]
    scale = draw(st.sampled_from((0, 1, -1, 2, -2)))
    M[0] = [scale * e for e in M[0]]
    return M


class TestUnimodular:
    """A square matrix has determinant +-1 exactly when its Smith diagonal
    is all ones; the reference Bareiss determinant is the other route."""

    def test_identity(self):
        assert all_ones_diagonal(eye_int(4))
        assert determinant(eye_int(4)) == 1

    def test_diag_2_1(self):
        assert not all_ones_diagonal([[2, 0], [0, 1]])
        assert determinant([[2, 0], [0, 1]]) == 2

    @pytest.mark.parametrize("n", range(2, 9))
    def test_last_row_negated_identity(self, n):
        Y = eye_int(n)
        for j in range(n - 1):
            Y[n - 1, j] = -1
        assert all_ones_diagonal(Y)
        assert determinant(Y) == 1

    @pytest.mark.parametrize(
        "M,det",
        [
            ([[1, 2], [2, 4]], 0),
            ([[0, 0, 0], [1, 2, 3], [4, 5, 6]], 0),
            ([[1, 1], [0, 1]], 1),
            ([[2, 3], [1, 2]], 1),
            ([[0, 1], [1, 0]], -1),
            ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
            ([[1, 0, 0], [5, -1, 0], [7, 3, 1]], -1),
            ([[2, 1], [0, 1]], 2),
            ([[1, 1], [1, -1]], -2),
            ([[3, 1], [1, 1]], 2),
        ],
    )
    def test_explicit_determinants(self, M, det):
        assert determinant(M) == det
        assert all_ones_diagonal(M) == (abs(det) == 1)

    @given(square_matrices())
    @settings(max_examples=300, deadline=None)
    def test_all_ones_iff_unit_determinant(self, M):
        assert all_ones_diagonal(M) == (abs(determinant(M)) == 1)


class TestAbelianGroup:
    def test_cyclic_conventions(self):
        assert AbelianGroup.cyclic(0) == AbelianGroup(1, ())
        assert AbelianGroup.cyclic(1) == AbelianGroup(0, ())
        assert AbelianGroup.cyclic(6) == AbelianGroup(0, (6,))
        with pytest.raises(ValueError):
            AbelianGroup.cyclic(-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            AbelianGroup(-1, ())
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroup(0, (2, 3))
        AbelianGroup(0, (2, 4))  # divisibility chain is fine

    def test_str(self):
        assert str(AbelianGroup(0, ())) == "0"
        assert str(AbelianGroup(1, ())) == "Z"
        assert str(AbelianGroup(2, ())) == "Z^2"
        assert str(AbelianGroup(0, (2,))) == "Z_2"
        assert str(AbelianGroup(1, (2,))) == "Z + Z_2"
        assert str(AbelianGroup(2, (2, 4))) == "Z^2 + Z_2 + Z_4"

    def test_is_trivial(self):
        assert AbelianGroup(0, ()).is_trivial
        assert not AbelianGroup(1, ()).is_trivial

    def test_from_diagonal(self):
        assert AbelianGroup.from_diagonal((1, 1, 3, 0)) == AbelianGroup(1, (3,))
        assert AbelianGroup.from_diagonal((1, 1)) == AbelianGroup(0, ())
        assert AbelianGroup.from_diagonal((2, 6, 0, 0)) == AbelianGroup(2, (2, 6))
        assert AbelianGroup.from_diagonal(()) == AbelianGroup(0, ())


class TestCokernelKernel:
    def test_zero_matrix(self):
        assert cokernel(zeros_int(2, 2)) == AbelianGroup(2, ())
        assert smith_diagonal(zeros_int(2, 2)).count(0) == 2

    def test_unimodular_has_trivial_cokernel(self):
        M = [[0, 1, 0], [1, 1, -1], [0, 0, 1]]
        assert cokernel(M) == AbelianGroup(0, ())
        assert smith_diagonal(M).count(0) == 0

    def test_period_six_fixture(self):
        A = as_int_matrix(A6)
        M = eye_int(5) - A.T
        assert cokernel(M) == AbelianGroup(0, (2,))
        assert smith_diagonal(M).count(0) == 0

    def test_kernel_rank_one(self):
        A = as_int_matrix([[0, 0, 1], [0, 1, 1], [1, 0, 0]])
        assert smith_diagonal(eye_int(3) - A.T).count(0) == 1

    def test_requires_square(self):
        with pytest.raises(ValueError):
            cokernel(zeros_int(2, 3))

    def test_basis_change_invariance(self):
        # Unimodular changes of basis cannot alter the cokernel.
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 4)
            M = as_int_matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            f = smith_normal_form(
                as_int_matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            )
            P, Q = f.U, f.V  # unimodular by construction
            assert cokernel(P @ M @ Q) == cokernel(M)


class TestIrreducibility:
    def test_single_states(self):
        assert is_irreducible([[1]])
        assert not is_irreducible([[0]])

    def test_period_six_fixture(self):
        assert is_irreducible(A6)

    def test_reducible_block(self):
        assert not is_irreducible([[0, 0, 1], [0, 1, 1], [1, 0, 0]])
        assert not is_irreducible([[1, 1], [0, 1]])

    def test_cycle(self):
        assert is_irreducible([[0, 1], [1, 0]])
        assert is_irreducible([[0, 1, 0], [0, 0, 1], [1, 0, 0]])

    def test_input_validation(self):
        with pytest.raises(ValueError, match="0 or 1"):
            is_irreducible([[0, 2], [1, 0]])
        with pytest.raises(ValueError):
            is_irreducible([[0, 1, 0], [1, 0, 0]])
        with pytest.raises(ValueError):
            is_irreducible([[-1, 1], [1, 0]])

    def test_empty_matrix(self):
        assert is_irreducible(zeros_int(0, 0))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_agrees_with_dense_closure_on_every_word(self, n):
        # Every word {L, R}^(n-1) C, inadmissible (forced) ones included.
        for tail in itertools.product((Symbol.L, Symbol.R), repeat=n - 1):
            A = transition_matrix(build_orbit(KneadingWord(tail + (Symbol.C,))))
            assert is_irreducible(A) == is_irreducible_dense(A), tail

    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_property_agrees_with_dense_closure(self, rows):
        assert is_irreducible(rows) == is_irreducible_dense(rows)
