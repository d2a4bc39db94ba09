import itertools
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kneadck import intlinalg
from kneadck.intlinalg import AbelianGroup, smith_diagonal
from kneadck.ktheory import _irreducible
from kneadck.markov import build_matrices, build_orbit
from kneadck.symbolic import KneadingWord, Symbol, enumerate_admissible

from reference import (
    covering_matrix,
    determinant,
    is_irreducible_dense,
    rows_of,
    smith_normal_form,
    smith_of,
)

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
    """Certify ``smith_diagonal`` on the rows of M by the reference Smith
    form: ``U M V = D`` with unimodular ``U`` and ``V``, and ``D``'s
    diagonal a divisibility chain equal to the package's diagonal."""
    M = np.array(M, dtype=object)
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
    assert smith_of(M) == diag
    assert all(d >= 0 for d in diag)
    for k in range(len(diag) - 1):
        if diag[k] == 0:
            assert diag[k + 1] == 0
        else:
            assert diag[k + 1] % diag[k] == 0
    return f


class TestSmithNormalForm:
    def test_identity(self):
        eye = np.eye(3, dtype=np.int64)
        assert smith_of(eye) == (1, 1, 1)
        assert np.array_equal(check_smith_invariants(eye).D, eye)

    def test_zero(self):
        assert smith_of(np.zeros((2, 3), dtype=np.int64)) == (0, 0)
        assert check_smith_invariants(np.zeros((2, 3), dtype=np.int64)).diagonal == (0, 0)

    def test_known_diagonals(self):
        assert smith_of([[2, 4], [6, 8]]) == (2, 4)
        assert smith_of([[0, 1, 0], [1, 1, -1], [0, 0, 1]]) == (1, 1, 1)
        # Isolated non-unit pivots that drop out of divisibility order.
        assert smith_of([[2, 0], [0, 3]]) == (1, 6)
        assert smith_of([[4, 0], [0, 2]]) == (2, 4)
        assert smith_of([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == (1, 30, 30)
        # Unit-free from the start.
        assert smith_of(2 * np.eye(64, dtype=np.int64)) == (2,) * 64
        # The last row pivots on its 3, above the first row's 2 in column
        # 0, so the first row's multiplier is 0 and its update is skipped.
        assert smith_of([[2, 0], [3, 7]]) == (1, 14)
        # Unimodular by Cassini's identity, with no unit anywhere: 57
        # non-unit pivots run the Euclid chain down to a unit.
        F = [0, 1]
        while len(F) < 62:
            F.append(F[-1] + F[-2])
        assert smith_of([[F[61], F[60]], [F[60], F[59]]]) == (1, 1)

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
        assert smith_of(M) == (1, 1, 1, 1, 1, 2)

    def test_deterministic(self):
        M = np.array([[3, 1, -4], [2, -3, 1], [-9, 5, 5]])
        assert smith_of(M) == smith_of(M) == (1, 1, 11)

    def test_consumes_its_rows(self):
        # The loop rewrites the rows it is given: a second call on the same
        # list sees what the first left, here an empty matrix.
        rows = rows_of([[3, 1, -4], [2, -3, 1], [-9, 5, 5]])
        assert smith_diagonal(rows, 3) == (1, 1, 11)
        assert smith_diagonal(rows, 3) == (0, 0, 0)

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
            M = np.array(random_matrix(rng), dtype=object)
            assert smith_of(M) == smith_of(M.T)

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
            for e in smith_of(M):
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
        # non-unit entries to need remainders and the gcd/lcm exchange.
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
            assert smith_of(M) == diag
            assert smith_normal_form(M).diagonal == diag

    def test_entries_are_arbitrary_precision(self):
        big = 10**40
        assert smith_of([[big, 1], [1, big]]) == (1, big * big - 1)

    def test_exact_where_int64_would_overflow(self):
        # The first update writes 1 - a**2, just inside 2**62; the second
        # writes 1 - 2 * a**2, beyond it, and the result must stay exact.
        a = 2**31 - 1
        M = [[1, a, 0], [a, 1, a], [0, a, 1]]
        assert smith_of(M) == (1, 1, 2 * a * a - 1)
        check_smith_invariants(M)

    def test_scaling_by_2_62_scales_the_diagonal(self):
        # Scaling by 2**62 scales the diagonal; the scaled entries and
        # their products lie far beyond 64-bit arithmetic.
        rng = random.Random(29)
        k = 2**62
        for _ in range(60):
            M = np.array(random_matrix(rng, bound=2**30), dtype=object)
            assert smith_of(k * M) == tuple(k * d for d in smith_of(M))

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
        # bool, float and numpy scalars are not ints; a stored 0 would
        # become a pivot of 0 once no unit is left.
        for rows in (
            [{0: 1.5}, {1: 1}],
            [{0: True}],
            [{0: 1, 1: 2.0}],
            [{0: np.int64(1)}],
            [{0: 1}, {1: 0}],
        ):
            with pytest.raises(ValueError, match="non-integer or zero entry"):
                smith_diagonal(rows, 2)

    def test_rejection_names_the_entry(self):
        with pytest.raises(ValueError, match=r"entry 2\.0 at \(0, 1\)"):
            smith_diagonal([{0: 1, 1: 2.0}], 2)

    @pytest.mark.parametrize("column", [-1, -2, 2, 7, 1.0, True, "0", None])
    def test_rejects_columns_outside_range(self, column):
        with pytest.raises(ValueError, match=r"of row 1 is not in range\(2\)"):
            smith_diagonal([{0: 1}, {column: 1}], 2)

    def test_fixed_width_inputs_are_widened(self):
        # The rows of a fixed-width array reach the loop as Python ints, so
        # no row operation can wrap.
        for data in (np.array([[2**62, -3]]), np.array([[7, 5]], dtype=np.uint8),
                     [[np.int8(7), 5]]):
            assert all(type(e) is int for R in rows_of(data) for e in R.values())
        a = 2**62
        assert smith_of(np.array([[a, a], [a, -a]])) == (a, 2 * a)


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
    on the package's own sparse matrices and on random sparse ones, with
    and without unit pivots."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_admissible_word(self, n):
        # I - A^T of k_groups, and I - theta, X and Y of verify.
        for w in enumerate_admissible(n):
            m = build_orbit(w)
            t = build_matrices(m)
            A = covering_matrix(m)
            eye = np.eye(n, dtype=np.int64)
            for M in (eye[1:, 1:] - A.T, eye - t.theta, t.X, t.Y):
                assert smith_of(M) == smith_normal_form(M).diagonal, w

    def test_forced_words_beyond_the_nonzero_bound(self):
        # I - A^T of kgroups --force on every word {L, R}^(n-1) C.  An
        # admissible word's A has at most 2(n-1) nonzeros; forced words
        # exceed that, and the pass must not rely on it.
        beyond = 0
        for n in range(2, 11):
            for tail in itertools.product((Symbol.L, Symbol.R), repeat=n - 1):
                A = covering_matrix(build_orbit(KneadingWord(tail + (Symbol.C,))))
                beyond += np.count_nonzero(A) > 2 * (n - 1)
                M = np.eye(n - 1, dtype=np.int64) - A.T
                assert smith_of(M) == smith_normal_form(M).diagonal, tail
        assert beyond > 0

    def test_rows_listed_twice_or_no_longer_in_the_column(self):
        # Rows pivot last first; rows 4, 3 and 2 pivot on columns 0, 1 and
        # 3.  Row 0 loses column 3 by cancellation at the first pivot and
        # gets it back by fill at the second, so column 3 lists it twice
        # when the third pivot sweeps it; row 1 loses column 3 at the first
        # pivot and is still listed there.  Each must be swept once and only
        # while it holds the column: row 1 keeps only a 2, whose factor must
        # survive.
        rows = [
            {0: 1, 3: 1, 1: 1},
            {0: 1, 3: 1, 4: 2},
            {3: 1, 5: 1},
            {1: 1, 3: 1},
            {0: 1, 3: 1},
        ]
        M = np.zeros((5, 6), dtype=np.int64)
        for i, R in enumerate(rows):
            for j, e in R.items():
                M[i, j] = e
        assert smith_diagonal(rows, 6) == smith_normal_form(M).diagonal == (1, 1, 1, 1, 2)

    @given(sparse_matrices(st.one_of(st.sampled_from([-2, -1, 1, 2]), HUGE)))
    @settings(max_examples=150, deadline=None)
    def test_property_sparse(self, M):
        # Each row picks its pivot at its own turn, so the row order alone
        # decides the pivot sequence: reversing the rows must not matter.
        D = smith_normal_form(M).diagonal
        assert smith_of(M) == smith_of(M[::-1]) == D

    @given(
        sparse_matrices(
            st.one_of(st.sampled_from([-3, -2, 2, 4, 6]), HUGE.filter(lambda e: abs(e) > 1))
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_property_no_units(self, M):
        # No unit entry at all: the first pivot is the last row's least
        # |entry|, and units appear only as remainders.
        D = smith_normal_form(M).diagonal
        assert smith_of(M) == smith_of(M[::-1]) == D


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
    return all(d == 1 for d in smith_of(M))


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
        assert all_ones_diagonal(np.eye(4, dtype=np.int64))
        assert determinant(np.eye(4, dtype=np.int64)) == 1

    def test_diag_2_1(self):
        assert not all_ones_diagonal([[2, 0], [0, 1]])
        assert determinant([[2, 0], [0, 1]]) == 2

    @pytest.mark.parametrize("n", range(2, 9))
    def test_last_row_negated_identity(self, n):
        Y = np.eye(n, dtype=np.int64)
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

    def test_from_diagonal(self):
        assert AbelianGroup.from_diagonal((1, 1, 3, 0)) == AbelianGroup(1, (3,))
        assert AbelianGroup.from_diagonal((1, 1)) == AbelianGroup(0, ())
        assert AbelianGroup.from_diagonal((2, 6, 0, 0)) == AbelianGroup(2, (2, 6))
        assert AbelianGroup.from_diagonal(()) == AbelianGroup(0, ())
        # A cokernel depends on |d| only: [-4] has cokernel Z_4.
        assert AbelianGroup.from_diagonal((-4,)) == AbelianGroup(0, (4,))
        assert AbelianGroup.from_diagonal((1, -6, 0)) == AbelianGroup(1, (6,))


class TestCokernelKernel:
    def test_zero_matrix(self):
        zero = np.zeros((2, 2), dtype=np.int64)
        assert AbelianGroup.from_diagonal(smith_of(zero)) == AbelianGroup(2, ())
        assert smith_of(zero).count(0) == 2

    def test_unimodular_has_trivial_cokernel(self):
        M = [[0, 1, 0], [1, 1, -1], [0, 0, 1]]
        assert AbelianGroup.from_diagonal(smith_of(M)) == AbelianGroup(0, ())
        assert smith_of(M).count(0) == 0

    def test_period_six_fixture(self):
        M = np.eye(5, dtype=np.int64) - np.array(A6).T
        assert AbelianGroup.from_diagonal(smith_of(M)) == AbelianGroup(0, (2,))
        assert smith_of(M).count(0) == 0

    def test_kernel_rank_one(self):
        A = np.array([[0, 0, 1], [0, 1, 1], [1, 0, 0]])
        assert smith_of(np.eye(3, dtype=np.int64) - A.T).count(0) == 1

    def test_basis_change_invariance(self):
        # Unimodular changes of basis cannot alter the cokernel.
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 4)
            M = np.array([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], dtype=object)
            f = smith_normal_form([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            P, Q = f.U, f.V  # unimodular by construction
            changed = AbelianGroup.from_diagonal(smith_of(P @ M @ Q))
            assert changed == AbelianGroup.from_diagonal(smith_of(M))


def runs_of(A) -> list[tuple[int, int]]:
    """The runs ``(lo, hi)`` of a dense 0-1 matrix each of whose rows is one
    run of ones, ``A[k, lo:hi]``; a zero row is the empty run ``(0, 0)``."""
    runs = []
    for row in rows_of(A):
        lo, hi = min(row, default=0), max(row, default=-1) + 1
        assert row == dict.fromkeys(range(lo, hi), 1), f"row {row} is not one run of ones"
        runs.append((lo, hi))
    return runs


def is_irreducible(A) -> bool:
    """``_irreducible`` on the runs of a dense 0-1 matrix."""
    return _irreducible(runs_of(A))


def runs_matrix(runs) -> list[list[int]]:
    """The dense 0-1 matrix whose row k is one on the k-th run ``(lo, hi)``."""
    return [[int(lo <= j < hi) for j in range(len(runs))] for lo, hi in runs]


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

    def test_empty_matrix(self):
        assert _irreducible([])

    @pytest.mark.parametrize("n", range(2, 11))
    def test_agrees_with_dense_closure_on_every_word(self, n):
        # Every word {L, R}^(n-1) C, inadmissible (forced) ones included.
        for tail in itertools.product((Symbol.L, Symbol.R), repeat=n - 1):
            A = covering_matrix(build_orbit(KneadingWord(tail + (Symbol.C,))))
            assert is_irreducible(A) == is_irreducible_dense(A), tail

    @given(
        st.integers(1, 7).flatmap(
            lambda c: st.lists(
                st.tuples(st.integers(0, c), st.integers(0, c)).map(lambda t: tuple(sorted(t))),
                min_size=c,
                max_size=c,
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_property_agrees_with_dense_closure(self, runs):
        # Runs of any width, empty ones (lo == hi) included.
        assert _irreducible(runs) == is_irreducible_dense(runs_matrix(runs))


def test_imports_no_numpy():
    # Loaded on its own, apart from the package, so only its own imports count.
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('intlinalg', {intlinalg.__file__!r})\n"
        "module = sys.modules['intlinalg'] = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
