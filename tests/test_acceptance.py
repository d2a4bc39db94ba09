"""Acceptance suite: one test per criterion, one pass/fail line each.

Criterion 5 is asserted exactly as stated: every admissible word with
a = 0 must have a reducible transition matrix.  That claim is false; the
smallest witness is the period-2 word itself and non-factorizable a = 0
words with strongly connected matrices exist from period 8 on.  The test
is kept faithful and red rather than weakened; see the census test in
test_ktheory.py for the verified classification.
"""

import math
import random
import time

import numpy as np
import pytest

from kneadck.dynamics import C_TOL, QuadMap, find_superstable_mu, numeric_itinerary
from kneadck.intlinalg import AbelianGroup
from kneadck.ktheory import _irreducible, closed_form_a, k_groups
from kneadck.markov import build_matrices, build_orbit, transition_intervals
from kneadck.symbolic import Symbol, enumerate_admissible, parse_word

from reference import (
    Order,
    covering_matrix,
    dense,
    determinant,
    mt_compare,
    rotation,
    smith_normal_form,
    smith_of,
)


def sweep(lo, hi):
    for n in range(lo, hi + 1):
        yield from enumerate_admissible(n)


def report(k, label, ok):
    print(f"criterion {k} ({label}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_period_six_fixture():
    start = time.perf_counter()
    m = build_orbit(parse_word("RLLRRC"))
    t = build_matrices(m)

    fixtures = {
        "A": [
            [0, 1, 1, 0, 0],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1],
            [0, 0, 1, 1, 0],
            [1, 1, 0, 0, 0],
        ],
        "theta": [
            [1, -1, 0, 0, 0, 0],
            [-1, 0, 1, 0, 0, 0],
            [-1, 0, 0, 1, 0, 0],
            [1, 0, 0, 0, -1, 0],
            [1, 0, 0, 0, 0, -1],
            [0, 0, 0, 0, 0, 0],
        ],
        "omega": [
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0, 0],
        ],
        "phi": [
            [-1, 1, 0, 0, 0, 0],
            [0, -1, 1, 0, 0, 0],
            [0, 0, -1, 1, 0, 0],
            [0, 0, 0, -1, 1, 0],
            [0, 0, 0, 0, -1, 1],
        ],
        "pi": [
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [1, 0, 0, 0, 0, 0],
        ],
    }
    assert np.array_equal(covering_matrix(m), fixtures["A"])
    for name, expected in fixtures.items():
        assert np.array_equal(getattr(t, name), expected), name

    rep = k_groups(m)
    assert rep.K0 == AbelianGroup(0, (2,))
    assert str(rep.K0) == "Z_2"
    assert rep.K1 == AbelianGroup(0, ())
    assert str(rep.K1) == "0"

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, "period-6 fixture bit-exact", True)


def test_criterion_2_closed_form_sweep():
    start = time.perf_counter()
    checked = 0
    for word in sweep(2, 12):
        a = closed_form_a(word)
        A = covering_matrix(build_orbit(word))
        M = np.eye(A.shape[0], dtype=np.int64) - A.T
        assert AbelianGroup.from_diagonal(smith_of(M)) == AbelianGroup.cyclic(a), str(word)
        assert smith_of(M).count(0) == (1 if a == 0 else 0), str(word)
        checked += 1
    assert checked == 379
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.3f}s"
    report(2, f"closed form vs SNF on {checked} words", True)


def test_criterion_3_construction_identities():
    start = time.perf_counter()
    for word in sweep(2, 10):
        n = word.n
        a = closed_form_a(word)
        t = dense(build_matrices(build_orbit(word)))
        assert np.array_equal(t.A @ t.eta, t.eta @ t.theta), str(word)
        assert np.array_equal(t.beta @ t.eta, t.eta @ t.gamma), str(word)
        assert np.array_equal(t.alpha @ t.eta, t.eta @ t.omega), str(word)
        assert np.array_equal(t.theta, t.gamma @ t.omega), str(word)
        assert np.array_equal(t.A, t.beta @ t.alpha), str(word)
        inc = np.eye(n, n - 1, dtype=np.int64)
        assert np.array_equal(t.eta.T, t.Y @ inc @ t.X), str(word)
        assert all(int(e) == 0 for e in t.thetaprime[n - 1, :]), str(word)
        assert np.array_equal(t.thetaprime[: n - 1, : n - 1], t.Aprime), str(word)
        diag = smith_of(np.eye(n, dtype=np.int64) - t.theta)
        assert sorted(diag) == sorted([a] + [1] * (n - 1)), str(word)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    report(3, "matrix identities and SNF multiset", True)


def test_criterion_4_cokernel_bridge():
    for word in sweep(2, 10):
        n = word.n
        t = build_matrices(build_orbit(word))
        from_A = AbelianGroup.from_diagonal(smith_of(np.eye(n - 1, dtype=np.int64) - t.A))
        from_theta = AbelianGroup.from_diagonal(smith_of(np.eye(n, dtype=np.int64) - t.theta))
        assert from_A == from_theta, str(word)
    report(4, "cokernel bridge between the two presentations", True)


def test_criterion_5_zero_a_forces_reducibility():
    counterexamples: dict[int, list[str]] = {}
    for word in sweep(2, 12):
        if closed_form_a(word) != 0:
            continue
        if _irreducible(transition_intervals(build_orbit(word))):
            counterexamples.setdefault(word.n, []).append(str(word))
    if counterexamples:
        total = sum(len(v) for v in counterexamples.values())
        groups = "; ".join(
            f"n={n}: {', '.join(words)}" for n, words in sorted(counterexamples.items())
        )
        report(5, "a = 0 forces reducible transition matrix", False)
        pytest.fail(
            f"{total} admissible words with a = 0 have strongly connected "
            f"transition matrices: {groups}"
        )
    report(5, "a = 0 forces reducible transition matrix", True)


def test_criterion_6_snf_engine_random():
    start = time.perf_counter()
    rng = random.Random(2026)
    for _ in range(500):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        M = np.array(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], dtype=object
        )
        f = smith_normal_form(M)
        assert np.array_equal(f.U @ M @ f.V, f.D)
        assert abs(determinant(f.U)) == 1 and abs(determinant(f.V)) == 1
        diag = f.diagonal
        for k in range(len(diag) - 1):
            if diag[k] == 0:
                assert diag[k + 1] == 0
            else:
                assert diag[k + 1] % diag[k] == 0
        assert smith_of(M) == diag
        assert smith_of(M.T) == diag
        if rows == cols:
            d = determinant(M)
            if d != 0:
                prod = 1
                for e in diag:
                    prod *= e
                assert abs(d) == prod
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    report(6, "SNF engine on 500 random matrices", True)


def test_criterion_7_dynamics_cross_validation():
    start = time.perf_counter()
    for word in sweep(2, 8):
        res = find_superstable_mu(word)
        assert res.residual < 1e-9, str(word)
        qmap = QuadMap(res.mu)
        depth = 2 * word.n
        itin = numeric_itinerary(qmap, qmap.step(qmap.c), depth, tol=1e-9)
        assert itin == rotation(word, 0, depth), str(word)
    golden = find_superstable_mu(parse_word("RC"))
    assert abs(golden.mu - (1.0 + math.sqrt(5.0))) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.3f}s"
    report(7, "superstable parameters realize every word", True)


def test_criterion_8_order_monotonicity():
    rng = random.Random(2027)
    depth = 30
    done = 0
    while done < 1000:
        mu = rng.uniform(2.0, 4.0)
        qmap = QuadMap(mu)
        x, y = sorted((rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)))
        if x == y:
            continue
        ix = numeric_itinerary(qmap, x, depth, tol=C_TOL)
        iy = numeric_itinerary(qmap, y, depth, tol=C_TOL)
        if Symbol.C in ix or Symbol.C in iy:
            continue
        assert mt_compare(ix, iy, depth) is not Order.GT, (mu, x, y)
        done += 1
    report(8, "signed order respects spatial order", True)
