import collections
import functools
import hashlib
import itertools
import json
import logging
import os
import pathlib
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

import kneadck
from kneadck import intlinalg, ktheory, markov, symbolic
from kneadck.intlinalg import AbelianGroup
from kneadck.ktheory import TheoremViolationError, closed_form_a, k_groups
from kneadck.markov import build_matrices, build_orbit
from kneadck.symbolic import (
    DomainError,
    KneadingWord,
    Symbol,
    enumerate_admissible,
    is_admissible,
    parse_word,
)

from reference import (
    coordinate_by_int,
    covering_matrix,
    dense,
    is_irreducible_dense,
    rows_of,
    smith_normal_form,
    smith_of,
)

TRIVIAL = AbelianGroup(0, ())
Z = AbelianGroup(1, ())


def bowen_franks(A) -> AbelianGroup:
    """The Bowen-Franks group coker(I - A) of a square matrix."""
    return AbelianGroup.from_diagonal(smith_of(np.eye(len(A), dtype=np.int64) - np.asarray(A)))


def spy_smith_loop(monkeypatch, record) -> list:
    """Collect ``record(rows, c)`` for every call of ``smith_diagonal``, the
    one Smith loop, that ``kneadck.ktheory`` makes."""
    seen = []
    loop = intlinalg.smith_diagonal

    def spying(rows, c):
        seen.append(record(rows, c))
        return loop(rows, c)

    monkeypatch.setattr(ktheory, "smith_diagonal", spying)
    return seen


def count_smith_loops(monkeypatch) -> list:
    """The shape of every matrix the Smith loop runs on."""
    return spy_smith_loop(monkeypatch, lambda rows, c: (len(rows), c))


def all_words(max_n):
    out = []
    for n in range(2, max_n + 1):
        out.extend(enumerate_admissible(n))
    return out


def runs_corpus():
    """Every admissible word with n <= 14, then every word {L, R}^(n-1) C
    with n <= 10, inadmissible (forced) ones included."""
    words = all_words(14)
    for n in range(2, 11):
        for tail in itertools.product((Symbol.L, Symbol.R), repeat=n - 1):
            words.append(KneadingWord(tail + (Symbol.C,)))
    return words


@functools.cache
def random_word(n: int) -> KneadingWord:
    """A uniform admissible word, seeded: an R, n - 2 uniform L/R bits,
    then C, kept when admissible.

    Most long candidates are not, and the full check builds the word's key
    of n characters and its mirror, so a cheap necessary test screens first:
    a later run R L^k longer than the first run of L exceeds the word in the
    signed order (both start R L^m, whose sign is -1, and then L < R is
    flipped).
    """
    rng = random.Random(1)
    while True:
        bits = format(rng.getrandbits(n - 2), f"0{n - 2}b")
        text = "R" + bits.translate(str.maketrans("01", "LR")) + "C"
        runs = text[1:-1].split("R")
        if max(map(len, runs)) == len(runs[0]):
            word = parse_word(text)
            if is_admissible(word):
                return word


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
        eps = word.symbols[:-1]
        total = 1
        prod = 1
        for e in eps:
            prod *= e
            total += prod
        assert closed_form_a(word) == abs(total)

    def test_equals_the_reference_coordinate(self):
        ws = runs_corpus()
        assert len(ws) == 1279 + 1022
        for w in ws:
            a = closed_form_a(w)
            assert type(a) is int
            assert a == abs(1 + sum(coordinate_by_int(w.symbols, w.n - 1)))


class TestKGroups:
    def test_period_six_fixture(self):
        rep = k_groups(build_orbit(parse_word("RLLRRC")))
        assert rep.a_closed_form == 2
        assert rep.K0 == AbelianGroup(0, (2,))
        assert str(rep.K0) == "Z_2"
        assert rep.K1 == TRIVIAL
        assert rep.BF == AbelianGroup(0, (2,))
        assert rep.irreducible
        assert rep.admissible

    def test_period_two(self):
        rep = k_groups(build_orbit(parse_word("RC")))
        assert rep.a_closed_form == 0
        assert rep.K0 == Z
        assert rep.K1 == Z
        assert rep.irreducible

    def test_trivial_group(self):
        rep = k_groups(build_orbit(parse_word("RLC")))
        assert rep.a_closed_form == 1
        assert rep.K0 == TRIVIAL
        assert rep.K1 == TRIVIAL

    def test_reducible_zero_a(self):
        rep = k_groups(build_orbit(parse_word("RLRC")))
        assert rep.a_closed_form == 0
        assert rep.K0 == Z
        assert rep.K1 == Z
        assert not rep.irreducible

    def test_reads_the_orbit_it_is_given(self, monkeypatch):
        # No second sort: k_groups neither rebuilds the orbit nor re-tests
        # admissibility, which would both reach shift_keys.
        model = build_orbit(parse_word("LRC"))

        def refuse(*args):
            raise AssertionError("k_groups sorted the orbit again")

        for module, name in ((markov, "build_orbit"), (ktheory, "build_orbit"),
                             (markov, "shift_keys"), (symbolic, "shift_keys")):
            monkeypatch.setattr(module, name, refuse)
        rep = k_groups(model)
        assert rep.word == model.word
        assert rep.admissible is False

    def test_inadmissible_reported_not_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = k_groups(build_orbit(parse_word("LLC")))
        assert rep.admissible is False

    def test_disagreement_raises_for_admissible_words_only(self, monkeypatch):
        # A Smith diagonal of all zeros contradicts the closed form on RLC
        # (a = 1); LRC is inadmissible, so the disagreement is not enforced.
        monkeypatch.setattr(ktheory, "smith_diagonal", lambda rows, c: (0,) * c)
        with pytest.raises(TheoremViolationError) as exc:
            k_groups(build_orbit(parse_word("RLC")))
        assert str(exc.value) == "RLC: closed form a=1 predicts K0=0, SNF route gives Z^2"
        rep = k_groups(build_orbit(parse_word("LRC")))
        assert rep.admissible is False
        assert rep.K0 == rep.K1 == AbelianGroup(2, ())

    @pytest.mark.parametrize("word", all_words(10), ids=str)
    def test_closed_form_matches_snf(self, word):
        rep = k_groups(build_orbit(word))
        a = rep.a_closed_form
        assert rep.K0 == AbelianGroup.cyclic(a)
        if a == 0:
            assert rep.K1 == Z
        else:
            assert rep.K1 == TRIVIAL

    @pytest.mark.parametrize("word", all_words(12), ids=str)
    def test_bf_equals_k0(self, word):
        rep = k_groups(build_orbit(word))
        assert rep.BF == rep.K0 == bowen_franks(covering_matrix(build_orbit(word)))

    def test_one_snf_per_word(self, monkeypatch):
        runs = count_smith_loops(monkeypatch)
        for word in all_words(8):
            runs.clear()
            k_groups(build_orbit(word))
            assert runs == [(word.n - 1, word.n - 1)], word

    def test_two_snfs_per_verified_word(self, monkeypatch):
        # I - A^T and I - theta; the cokernel bridge reuses the first.
        runs = count_smith_loops(monkeypatch)
        report = ktheory.verify(8)
        assert report.ok
        assert len(runs) == 2 * report.words_checked

    def test_verify_builds_the_runs_once_per_word(self, monkeypatch):
        calls = []
        runs = markov.transition_intervals

        def counting(model):
            calls.append(str(model.word))
            return runs(model)

        # In markov too, so a call from a helper there is counted as well.
        for module in (markov, ktheory):
            monkeypatch.setattr(module, "transition_intervals", counting)
        report = ktheory.verify(8)
        assert report.words_checked == 37
        assert sorted(calls) == sorted(str(w) for w in all_words(8))

    def test_verify_reads_each_word_once(self, monkeypatch):
        # Each word's text and a come from the search's entries: verify
        # spells no word again and recomputes no closed form.
        expected = ktheory.verify(10)

        def refuse(*args):
            raise AssertionError("verify read a word a second time")

        monkeypatch.setattr(ktheory, "closed_form_a", refuse)
        monkeypatch.setattr(symbolic, "_word_text", refuse)
        assert ktheory.verify(10) == expected

    def test_verify_checks_each_word_and_never_spells_one(self, monkeypatch):
        calls = []
        checks = ktheory._word_checks

        def spy(model, runs, a):
            calls.append(model.word)
            return checks(model, runs, a)

        def dense(*args):
            raise AssertionError("verify spelled out a dense family")

        monkeypatch.setattr(ktheory, "_word_checks", spy)
        for module in (markov, ktheory):
            monkeypatch.setattr(module, "_spell", dense)
        monkeypatch.setattr(markov, "build_matrices", dense)
        report = ktheory.verify(12)
        assert report.ok and report.words_checked == 379
        expected = [w for n in range(2, 13) for w in enumerate_admissible(n)]
        assert calls == expected

    def test_verify_reads_each_failure_off_its_word(self, monkeypatch):
        # One word in the middle of period 6 gets a wrong symbol value in
        # its orbit model, so a wrong theta; one in the middle of period 12
        # a longer first run of A in the signed route.
        bad_tp = enumerate_admissible(6)[2]
        bad_A = enumerate_admissible(12)[40]
        orbit = ktheory.build_orbit

        def flipping(word):
            m = orbit(word)
            return with_symbol(m, 1, -word.symbols[1]) if word == bad_tp else m

        monkeypatch.setattr(ktheory, "build_orbit", flipping)
        lengthen_run(monkeypatch, bad_A)
        t_tp = dense(build_matrices(flipping(bad_tp)))
        t_A = dense(build_matrices(build_orbit(bad_A)))
        report = ktheory.verify(12)
        assert [(v["word"], v["check"]) for v in report.violations] == [
            (str(bad_tp), "identity_A_eta"),
            (str(bad_tp), "block_form"),
            (str(bad_A), "identity_A_eta"),
            (str(bad_A), "block_form"),
            (str(bad_A), "construction_equivalence"),
        ]
        details = {(v["word"], v["check"]): v["detail"] for v in report.violations}
        tp = details[str(bad_tp), "block_form"]
        assert tp.startswith(f"thetaprime {t_tp.thetaprime.tolist()} vs top-left block ")
        A_eta = details[str(bad_A), "identity_A_eta"]
        assert A_eta.startswith(f"lhs {(t_A.A @ t_A.eta).tolist()} vs rhs ")
        assert report.checks["block_form"] == report.checks["identity_A_eta"] == 377

    def test_verify_reports_crafted_runs_of_one_word(self, monkeypatch):
        # RLLLLRRLRLLC is word 49 of period 12.  Emptying its last run (0, 2)
        # leaves row 10 and column 0 of the covering A zero and keeps the
        # Smith form of I - A (a = 2), so only the two checks on the
        # covering matrix fail.
        word = enumerate_admissible(12)[49]
        assert str(word) == "RLLLLRRLRLLC"
        model = build_orbit(word)
        runs = markov.transition_intervals
        assert runs(model)[10] == (0, 2)
        crafted = runs(model)[:10] + [(0, 0)]

        def crafting(m):
            return list(crafted) if m.word == word else runs(m)

        monkeypatch.setattr(ktheory, "transition_intervals", crafting)
        report = ktheory.verify(12)
        text = (
            "[(1, 3), (3, 4), (4, 5), (5, 7), (7, 8), (8, 10), (10, 11), (9, 11), "
            "(6, 9), (2, 6), (0, 0)]"
        )
        assert str(crafted) == text
        assert report.violations == [
            {
                "word": "RLLLLRRLRLLC",
                "check": "construction_equivalence",
                "detail": f"covering runs {text} vs signed route "
                f"{covering_matrix(model).tolist()}",
            },
            {
                "word": "RLLLLRRLRLLC",
                "check": "zero_rows_cols",
                "detail": f"A has zero rows [10] and zero columns [0]: runs {text}",
            },
        ]
        assert report.checks == {
            "closed_form_k0": 379,
            "k1_rank": 379,
            "identity_A_eta": 379,
            "block_form": 379,
            "construction_equivalence": 378,
            "snf_multiset": 379,
            "cokernel_bridge": 379,
            "zero_rows_cols": 378,
            "not_permutation": 378,
        }

    def test_verify_reports_a_wrong_theta_diagonal_of_one_word(self, monkeypatch):
        # RLLLLRRLRLLC (a = 2) is word 49 of period 12.  Only the Smith form
        # of its I - theta goes wrong, so only the two checks that read that
        # diagonal fail, and only for it.
        word = enumerate_admissible(12)[49]
        assert str(word) == "RLLLLRRLRLLC"
        target = rows_of(np.eye(12, dtype=np.int64) - build_matrices(build_orbit(word)).theta)
        loop = intlinalg.smith_diagonal
        hits = []

        def wrong_for_target(rows, c):
            if c == 12 and [dict(R) for R in rows] == target:
                hits.append(c)
                return (1,) * 11 + (4,)
            return loop(rows, c)

        monkeypatch.setattr(ktheory, "smith_diagonal", wrong_for_target)
        report = ktheory.verify(12)
        assert hits == [12]
        assert report.violations == [
            {
                "word": "RLLLLRRLRLLC",
                "check": "snf_multiset",
                "detail": "SNF diagonal [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 4] vs expected "
                "[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2]",
            },
            {
                "word": "RLLLLRRLRLLC",
                "check": "cokernel_bridge",
                "detail": "from A: Z_2, from theta: Z_4",
            },
        ]
        assert report.checks == {
            "closed_form_k0": 379,
            "k1_rank": 379,
            "identity_A_eta": 379,
            "block_form": 379,
            "construction_equivalence": 379,
            "snf_multiset": 378,
            "cokernel_bridge": 378,
            "zero_rows_cols": 379,
            "not_permutation": 378,
        }

    def test_verify_logs_each_period(self, caplog, capsys):
        with caplog.at_level(logging.INFO, logger="kneadck.ktheory"):
            report = ktheory.verify(12)
        records = [r for r in caplog.records if r.name == "kneadck.ktheory"]
        assert len(records) == 11
        assert all(r.levelno == logging.INFO for r in records)
        checked = list(itertools.accumulate(len(enumerate_admissible(n)) for n in range(2, 13)))
        assert checked[-1] == report.words_checked
        assert [r.getMessage() for r in records] == [
            f"period {n}: {k} words checked, 0 violations" for n, k in zip(range(2, 13), checked)
        ]
        assert capsys.readouterr() == ("", "")

    def test_verify_prints_nothing_without_logging_configured(self):
        done = subprocess.run(
            [sys.executable, "-c", "import kneadck; assert kneadck.verify(8).ok"],
            env={**os.environ, "PYTHONPATH": str(pathlib.Path(kneadck.__file__).parents[1])},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert (done.stdout, done.stderr) == ("", "")

    def test_cli_import_leaves_logging_unloaded(self):
        # Only verify logs, so it imports logging itself, when it runs; and
        # the package never imports numpy, so no command loads it.
        code = (
            "import contextlib, io, sys\n"
            "import kneadck, kneadck.cli\n"
            "def loaded(*calls):\n"
            "    for argv in calls:\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            assert kneadck.cli.main(argv) == 0, argv\n"
            "    print(sorted({'logging', 'numpy'} & set(sys.modules)))\n"
            "loaded(['kgroups', 'RLLRC'], ['find-mu', 'RLLRC'], ['enumerate', '8'],\n"
            "       ['admissible', 'RLC'], ['itinerary', '--mu', '3.5'])\n"
            "loaded(['verify', '4'])\n"
            "loaded(['matrices', 'RLC'])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(pathlib.Path(kneadck.__file__).parents[1])},
            capture_output=True,
            text=True,
            timeout=60,
        )
        expected = "[]\n['logging']\n['logging']\n"
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")

    def test_verify_scores_only_checks_a_word_can_fail(self):
        # The report of verify 12 before the five checks that build_matrices
        # decides (identity_beta_eta, identity_alpha_eta,
        # identity_theta_factors, identity_A_factors, factorization) left
        # it, with those keys removed: the other nine keep their order and
        # counts, and every other field is unchanged.
        report = ktheory.verify(12)
        assert list(report.checks.items()) == [
            ("closed_form_k0", 379),
            ("k1_rank", 379),
            ("identity_A_eta", 379),
            ("block_form", 379),
            ("construction_equivalence", 379),
            ("snf_multiset", 379),
            ("cokernel_bridge", 379),
            ("zero_rows_cols", 379),
            ("not_permutation", 378),
        ]
        # Plain ints, as json.dumps needs them; == would pass np.int64 too.
        assert all(type(count) is int for count in report.checks.values())
        assert report.words_checked == 379
        assert report.skipped == {"not_permutation": ["RC"]}
        assert report.violations == []
        assert report.ok
        zero = [w for n in range(2, 13) for w in enumerate_admissible(n) if closed_form_a(w) == 0]
        split = {"reducible": [], "irreducible": []}
        for w in zero:
            irreducible = is_irreducible_dense(covering_matrix(build_orbit(w)))
            split["irreducible" if irreducible else "reducible"].append(str(w))
        assert report.a_zero == split
        assert (len(split["reducible"]), len(split["irreducible"])) == (21, 42)

    @pytest.mark.parametrize("n", [256, 512, 2048, 4096, 8192])
    def test_long_random_words(self, n):
        word = random_word(n)
        rep = k_groups(build_orbit(word))
        assert rep.K0 == AbelianGroup.cyclic(closed_form_a(word))
        assert rep.K1 == (Z if rep.a_closed_form == 0 else TRIVIAL)

    def test_memory_stays_linear_at_n_4096(self, tmp_path):
        # One dense (n-1)^2 int64 array is 134 MB here, so with the
        # interpreter and numpy a peak under 150 MB rules out any of them.
        # The child reports its own VmHWM: the ru_maxrss of a forked child
        # starts from the forking process's RSS, pytest's here.
        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs /proc/self/status for the peak RSS")
        word = random_word(4096)
        src = str(pathlib.Path(kneadck.__file__).parents[1])
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        child = (
            "import sys\n"
            "from kneadck.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as f:\n"
            "    sys.stderr.write(next(line for line in f if line.startswith('VmHWM:')))\n"
            "sys.exit(code)\n"
        )
        out = tmp_path / "out.json"
        with out.open("w") as f:
            # run() kills the child on any exception, the time limit included.
            proc = subprocess.run(
                [sys.executable, "-c", child, "kgroups", str(word), "--format", "machine"],
                stdout=f,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        assert proc.returncode == 0, proc.stderr
        results = json.loads(out.read_text())["results"]
        assert results["a"] == closed_form_a(word)
        K0 = AbelianGroup(results["K0"]["free_rank"], tuple(results["K0"]["torsion"]))
        assert K0 == AbelianGroup.cyclic(results["a"])
        label, peak_kb, unit = proc.stderr.splitlines()[-1].split()
        assert (label, unit) == ("VmHWM:", "kB")
        assert int(peak_kb) < 150 * 1024

    def test_no_dense_matrix_and_no_scan(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("k_groups built or scanned a dense matrix")

        word = parse_word("RLLRRC")
        model = build_orbit(word)
        for module in (markov, ktheory):
            monkeypatch.setattr(module, "_spell", dense)
        # Armed: the dense matrix family can no longer be built.
        with pytest.raises(AssertionError, match="dense matrix"):
            build_matrices(model)
        rep = k_groups(model)
        assert rep.K0 == AbelianGroup(0, (2,))
        assert rep.irreducible

    def test_rows_from_runs_are_the_differenced_rows(self, monkeypatch):
        # The rows fed are those of (I - A) D, with D the column difference
        # (1 on the diagonal, -1 just above it): at most 4 nonzeros each.
        fed = spy_smith_loop(monkeypatch, lambda rows, c: [dict(R) for R in rows])
        words = runs_corpus()
        assert len(words) == 1279 + 1022
        for word in words:
            fed.clear()
            model = build_orbit(word)
            k_groups(model)
            eye = np.eye(word.n - 1, dtype=np.int64)
            D = eye - np.eye(word.n - 1, k=1, dtype=np.int64)
            assert fed == [rows_of((eye - covering_matrix(model)) @ D)], word
            assert max(map(len, fed[0])) <= 4, word

    @pytest.mark.parametrize(
        "runs, items",
        [
            # Row k against c = 5: lo == hi == k (an empty run), lo == k + 1
            # with hi == c, lo == k with hi == k + 1 (an empty row), hi == k,
            # and hi == c == k + 1.
            (
                [(0, 0), (2, 5), (2, 3), (0, 3), (1, 5)],
                [[(1, -1), (0, 1)], [(1, 1), (2, -2)], [], [(3, 2), (4, -1), (0, -1)],
                 [(4, 1), (1, -1)]],
            ),
            # Empty runs off k, at k + 1 and at c; lo == k; hi == k + 1.
            (
                [(3, 3), (1, 4), (0, 3), (4, 4), (5, 5)],
                [[(0, 1), (1, -1)], [(2, -1), (4, 1)], [(2, 1), (0, -1)], [(3, 1), (4, -1)],
                 [(4, 1)]],
            ),
            # Every run covers every column.
            (
                [(0, 5)] * 5,
                [[(1, -1)], [(1, 1), (2, -1), (0, -1)], [(2, 1), (3, -1), (0, -1)],
                 [(3, 1), (4, -1), (0, -1)], [(4, 1), (0, -1)]],
            ),
        ],
    )
    def test_differenced_rows_of_crafted_runs(self, runs, items):
        # Runs no word of the corpus makes, against (I - A) D of the 0-1
        # matrix they describe.  The column order of each row, which picks
        # the Smith loop's pivots, is pinned too: a cancelled entry that
        # comes back goes to the end.
        c = len(runs)
        A = np.zeros((c, c), dtype=np.int64)
        for k, (lo, hi) in enumerate(runs):
            A[k, lo:hi] = 1
        eye = np.eye(c, dtype=np.int64)
        D = eye - np.eye(c, k=1, dtype=np.int64)
        rows = ktheory._differenced_rows(runs)
        assert rows == rows_of((eye - A) @ D)
        assert [list(R.items()) for R in rows] == items

    def test_diagonal_is_the_certified_smith_form_of_i_minus_a_transpose(self):
        # The reference Smith form, with transforms, of I - A^T itself.
        for word in runs_corpus():
            model = build_orbit(word)
            runs = markov.transition_intervals(model)
            diag = ktheory.smith_diagonal(ktheory._differenced_rows(runs), len(runs))
            M = np.eye(word.n - 1, dtype=np.int64) - covering_matrix(model).T
            assert diag == smith_normal_form(M).diagonal, word

    def test_irreducibility_from_runs(self):
        for word in runs_corpus():
            A = covering_matrix(build_orbit(word))
            assert k_groups(build_orbit(word)).irreducible == is_irreducible_dense(A), word

    def test_irreducibility_of_long_words(self):
        # kgroups searches A on every call, so check the search above n = 14
        # too: two random words and a seeded product of 8 x 64 = 512 letters,
        # whose A is reducible, so that both answers are checked.
        product = star(random.Random(1).choice(list(enumerate_admissible(8))), random_word(64))
        for word in (random_word(256), random_word(512), product):
            model = build_orbit(word)
            assert k_groups(model).irreducible == is_irreducible_dense(covering_matrix(model)), word
        assert not k_groups(build_orbit(product)).irreducible


def with_symbol(m, k, value):
    """The orbit model ``m`` with the value of its k-th symbol replaced by
    ``value`` and its order kept."""
    word = object.__new__(KneadingWord)
    symbols = list(m.word.symbols)
    symbols[k] = value
    object.__setattr__(word, "symbols", tuple(symbols))
    return markov.OrbitModel(word=word, rho=m.rho, nL=m.nL)


def forced_words(n):
    """Every word {L, R}^(n-1) C, admissible or not."""
    return [
        KneadingWord(tail + (Symbol.C,))
        for tail in itertools.product((Symbol.L, Symbol.R), repeat=n - 1)
    ]


def failed_checks(model, runs=None):
    """The checks of verify that the word of ``model`` fails or skips, in
    scoring order, on its own runs unless ``runs`` are given."""
    runs = markov.transition_intervals(model) if runs is None else runs
    return list(ktheory._word_checks(model, runs, closed_form_a(model.word)))


def lengthen_run(monkeypatch, word, k=0):
    """Make the run form of ``word`` carry a fault in its signed route: its
    run k of A one column longer."""
    run_form = markov._run_form

    def lengthening(m):
        f = run_form(m)
        if m.word == word:
            s, lo, hi = f.A[k]
            f.A[k] = (s, lo, hi + 1)
        return f

    for module in (markov, ktheory):
        monkeypatch.setattr(module, "_run_form", lengthening)


class TestEveryCheckFails:
    """Each of the nine checks of verify fails on some input, with the
    exact set of checks that fail beside it.  The forced (inadmissible)
    words fail four of them live; the other five hold on every forced word
    too, so each is shown failing on an injected fault."""

    def test_forced_words_fail_four_checks(self):
        words = [w for n in range(3, 12) for w in forced_words(n)]
        assert len(words) == 2044
        failed = collections.Counter()
        for w in words:
            failed.update(failed_checks(build_orbit(w)))
        assert failed == {
            "construction_equivalence": 1836,
            "closed_form_k0": 1152,
            "cokernel_bridge": 1152,
            "k1_rank": 161,
        }

    def test_closed_form_k0(self):
        assert failed_checks(build_orbit(parse_word("LLC"))) == [
            "closed_form_k0", "construction_equivalence", "cokernel_bridge",
        ]

    def test_k1_rank(self):
        model = build_orbit(parse_word("LRRC"))
        assert failed_checks(model) == [
            "closed_form_k0", "k1_rank", "construction_equivalence", "cokernel_bridge",
        ]
        runs = markov.transition_intervals(model)
        assert ktheory._word_checks(model, runs, closed_form_a(model.word)) == {
            "closed_form_k0": "closed form a=2 predicts K0=Z_2, SNF route gives Z",
            "k1_rank": "a=2 predicts kernel rank 0, SNF route gives 1",
            "construction_equivalence": "covering runs [(0, 2), (0, 3), (1, 3)] vs signed route "
            "[[-1, -1, 0], [-1, -1, -1], [0, 1, 1]]",
            "cokernel_bridge": "from A: Z, from theta: Z_2",
        }

    def test_construction_equivalence(self):
        assert failed_checks(build_orbit(parse_word("LRC"))) == ["construction_equivalence"]

    def test_cokernel_bridge(self):
        assert failed_checks(build_orbit(parse_word("LLRC"))) == [
            "closed_form_k0", "construction_equivalence", "cokernel_bridge",
        ]

    def test_identity_A_eta(self):
        # RLLRLC's orbit with its second symbol flipped: theta moves, the
        # signed route does not.
        m = build_orbit(parse_word("RLLRLC"))
        runs = markov.transition_intervals(m)
        assert failed_checks(with_symbol(m, 1, Symbol.R), runs) == ["identity_A_eta", "block_form"]

    def test_block_form(self, monkeypatch):
        word = enumerate_admissible(12)[40]
        lengthen_run(monkeypatch, word)
        assert failed_checks(build_orbit(word)) == [
            "identity_A_eta", "block_form", "construction_equivalence",
        ]

    def test_a_word_failing_both_dense_texts_is_spelled_once(self, monkeypatch):
        # block_form and construction_equivalence both print fields of the
        # dense family; the texts of one word share one spelling of it.
        word = enumerate_admissible(12)[40]
        lengthen_run(monkeypatch, word)
        calls = []
        spell = markov._spell

        def counted(f):
            calls.append(f)
            return spell(f)

        for module in (markov, ktheory):
            monkeypatch.setattr(module, "_spell", counted)
        failed = failed_checks(build_orbit(word))
        assert {"block_form", "construction_equivalence"} <= set(failed)
        assert len(calls) == 1

    def test_snf_multiset(self, monkeypatch):
        # A wrong Smith diagonal of I - theta, the only elimination on n
        # columns.
        loop = intlinalg.smith_diagonal
        monkeypatch.setattr(
            ktheory, "smith_diagonal", lambda rows, c: (1,) * 5 + (4,) if c == 6 else loop(rows, c)
        )
        assert failed_checks(build_orbit(parse_word("RLLRRC"))) == [
            "snf_multiset", "cokernel_bridge",
        ]

    def test_zero_rows_cols(self):
        # Emptying the last run (0, 2) of RLLLLRRLRLLC keeps the Smith form.
        model = build_orbit(parse_word("RLLLLRRLRLLC"))
        runs = markov.transition_intervals(model)
        assert runs[10] == (0, 2)
        assert failed_checks(model, runs[:10] + [(0, 0)]) == [
            "construction_equivalence", "zero_rows_cols",
        ]

    def test_not_permutation(self):
        # Runs of one column each, on the diagonal: A = I.
        model = build_orbit(parse_word("RLLRRC"))
        runs = [(k, k + 1) for k in range(5)]
        assert failed_checks(model, runs) == [
            "closed_form_k0",
            "k1_rank",
            "construction_equivalence",
            "cokernel_bridge",
            "not_permutation",
        ]
        assert ktheory._word_checks(model, runs, closed_form_a(model.word)) == {
            "closed_form_k0": "closed form a=2 predicts K0=Z_2, SNF route gives Z^5",
            "k1_rank": "a=2 predicts kernel rank 0, SNF route gives 5",
            "construction_equivalence": f"covering runs {runs} vs signed route "
            "[[0, 1, 1, 0, 0], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1], [0, 0, 1, 1, 0], "
            "[1, 1, 0, 0, 0]]",
            "cokernel_bridge": "from A: Z^5, from theta: Z_2",
            "not_permutation": "A is a permutation matrix: runs "
            "[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]",
        }

    def test_not_permutation_is_skipped_at_period_two(self):
        m = build_orbit(parse_word("RC"))
        runs = markov.transition_intervals(m)
        assert ktheory._word_checks(m, runs, 0) == {"not_permutation": None}


class TestBlockForm:
    """``block_form``, decided as ``X A^T = T X``, gives the verdict of its
    dense definition: ``Aprime`` is the top-left block of ``thetaprime``,
    whose last row is zero."""

    @staticmethod
    def assert_dense_verdict(model, failed):
        t = dense(build_matrices(model))
        n = model.n
        holds = np.array_equal(t.Aprime, t.thetaprime[: n - 1, : n - 1])
        holds &= not t.thetaprime[n - 1].any()
        assert ("block_form" not in failed_checks(model)) == holds == (not failed), model.word

    @pytest.mark.parametrize("n", range(2, 11))
    def test_forced_words(self, n):
        for w in forced_words(n):
            self.assert_dense_verdict(build_orbit(w), failed=False)

    def test_fault_in_the_signed_route(self, monkeypatch):
        word = enumerate_admissible(12)[40]
        lengthen_run(monkeypatch, word)
        self.assert_dense_verdict(build_orbit(word), failed=True)


def single_faults(monkeypatch):
    """``(word, k, route, failed)`` for each single fault in an admissible
    word with 3 <= n <= 12 and each k < n - 1: run k of the covering route
    one column longer, run k of the signed route one column longer (through
    the ``_run_form`` seam), and symbol k flipped in the orbit model.
    ``failed`` is the ``{check: text}`` record of the checks of verify that
    fail, with ``a`` read off the word as verify reads it, or is None where
    the longer run would leave the n - 1 columns of A."""
    for n in range(3, 13):
        for word in enumerate_admissible(n):
            model = build_orbit(word)
            runs = markov.transition_intervals(model)
            signed = markov._run_form(model).A
            a = closed_form_a(word)
            for k in range(n - 1):
                lo, hi = runs[k]
                failed = None
                if hi < n - 1:
                    longer = runs[:k] + [(lo, hi + 1)] + runs[k + 1 :]
                    failed = ktheory._word_checks(model, longer, a)
                yield word, k, "covering", failed
                failed = None
                if signed[k][2] < n - 1:
                    with monkeypatch.context() as patch:
                        lengthen_run(patch, word, k)
                        failed = ktheory._word_checks(model, runs, a)
                yield word, k, "signed", failed
                flipped = with_symbol(model, k, -word.symbols[k])
                yield word, k, "symbol", ktheory._word_checks(flipped, runs, a)


#: A failing check on the left comes with a failing check on the right.
IMPLIED = {
    "k1_rank": {"closed_form_k0"},
    "cokernel_bridge": {"snf_multiset", "closed_form_k0"},
    "block_form": {"identity_A_eta"},
}


#: sha256 over ``repr(list(failed.items()))`` of each fault's record, in
#: the order of :func:`single_faults`: every failure text, pinned.
SINGLE_FAULT_RECORDS = "ba1c96a6aadf286c487e299dd4ebb8615eeb560c2ef6f9b8951a72517655787b"


def test_every_single_fault_fails_a_check_and_keeps_the_implications(monkeypatch):
    injected = collections.Counter()
    records = hashlib.sha256()
    for word, k, route, failed in single_faults(monkeypatch):
        injected[route if failed is not None else f"{route} cannot grow"] += 1
        if failed is None:
            continue
        records.update(repr(list(failed.items())).encode())
        assert failed, (str(word), k, route)
        for check, implied in IMPLIED.items():
            assert check not in failed or implied & set(failed), (str(word), k, route, failed)
    # 378 words, 3,694 runs; 756 runs end at the last column in either
    # route, so 9,570 faults go in.
    assert injected == {
        "covering": 2938,
        "covering cannot grow": 756,
        "signed": 2938,
        "signed cannot grow": 756,
        "symbol": 3694,
    }
    assert records.hexdigest() == SINGLE_FAULT_RECORDS


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
        assert bowen_franks(np.eye(2, dtype=np.int64)) == AbelianGroup(2, ())

    def test_swap(self):
        assert bowen_franks([[0, 1], [1, 0]]) == Z

    def test_input_validation(self):
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
        assert not ktheory._irreducible(markov.transition_intervals(build_orbit(parse_word(text))))

    def test_zero_a_reducible_words_are_exactly_products(self):
        stars = star_words(12)
        for word in all_words(12):
            rep = k_groups(build_orbit(word))
            if rep.a_closed_form != 0:
                continue
            assert (not rep.irreducible) == (str(word) in stars)

    def test_zero_a_does_not_force_reducible(self):
        # Smallest witnesses: the period-2 word and two period-8 words.
        for text in ("RC", "RLLRLRRC", "RLLRRRLC"):
            rep = k_groups(build_orbit(parse_word(text)))
            assert rep.a_closed_form == 0
            assert rep.irreducible

    def test_product_does_not_force_zero_a(self):
        w = star(parse_word("RLC"), parse_word("RLC"))
        assert str(w) == "RLLRLRRLC"
        rep = k_groups(build_orbit(w))
        assert rep.a_closed_form == 1
        assert rep.K0 == AbelianGroup(0, ())
        assert not rep.irreducible

    def test_zero_a_census(self):
        # 63 words with a = 0 up to period 12: 21 reducible, 42 not.
        reducible = irreducible = 0
        for word in all_words(12):
            rep = k_groups(build_orbit(word))
            if rep.a_closed_form != 0:
                continue
            if rep.irreducible:
                irreducible += 1
            else:
                reducible += 1
        assert reducible == 21
        assert irreducible == 42
