import dataclasses
import itertools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kneadck.ktheory
import kneadck.markov
import kneadck.symbolic
from kneadck.cli import _group_payload, _machine_json, build_parser, main
from kneadck.intlinalg import AbelianGroup
from kneadck.ktheory import closed_form_a
from kneadck.markov import TheoremMatrices, build_orbit
from kneadck.symbolic import KneadingWord, Symbol, enumerate_admissible, is_admissible, parse_word

from reference import covering_matrix
from test_ktheory import random_word
from test_symbolic import a000048


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_machine(capsys, argv):
    code, out, err = run(capsys, ["--format", "machine", *argv])
    return code, json.loads(out), err


def assert_unknown_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, out, err = run(capsys, ["kgroups", "RLX"])
        assert code == 2
        assert "error:" in err

    def test_parse_error_message(self, capsys):
        assert run(capsys, ["admissible", "RLX"]) == (2, "", "error: unknown symbol 'X'\n")

    def test_domain_error_fixed_point(self, capsys):
        code, _, err = run(capsys, ["kgroups", "C"])
        assert code == 3
        assert "period >= 2" in err

    def test_inadmissible_gate(self, capsys):
        code, _, err = run(capsys, ["kgroups", "LRC"])
        assert code == 3
        assert "--force" in err

    def test_force_overrides_gate(self, capsys):
        code, out, _ = run(capsys, ["kgroups", "LRC", "--force"])
        assert code == 0
        assert "admissible: no" in out.splitlines()

    def test_force_does_not_carry_into_the_next_call(self, capsys):
        # main shares one parser across calls in a process.
        assert run(capsys, ["kgroups", "LRC", "--force"])[0] == 0
        code, _, err = run(capsys, ["kgroups", "LRC"])
        assert code == 3
        assert "--force" in err

    @pytest.mark.parametrize("command", ["kgroups", "matrices"])
    def test_forced_inadmissible_writes_no_stderr(self, capsys, command):
        # Inadmissibility is reported in the output, not by a warning.
        code, out, err = run(capsys, [command, "LRC", "--force"])
        assert code == 0
        assert out.startswith("word: LRC\n")
        assert err == ""

    def test_solver_error(self, capsys):
        code, _, err = run(capsys, ["find-mu", "LRC"])
        assert code == 4
        assert "error:" in err

    def test_unknown_matrix_name(self, capsys):
        code, _, err = run(capsys, ["matrices", "RLC", "--which", "Q"])
        assert code == 2
        assert "unknown matrix name" in err

    def test_argparse_rejects_bad_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kgroups", "RLC", "--format", "yaml"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--depth", "--precision"])
    @pytest.mark.parametrize("value", ["abc", "x", "1.5", "0", "-2"])
    def test_positive_int_flags(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["itinerary", "--mu", "3.2", f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive integer" in err
        assert "_positive_int" not in err

    @pytest.mark.parametrize(
        "argv",
        [["find-mu", "RLC"], ["itinerary", "--mu", "3.5"]],
        ids=["find-mu", "itinerary"],
    )
    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    @pytest.mark.parametrize("value", [str(2**31), str(10**30)])
    def test_precision_beyond_format(self, capsys, argv, before, value):
        # format() refuses these precisions; the flag does too, before any work.
        flag = ["--precision", value]
        with pytest.raises(SystemExit) as exc:
            main([*flag, *argv] if before else [*argv, *flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --precision: too many digits" in err
        assert "_precision" not in err and "Traceback" not in err

    def test_largest_precision_format_accepts(self, capsys):
        code, out, _ = run(capsys, ["itinerary", "--mu", "3.5", "--precision", str(2**31 - 1)])
        assert code == 0
        assert out.startswith("mu: 3.5\nx0: 0.875\n")

    def test_enumerate_domain_error(self, capsys):
        code, _, err = run(capsys, ["enumerate", "1"])
        assert code == 3
        assert "error:" in err


# A minimal valid argv of each command, after its name.
COMMANDS = {
    "kgroups": ["RLC"],
    "matrices": ["RLC"],
    "enumerate": ["4"],
    "verify": [],
    "find-mu": ["RLC"],
    "admissible": ["RLC"],
    "itinerary": ["--mu", "3.5"],
}

# Each global flag as given, with the value it parses to; none is a default.
GLOBAL_FLAGS = {
    "format": (["--format", "machine"], "machine"),
    "precision": (["--precision", "3"], 3),
    "force": (["--force"], True),
}


class TestGlobalFlags:
    @pytest.mark.parametrize("dest", list(GLOBAL_FLAGS))
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_command_takes_every_global_flag(self, command, dest):
        parse = build_parser().parse_args
        argv = [command, *COMMANDS[command]]
        flag, value = GLOBAL_FLAGS[dest]
        others = [token for d, (f, _) in GLOBAL_FLAGS.items() if d != dest for token in f]
        assert getattr(parse(argv), dest) != value
        assert getattr(parse([*argv, *flag]), dest) == value
        # Given before the name, the flag survives a parse of the command's
        # own copies of the flags in which it alone is absent.
        assert getattr(parse([*flag, *argv, *others]), dest) == value


class TestOneOrbitSort:
    """kgroups and matrices sort the shifts of a word once per call: the
    gate reads admissibility off the orbit the command goes on to use."""

    @pytest.fixture
    def sorted_words(self, monkeypatch):
        # Every route to the shift keys, build_orbit's and is_admissible's.
        calls = []
        real = kneadck.symbolic.shift_keys

        def counted(w):
            calls.append(str(w))
            return real(w)

        for module in (kneadck.markov, kneadck.symbolic):
            monkeypatch.setattr(module, "shift_keys", counted)
        return calls

    @pytest.mark.parametrize("force", [[], ["--force"]], ids=["gated", "forced"])
    @pytest.mark.parametrize("command", ["kgroups", "matrices"])
    def test_one_sort_per_call(self, capsys, sorted_words, command, force):
        # Every word {L, R}^(n-1) C with n <= 6: 12 admissible, 50 not.
        words = [
            "".join(t) + "C" for n in range(2, 7) for t in itertools.product("LR", repeat=n - 1)
        ]
        refused = 0
        for word in words:
            admissible = is_admissible(parse_word(word))
            sorted_words.clear()
            code, _, _ = run(capsys, [command, word, *force])
            assert code == (0 if admissible or force else 3), word
            assert sorted_words == [word]
            refused += code == 3
        assert refused == (0 if force else 50)


class TestKGroupsCommand:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, ["kgroups", "RLLRRC"])
        assert code == 0
        assert out.splitlines() == [
            "word: RLLRRC",
            "n: 6",
            "admissible: yes",
            "a: 2",
            "K0: Z_2",
            "K1: 0",
            "BF: Z_2",
            "irreducible: yes",
        ]

    def test_machine_output(self, capsys):
        code, doc, _ = run_machine(capsys, ["kgroups", "RLLRRC"])
        assert code == 0
        assert doc["command"] == "kgroups"
        assert doc["inputs"] == {"word": "RLLRRC", "force": False}
        r = doc["results"]
        assert r["n"] == 6 and r["a"] == 2
        assert r["K0"] == {"free_rank": 0, "torsion": [2]}
        assert r["K1"] == {"free_rank": 0, "torsion": []}
        assert r["BF"] == {"free_rank": 0, "torsion": [2]}
        assert r["admissible"] is True and r["irreducible"] is True

    def test_numeric_word_after_separator(self, capsys):
        code, out, _ = run(capsys, ["kgroups", "--", "-1,+1,0"])
        assert code == 0
        assert out.splitlines()[0] == "word: RLC"

    def test_flag_position_irrelevant(self, capsys):
        _, before, _ = run(capsys, ["--format", "machine", "kgroups", "RLC"])
        _, after, _ = run(capsys, ["kgroups", "RLC", "--format", "machine"])
        assert before == after


class TestMatricesCommand:
    def test_selected_grids(self, capsys):
        code, out, _ = run(capsys, ["matrices", "RLC", "--which", "A,beta"])
        assert code == 0
        assert out.splitlines() == [
            "word: RLC",
            "A =",
            "  0 1",
            "  1 1",
            "beta =",
            "   1  0",
            "   0 -1",
        ]

    def test_repeated_names_shown_once(self, capsys):
        code, out, _ = run(capsys, ["matrices", "RLC", "--which", "A,A"])
        assert code == 0
        assert out.splitlines() == ["word: RLC", "A =", "  0 1", "  1 1"]
        code, doc, _ = run_machine(capsys, ["matrices", "RLC", "--which", "A,A"])
        assert code == 0
        assert doc["inputs"]["which"] == ["A"]
        assert list(doc["results"]["matrices"]) == ["A"]
        # First occurrence decides the order.
        _, doc, _ = run_machine(capsys, ["matrices", "RLC", "--which", "beta,A,beta"])
        assert doc["inputs"]["which"] == ["beta", "A"]
        assert list(doc["results"]["matrices"]) == ["beta", "A"]

    def test_period_two_beta(self, capsys):
        code, out, _ = run(capsys, ["matrices", "RC", "--which", "beta"])
        assert code == 0
        assert out.splitlines() == ["word: RC", "beta =", "  -1"]

    def test_family_order(self, capsys):
        names = [f.name for f in dataclasses.fields(TheoremMatrices)]
        assert names == [
            "A", "theta", "omega", "phi", "pi", "eta", "alpha",
            "beta", "gamma", "Y", "X", "Aprime", "thetaprime",
        ]
        code, out, _ = run(capsys, ["matrices", "RLC"])
        assert code == 0
        headers = [line[: -len(" =")] for line in out.splitlines() if line.endswith(" =")]
        assert headers == names

    def test_all_matrices_machine(self, capsys):
        code, doc, _ = run_machine(capsys, ["matrices", "RLLRRC"])
        assert code == 0
        mats = doc["results"]["matrices"]
        expected = {
            "omega", "pi", "phi", "eta", "A", "alpha", "beta",
            "gamma", "theta", "Y", "X", "Aprime", "thetaprime",
        }
        assert set(mats) == expected
        assert mats["A"]["rows"] == 5 and mats["A"]["cols"] == 5
        assert mats["theta"]["rows"] == 6
        assert mats["A"]["entries"] == [
            [0, 1, 1, 0, 0],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1],
            [0, 0, 1, 1, 0],
            [1, 1, 0, 0, 0],
        ]


    def test_transition_matrix_at_period_1024(self, capsys):
        # Index maps build the family of a period-1024 word in about a
        # second; dense products of its factors took about 90 s.
        word = random_word(1024)
        code, doc, _ = run_machine(capsys, ["matrices", str(word), "--which", "A"])
        assert code == 0
        A = doc["results"]["matrices"]["A"]
        assert (A["rows"], A["cols"]) == (1023, 1023)
        assert np.array_equal(np.array(A["entries"]), covering_matrix(build_orbit(word)))


class TestEnumerateCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "4"])
        assert code == 0
        assert out.splitlines() == ["RLLC  a=2", "RLRC  a=0", "count: 2"]

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "8", "--count-only"])
        assert code == 0
        assert out.splitlines() == ["count: 16"]

    def test_machine(self, capsys):
        code, doc, _ = run_machine(capsys, ["enumerate", "3"])
        assert code == 0
        assert doc["results"] == {
            "n": 3,
            "count": 1,
            "words": [{"word": "RLC", "a": 1}],
        }

    @pytest.mark.parametrize("n", range(2, 17))
    def test_listing_is_each_words_text_and_closed_form(self, capsys, n):
        code, doc, _ = run_machine(capsys, ["enumerate", str(n)])
        assert code == 0
        assert doc["results"]["words"] == [
            {"word": str(w), "a": closed_form_a(w)} for w in enumerate_admissible(n)
        ]

    @pytest.mark.parametrize("n", range(2, 21))
    def test_count_only_reads_a000048(self, capsys, n):
        code, out, _ = run(capsys, ["enumerate", str(n), "--count-only"])
        assert (code, out) == (0, f"count: {a000048(n)}\n")


@pytest.fixture
def spies(monkeypatch):
    """Counts the calls of the admissibility search, wherever a module of the
    package binds it, and the :class:`KneadingWord` objects built."""
    counts = {"search": 0, "words": 0}
    search = kneadck.symbolic.search_admissible
    post_init = KneadingWord.__post_init__

    def counted_search(n):
        counts["search"] += 1
        return search(n)

    def counted_post_init(self):
        counts["words"] += 1
        post_init(self)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "search_admissible", None)
        if name.partition(".")[0] == "kneadck" and bound is search:
            monkeypatch.setattr(module, "search_admissible", counted_search)
    monkeypatch.setattr(KneadingWord, "__post_init__", counted_post_init)
    return counts


class TestEnumerateWork:
    @pytest.mark.parametrize(
        "flags",
        [[], ["--format", "machine"], ["--count-only"]],
        ids=["text", "machine", "count-only"],
    )
    def test_one_search_and_no_word_objects(self, capsys, spies, flags):
        code, out, _ = run(capsys, ["enumerate", "9", *flags])
        assert code == 0 and out
        assert spies == {"search": 1, "words": 0}

    def test_enumerate_admissible_searches_once(self, spies):
        words = kneadck.symbolic.enumerate_admissible(9)
        assert spies == {"search": 1, "words": len(words)}


class TestVerifyCommand:
    def test_smallest_sweep_machine(self, capsys):
        code, doc, _ = run_machine(capsys, ["verify", "2"])
        assert code == 0
        r = doc["results"]
        assert r["words_checked"] == 1
        assert r["ok"] is True
        assert r["violations"] == []
        assert r["skipped"] == {"not_permutation": ["RC"]}
        assert r["a_zero"] == {"reducible": [], "irreducible": ["RC"]}
        for name, count in r["checks"].items():
            assert count == (0 if name == "not_permutation" else 1), name

    def test_default_sweep_passes(self, capsys):
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "words checked: 12 (n = 2..6)"
        assert lines[-1] == "result: PASS"

    def test_a_zero_report(self, capsys):
        code, out, _ = run(capsys, ["verify", "8"])
        assert code == 0
        lines = out.splitlines()
        assert "a=0 words: 6 reducible, 3 with strongly connected A" in lines
        assert (
            "  strongly connected at a=0: RC, RLLRLRRC, RLLRRRLC" in lines
        )
        assert lines[-1] == "result: PASS"

    def test_library_report_is_the_machine_results(self, capsys):
        code, doc, _ = run_machine(capsys, ["verify", "8"])
        assert code == 0
        assert dataclasses.asdict(kneadck.ktheory.verify(8)) == doc["results"]

    def test_failing_checks_name_their_witness(self, capsys, monkeypatch):
        # A Smith diagonal of all zeros breaks the SNF checks of RLC (a = 1).
        monkeypatch.setattr(kneadck.ktheory, "smith_diagonal", lambda rows, c: (0,) * c)
        code, out, _ = run(capsys, ["verify", "3"])
        assert code == 1
        lines = out.splitlines()
        for line in (
            "VIOLATION RLC [closed_form_k0]: closed form a=1 predicts K0=0, SNF route gives Z^2",
            "VIOLATION RLC [k1_rank]: a=1 predicts kernel rank 0, SNF route gives 2",
            "VIOLATION RLC [snf_multiset]: SNF diagonal [0, 0, 0] vs expected [1, 1, 1]",
            "VIOLATION RLC [cokernel_bridge]: from A: Z^2, from theta: Z^3",
            "  identity_A_eta: 2 ok",
            "result: FAIL",
        ):
            assert line in lines

    @pytest.mark.parametrize(
        "runs,violations",
        [
            # A row of A with a one the signed route does not have.
            (
                [(0, 2), (0, 2)],
                ["VIOLATION RLC [construction_equivalence]: covering runs [(0, 2), (0, 2)]"
                 " vs signed route [[0, 1], [1, 1]]"],
            ),
            # Ones outside the run, on a row the run itself matches.
            (
                [(1, 2), (1, 2)],
                ["VIOLATION RLC [closed_form_k0]: closed form a=1 predicts K0=0, SNF route gives Z",
                 "VIOLATION RLC [k1_rank]: a=1 predicts kernel rank 0, SNF route gives 1",
                 "VIOLATION RLC [construction_equivalence]: covering runs [(1, 2), (1, 2)]"
                 " vs signed route [[0, 1], [1, 1]]",
                 "VIOLATION RLC [cokernel_bridge]: from A: Z, from theta: 0",
                 "VIOLATION RLC [zero_rows_cols]: A has zero rows [] and zero columns [0]:"
                 " runs [(1, 2), (1, 2)]"],
            ),
            (
                [(1, 2), (1, 1)],
                ["VIOLATION RLC [construction_equivalence]: covering runs [(1, 2), (1, 1)]"
                 " vs signed route [[0, 1], [1, 1]]",
                 "VIOLATION RLC [zero_rows_cols]: A has zero rows [1] and zero columns [0]:"
                 " runs [(1, 2), (1, 1)]"],
            ),
            (
                [(1, 2), (0, 1)],
                ["VIOLATION RLC [closed_form_k0]: closed form a=1 predicts K0=0, SNF route gives Z",
                 "VIOLATION RLC [k1_rank]: a=1 predicts kernel rank 0, SNF route gives 1",
                 "VIOLATION RLC [construction_equivalence]: covering runs [(1, 2), (0, 1)]"
                 " vs signed route [[0, 1], [1, 1]]",
                 "VIOLATION RLC [cokernel_bridge]: from A: Z, from theta: 0",
                 "VIOLATION RLC [not_permutation]: A is a permutation matrix:"
                 " runs [(1, 2), (0, 1)]"],
            ),
        ],
    )
    def test_checks_on_the_runs_name_their_witness(self, capsys, monkeypatch, runs, violations):
        # RLC's runs are [(1, 2), (0, 2)], so A = [[0, 1], [1, 1]]; crafted
        # runs break the checks that read A off them.
        real = kneadck.ktheory.transition_intervals

        def crafted(model):
            return list(runs) if str(model.word) == "RLC" else real(model)

        monkeypatch.setattr(kneadck.ktheory, "transition_intervals", crafted)
        code, out, _ = run(capsys, ["verify", "3"])
        assert code == 1
        found = [line for line in out.splitlines() if line.startswith("VIOLATION")]
        assert found == violations

    def test_n_max_too_small(self, capsys):
        code, _, err = run(capsys, ["verify", "1"])
        assert code == 3
        assert "n_max >= 2" in err


class TestFindMuCommand:
    def test_period_two_machine(self, capsys):
        code, doc, _ = run_machine(capsys, ["find-mu", "RC"])
        assert code == 0
        assert doc["inputs"] == {"word": "RC"}
        r = doc["results"]
        assert r["mu"] == "3.236067977"
        assert r["word_confirmed"] is True
        assert r["itinerary"] == "RCRC"
        assert float(r["residual"]) < 1e-9

    def test_precision_flag(self, capsys):
        code, doc, _ = run_machine(capsys, ["find-mu", "RC", "--precision", "4"])
        assert code == 0
        assert doc["results"]["mu"] == "3.236"

    # The bisection has no grid and no root tolerance: argparse refuses
    # both flags as unknown, whatever their value.
    def test_bad_grid_step(self, capsys):
        for step in ("1e-4", "0.7", "1e-8"):
            assert_unknown_flag(capsys, ["find-mu", "RC", "--grid-step", step])

    @pytest.mark.parametrize("tol", ["1e-12", "nan", "inf", "-inf", "0", "-1e-12"])
    def test_bad_tolerance(self, capsys, tol):
        assert_unknown_flag(capsys, ["find-mu", "RC", f"--tol={tol}"])


class TestAdmissibleCommand:
    def test_yes(self, capsys):
        code, out, _ = run(capsys, ["admissible", "RLC"])
        assert code == 0
        assert out == "RLC: admissible\n"

    def test_no(self, capsys):
        code, out, _ = run(capsys, ["admissible", "LRC"])
        assert code == 0
        assert out == "LRC: not admissible\n"


class TestItineraryCommand:
    def test_explicit_start(self, capsys):
        code, out, _ = run(
            capsys, ["itinerary", "--mu", "4", "--x0", "0.5", "--depth", "3"]
        )
        assert code == 0
        assert out.splitlines() == ["mu: 4", "x0: 0.5", "itinerary: CRL"]

    def test_default_start_is_critical_value(self, capsys):
        code, doc, _ = run_machine(
            capsys, ["itinerary", "--mu", "3.2360679775", "--depth", "8"]
        )
        assert code == 0
        assert doc["results"]["itinerary"].startswith("RCRC")

    def test_start_outside_the_interval(self, capsys):
        assert run(capsys, ["itinerary", "--mu", "3.5", "--x0", "2"]) == (
            3, "", "error: starting point must lie in [0, 1]\n"
        )

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_bad_tolerance(self, capsys, tol):
        code, out, err = run(capsys, ["itinerary", "--mu", "3.2", f"--tol={tol}"])
        assert code == 3
        assert out == ""
        assert "tolerance" in err


class TestProgramEntry:
    @pytest.mark.parametrize(
        "argv, expected_code",
        [(["kgroups", "RLLRRC", "--format", "machine"], 0), (["kgroups", "LRC"], 3)],
        ids=["admissible", "gated"],
    )
    def test_module_runs_as_a_program(self, capsys, argv, expected_code):
        # python -m kneadck.cli goes through the module's __main__ guard.
        src = str(pathlib.Path(kneadck.__file__).parents[1])
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run(
            [sys.executable, "-m", "kneadck.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        code, out, err = run(capsys, argv)
        assert proc.returncode == code == expected_code
        assert proc.stdout == out
        assert proc.stderr == err


class TestMachineFormat:
    @pytest.mark.parametrize(
        "argv",
        [
            ["kgroups", "RLLRRC"],
            ["matrices", "RLC", "--which", "A"],
            ["enumerate", "5"],
            ["verify", "4"],
            ["find-mu", "RLC"],
            ["admissible", "RC"],
            ["itinerary", "--mu", "3.5", "--depth", "6"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_round_trip_is_canonical(self, capsys, argv):
        code, out, _ = run(capsys, ["--format", "machine", *argv])
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) + "\n" == out
        assert set(doc) == {"command", "inputs", "results"}
        assert doc["command"] == argv[0]

    def test_violations_are_written_as_json_dumps_writes_them(self, capsys, monkeypatch):
        # Crafted runs for RLC give a violation text full of brackets, in the
        # list of violation dicts that the writer passes to one encoder call.
        real = kneadck.ktheory.transition_intervals

        def crafted(model):
            return [(0, 2), (0, 2)] if str(model.word) == "RLC" else real(model)

        monkeypatch.setattr(kneadck.ktheory, "transition_intervals", crafted)
        code, out, _ = run(capsys, ["verify", "6", "--format", "machine"])
        assert code == 1
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert json.loads(out)["results"]["violations"] == [{
            "word": "RLC",
            "check": "construction_equivalence",
            "detail": "covering runs [(0, 2), (0, 2)] vs signed route [[0, 1], [1, 1]]",
        }]


# Strings full of what the writer splits on or escapes: its "\0" separator,
# quotes, backslashes, brackets, separators, non-ASCII text and U+2028.
TEXT = st.text(st.sampled_from('\0"\\[]{},: a\u00e9\u2028\n\U0001d11e') | st.characters(), max_size=5)
SCALARS = st.one_of(
    TEXT,
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), True, False, None]),
)
GROUPS = st.builds(AbelianGroup, st.integers(0, 3), st.sampled_from([(), (2,), (2, 6), (3, 3)]))
DICTS = st.dictionaries(TEXT, SCALARS, min_size=1, max_size=3)
LISTS = st.lists(SCALARS, min_size=1, max_size=3)
TREES = st.recursive(
    SCALARS | GROUPS | st.lists(DICTS, max_size=4) | st.lists(LISTS, max_size=4).map(tuple)
    | st.lists(DICTS | LISTS | SCALARS, max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=24,
)


class TestMachineJson:
    @settings(max_examples=200, deadline=None)
    @given(TREES)
    def test_equals_json_dumps(self, tree):
        assert _machine_json(tree) == json.dumps(tree, indent=2, default=_group_payload)

    def test_scalar_subclasses(self):
        # Only exact scalar types take the early return; an int subclass
        # such as a Symbol is still written as json.dumps writes it.
        tree = {"s": Symbol.R, "t": [Symbol.L, True], "u": Symbol.C, "v": 2**70}
        assert _machine_json(tree) == json.dumps(tree, indent=2)
        assert _machine_json(Symbol.R) == json.dumps(Symbol.R) == "-1"

    def test_lists_of_leaves_at_depth(self):
        tree = {"a": [{"w": "]\0{", "x": 1}, {"w": "}", "x": None}], "b": [[1, 2], [3], ()], "c": {}}
        assert _machine_json(tree) == json.dumps(tree, indent=2)
