import dataclasses
import json

import pytest

import kneadck.ktheory
from kneadck.cli import main


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

    def test_enumerate_domain_error(self, capsys):
        code, _, err = run(capsys, ["enumerate", "1"])
        assert code == 3
        assert "error:" in err


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
        # A Smith diagonal of all zeros breaks the SNF checks of RLC (a = 1),
        # and the unimodularity of X and Y in its factorization check.
        monkeypatch.setattr(kneadck.ktheory, "smith_diagonal", lambda M: (0,) * M.shape[0])
        code, out, _ = run(capsys, ["verify", "3"])
        assert code == 1
        lines = out.splitlines()
        for line in (
            "VIOLATION RLC [closed_form_k0]: closed form a=1 predicts K0=0, SNF route gives Z^2",
            "VIOLATION RLC [k1_rank]: a=1 predicts kernel rank 0, SNF route gives 2",
            "VIOLATION RLC [snf_multiset]: SNF diagonal [0, 0, 0] vs expected [1, 1, 1]",
            "VIOLATION RLC [cokernel_bridge]: from A: 0, from theta: Z^3",
            "VIOLATION RLC [factorization]: eta^T [[0, 1], [-1, 0], [1, -1]] vs "
            "Y inc X [[0, 1], [-1, 0], [1, -1]], Smith diagonals X [0, 0], Y [0, 0, 0]",
            "  identity_A_eta: 2 ok",
            "result: FAIL",
        ):
            assert line in lines

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

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_bad_tolerance(self, capsys, tol):
        code, out, err = run(capsys, ["itinerary", "--mu", "3.2", f"--tol={tol}"])
        assert code == 3
        assert out == ""
        assert "tolerance" in err


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
