"""Self-tests of the benchmark: oracles, tracer arithmetic and output schema.

Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import oracles
import run
import speed
from tracer import Tracer, self_seconds

ROOT = Path(__file__).resolve().parent.parent

# OEIS A000048, n = 2..18, copied from the sequence's table.
A000048 = {
    2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 9, 8: 16, 9: 28, 10: 51, 11: 93,
    12: 170, 13: 315, 14: 585, 15: 1091, 16: 2048, 17: 3855, 18: 7280,
}

END_TO_END = {"setup_s", "words_per_s", "word_ms_p50", "word_ms_tail", "ok_ratio", "peak_rss_mb"}

PER_LAYER = {
    "symbolic.enumerate_admissible.calls",
    "symbolic.enumerate_admissible.self_s",
    "symbolic.is_admissible.calls",
    "symbolic.is_admissible.self_s",
    "symbolic.mt_compare.calls",
    "symbolic.enumerate_admissible.yield_ratio",
    "markov.build_orbit.calls",
    "markov.build_orbit.self_s",
    "markov.build_matrices.calls",
    "markov.build_matrices.self_s",
    "markov.transition_matrix.calls",
    "markov.transition_matrix.self_s",
    "intlinalg.smith_normal_form.calls",
    "intlinalg.smith_normal_form.self_s",
    "intlinalg.smith_normal_form.max_dim",
    "intlinalg.cokernel.calls",
    "intlinalg.cokernel.self_s",
    "intlinalg.kernel_rank.calls",
    "intlinalg.kernel_rank.self_s",
    "intlinalg.determinant.calls",
    "intlinalg.determinant.self_s",
    "intlinalg.is_irreducible.calls",
    "intlinalg.is_irreducible.self_s",
    "intlinalg.solve_rational.calls",
    "intlinalg.solve_rational.self_s",
    "intlinalg.snf_per_word",
    "ktheory.k_groups.calls",
    "ktheory.k_groups.self_s",
    "ktheory.closed_form_a.calls",
    "dynamics.find_superstable_mu.calls",
    "dynamics.find_superstable_mu.self_s",
    "dynamics.numeric_itinerary.calls",
    "dynamics.numeric_itinerary.self_s",
    "dynamics.confirm_ratio",
    "cli.main.calls",
    "cli.main.self_s",
    "bench.tracing_overhead_ratio",
}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n", sorted(A000048))
def test_a000048_formula_matches_table(n):
    assert oracles.a000048(n) == A000048[n]


@pytest.mark.parametrize("n", range(2, 13))
def test_shift_maximal_words_are_counted_by_a000048(n):
    candidates = ("R" + "".join(t) + "C" for t in itertools.product("LR", repeat=n - 2))
    assert sum(oracles.is_shift_maximal(w) for w in candidates) == A000048[n]


def test_signed_order_and_closed_form_by_hand():
    # One R in the common prefix reverses the spatial verdict L < R.
    assert oracles.signed_compare("RL", "RR") == 1
    assert oracles.signed_compare("LR", "LL") == 1
    assert oracles.signed_compare("CL", "CR") == 0
    # Partial products of RLRR: -1, -1, 1, -1.
    assert oracles.closed_form_a("RLRRC") == 1
    assert oracles.closed_form_a("RC") == 0
    assert oracles.closed_form_a("RLLC") == 2
    assert oracles.k0_payload(2) == {"free_rank": 0, "torsion": [2]}
    assert oracles.k1_payload(0) == {"free_rank": 1, "torsion": []}


def test_random_admissible_is_seeded_and_admissible():
    first = [oracles.random_admissible(random.Random(7), 32) for _ in range(3)]
    again = [oracles.random_admissible(random.Random(7), 32) for _ in range(3)]
    assert first == again
    assert all(oracles.is_word_form(w, 32) and oracles.is_shift_maximal(w) for w in first)


def test_tail_rule():
    value, note = run.tail([float(x) for x in range(1, 45)])
    assert value == 34.0  # ten samples, 35..44, lie beyond it
    assert note == {"percentile": 100.0 * 34 / 44, "samples": 44, "beyond": 10}
    value, note = run.tail([3.0, 1.0, 2.0])
    assert value == 3.0 and note["beyond"] == 0


def _fake_layer():
    mod = types.ModuleType("fakepkg.layer")
    exec(
        "def inner():\n    return 1\n\n"
        "def outer():\n    return inner() + inner()\n\n"
        "def hot():\n    return 0\n\n"
        "def _private():\n    return inner()\n",
        mod.__dict__,
    )
    user = types.ModuleType("fakepkg.user")
    user.inner = mod.inner  # as ``from .layer import inner`` binds it
    return mod, user


def test_self_time_of_a_synthetic_nested_call():
    mod, user = _fake_layer()
    original = mod.outer
    # outer starts at 0 and ends at 100; its two inner calls cover 10..30 and 50..60.
    ticks = iter([0, 10, 30, 50, 60, 100, 200, 205])
    tracer = Tracer([mod, user], count_only={"layer.hot"}, clock=lambda: next(ticks))
    with tracer:
        assert "__wrapped__" in vars(mod.outer) and "__wrapped__" not in vars(mod._private)
        assert mod.outer() == 2
        assert mod.hot() == 0
        assert user.inner() == 1
    assert mod.outer is original
    assert self_seconds(tracer.spans, scale=1) == {"layer.outer": 70, "layer.inner": 35}
    outer, first, second, alone = tracer.spans
    assert first.parent == second.parent == outer.id and alone.parent is None
    counts = tracer.call_counts()
    assert counts["layer.outer"] == 1 and counts["layer.inner"] == 3
    assert counts["layer.hot"] == 1 and counts["layer.gone"] == 0


def test_benchmark_json_follows_the_contract():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert s["command"] == ["python3", "bench/run.py"] and s["paths"] == ["bench"]
    assert {w["name"] for w in s["workloads"]} == set(run.WORKLOADS)
    assert {m["name"] for m in s["end_to_end"]} == END_TO_END
    assert {m["name"] for m in s["per_layer"]} == PER_LAYER
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"] + s["workloads"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_end_to_end_metrics_schema():
    calls = [run.Call((), "a", 1), run.Call((), "b", 1), run.Call((), "c", 2)]
    raw = [[0.004, 0.005, 0.006], [0.002, 0.002, 0.003], [0.01, 0.016, 0.03]]
    scaled = [[0.002, 0.002, 0.003], [0.001, 0.001, 0.002], [0.009, 0.008, 0.007]]
    stats = run.Stats(calls, raw_s=raw, scaled_s=scaled, refused={1}, passes=3)
    values, details = run.end_to_end_metrics(stats, [0.6, 0.4, 0.8], [0.3, 0.2, 0.4])
    metrics = run.with_units(values, spec()["end_to_end"])
    assert set(metrics) == END_TO_END
    assert values["ok_ratio"] == 0.75 and details["fail_ratio"] == 0.25
    assert details["fail_denominator"] == 4
    assert values["setup_s"] == 0.3 and values["word_ms_p50"] == 2.0
    assert values["words_per_s"] == pytest.approx(3 / 0.011)
    assert details["raw"]["word_ms_p50"] == 5.0 and details["raw"]["setup_s"] == 0.6
    assert details["refused"] == ["b"]


class _Refusing:
    """A stand-in for ``kneadck.cli`` that refuses the word ``b``."""

    def main(self, argv):
        time.sleep(0.001)
        if argv[0] == "b":
            return 4
        print(json.dumps({"results": {}}))
        return 0


class _HalfSpeed:
    """A speed probe that finds the machine at half the reference speed."""

    def measure(self, fn):
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start, 0.5


def test_each_word_counts_once_and_is_scaled_to_the_reference_speed():
    calls = [run.Call(("a",), "a", 1), run.Call(("b",), "b", 1)]
    stats = run.Stats(calls)
    for _ in range(3):
        run.run_pass(_Refusing(), _Unchecked(), stats, probe=_HalfSpeed())
    assert stats.passes == 3 and stats.attempted == 2 and stats.failed == 1
    assert all(len(t) == 3 for t in stats.raw_s)
    assert stats.scaled_s == [[t / 2 for t in times] for times in stats.raw_s]
    assert stats.busy_s == sum(map(sum, stats.raw_s)) >= 0.006


def test_speed_probe_reports_the_reference_over_the_current_time(monkeypatch):
    monkeypatch.setattr(speed, "reference_seconds", lambda: 2 * speed.REFERENCE_S)
    probe = speed.SpeedProbe(every_s=3600)
    assert probe.factor() == 0.5
    monkeypatch.setattr(speed, "reference_seconds", lambda: speed.REFERENCE_S)
    assert probe.factor() == 0.5  # not re-measured within every_s
    assert probe.factor(force=True) == 1.0
    assert probe.probes == [2 * speed.REFERENCE_S, speed.REFERENCE_S]
    assert speed.reference_work() == speed.reference_work()


def test_speed_probe_samples_inside_a_long_call_and_leaves_its_time_out(monkeypatch):
    def slow_reference():
        time.sleep(0.02)
        return 2 * speed.REFERENCE_S

    def work():
        # 0.3 s in short steps, so that a probe delays the work instead of
        # running inside one long sleep.
        for _ in range(300):
            time.sleep(0.001)
        return "done"

    monkeypatch.setattr(speed, "reference_seconds", slow_reference)
    probe = speed.SpeedProbe(every_s=0.05)
    result, seconds, factor = probe.measure(work)
    assert result == "done" and factor == 0.5
    inside = len(probe.probes) - 2  # one before the call and one after
    assert inside >= 4
    # The probes' own 0.02 s each are not counted as the call's.
    assert 0.29 < seconds < 0.3 + 0.02 * inside


class _Unchecked:
    def check(self, call, results):
        pass


def test_layer_metrics_from_a_traced_pass():
    kneadck = run.import_kneadck()
    calls = [
        run.Call(("kgroups", "RLRRC", "--format", "machine"), "RLRRC", 1),
        run.Call(("find-mu", "RLC", "--format", "machine"), "RLC", 1),
        run.Call(("enumerate", "6", "--format", "machine"), "enumerate 6", 5),
        run.Call(("verify", "4", "--format", "machine"), "verify 4", 4),
    ]
    tracer = run.make_tracer(kneadck)
    stats = run.Stats(calls)
    with tracer:
        run.run_pass(kneadck.cli, _Unchecked(), stats, tracer)
    assert stats.failed == 0 and stats.attempted == 11
    names = [m["name"] for m in spec()["per_layer"]]
    values = run.layer_metrics(names + ["intlinalg.gone.calls", "intlinalg.gone.self_s"],
                               tracer, stats.attempted, 1.5)
    assert values["intlinalg.gone.calls"] == 0 and values["intlinalg.gone.self_s"] == 0.0
    del values["intlinalg.gone.calls"], values["intlinalg.gone.self_s"]
    assert set(run.with_units(values, spec()["per_layer"])) == PER_LAYER
    assert values["cli.main.calls"] == 4 and values["ktheory.k_groups.calls"] == 1
    # enumerate 6, then periods 2, 3 and 4 inside verify 4: 5+1+1+2 words
    # out of 16+1+2+4 candidates.
    assert values["symbolic.enumerate_admissible.yield_ratio"] == 9 / 23
    # Three SNFs in kgroups, five per word in verify.
    assert values["intlinalg.smith_normal_form.calls"] == 3 + 5 * 4
    assert values["intlinalg.snf_per_word"] == 23 / 11
    assert values["dynamics.find_superstable_mu.calls"] == 1
    assert 0 < values["dynamics.confirm_ratio"] <= 1
    assert values["bench.tracing_overhead_ratio"] == 1.5
    assert all(s.word is not None for s in tracer.spans if s.name == "markov.build_matrices")


def test_run_prints_every_end_to_end_metric():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    report, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == report["report"]["fail_denominator"] > 0
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert report["report"]["seed"] == 3 and report["report"]["inputs"]["sha256"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
