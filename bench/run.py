"""kneadck benchmark: run one workload in this process and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Each run is a closed loop: one caller, one process, no threads.  Every
call goes through ``kneadck.cli.main([..., "--format", "machine"])`` and
its JSON is checked against the oracles in ``oracles.py``; an output that
disagrees is a benchmark error, named on stderr, and the run exits 1
without a result.  With ``--trace 0`` the run reports the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer metrics from
a pass traced by ``tracer.py``.  End-to-end timings are scaled to a
reference speed of the machine measured by ``speed.py``.  The last line of standard output is the
result; the line before it is a report with the run's provenance.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from speed import SpeedProbe
from tracer import Tracer, self_seconds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

LAYERS = ("symbolic", "markov", "intlinalg", "ktheory", "dynamics", "cli")

#: Exit codes of a clean refusal: parse error, domain violation, solver failure.
REFUSALS = (2, 3, 4)

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 11

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


class BenchmarkError(Exception):
    """The program could not be loaded, or an output disagreed with its oracle."""


@dataclass(frozen=True)
class Call:
    """One CLI call: its arguments, a label naming its input, and the
    number of words it covers."""

    argv: tuple[str, ...]
    label: str
    words: int


class Sweep:
    """``verify 12``: every admissible word of periods 2 to 12."""

    name = "sweep"
    n_max = 12

    def calls(self, rng: random.Random) -> list[Call]:
        words = sum(oracles.a000048(n) for n in range(2, self.n_max + 1))
        argv = ("verify", str(self.n_max), "--format", "machine")
        return [Call(argv, f"verify {self.n_max}", words)]

    def check(self, call: Call, r: dict) -> None:
        if not r["ok"] or r["violations"]:
            raise BenchmarkError(f"{call.label}: violations {r['violations'][:3]}")
        if r["words_checked"] != call.words:
            raise BenchmarkError(
                f"{call.label}: words_checked = {r['words_checked']}, "
                f"A000048 gives {call.words}"
            )
        if not r["checks"]:
            raise BenchmarkError(f"{call.label}: no checks reported")
        for name, count in r["checks"].items():
            # The single-interval word RC is skipped by not_permutation.
            want = call.words - 1 if name == "not_permutation" else call.words
            if count != want:
                raise BenchmarkError(f"{call.label}: check {name} passed {count}, want {want}")


class LongWords:
    """``kgroups W`` on random admissible words of periods 64 and 128."""

    name = "long_words"
    # More short words than long ones, so the median falls on n = 64 and,
    # over two or more passes, the tail with TAIL_BEYOND samples beyond it
    # on n = 128.  The order is shuffled so that a slow spell of a shared
    # machine does not land on one period alone.
    periods = ((64, 16), (128, 6))

    def calls(self, rng: random.Random) -> list[Call]:
        words = [oracles.random_admissible(rng, n) for n, k in self.periods for _ in range(k)]
        rng.shuffle(words)
        return [Call(("kgroups", w, "--format", "machine"), w, 1) for w in words]

    def check(self, call: Call, r: dict) -> None:
        word = call.label
        a = oracles.closed_form_a(word)
        expected = {
            "word": word,
            "n": len(word),
            "admissible": True,
            "a": a,
            "K0": oracles.k0_payload(a),
            "K1": oracles.k1_payload(a),
            # A square matrix and its transpose have the same Smith form.
            "BF": oracles.k0_payload(a),
        }
        for key, want in expected.items():
            if r.get(key) != want:
                raise BenchmarkError(f"{word}: {key} = {r.get(key)!r}, oracle gives {want!r}")


class FindMu:
    """``find-mu W`` on random admissible words of periods 6 to 16."""

    name = "find_mu"
    periods = range(6, 17)
    per_period = 16

    def calls(self, rng: random.Random) -> list[Call]:
        words = [
            oracles.random_admissible(rng, n) for n in self.periods for _ in range(self.per_period)
        ]
        rng.shuffle(words)
        return [Call(("find-mu", w, "--format", "machine"), w, 1) for w in words]

    def check(self, call: Call, r: dict) -> None:
        word = call.label
        mu = float(r["mu"])
        if r["word"] != word or r["word_confirmed"] is not True:
            raise BenchmarkError(f"{word}: result {r!r} does not confirm the word")
        if r["itinerary"] != word * 2:
            raise BenchmarkError(f"{word}: itinerary {r['itinerary']} is not the word twice")
        if not 2.0 < mu <= 4.0:
            raise BenchmarkError(f"{word}: mu = {mu} outside (2, 4]")

    def anchor(self, cli) -> None:
        """``RC`` must give ``1 + sqrt 5`` to 9 digits."""
        code, _, _, out, err = run_call(cli, Call(("find-mu", "RC", "--format", "machine"), "RC", 1))
        if code != 0:
            raise BenchmarkError(f"RC: find-mu exit {code}: {err.strip()}")
        mu = float(json.loads(out)["results"]["mu"])
        if abs(mu - oracles.RC_MU) > 1e-9 * oracles.RC_MU:
            raise BenchmarkError(f"RC: mu = {mu!r}, want 1 + sqrt 5 = {oracles.RC_MU!r}")


class Census:
    """``enumerate N`` with the ``a`` listing, for N = 16, 17 and 18."""

    name = "census"
    sizes = (16, 17, 18)

    def __init__(self) -> None:
        # Each listing is checked in full once; a repeat must equal it.
        self._checked: dict[int, list] = {}

    def calls(self, rng: random.Random) -> list[Call]:
        return [
            Call(("enumerate", str(n), "--format", "machine"), f"enumerate {n}", oracles.a000048(n))
            for n in self.sizes
        ]

    def check(self, call: Call, r: dict) -> None:
        n = int(call.argv[1])
        listing = r["words"]
        if self._checked.get(n) == listing:
            return
        words = [e["word"] for e in listing]
        if r["count"] != call.words or len(words) != call.words:
            raise BenchmarkError(
                f"{call.label}: count {r['count']} with {len(words)} words, "
                f"A000048 gives {call.words}"
            )
        if len(set(words)) != len(words):
            raise BenchmarkError(f"{call.label}: repeated words")
        # Distinct, admissible and as many as A000048: exactly the admissible set.
        for e in listing:
            w = e["word"]
            if not oracles.is_word_form(w, n) or not oracles.is_shift_maximal(w):
                raise BenchmarkError(f"{call.label}: {w} is not an admissible word of period {n}")
            if e["a"] != oracles.closed_form_a(w):
                raise BenchmarkError(f"{w}: a = {e['a']}, closed form gives {oracles.closed_form_a(w)}")
        self._checked[n] = listing


WORKLOADS = {w.name: w for w in (Sweep, LongWords, FindMu, Census)}


@dataclass
class Stats:
    """Outcome of one or more passes over the same list of calls.

    Each call keeps one time per pass, raw and at the reference speed (see
    ``speed.py``); its sample is the median over the passes.  A word
    counts once however many passes ran it, so ``attempted`` and
    ``failed`` are fixed by the inputs.
    """

    calls: list[Call]
    raw_s: list[list[float]] = field(default_factory=list)
    scaled_s: list[list[float]] = field(default_factory=list)
    refused: set = field(default_factory=set)
    passes: int = 0
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    def __post_init__(self) -> None:
        self.raw_s = self.raw_s or [[] for _ in self.calls]
        self.scaled_s = self.scaled_s or [[] for _ in self.calls]

    @property
    def attempted(self) -> int:
        return sum(c.words for c in self.calls)

    @property
    def failed(self) -> int:
        return sum(self.calls[i].words for i in self.refused)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def busy_s(self) -> float:
        return sum(map(sum, self.raw_s))

    def ms_per_word(self, times: list[list[float]]) -> list[float]:
        """Each call's median over the passes, in milliseconds per word."""
        return [1000.0 * statistics.median(t) / c.words for t, c in zip(times, self.calls)]


def import_kneadck():
    """Import kneadck from this checkout's ``src``, and nowhere else."""
    package = SRC / "kneadck"
    if not (package / "__init__.py").is_file():
        raise BenchmarkError(f"no kneadck sources at {package}")
    sys.path.insert(0, str(SRC))
    import kneadck
    import kneadck.cli

    if Path(kneadck.__file__).resolve().parent != package.resolve():
        raise BenchmarkError(f"kneadck was imported from {kneadck.__file__}, not {package}")
    return kneadck


def run_call(cli, call: Call, probe: SpeedProbe | None = None):
    """Run one call in this process; returns (exit code, seconds, speed
    factor, stdout, stderr).

    The exit code is None when the call raised.  Without a ``probe`` the
    speed factor is 1.
    """
    out, err = io.StringIO(), io.StringIO()

    def call_main():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(list(call.argv))
        except Exception as e:  # a crash is a failed word, not the end of the run
            err.write(f"{type(e).__name__}: {e}")
            return None

    if probe is None:
        start = time.perf_counter()
        code = call_main()
        seconds, factor = time.perf_counter() - start, 1.0
    else:
        code, seconds, factor = probe.measure(call_main)
    return code, seconds, factor, out.getvalue(), err.getvalue()


def run_pass(cli, workload, stats: Stats, tracer=None, probe: SpeedProbe | None = None) -> None:
    """Run every call once, check each output and add it to ``stats``.

    With a ``probe``, each call's time is also scaled to the reference
    speed (see ``speed.py``).
    """
    gc.collect()
    for i, call in enumerate(stats.calls):
        if tracer is not None:
            tracer.request = i
        code, seconds, factor, out, err = run_call(cli, call, probe)
        if code is None or code in REFUSALS:
            stats.refused.add(i)
        elif code == 0:
            workload.check(call, json.loads(out)["results"])
        else:
            raise BenchmarkError(f"{call.label}: exit {code}: {err.strip()[:500]}")
        stats.raw_s[i].append(seconds)
        stats.scaled_s[i].append(seconds * factor)
    stats.passes += 1


def bracketed_pass(cli, workload, stats: Stats, tracer=None) -> float:
    """One pass; returns its time in ``cli.main`` at the reference speed,
    probed only before and after the pass so that no probe runs inside a
    traced span."""
    before = stats.probe.factor(force=True)
    run_pass(cli, workload, stats, tracer)
    return stats.busy_s * (before + stats.probe.factor(force=True)) / 2


def timed_phase(cli, workload, calls: list[Call], seconds: float) -> Stats:
    """Whole passes over ``calls`` while the next is expected to end within
    ``seconds``; at least one."""
    stats = Stats(calls)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        run_pass(cli, workload, stats, probe=stats.probe)
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            return stats


def tail(samples: list[float]) -> tuple[float, dict]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for such a percentile above the median, the
    maximum is reported, and the returned note says so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n > 2 * TAIL_BEYOND:
        rank = n - TAIL_BEYOND
        return ordered[rank - 1], {"percentile": 100.0 * rank / n, "samples": n, "beyond": TAIL_BEYOND}
    return ordered[-1], {"percentile": 100.0, "samples": n, "beyond": 0}


def setup_seconds(workload_name: str, seed: int) -> tuple[list[float], list[float]]:
    """Time fresh processes from start until kneadck is imported and the
    inputs are generated; returns the raw times and the same times at the
    reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe"]
    probe = SpeedProbe()
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = probe.factor(force=True)
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise BenchmarkError(f"set-up probe failed with exit {code}")
        raw.append(seconds)
        scaled.append(seconds * (before + probe.factor(force=True)) / 2)
    return raw, scaled


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(stats: Stats, setup_raw: list[float], setup: list[float]) -> tuple[dict, dict]:
    """The metrics at the reference speed, and a report that also holds
    the raw figures."""
    samples = stats.ms_per_word(stats.scaled_s)
    raw = stats.ms_per_word(stats.raw_s)
    tail_ms, tail_note = tail(samples)
    words = [c.words for c in stats.calls]
    metrics = {
        "setup_s": statistics.median(setup),
        "words_per_s": stats.completed / (sum(m * w for m, w in zip(samples, words)) / 1000.0),
        "word_ms_p50": statistics.median(samples),
        "word_ms_tail": tail_ms,
        "ok_ratio": stats.completed / stats.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "setup_samples_s": setup,
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "words_per_s": stats.completed / (sum(m * w for m, w in zip(raw, words)) / 1000.0),
            "word_ms_p50": statistics.median(raw),
            "word_ms_tail": tail(raw)[0],
        },
        "word_ms_tail": tail_note,
        "word_ms_p50_samples": len(samples),
        "fail_ratio": stats.failed / stats.attempted,
        "fail_denominator": stats.attempted,
        "refused": sorted(stats.calls[i].label for i in stats.refused),
        "calls": len(stats.calls),
        "passes": stats.passes,
        "busy_s": stats.busy_s,
        "speed_probes": len(stats.probe.probes),
        "median_speed_factor": stats.probe.median_factor(),
    }
    return metrics, details


def layer_metrics(names, tracer: Tracer, words: int, overhead: float) -> dict:
    """Per-layer metrics named ``<module>.<function>.<what>`` from the spans."""
    calls = tracer.call_counts()
    self_s = self_seconds(tracer.spans)
    spans = tracer.spans

    def children(child: str, parent: str):
        return [s for s in spans if s.name == child and s.parent is not None
                and spans[s.parent].name == parent]

    enumerated = sum(oracles.a000048(s.size) for s in spans
                     if s.name == "symbolic.enumerate_admissible" and s.ok and s.size)
    tested = len(children("symbolic.is_admissible", "symbolic.enumerate_admissible"))
    confirmed = sum(1 for s in spans if s.name == "dynamics.find_superstable_mu" and s.ok)
    roots = len(children("dynamics.numeric_itinerary", "dynamics.find_superstable_mu"))
    derived = {
        # A generator that tests no candidates through is_admissible counts
        # each word it yields as one candidate.
        "symbolic.enumerate_admissible.yield_ratio":
            enumerated / max(enumerated, tested) if enumerated else 0.0,
        "intlinalg.snf_per_word": calls["intlinalg.smith_normal_form"] / words,
        "dynamics.confirm_ratio": confirmed / roots if roots else 0.0,
        "bench.tracing_overhead_ratio": overhead,
    }
    out = {}
    for name in names:
        function, _, what = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif what == "calls":
            out[name] = calls[function]
        elif what == "self_s":
            out[name] = self_s.get(function, 0.0)
        elif what == "max_dim":
            out[name] = max((s.size for s in spans if s.name == function), default=0)
        else:
            raise BenchmarkError(f"no rule computes per-layer metric {name}")
    return out


def make_tracer(kneadck) -> Tracer:
    """A tracer over the package and its layer modules.

    ``mt_compare`` is only counted: it is called hundreds of thousands of
    times per run.  SNF spans record the larger matrix dimension and
    enumeration spans the period.
    """

    def word_of(args):
        # The word itself, or an orbit model's word.
        first = getattr(args[0], "word", args[0]) if args else None
        return first if isinstance(first, kneadck.KneadingWord) else None

    return Tracer(
        [kneadck] + [getattr(kneadck, m) for m in LAYERS],
        count_only={"symbolic.mt_compare"},
        probes={
            "intlinalg.smith_normal_form": lambda args: max(np.shape(args[0])) if args else 0,
            "symbolic.enumerate_admissible": lambda args: int(args[0]) if args else 0,
        },
        word_of=word_of,
    )


def git_revision() -> str | None:
    """HEAD of this checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kneadck").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
    }


def inputs_record(calls: list[Call]) -> dict:
    text = "\n".join(" ".join(c.argv) for c in calls)
    return {
        "calls": len(calls),
        "words": sum(c.words for c in calls),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def with_units(values: dict, specs: list[dict]) -> dict:
    """Attach units from BENCHMARK.json; the names must match it exactly."""
    if set(values) != {m["name"] for m in specs}:
        raise BenchmarkError(
            f"metric names {sorted(values)} differ from BENCHMARK.json {sorted(m['name'] for m in specs)}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def pin_to_one_cpu() -> int:
    """Keep this process, and the set-up probes it starts, on one CPU, so
    that the speed probes run on the CPU the timed calls run on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(args) -> int:
    spec = load_spec()
    machine = None if args.setup_probe else provenance()
    cpu = None if args.setup_probe else pin_to_one_cpu()
    workload = WORKLOADS[args.workload]()
    kneadck = import_kneadck()
    generate_start = time.perf_counter()
    calls = workload.calls(random.Random(args.seed))
    generate_s = time.perf_counter() - generate_start
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    cli = kneadck.cli
    if isinstance(workload, FindMu):
        workload.anchor(cli)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "pinned_cpu": cpu,
        "inputs": inputs_record(calls),
        "generate_s": generate_s,
    }

    if args.trace:
        plain = Stats(calls)
        plain_s = bracketed_pass(cli, workload, plain)
        tracer = make_tracer(kneadck)
        stats = Stats(calls)
        with tracer:
            traced_s = bracketed_pass(cli, workload, stats, tracer)
        overhead = traced_s / plain_s
        values = layer_metrics([m["name"] for m in spec["per_layer"]], tracer, stats.attempted, overhead)
        metrics = with_units(values, spec["per_layer"])
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans_{workload.name}_seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        report.update(
            spans=str(spans_path.relative_to(ROOT)),
            span_count=len(tracer.spans),
            untraced_busy_s=plain.busy_s,
            traced_busy_s=stats.busy_s,
        )
    else:
        setup_raw, setup = setup_seconds(workload.name, args.seed)
        stats = timed_phase(cli, workload, calls, args.seconds)
        values, details = end_to_end_metrics(stats, setup_raw, setup)
        metrics = with_units(values, spec["end_to_end"])
        report.update(details)

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": True,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one kneadck benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BenchmarkError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
