"""Command-line front end for the kneading-to-K-groups pipeline.

Subcommands: ``kgroups``, ``matrices``, ``enumerate``, ``verify``,
``find-mu``, ``admissible``, ``itinerary``.  Output is either aligned text
(default) or a machine-readable JSON document with a stable schema:
``{"command", "inputs", "results"}``, matrices carried as
``{"rows", "cols", "entries"}``, groups as ``{"free_rank", "torsion"}``,
and reals as decimal strings.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 domain
violation, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from .dynamics import C_TOL, QuadMap, SolverError, find_superstable_mu, numeric_itinerary
from .intlinalg import (
    AbelianGroup,
    cokernel,
    eye_int,
    is_irreducible,
    is_unimodular,
    smith_diagonal,
)
from .ktheory import TheoremViolationError, closed_form_a, k_groups
from .markov import ConstructionError, build_matrices, build_orbit, transition_matrix
from .symbolic import DomainError, ParseError, enumerate_admissible, is_admissible, parse_word

# Matrix selectors exposed by the matrices subcommand, in display order.
_MATRIX_NAMES = (
    "A",
    "theta",
    "omega",
    "phi",
    "pi",
    "eta",
    "alpha",
    "beta",
    "gamma",
    "Y",
    "X",
    "Aprime",
    "thetaprime",
)

_VERIFY_CHECKS = (
    "closed_form_k0",
    "k1_rank",
    "identity_A_eta",
    "identity_beta_eta",
    "identity_alpha_eta",
    "identity_theta_factors",
    "identity_A_factors",
    "factorization",
    "block_form",
    "construction_equivalence",
    "snf_multiset",
    "cokernel_bridge",
    "zero_rows_cols",
    "not_permutation",
)


def _real(x, precision: int) -> str:
    return format(float(x), f".{precision}g")


def _matrix_payload(M) -> dict:
    r, c = M.shape
    return {
        "rows": int(r),
        "cols": int(c),
        "entries": [[int(e) for e in row] for row in M],
    }


def _group_payload(g: AbelianGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def _grid_lines(M) -> list[str]:
    cells = [[str(int(e)) for e in row] for row in M]
    width = max(len(s) for row in cells for s in row)
    return ["  " + " ".join(s.rjust(width) for s in row) for row in cells]


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _require_admissible_or_force(word, force: bool) -> bool:
    """Returns the admissibility flag, enforcing the --force gate."""
    admissible = is_admissible(word)
    if not admissible and not force:
        raise DomainError(
            f"word {word} is not admissible; pass --force to compute anyway"
        )
    return admissible


def _cmd_kgroups(args):
    word = parse_word(args.word)
    if word.n < 2:
        raise DomainError("K-group computation requires period >= 2")
    admissible = _require_admissible_or_force(word, args.force)
    with warnings.catch_warnings():
        if not admissible:
            warnings.simplefilter("ignore")
        report = k_groups(word)
    inputs = {"word": str(word), "force": bool(args.force)}
    results = {
        "word": str(word),
        "n": word.n,
        "admissible": report.admissible,
        "a": report.a_closed_form,
        "K0": _group_payload(report.K0),
        "K1": _group_payload(report.K1),
        "BF": _group_payload(report.BF),
        "irreducible": report.irreducible,
    }
    text = [
        f"word: {word}",
        f"n: {word.n}",
        f"admissible: {_yesno(report.admissible)}",
        f"a: {report.a_closed_form}",
        f"K0: {report.K0}",
        f"K1: {report.K1}",
        f"BF: {report.BF}",
        f"irreducible: {_yesno(report.irreducible)}",
    ]
    return inputs, results, text, 0


def _cmd_matrices(args):
    word = parse_word(args.word)
    if word.n < 2:
        raise DomainError("matrix construction requires period >= 2")
    admissible = _require_admissible_or_force(word, args.force)
    if args.which is None:
        which = list(_MATRIX_NAMES)
    else:
        which = [token.strip() for token in args.which.split(",")]
        for name in which:
            if name not in _MATRIX_NAMES:
                raise ParseError(
                    f"unknown matrix name {name!r}; choose from {', '.join(_MATRIX_NAMES)}"
                )
    with warnings.catch_warnings():
        if not admissible:
            warnings.simplefilter("ignore")
        mats = build_matrices(build_orbit(word))
    inputs = {"word": str(word), "which": which, "force": bool(args.force)}
    results = {
        "word": str(word),
        "n": word.n,
        "admissible": admissible,
        "matrices": {name: _matrix_payload(getattr(mats, name)) for name in which},
    }
    text = [f"word: {word}"]
    for name in which:
        text.append(f"{name} =")
        text.extend(_grid_lines(getattr(mats, name)))
    return inputs, results, text, 0


def _cmd_enumerate(args):
    words = enumerate_admissible(args.n)
    inputs = {"n": args.n, "count_only": bool(args.count_only)}
    results = {"n": args.n, "count": len(words)}
    text = []
    if not args.count_only:
        listing = [{"word": str(w), "a": closed_form_a(w)} for w in words]
        results["words"] = listing
        # Every word has length n, so the word column needs no padding.
        text.extend(f"{e['word']}  a={e['a']}" for e in listing)
    text.append(f"count: {len(words)}")
    return inputs, results, text, 0


def _is_permutation_matrix(M) -> bool:
    r, c = M.shape
    if r != c:
        return False
    for i in range(r):
        if sum(int(e) for e in M[i, :]) != 1:
            return False
    for j in range(c):
        if sum(int(e) for e in M[:, j]) != 1:
            return False
    return all(int(e) in (0, 1) for row in M for e in row)


def _cmd_verify(args):
    n_max = args.n_max
    if n_max < 2:
        raise DomainError("verification sweep requires n_max >= 2")
    counts = {name: 0 for name in _VERIFY_CHECKS}
    skipped: dict[str, list[str]] = {}
    violations: list[dict] = []
    words_checked = 0
    # a = 0 words split by strong connectivity of A.  Reported verbatim,
    # not scored: reducibility in the a = 0 regime tracks factorizability
    # into shorter words, and non-factorizable a = 0 words, which exist
    # from n = 8 on, have strongly connected matrices.
    a_zero_reducible: list[str] = []
    a_zero_irreducible: list[str] = []

    for n in range(2, n_max + 1):
        for word in enumerate_admissible(n):
            words_checked += 1
            a = closed_form_a(word)
            model = build_orbit(word)
            t = build_matrices(model)
            A = transition_matrix(model)

            def record(name: str, ok: bool, detail) -> None:
                # detail() builds the failure text, only for a failing check.
                if ok:
                    counts[name] += 1
                else:
                    violations.append(
                        {"word": str(word), "check": name, "detail": detail()}
                    )

            # One SNF of I - A^T answers both K-group checks.
            diag_k0 = smith_diagonal(eye_int(n - 1) - A.T)
            K0 = AbelianGroup.from_diagonal(diag_k0)
            expected_K0 = AbelianGroup.cyclic(a)
            record(
                "closed_form_k0",
                K0 == expected_K0,
                lambda: f"closed form a={a} predicts K0={expected_K0}, SNF route gives {K0}",
            )
            kr = diag_k0.count(0)
            expected_kr = 1 if a == 0 else 0
            record(
                "k1_rank",
                kr == expected_kr,
                lambda: f"a={a} predicts kernel rank {expected_kr}, SNF route gives {kr}",
            )

            identity_checks = (
                ("identity_A_eta", t.A @ t.eta, t.eta @ t.theta),
                ("identity_beta_eta", t.beta @ t.eta, t.eta @ t.gamma),
                ("identity_alpha_eta", t.alpha @ t.eta, t.eta @ t.omega),
                ("identity_theta_factors", t.theta, t.gamma @ t.omega),
                ("identity_A_factors", t.A, t.beta @ t.alpha),
            )
            for name, lhs, rhs in identity_checks:
                record(
                    name,
                    np.array_equal(lhs, rhs),
                    lambda: f"lhs {lhs.tolist()} vs rhs {rhs.tolist()}",
                )

            yix = t.Y @ t.inc @ t.X
            record(
                "factorization",
                np.array_equal(t.eta.T, yix)
                and is_unimodular(t.X)
                and is_unimodular(t.Y),
                lambda: f"eta^T {t.eta.T.tolist()} vs Y inc X {yix.tolist()}",
            )

            tp = t.thetaprime
            record(
                "block_form",
                all(int(e) == 0 for e in tp[n - 1, :])
                and np.array_equal(tp[: n - 1, : n - 1], t.Aprime),
                lambda: f"thetaprime {tp.tolist()} vs top-left block {t.Aprime.tolist()}",
            )

            record(
                "construction_equivalence",
                np.array_equal(A, t.A),
                lambda: f"covering route {A.tolist()} vs signed route {t.A.tolist()}",
            )

            # One SNF of I - theta feeds both the multiset and the bridge.
            diag = smith_diagonal(eye_int(n) - t.theta)
            expected_diag = sorted([a] + [1] * (n - 1))
            record(
                "snf_multiset",
                sorted(diag) == expected_diag,
                lambda: f"SNF diagonal {sorted(diag)} vs expected {expected_diag}",
            )

            bridge_lhs = cokernel(eye_int(n - 1) - t.A)
            bridge_rhs = AbelianGroup.from_diagonal(diag)
            record(
                "cokernel_bridge",
                bridge_lhs == bridge_rhs,
                lambda: f"from A: {bridge_lhs}, from theta: {bridge_rhs}",
            )

            record(
                "zero_rows_cols",
                all(any(int(e) != 0 for e in A[i, :]) for i in range(n - 1))
                and all(any(int(e) != 0 for e in A[:, j]) for j in range(n - 1)),
                lambda: f"A has a zero row or column: {A.tolist()}",
            )

            # For n >= 3 the two intervals adjacent to the turning point
            # map onto spans sharing the top interval, so A cannot be a
            # permutation matrix; the single-interval partition (n = 2)
            # forces A = [[1]] and is skipped with a report.
            if n == 2:
                skipped.setdefault("not_permutation", []).append(str(word))
            else:
                record(
                    "not_permutation",
                    not _is_permutation_matrix(A),
                    lambda: f"A is a permutation matrix: {A.tolist()}",
                )

            if a == 0:
                if is_irreducible(A):
                    a_zero_irreducible.append(str(word))
                else:
                    a_zero_reducible.append(str(word))

    ok = not violations
    inputs = {"n_max": n_max}
    results = {
        "n_max": n_max,
        "words_checked": words_checked,
        "checks": counts,
        "skipped": {name: words for name, words in sorted(skipped.items())},
        "a_zero": {
            "reducible": a_zero_reducible,
            "irreducible": a_zero_irreducible,
        },
        "violations": violations,
        "ok": ok,
    }
    text = [f"words checked: {words_checked} (n = 2..{n_max})"]
    for name in _VERIFY_CHECKS:
        text.append(f"  {name}: {counts[name]} ok")
    for name, words in sorted(skipped.items()):
        text.append(f"  {name}: skipped for single-interval words: {', '.join(words)}")
    text.append(
        f"a=0 words: {len(a_zero_reducible)} reducible, "
        f"{len(a_zero_irreducible)} with strongly connected A"
    )
    if a_zero_irreducible:
        text.append(f"  strongly connected at a=0: {', '.join(a_zero_irreducible)}")
    for v in violations:
        text.append(f"VIOLATION {v['word']} [{v['check']}]: {v['detail']}")
    text.append(f"result: {'PASS' if ok else 'FAIL'}")
    return inputs, results, text, 0 if ok else 1


def _cmd_find_mu(args):
    word = parse_word(args.word)
    result = find_superstable_mu(word, tol=args.tol, grid_step=args.grid_step)
    qmap = QuadMap(result.mu)
    prefix = numeric_itinerary(qmap, qmap.step(qmap.c), 2 * word.n, tol=C_TOL)
    itinerary = "".join(s.name for s in prefix)
    p = args.precision
    inputs = {
        "word": str(word),
        "tol": _real(args.tol, p),
        "grid_step": _real(args.grid_step, p),
    }
    results = {
        "word": str(word),
        "mu": _real(result.mu, p),
        "residual": _real(result.residual, p),
        "word_confirmed": result.word_confirmed,
        "itinerary": itinerary,
    }
    text = [
        f"word: {word}",
        f"mu: {_real(result.mu, p)}",
        f"residual: {_real(result.residual, p)}",
        f"word_confirmed: {_yesno(result.word_confirmed)}",
        f"itinerary: {itinerary}",
    ]
    return inputs, results, text, 0


def _cmd_admissible(args):
    word = parse_word(args.word)
    admissible = is_admissible(word)
    inputs = {"word": str(word)}
    results = {"word": str(word), "n": word.n, "admissible": admissible}
    text = [f"{word}: {'admissible' if admissible else 'not admissible'}"]
    return inputs, results, text, 0


def _cmd_itinerary(args):
    qmap = QuadMap(args.mu)
    x0 = qmap.step(qmap.c) if args.x0 is None else args.x0
    symbols = numeric_itinerary(qmap, x0, args.depth, tol=args.tol)
    itinerary = "".join(s.name for s in symbols)
    p = args.precision
    inputs = {
        "mu": _real(args.mu, p),
        "x0": _real(x0, p),
        "depth": args.depth,
        "tol": _real(args.tol, p),
    }
    results = {
        "mu": _real(args.mu, p),
        "x0": _real(x0, p),
        "itinerary": itinerary,
    }
    text = [
        f"mu: {_real(args.mu, p)}",
        f"x0: {_real(x0, p)}",
        f"itinerary: {itinerary}",
    ]
    return inputs, results, text, 0


_HANDLERS = {
    "kgroups": _cmd_kgroups,
    "matrices": _cmd_matrices,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "find-mu": _cmd_find_mu,
    "admissible": _cmd_admissible,
    "itinerary": _cmd_itinerary,
}


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags are accepted before and after the subcommand; the
    # subcommand copies default to SUPPRESS so an absent flag never
    # clobbers a value parsed at the top level.
    parser.add_argument(
        "--format",
        choices=("text", "machine"),
        default=argparse.SUPPRESS if suppress else "text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--precision",
        type=_positive_int,
        metavar="N",
        default=argparse.SUPPRESS if suppress else 10,
        help="significant digits for real numbers (default: 10)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="proceed on inadmissible words where meaningful",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kneadck",
        description=(
            "K-groups, Bowen-Franks groups, and Markov matrices of periodic "
            "kneading sequences of the quadratic family mu x (1 - x)."
        ),
        epilog=(
            "Words are letter strings like RLLRRC or comma-separated values "
            "like -1,+1,+1,-1,-1,0; numeric words starting with '-' must "
            "follow a '--' separator, e.g. 'kneadck kgroups -- -1,+1,0'."
        ),
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("kgroups", help="K-groups and Bowen-Franks group of a word")
    sp.add_argument("word")
    _add_global_flags(sp, suppress=True)

    sp = sub.add_parser("matrices", help="print the matrix family of a word")
    sp.add_argument("word")
    sp.add_argument(
        "--which",
        metavar="NAMES",
        default=None,
        help=f"comma-separated subset of: {', '.join(_MATRIX_NAMES)} (default: all)",
    )
    _add_global_flags(sp, suppress=True)

    sp = sub.add_parser("enumerate", help="list admissible words of a given length")
    sp.add_argument("n", type=int)
    sp.add_argument("--count-only", action="store_true")
    _add_global_flags(sp, suppress=True)

    sp = sub.add_parser("verify", help="exhaustive consistency sweep up to n_max")
    sp.add_argument("n_max", type=int, nargs="?", default=6)
    _add_global_flags(sp, suppress=True)

    sp = sub.add_parser("find-mu", help="superstable parameter realizing a word")
    sp.add_argument("word")
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--grid-step", type=float, default=1e-4)
    _add_global_flags(sp, suppress=True)

    sp = sub.add_parser("admissible", help="test a word for admissibility")
    sp.add_argument("word")
    _add_global_flags(sp, suppress=True)

    sp = sub.add_parser("itinerary", help="numeric itinerary of a point")
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--x0", type=float, default=None, help="default: the image of c")
    sp.add_argument("--depth", type=_positive_int, default=20)
    sp.add_argument("--tol", type=float, default=C_TOL)
    _add_global_flags(sp, suppress=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        inputs, results, text, code = _HANDLERS[args.command](args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except SolverError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (TheoremViolationError, ConstructionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.format == "machine":
        doc = {"command": args.command, "inputs": inputs, "results": results}
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(text))
    return code


if __name__ == "__main__":
    sys.exit(main())
