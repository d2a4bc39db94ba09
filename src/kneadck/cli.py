"""Command-line front end for the kneading-to-K-groups pipeline.

Subcommands: ``kgroups``, ``matrices``, ``enumerate``, ``verify``,
``find-mu``, ``admissible``, ``itinerary``.  Output is either aligned text
(default) or a machine-readable JSON document with a stable schema:
``{"command", "inputs", "results"}``, matrices carried as
``{"rows", "cols", "entries"}``, groups as ``{"free_rank", "torsion"}``,
and reals as decimal strings.  The text of ``kgroups``, ``find-mu`` and
``itinerary`` is their ``results``, one ``key: value`` line per entry; a
forced inadmissible word is flagged ``admissible: no``, never warned.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 domain
violation, 4 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .dynamics import C_TOL, QuadMap, SolverError, find_superstable_mu, numeric_itinerary
from .intlinalg import AbelianGroup
from .ktheory import TheoremViolationError, closed_form_a, k_groups, verify
from .markov import ConstructionError, build_matrices, build_orbit
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


def _result_lines(results: dict) -> list[str]:
    return [
        f"{key}: {('yes' if value else 'no') if isinstance(value, bool) else value}"
        for key, value in results.items()
    ]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _word_with_force_gate(args, what: str):
    """``(word, admissible)`` for ``args.word``, refusing period 1 and,
    without ``--force``, inadmissible words."""
    word = parse_word(args.word)
    if word.n < 2:
        raise DomainError(f"{what} requires period >= 2")
    admissible = is_admissible(word)
    if not admissible and not args.force:
        raise DomainError(f"word {word} is not admissible; pass --force to compute anyway")
    return word, admissible


def _cmd_kgroups(args):
    word, _ = _word_with_force_gate(args, "K-group computation")
    report = k_groups(word)
    inputs = {"word": str(word), "force": bool(args.force)}
    results = {
        "word": str(word),
        "n": word.n,
        "admissible": report.admissible,
        "a": report.a_closed_form,
        "K0": report.K0,
        "K1": report.K1,
        "BF": report.BF,
        "irreducible": report.irreducible,
    }
    return inputs, results, None, 0


def _cmd_matrices(args):
    word, admissible = _word_with_force_gate(args, "matrix construction")
    if args.which is None:
        which = list(_MATRIX_NAMES)
    else:
        which = list(dict.fromkeys(token.strip() for token in args.which.split(",")))
        for name in which:
            if name not in _MATRIX_NAMES:
                raise ParseError(
                    f"unknown matrix name {name!r}; choose from {', '.join(_MATRIX_NAMES)}"
                )
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


def _cmd_verify(args):
    report = verify(args.n_max)
    results = dataclasses.asdict(report)
    a_zero = report.a_zero
    text = [f"words checked: {report.words_checked} (n = 2..{report.n_max})"]
    text.extend(f"  {name}: {count} ok" for name, count in report.checks.items())
    for name, words in report.skipped.items():
        text.append(f"  {name}: skipped for single-interval words: {', '.join(words)}")
    text.append(
        f"a=0 words: {len(a_zero['reducible'])} reducible, "
        f"{len(a_zero['irreducible'])} with strongly connected A"
    )
    if a_zero["irreducible"]:
        text.append(f"  strongly connected at a=0: {', '.join(a_zero['irreducible'])}")
    for v in report.violations:
        text.append(f"VIOLATION {v['word']} [{v['check']}]: {v['detail']}")
    text.append(f"result: {'PASS' if report.ok else 'FAIL'}")
    return {"n_max": report.n_max}, results, text, 0 if report.ok else 1


def _cmd_find_mu(args):
    word = parse_word(args.word)
    result = find_superstable_mu(word)
    p = args.precision
    inputs = {"word": str(word)}
    # find_superstable_mu raises unless its itinerary confirms the word.
    results = {
        "word": str(word),
        "mu": _real(result.mu, p),
        "residual": _real(result.residual, p),
        "word_confirmed": True,
        "itinerary": "".join(s.name for s in result.itinerary),
    }
    return inputs, results, None, 0


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
        "itinerary": "".join(s.name for s in symbols),
    }
    return inputs, results, None, 0


# Each handler returns (inputs, results, text, exit code); text None means
# one ``key: value`` line per entry of results.
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
        print(json.dumps(doc, indent=2, default=_group_payload))
    else:
        print("\n".join(_result_lines(results) if text is None else text))
    return code


if __name__ == "__main__":
    sys.exit(main())
