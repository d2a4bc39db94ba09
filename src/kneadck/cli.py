"""Command-line front end for the kneading-to-K-groups pipeline.

Subcommands: ``kgroups``, ``matrices``, ``enumerate``, ``verify``,
``find-mu``, ``admissible``, ``itinerary``.  Output is either aligned text
(default) or a machine-readable JSON document with a stable schema:
``{"command", "inputs", "results"}``, matrices carried as
``{"rows", "cols", "entries"}``, groups as ``{"free_rank", "torsion"}``,
and reals as decimal strings.  The document is byte-identical to
``json.dumps(doc, indent=2)``; ``_machine_json`` writes each container of
scalars, and each list of them, with one C-encoder call.  The text of
``kgroups``, ``find-mu`` and ``itinerary`` is their ``results``, one
``key: value`` line per entry; a forced inadmissible word is flagged
``admissible: no``, never warned.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 domain
violation, 4 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from itertools import chain

from .dynamics import C_TOL, QuadMap, SolverError, find_superstable_mu, numeric_itinerary
from .intlinalg import AbelianGroup
from .ktheory import TheoremViolationError, k_groups, verify
from .markov import ConstructionError, TheoremMatrices, build_matrices, build_orbit
from .symbolic import DomainError, ParseError, _word_text
from .symbolic import is_admissible, parse_word, search_admissible

# Matrix selectors exposed by the matrices subcommand, in display order.
_MATRIX_NAMES = tuple(f.name for f in dataclasses.fields(TheoremMatrices))


def _real(x, precision: int) -> str:
    return format(float(x), f".{precision}g")


def _matrix_payload(M: list[list[int]]) -> dict:
    return {"rows": len(M), "cols": len(M[0]), "entries": M}


def _group_payload(g: AbelianGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


# Writes containers flat with "\0" between items; ``ensure_ascii`` escapes a
# "\0" inside a string, so every raw "\0" is a separator to re-indent.  The
# documents are fresh trees, so the circular-reference walk is left out.
_FLAT = json.JSONEncoder(separators=("\0", ": "), check_circular=False)
_SCALARS = (str, int, float, type(None))
_SCALAR_TYPES = {*_SCALARS, bool}  # exact types, so a container's set of them is built in C
_ENCODABLE = (dict, list, tuple, *_SCALARS)


def _machine_json(o, indent: str = "\n") -> str:
    """``json.dumps(o, indent=2, default=_group_payload)``, byte for byte, for
    str keys.  Python walks down to containers of scalars, and to lists of
    them, and writes each with one C-encoder call."""
    if type(o) in _SCALAR_TYPES:
        return _FLAT.encode(o)
    if not isinstance(o, _ENCODABLE):
        return _machine_json(_group_payload(o), indent)
    if isinstance(o, _SCALARS) or not o:
        return _FLAT.encode(o)
    inner = indent + "  "
    kinds = set(map(type, o.values() if isinstance(o, dict) else o))
    if kinds <= _SCALAR_TYPES:
        text = _FLAT.encode(o)
        return text[0] + inner + text[1:-1].replace("\0", "," + inner) + indent + text[-1]
    if isinstance(o, dict):
        items = (f"{_FLAT.encode(k)}: {_machine_json(v, inner)}" for k, v in o.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    leaves = all(o) and (kinds == {dict} or kinds <= {list, tuple})
    members = map(dict.values, o) if kinds == {dict} else o
    if not (leaves and set(map(type, chain.from_iterable(members))) <= _SCALAR_TYPES):
        return "[" + inner + ("," + inner).join(_machine_json(v, inner) for v in o) + indent + "]"
    # No scalar's text ends in a bracket: a "\0" after one separates members.
    text, deeper = _FLAT.encode(o), inner + "  "
    opening, closing = text[1], text[-2]
    body = text[2:-2].replace(f"{closing}\0{opening}", f"{inner}{closing},{inner}{opening}{deeper}")
    body = body.replace("\0", "," + deeper)
    return f"[{inner}{opening}{deeper}{body}{inner}{closing}{indent}]"


def _grid_lines(M: list[list[int]]) -> list[str]:
    cells = [[str(e) for e in row] for row in M]
    width = max(len(s) for row in cells for s in row)
    return ["  " + " ".join(s.rjust(width) for s in row) for row in cells]


def _result_lines(results: dict) -> list[str]:
    return [
        f"{key}: {('yes' if value else 'no') if isinstance(value, bool) else value}"
        for key, value in results.items()
    ]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if value >= 1:
            return value
    raise argparse.ArgumentTypeError("must be a positive integer")


def _precision(text: str) -> int:
    """A positive number of significant digits that ``format`` accepts."""
    value = _positive_int(text)
    try:
        format(0.0, f".{value}g")
    except ValueError:
        raise argparse.ArgumentTypeError("too many digits to format a real with") from None
    return value


def _orbit_with_force_gate(args, what: str):
    """The ordered orbit of ``args.word``, refusing period 1 and, without
    ``--force``, inadmissible words."""
    word = parse_word(args.word)
    if word.n < 2:
        raise DomainError(f"{what} requires period >= 2")
    model = build_orbit(word)
    if not model.admissible and not args.force:
        raise DomainError(f"word {word} is not admissible; pass --force to compute anyway")
    return model


def _cmd_kgroups(args):
    report = k_groups(_orbit_with_force_gate(args, "K-group computation"))
    word = report.word
    spelled = str(word)
    inputs = {"word": spelled, "force": bool(args.force)}
    results = {
        "word": spelled,
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
    model = _orbit_with_force_gate(args, "matrix construction")
    word = model.word
    if args.which is None:
        which = list(_MATRIX_NAMES)
    else:
        which = list(dict.fromkeys(token.strip() for token in args.which.split(",")))
        for name in which:
            if name not in _MATRIX_NAMES:
                raise ParseError(
                    f"unknown matrix name {name!r}; choose from {', '.join(_MATRIX_NAMES)}"
                )
    mats = build_matrices(model)
    spelled = str(word)
    inputs = {"word": spelled, "which": which, "force": bool(args.force)}
    results = {"word": spelled, "n": word.n, "admissible": model.admissible}
    # Each format reads the matrices in its own shape; only the chosen one is assembled.
    text = [f"word: {spelled}"]
    if args.format == "machine":
        results["matrices"] = {name: _matrix_payload(getattr(mats, name)) for name in which}
    else:
        for name in which:
            text.append(f"{name} =")
            text.extend(_grid_lines(getattr(mats, name)))
    return inputs, results, text, 0


def _cmd_enumerate(args):
    found = search_admissible(args.n)
    inputs = {"n": args.n, "count_only": bool(args.count_only)}
    results = {"n": args.n, "count": len(found)}
    text = []
    if not args.count_only:
        # Each format reads the pairs in its own shape; only machine output
        # builds the word dicts.
        if args.format == "machine":
            results["words"] = [{"word": word, "a": a} for word, a in found]
        else:
            # Every word has length n, so the word column needs no padding.
            text.extend(f"{word}  a={a}" for word, a in found)
    text.append(f"count: {len(found)}")
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
    spelled = str(word)
    inputs = {"word": spelled}
    # find_superstable_mu raises unless its itinerary confirms the word.
    results = {
        "word": spelled,
        "mu": _real(result.mu, p),
        "residual": _real(result.residual, p),
        "word_confirmed": True,
        "itinerary": _word_text(result.itinerary),
    }
    return inputs, results, None, 0


def _cmd_admissible(args):
    word = parse_word(args.word)
    admissible = is_admissible(word)
    spelled = str(word)
    inputs = {"word": spelled}
    results = {"word": spelled, "n": word.n, "admissible": admissible}
    text = [f"{spelled}: {'admissible' if admissible else 'not admissible'}"]
    return inputs, results, text, 0


def _cmd_itinerary(args):
    qmap = QuadMap(args.mu)
    x0 = qmap.step(qmap.c) if args.x0 is None else args.x0
    symbols = numeric_itinerary(qmap, x0, args.depth, tol=args.tol)
    p = args.precision
    point = {"mu": _real(args.mu, p), "x0": _real(x0, p)}
    inputs = {**point, "depth": args.depth, "tol": _real(args.tol, p)}
    results = {**point, "itinerary": _word_text(symbols)}
    return inputs, results, None, 0


# Global flags, accepted before and after the subcommand.  Every parser owns
# its copies (not shared through ``parents``), which default to SUPPRESS but on
# the root, so a flag absent after the subcommand never clobbers one before it.
_FLAGS = (
    ("--format", dict(choices=("text", "machine"), help="output format (default: text)")),
    ("--precision", dict(
        type=_precision, metavar="N", help="significant digits for real numbers (default: 10)"
    )),
    ("--force", dict(action="store_true", help="proceed on inadmissible words where meaningful")),
)


# The subcommands, in help order: name, help, handler and own arguments.  Each
# handler returns (inputs, results, text, exit code); text None means one
# ``key: value`` line per entry of results.
_WORD = (("word", {}),)
_COMMANDS = (
    ("kgroups", "K-groups and Bowen-Franks group of a word", _cmd_kgroups, _WORD),
    ("matrices", "print the matrix family of a word", _cmd_matrices, (*_WORD, ("--which", dict(
        metavar="NAMES",
        help=f"comma-separated subset of: {', '.join(_MATRIX_NAMES)} (default: all)",
    )))),
    ("enumerate", "list admissible words of a given length", _cmd_enumerate, (
        ("n", dict(type=int)), ("--count-only", dict(action="store_true")),
    )),
    ("verify", "exhaustive consistency sweep up to n_max", _cmd_verify, (
        ("n_max", dict(type=int, nargs="?", default=6)),
    )),
    ("find-mu", "superstable parameter realizing a word", _cmd_find_mu, _WORD),
    ("admissible", "test a word for admissibility", _cmd_admissible, _WORD),
    ("itinerary", "numeric itinerary of a point", _cmd_itinerary, (
        ("--mu", dict(type=float, required=True)),
        ("--x0", dict(type=float, help="default: the image of c")),
        ("--depth", dict(type=_positive_int, default=20)),
        ("--tol", dict(type=float, default=C_TOL)),
    )),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every call of :func:`main` can share it."""
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
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name, summary, handler, arguments in _COMMANDS:
        sp = sub.add_parser(name, help=summary)
        for argument, spec in arguments:
            sp.add_argument(argument, **spec)
        sp.set_defaults(handler=handler)

    for p in (parser, *sub.choices.values()):
        for flag, spec in _FLAGS:
            p.add_argument(flag, default=argparse.SUPPRESS, **spec)
    parser.set_defaults(format="text", precision=10, force=False)
    return parser


# The exit code of each error a handler may raise.
_EXIT_CODES = {
    ParseError: 2,
    DomainError: 3,
    SolverError: 4,
    TheoremViolationError: 1,
    ConstructionError: 1,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        inputs, results, text, code = args.handler(args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_CODES[type(e)]

    if args.format == "machine":
        doc = {"command": args.command, "inputs": inputs, "results": results}
        print(_machine_json(doc))
    else:
        print("\n".join(_result_lines(results) if text is None else text))
    return code


if __name__ == "__main__":
    sys.exit(main())
