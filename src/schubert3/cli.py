"""Command line front end: evaluation, identity checks, counts and oracles.

Every subcommand is exact; randomized ones take a seed and are fully
reproducible.  `selftest` runs the checks of `schubert3.checks`, the same
ones the acceptance tests call, and defines none of its own.  Exit codes:
0 on success, 1 when a verification fails, 2 on usage or input errors.

Each handler imports what only it uses (the oracle, the blow-up calculus,
the checks, json).  The module itself imports `spaces`, `dsl` and
`graded_ring` at the top, so every process loads the rings and the DSL,
also for the `oracle` subcommands, which never call them.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import spaces
from .dsl import MAX_LITERAL_DIGITS, ParseError
from .graded_ring import format_signed_sum, monomial_source

if TYPE_CHECKING:
    from . import oracle

__all__ = ["build_parser", "main", "run_cli"]

_SURFACE_VARS = ("x", "y", "z", "w")

# Highest surface degree `oracle pencil` accepts.  A count takes about 10 to
# 70 ms at degree 32 and 25 to 230 ms at degree 40 (seeds 0-3), and a whole
# run about 190 to 410 ms at degree 40.  The exact resultant now sets most of
# that cost, not the Horner evaluation of f, and it grows steeply with the
# degree, so the limit stays at 40 and keeps every run bounded.
MAX_PENCIL_DEGREE = 40

# One row per count command: its help, the help for n and its `coincidence`
# derivation, which refuses n outside the domain that the help for n states.
_COUNTS = {
    "tangent-count": (
        "tangents to a degree-n plane section", "surface degree, n >= 1", "tangent_derivation"
    ),
    "bitangent-count": (
        "bitangents of a general plane section of a degree-n surface",
        "surface degree, n >= 2",
        "bitangent_derivation",
    ),
}

# Most digits `oracle four-lines --input` accepts in a numerator or a
# denominator.  The answer's integers grow about thirteenfold over the
# canonical coordinates, which clear up to six denominators, so 40 digits
# keep them near 3,100 digits, inside Python's 4,300-digit str conversion.
MAX_INPUT_DIGITS = 40


def _surface_source(f: oracle.SurfaceForm) -> str:
    return format_signed_sum(
        (c, monomial_source(_SURFACE_VARS, mono)) for mono, c in f.terms.items()
    )


def _solution_payload(result: oracle.SolutionSet) -> dict:
    return {
        "infinite": result.infinite,
        "solutions": [
            {"coords": list(line.coords), "multiplicity": mult}
            for line, mult in result.solutions
        ],
        "total_multiplicity": result.total_multiplicity,
    }


def _parse_coordinate(x, where: str):
    """A JSON integer, or a string "p" or "p/q" of ASCII digits, as an exact rational."""
    from fractions import Fraction

    text = x if isinstance(x, str) else str(x) if type(x) is int else ""
    parts = text.removeprefix("-").split("/")
    if len(parts) > 2 or not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"{where}: expected an integer or a string p or p/q of ASCII digits")
    if any(len(p) > MAX_INPUT_DIGITS for p in parts):
        raise ValueError(f"{where}: a numerator or denominator exceeds {MAX_INPUT_DIGITS} digits")
    if len(parts) == 2 and not int(parts[1]):
        raise ValueError(f"{where}: zero denominator")
    return Fraction(text)


def _parse_line_entry(entry, k: int) -> oracle.PlueckerLine:
    from . import oracle

    if not isinstance(entry, list) or len(entry) != 6:
        raise ValueError(
            "each line must be a 6-entry array [p01, p02, p03, p23, p31, p12]"
        )
    return oracle.PlueckerLine(
        [_parse_coordinate(x, f"line {k}, entry {i}") for i, x in enumerate(entry, 1)]
    )


def _cmd_eval(args: argparse.Namespace) -> int:
    result = spaces.evaluate_expression(args.space, args.expr)
    if args.json:
        import json

        payload = {
            "space": result.space,
            "input": result.input,
            "monomial": result.monomial,
            "schubert": result.schubert,
        }
        if result.top is not None:
            payload["top"] = result.top
        print(json.dumps(payload))
        return 0
    body = result.schubert if args.basis == "schubert" else result.monomial
    if result.top is not None:
        print(f"{body} = {result.top}")
    else:
        print(body)
    return 0


def _cmd_verify_formulas(args: argparse.Namespace) -> int:
    results = spaces.verify_formula_suite(args.space)
    label_width = max(len(c.label) for c in results)
    space_width = max(len(c.space) for c in results)
    failures = 0
    for c in results:
        status = "ok" if c.holds else "FAIL"
        print(
            f"{c.label:>{label_width}}  {c.space:<{space_width}}  "
            f"{c.lhs} = {c.rhs}  {status}"
        )
        if not c.holds:
            failures += 1
    if failures:
        print(f"{failures} of {len(results)} identities failed")
        return 1
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    """Print a count with its steps, and its whole derivation under --trace.

    The derivation refuses n outside the count's domain; here n is refused
    only at more than MAX_LITERAL_DIGITS digits: below 10^1000 every printed
    value has under 4,000 digits, inside Python's 4,300-digit conversion.
    """
    from . import coincidence

    n = args.n
    if n >= 10**MAX_LITERAL_DIGITS:
        raise ValueError(
            f"{args.command}: n of {len(str(n))} digits exceeds the limit "
            f"of {MAX_LITERAL_DIGITS} digits"
        )
    try:
        derivation = getattr(coincidence, args.derivation)(n)
    except ValueError as exc:
        raise ValueError(f"{args.command}: {exc}") from None
    if args.json:
        import json

        print(json.dumps({"n": n, "count": derivation.count, "trace": list(derivation.trace)}))
        return 0
    print(derivation.count)
    for line in derivation.trace if args.trace else derivation.steps:
        print(line)
    return 0


def _cmd_oracle_four_lines(args: argparse.Namespace) -> int:
    import json
    import random

    from . import oracle

    payload: dict = {}
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{args.input}: not a readable JSON file: {exc}") from None
        if not isinstance(data, dict) or "lines" not in data:
            raise ValueError('the input file must be a JSON object with a "lines" key')
        entries = data["lines"]
        if not isinstance(entries, list) or len(entries) != 4:
            raise ValueError("the four-lines problem needs exactly 4 lines")
        lines = [_parse_line_entry(entry, k) for k, entry in enumerate(entries, 1)]
    else:
        payload["seed"] = args.seed
        lines = list(oracle.random_four_lines(random.Random(args.seed)))
    payload["lines"] = [list(line.coords) for line in lines]
    payload.update(_solution_payload(oracle.lines_meeting_four(*lines)))
    print(json.dumps(payload))
    return 0


def _cmd_oracle_pencil(args: argparse.Namespace) -> int:
    import json
    import random

    from . import oracle

    if not 1 <= args.degree <= MAX_PENCIL_DEGREE:
        raise ValueError(
            f"oracle pencil: --degree {args.degree} is outside the domain "
            f"1 to {MAX_PENCIL_DEGREE}"
        )
    f, plane, vertex = oracle.random_pencil_instance(random.Random(args.seed), args.degree)
    count = oracle.pencil_tangency_count(f, plane, vertex)
    payload = {
        "degree": args.degree,
        "seed": args.seed,
        "surface": _surface_source(f),
        "plane": list(plane),
        "vertex": list(vertex.coords),
        "count": count,
    }
    print(json.dumps(payload))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from . import checks

    failures = 0
    for name, check in checks.CHECKS:
        try:
            check()
        except Exception as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
        else:
            print(f"ok {name}")
    if failures:
        print(f"{failures} of {len(checks.CHECKS)} checks failed")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert3",
        description="Exact enumerative geometry of lines in projective 3-space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression in a space")
    p_eval.add_argument("--space", required=True, choices=spaces.SPACE_NAMES)
    p_eval.add_argument(
        "--basis", choices=("schubert", "monomial"), default="schubert"
    )
    p_eval.add_argument("--json", action="store_true")
    p_eval.add_argument("expr")
    p_eval.set_defaults(handler=_cmd_eval)

    p_verify = sub.add_parser("verify-formulas", help="recheck the identity table")
    p_verify.add_argument("--space", choices=spaces.SPACE_NAMES, default=None)
    p_verify.set_defaults(handler=_cmd_verify_formulas)

    for command, (help_text, n_help, derivation) in _COUNTS.items():
        p_count = sub.add_parser(command, help=help_text)
        p_count.add_argument("n", type=int, help=n_help)
        p_count.add_argument("--trace", action="store_true")
        p_count.add_argument("--json", action="store_true")
        p_count.set_defaults(handler=_cmd_count, derivation=derivation)

    p_oracle = sub.add_parser("oracle", help="exact rational geometry cross-checks")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)

    p_four = oracle_sub.add_parser("four-lines", help="solve a four-lines instance")
    group = p_four.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, default=0)
    group.add_argument("--input", default=None, help="JSON file with a lines array")
    p_four.set_defaults(handler=_cmd_oracle_four_lines)

    p_pencil = oracle_sub.add_parser("pencil", help="count tangents in a random pencil")
    p_pencil.add_argument(
        "--degree",
        type=int,
        required=True,
        help=f"surface degree, 1 to {MAX_PENCIL_DEGREE}",
    )
    p_pencil.add_argument("--seed", type=int, default=0)
    p_pencil.set_defaults(handler=_cmd_oracle_pencil)

    p_self = sub.add_parser("selftest", help="run the built-in invariant checks")
    p_self.set_defaults(handler=_cmd_selftest)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
