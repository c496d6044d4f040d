"""Command line front end: evaluation, identity checks, counts and oracles.

Every subcommand is exact; randomized ones take a seed and are fully
reproducible.  `selftest` runs the checks of `schubert3.checks`, the same
ones the acceptance tests call, and defines none of its own.  Exit codes:
0 on success, 1 when a verification fails, 2 on usage or input errors.

Each handler imports what only it uses (the oracle, the blow-up calculus,
the checks, json), so a process loads just the modules its subcommand runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import spaces
from .dsl import ParseError
from .graded_ring import format_signed_sum, monomial_source

if TYPE_CHECKING:
    from . import oracle

__all__ = ["build_parser", "main", "run_cli"]

_SURFACE_VARS = ("x", "y", "z", "w")

# Highest surface degree `oracle pencil` accepts.  At degree 40 a count takes
# from half a second to several seconds, depending on the seed, and the cost
# grows faster than n^5, so the limit keeps every run bounded.
MAX_PENCIL_DEGREE = 40


def _surface_source(f: oracle.SurfaceForm) -> str:
    return format_signed_sum(
        (f.terms[mono], monomial_source(_SURFACE_VARS, mono)) for mono in sorted(f.terms)
    )


def _coord_json(value):
    if isinstance(value, int):
        return value
    return str(value)


def _solution_payload(result: oracle.SolutionSet) -> dict:
    return {
        "infinite": result.infinite,
        "solutions": [
            {"coords": [_coord_json(c) for c in line.coords], "multiplicity": mult}
            for line, mult in result.solutions
        ],
        "total_multiplicity": result.total_multiplicity,
    }


def _parse_line_entry(entry) -> oracle.PlueckerLine:
    from fractions import Fraction

    from . import oracle

    if not isinstance(entry, list) or len(entry) != 6:
        raise ValueError(
            "each line must be a 6-entry array [p01, p02, p03, p23, p31, p12]"
        )
    return oracle.PlueckerLine([Fraction(str(x)) for x in entry])


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


def _print_count(args: argparse.Namespace, count: int, trace: tuple[str, ...], shown: int) -> int:
    """Print a count with the first `shown` trace lines, all of them under --trace."""
    if args.json:
        import json

        print(json.dumps({"n": args.n, "count": count, "trace": list(trace)}))
        return 0
    print(count)
    for line in trace if args.trace else trace[:shown]:
        print(line)
    return 0


def _cmd_tangent_count(args: argparse.Namespace) -> int:
    from . import coincidence

    n = args.n
    excess = coincidence.surface_excess_class(n)
    pullback = coincidence.phi_pullback(spaces.space("G").symbols["g_s"])
    count = coincidence.tangent_count(n)
    trace = (
        f"excess = {excess}",
        f"pullback of g_s = {pullback}",
        f"integrand = {excess * pullback}",
        f"exceptional integral = {count}",
    )
    return _print_count(args, count, trace, 0)


def _cmd_bitangent_count(args: argparse.Namespace) -> int:
    from . import coincidence

    derivation = coincidence.bitangent_derivation(args.n)
    return _print_count(args, derivation.count, derivation.trace, len(derivation.steps))


def _cmd_oracle_four_lines(args: argparse.Namespace) -> int:
    import json
    import random

    from . import oracle

    payload: dict = {}
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict) or "lines" not in data:
            raise ValueError('the input file must be a JSON object with a "lines" key')
        entries = data["lines"]
        if not isinstance(entries, list) or len(entries) != 4:
            raise ValueError("the four-lines problem needs exactly 4 lines")
        lines = [_parse_line_entry(entry) for entry in entries]
    else:
        seed = args.seed if args.seed is not None else 0
        payload["seed"] = seed
        lines = list(oracle.random_four_lines(random.Random(seed)))
    payload["lines"] = [[_coord_json(c) for c in line.coords] for line in lines]
    payload.update(_solution_payload(oracle.lines_meeting_four(*lines)))
    print(json.dumps(payload))
    return 0


def _cmd_oracle_pencil(args: argparse.Namespace) -> int:
    import json
    import random

    from . import oracle

    if args.degree > MAX_PENCIL_DEGREE:
        raise ValueError(
            f"--degree {args.degree} exceeds the oracle pencil limit of {MAX_PENCIL_DEGREE}"
        )
    seed = args.seed if args.seed is not None else 0
    f, plane, vertex = oracle.random_pencil_instance(random.Random(seed), args.degree)
    count = oracle.pencil_tangency_count(f, plane, vertex)
    payload = {
        "degree": args.degree,
        "seed": seed,
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

    p_tan = sub.add_parser("tangent-count", help="tangents to a degree-n plane section")
    p_tan.add_argument("n", type=int)
    p_tan.add_argument("--trace", action="store_true")
    p_tan.add_argument("--json", action="store_true")
    p_tan.set_defaults(handler=_cmd_tangent_count)

    p_bit = sub.add_parser(
        "bitangent-count", help="bitangents of a general plane section of a degree-n surface"
    )
    p_bit.add_argument("n", type=int)
    p_bit.add_argument("--trace", action="store_true")
    p_bit.add_argument("--json", action="store_true")
    p_bit.set_defaults(handler=_cmd_bitangent_count)

    p_oracle = sub.add_parser("oracle", help="exact rational geometry cross-checks")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)

    p_four = oracle_sub.add_parser("four-lines", help="solve a four-lines instance")
    group = p_four.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, default=None)
    group.add_argument("--input", default=None, help="JSON file with a lines array")
    p_four.set_defaults(handler=_cmd_oracle_four_lines)

    p_pencil = oracle_sub.add_parser("pencil", help="count tangents in a random pencil")
    p_pencil.add_argument(
        "--degree",
        type=int,
        required=True,
        help=f"surface degree, 1 to {MAX_PENCIL_DEGREE}",
    )
    p_pencil.add_argument("--seed", type=int, default=None)
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


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
