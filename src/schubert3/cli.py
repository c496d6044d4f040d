"""Command line front end: evaluation, identity checks, counts and oracles.

Every subcommand is exact; randomized ones take a seed and are fully
reproducible.  Exit codes: 0 on success, 1 when a verification fails,
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import Callable

from . import coincidence, oracle, spaces
from .dsl import ParseError
from .graded_ring import format_signed_sum, monomial_source

__all__ = ["build_parser", "main", "run_cli"]

_SURFACE_VARS = ("x", "y", "z", "w")


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
    if not isinstance(entry, list) or len(entry) != 6:
        raise ValueError(
            "each line must be a 6-entry array [p01, p02, p03, p23, p31, p12]"
        )
    return oracle.PlueckerLine([Fraction(str(x)) for x in entry])


def _cmd_eval(args: argparse.Namespace) -> int:
    result = spaces.evaluate_expression(args.space, args.expr)
    if args.json:
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
    checks = spaces.verify_formula_suite(args.space)
    label_width = max(len(c.label) for c in checks)
    space_width = max(len(c.space) for c in checks)
    failures = 0
    for c in checks:
        status = "ok" if c.holds else "FAIL"
        print(
            f"{c.label:>{label_width}}  {c.space:<{space_width}}  "
            f"{c.lhs} = {c.rhs}  {status}"
        )
        if not c.holds:
            failures += 1
    if failures:
        print(f"{failures} of {len(checks)} identities failed")
        return 1
    return 0


def _cmd_tangent_count(args: argparse.Namespace) -> int:
    n = args.n
    excess = coincidence.surface_excess_class(n)
    pullback = coincidence.phi_pullback(spaces.space("G").symbols["g_s"])
    count = coincidence.tangent_count(n)
    trace = [
        f"excess = {excess}",
        f"pullback of g_s = {pullback}",
        f"integrand = {excess * pullback}",
        f"exceptional integral = {count}",
    ]
    if args.json:
        print(json.dumps({"n": n, "count": count, "trace": trace}))
        return 0
    print(count)
    if args.trace:
        for line in trace:
            print(line)
    return 0


def _cmd_bitangent_count(args: argparse.Namespace) -> int:
    derivation = coincidence.bitangent_derivation(args.n)
    if args.json:
        print(
            json.dumps(
                {
                    "n": derivation.n,
                    "count": derivation.count,
                    "trace": list(derivation.trace),
                }
            )
        )
        return 0
    print(derivation.count)
    for line in derivation.steps:
        print(line)
    if args.trace:
        for line in derivation.interpretation:
            print(line)
    return 0


def _cmd_oracle_four_lines(args: argparse.Namespace) -> int:
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


def _check_formula_suite() -> None:
    checks = spaces.verify_formula_suite()
    assert len(checks) == 27, f"expected 27 identities, found {len(checks)}"
    bad = [c for c in checks if not c.holds]
    assert not bad, f"failed identities: {[(c.label, c.lhs) for c in bad]}"


def _check_graded_ranks() -> None:
    for name, expected in (("G", (1, 1, 2, 1, 1)), ("PS", (1, 2, 3, 3, 2, 1))):
        sp = spaces.space(name)
        got = tuple(
            len(sp.ring.graded_basis(d).monomials) for d in range(sp.dim + 1)
        )
        assert got == expected, f"{name} ranks {got} != {expected}"


def _check_duality_pairing() -> None:
    G = spaces.space("G")
    s = G.symbols
    pairs = [([G.ring.one()], [s["G"]]), ([s["g"]], [s["g_s"]]), ([s["g_p"], s["g_e"]], [s["g_p"], s["g_e"]])]
    for left, right in pairs:
        matrix = [[G.evaluate_top(a * b) for b in right] for a in left]
        size = len(left)
        identity = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        assert matrix == identity, f"pairing matrix {matrix} is not the identity"


def _check_push_table() -> None:
    table = coincidence.segre_push_table()
    ring = table.value(2).ring
    t = ring.gen("t")
    expected = {2: ring.one(), 3: 4 * t, 4: 10 * t * t, 5: 20 * t ** 3}
    for k, want in expected.items():
        assert table.value(k) == want, f"push table at {k}"
    assert table.value(1).is_zero() and table.value(9).is_zero()


def _check_counts() -> None:
    for n in range(1, 5):
        assert coincidence.tangent_count(n) == n * (n - 1)
    got = [coincidence.bitangent_derivation(n).count for n in range(1, 5)]
    assert got == [4, 0, 0, 28], got


def _check_four_lines_goldens() -> None:
    pt = oracle.ProjectivePoint
    corners = [pt([1, 0, 0, 0]), pt([0, 1, 0, 0]), pt([0, 0, 1, 0]), pt([0, 0, 0, 1])]
    p, q, r, s = corners
    edges = [oracle.plucker_from_points(*pair) for pair in ((p, q), (q, r), (r, s), (s, p))]
    result = oracle.lines_meeting_four(*edges)
    diag = {oracle.plucker_from_points(p, r), oracle.plucker_from_points(q, s)}
    assert not result.infinite and {ln for ln, _ in result.solutions} == diag

    def ruling(a, b):
        return oracle.plucker_from_points(pt([a, 0, b, 0]), pt([0, a, 0, b]))

    family = oracle.lines_meeting_four(ruling(1, 0), ruling(0, 1), ruling(1, 1), ruling(1, 2))
    assert family.infinite

    tangent = oracle.plucker_from_points(pt([1, 1, 2, 2]), pt([0, 1, -2, 0]))
    touched = oracle.lines_meeting_four(ruling(1, 0), ruling(0, 1), ruling(1, 1), tangent)
    double = oracle.plucker_from_points(pt([1, 1, 0, 0]), pt([0, 0, 1, 1]))
    assert touched.solutions == ((double, 2),)


def _check_four_lines_random() -> None:
    rng = random.Random(2026)
    finite = 0
    while finite < 20:
        result = oracle.lines_meeting_four(*oracle.random_four_lines(rng))
        if result.infinite:
            continue
        finite += 1
        assert result.total_multiplicity == 2


def _check_pencil_counts() -> None:
    rng = random.Random(17)
    for degree in (1, 2, 3):
        for _ in range(3):
            f, plane, vertex = oracle.random_pencil_instance(rng, degree)
            got = oracle.pencil_tangency_count(f, plane, vertex)
            assert got == degree * (degree - 1), (degree, got)


def _check_pushforward_consistency() -> None:
    PS, G = spaces.space("PS"), spaces.space("G")
    rng = random.Random(99)
    monomials = PS.ring.graded_basis(5).monomials
    for _ in range(50):
        terms = {m: rng.randrange(-9, 10) for m in monomials}
        x = PS.ring.element(terms)
        assert PS.evaluate_top(x) == G.evaluate_top(spaces.pushforward_PS_to_G(x))


def _check_roundtrip() -> None:
    from . import dsl

    rng = random.Random(5)
    for name in spaces.SPACE_NAMES:
        sp = spaces.space(name)
        names = sorted(sp.symbols)
        for _ in range(12):
            picks = [rng.choice(names) for _ in range(3)]
            source = f"{picks[0]}*{picks[1]} + {picks[2]}^2 - {picks[0]}"
            first = dsl.evaluate(dsl.parse(source), sp)
            rendered = spaces.render_in_classes(sp, first)
            again = dsl.evaluate(dsl.parse(rendered), sp)
            assert again == first, f"{name}: {source} -> {rendered}"


_SELFTEST_CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("formula suite (27 identities)", _check_formula_suite),
    ("graded ranks of G and PS", _check_graded_ranks),
    ("duality pairing on G", _check_duality_pairing),
    ("exceptional pushforward table", _check_push_table),
    ("tangent and bitangent counts", _check_counts),
    ("four-lines golden configurations", _check_four_lines_goldens),
    ("four-lines random conservation", _check_four_lines_random),
    ("pencil tangency counts", _check_pencil_counts),
    ("pushforward consistency", _check_pushforward_consistency),
    ("expression round-trips", _check_roundtrip),
)


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    for name, check in _SELFTEST_CHECKS:
        try:
            check()
        except Exception as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
        else:
            print(f"ok {name}")
    if failures:
        print(f"{failures} of {len(_SELFTEST_CHECKS)} checks failed")
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
    p_pencil.add_argument("--degree", type=int, required=True)
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
