"""Seeded inputs, operations and output checks for the four workloads.

Every input is built here from the benchmark's own `random.Random`; the
program's random instance helpers (`oracle.random_four_lines` and friends)
are never used, so changing them cannot change a workload.  Inputs are plain
data (strings, integer tuples) and become program objects only inside the
timed operation.

A workload hands out *rounds*: a fixed multiset of operation kinds (its
stated mix) in a seeded order.  The runner completes whole rounds only, so
every run executes the mix exactly and the latency percentiles always fall
inside the same kind of operation.

Each check compares an answer with a reference that does not come from the
code path being timed: closed forms, geometric facts recomputed here with
the benchmark's own integer arithmetic, or re-parsing the program's output.
A failed check raises `CheckFailed`.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from schubert3 import coincidence, dsl, oracle, spaces


class CheckFailed(Exception):
    """An operation returned an answer that disagrees with its reference."""


class Refused(Exception):
    """The CLI declined to answer with a documented refusal (exit 2)."""


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _schedule(rng, mix: tuple[tuple[str, int], ...]) -> list[str]:
    kinds = [kind for kind, count in mix for _ in range(count)]
    rng.shuffle(kinds)
    return kinds


def tangent_closed_form(n: int) -> int:
    return n * (n - 1)


def bitangent_closed_form(n: int) -> int:
    return n * (n - 2) * (n - 3) * (n + 3) // 2


# ---------------------------------------------------------------- symbolic

SPACE_NAMES = ("P3", "P3dual", "G", "PS")

# The documented vocabulary of each space, fixed here so that the generated
# expressions do not depend on what the program happens to register.
VOCABULARY = {
    "P3": ("t", "p", "p_g", "P"),
    "P3dual": ("e", "e_g", "E"),
    "G": ("c1", "c2", "g", "g_p", "g_e", "g_s", "G"),
    "PS": ("t", "c1", "c2", "p", "p_g", "g", "g_p", "g_e", "g_s", "G"),
}

# Named top class of each space; each integrates to 1 (one point, one plane,
# one line, one point on one line).
TOP_LABEL = {"P3": "P", "P3dual": "E", "G": "G", "PS": "p*G"}

MAX_EXPONENT = 36


def random_expression(rng, vocab: tuple[str, ...], depth: int = 0) -> str:
    """Sum of 1-3 signed terms, each a coefficient times 1-3 powered factors."""
    out = ""
    for i in range(rng.randint(1, 3)):
        factors = [_random_factor(rng, vocab, depth) for _ in range(rng.randint(1, 3))]
        coeff = rng.randint(1, 5)
        if coeff > 1:
            factors.insert(0, str(coeff))
        body = "*".join(factors)
        out += body if i == 0 else rng.choice((" + ", " - ")) + body
    return out


def _random_factor(rng, vocab: tuple[str, ...], depth: int) -> str:
    if depth == 0 and rng.random() < 0.25:
        base = "(" + random_expression(rng, vocab, depth + 1) + ")"
    else:
        base = rng.choice(vocab)
        if rng.random() < 0.1:
            base = "-" + base
    if rng.random() < 0.3:
        base += f"^{rng.randint(2, 4)}"
    return base


def _random_combination(rng, vocab: tuple[str, ...]) -> tuple[tuple[int, str], ...]:
    names = rng.sample(vocab, rng.randint(1, min(3, len(vocab))))
    return tuple((rng.choice((-1, 1)) * rng.randint(1, 5), name) for name in names)


def _combine(sp, const: int, terms: tuple[tuple[int, str], ...]):
    e = const * sp.ring.one()
    for c, name in terms:
        e = e + c * sp.symbol_class(name)
    return e


def _expected_top_render(space_name: str, top: int) -> str:
    label = TOP_LABEL[space_name]
    if top == 1:
        return label
    if top == -1:
        return "-" + label
    return f"{top}*{label}"


class Symbolic:
    """Ring path: DSL expressions, direct products and powers, the counts."""

    name = "symbolic"
    mix = (
        ("dsl", 24),
        ("product", 4),
        ("power", 4),
        ("tangent", 1),
        ("bitangent", 1),
        ("formulas", 1),
    )
    warmup = ("space.P3", "space.P3dual", "space.G", "space.PS", "tangent")

    def __init__(self, rng) -> None:
        self.rng = rng

    def round(self) -> list[Op]:
        rng = self.rng
        ops = []
        for kind in _schedule(rng, self.mix):
            sp = rng.choice(SPACE_NAMES)
            vocab = VOCABULARY[sp]
            if kind == "dsl":
                args = (sp, random_expression(rng, vocab))
            elif kind == "product":
                args = (sp, _random_combination(rng, vocab), _random_combination(rng, vocab))
            elif kind == "power":
                args = (
                    sp,
                    rng.randint(1, 3),
                    _random_combination(rng, vocab),
                    rng.randint(1, MAX_EXPONENT),
                )
            elif kind == "tangent":
                args = (rng.randint(2, 12),)
            elif kind == "bitangent":
                args = (rng.randint(4, 8),)
            else:
                args = ()
            ops.append(Op(kind, args))
        return ops

    def run(self, op: Op, tr):
        kind, args = op.kind, op.args
        if kind == "dsl":
            sp = spaces.space(args[0])
            with tr.span("dsl.parse"):
                tree = dsl.parse(args[1])
            with tr.span("dsl.evaluate"):
                e = dsl.evaluate(tree, sp)
            with tr.span("graded_ring.format_terms"):
                monomial = str(e)
            with tr.span("spaces.render_in_classes"):
                rendered = spaces.render_in_classes(sp, e)
            top = None
            if not e.is_zero() and e.is_homogeneous() and e.degree() == sp.dim:
                with tr.span("spaces.evaluate_top"):
                    top = sp.evaluate_top(e)
            return e, monomial, rendered, top
        if kind == "product":
            sp = spaces.space(args[0])
            a, b = _combine(sp, 0, args[1]), _combine(sp, 0, args[2])
            with tr.span("graded_ring.mul"):
                e = a * b
            return e, a, b
        if kind == "power":
            sp = spaces.space(args[0])
            base = _combine(sp, args[1], args[2])
            with tr.span("graded_ring.pow"):
                e = base ** args[3]
            return e, base
        if kind == "tangent":
            with tr.span("coincidence.tangent_count"):
                return coincidence.tangent_count(args[0])
        if kind == "bitangent":
            with tr.span("coincidence.bitangent_derivation"):
                return coincidence.bitangent_derivation(args[0])
        with tr.span("spaces.verify_formula_suite"):
            return spaces.verify_formula_suite()

    def check(self, op: Op, out) -> None:
        kind, args = op.kind, op.args
        if kind == "dsl":
            sp = spaces.space(args[0])
            e, monomial, rendered, top = out
            for text in (monomial, rendered):
                _require(
                    dsl.evaluate(dsl.parse(text), sp) == e,
                    f"{args[0]}: {args[1]!r} printed as {text!r}, which reads back differently",
                )
            if top is not None:
                want = _expected_top_render(args[0], top)
                _require(rendered == want, f"{args[0]}: integral {top} but class {rendered!r}")
        elif kind == "product":
            e, a, b = out
            _require(e == b * a, f"{args[0]}: product is not commutative")
            sp = spaces.space(args[0])
            _require(dsl.evaluate(dsl.parse(str(e)), sp) == e, "product does not read back")
        elif kind == "power":
            e, base = out
            sp = spaces.space(args[0])
            _require(dsl.evaluate(dsl.parse(str(e)), sp) == e, "power does not read back")
            if args[3] >= 2:
                half = base ** (args[3] // 2)
                rest = base if args[3] % 2 else sp.ring.one()
                _require(e == half * half * rest, f"power {args[3]} disagrees with squaring")
        elif kind == "tangent":
            _require(out == tangent_closed_form(args[0]), f"tangent_count({args[0]}) = {out}")
        elif kind == "bitangent":
            want = bitangent_closed_form(args[0])
            _require(out.count == want, f"bitangent({args[0]}) = {out.count}, want {want}")
        else:
            _require(len(out) == 27, f"{len(out)} formula checks instead of 27")
            bad = [c.label for c in out if not c.holds]
            _require(not bad, f"formulas failed: {bad}")


# -------------------------------------------------------------- four lines

_WEDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))


def _random_point(rng, bound: int) -> tuple[int, ...]:
    while True:
        p = tuple(rng.randint(-bound, bound) for _ in range(4))
        if any(p):
            return p


def wedge(p, q) -> tuple[int, ...]:
    return tuple(p[i] * q[j] - p[j] * q[i] for i, j in _WEDGE_PAIRS)


def _proportional(u, v) -> bool:
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(len(u)))


def rank(rows) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][col] / mat[r][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def _pairing_row(line) -> tuple[int, ...]:
    p01, p02, p03, p23, p31, p12 = line
    return (p23, p31, p12, p01, p02, p03)


def _cross_ratio(pts) -> Fraction:
    def det(i, j):
        return pts[i][0] * pts[j][1] - pts[j][0] * pts[i][1]

    return Fraction(det(0, 2) * det(1, 3), det(0, 3) * det(1, 2))


def _distinct_on_line(rng, bound: int) -> list[tuple[int, int]]:
    """Four pairwise distinct points of the projective line."""
    while True:
        pts = [(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(4)]
        if all(a * d - b * c for (a, b), (c, d) in combinations(pts, 2)):
            return pts


_RATIONAL = re.compile(r"-?\d+(?:/\d+)?")
_QUADRATIC = re.compile(
    r"(?:(?P<a>-?\d+(?:/\d+)?) (?P<sign>[+-]) |(?P<neg>-))?"
    r"(?:(?P<b>\d+(?:/\d+)?)\*)?sqrt\((?P<d>-?\d+)\)"
)


def parse_coordinate(value) -> tuple[Fraction, Fraction, int]:
    """Read a coordinate printed as an integer or as 'a + b*sqrt(d)'.

    Returns (a, b, d) with the value a + b*sqrt(d).  This is the documented
    output format, so the check does not depend on the internals of QNum.
    """
    if isinstance(value, int):
        return Fraction(value), Fraction(0), 0
    text = str(value)
    if _RATIONAL.fullmatch(text):
        return Fraction(text), Fraction(0), 0
    m = _QUADRATIC.fullmatch(text)
    if m is None:
        raise CheckFailed(f"unreadable coordinate {text!r}")
    b = Fraction(m["b"] or 1)
    if m["sign"] == "-" or m["neg"]:
        b = -b
    return Fraction(m["a"] or 0), b, int(m["d"])


def _meets(solution, line) -> bool:
    """Incidence pairing of a (possibly quadratic) line with a rational one."""
    row = _pairing_row(line)
    rational = sum(a * x for (a, _, _), x in zip(solution, row))
    irrational = sum(b * x for (_, b, _), x in zip(solution, row))
    return rational == 0 and irrational == 0


def _on_quadric(solution) -> bool:
    d = next((c[2] for c in solution if c[2]), 0)
    rational = irrational = Fraction(0)
    for i, j in ((0, 3), (1, 4), (2, 5)):
        (a1, b1, _), (a2, b2, _) = solution[i], solution[j]
        rational += a1 * a2 + b1 * b2 * d
        irrational += a1 * b2 + a2 * b1
    return rational == 0 and irrational == 0


def check_four_lines(
    lines, infinite: bool, solutions, total: int, expected_total: int
) -> None:
    """Shared check for in-process and CLI answers.

    `solutions` is a list of (coordinates, multiplicity) with coordinates as
    printed (ints or quadratic strings).
    """
    _require(not infinite, "finite configuration reported as an infinite family")
    _require(total == expected_total, f"total multiplicity {total}, want {expected_total}")
    _require(sum(m for _, m in solutions) == total, "multiplicities do not add up")
    for coords, _ in solutions:
        parsed = [parse_coordinate(c) for c in coords]
        _require(_on_quadric(parsed), f"solution {coords} is off the Pluecker quadric")
        for line in lines:
            _require(_meets(parsed, line), f"solution {coords} misses input line {line}")


def g4_integral() -> int:
    """Lines meeting four general lines, as the G integral of g^4."""
    G = spaces.space("G")
    return G.evaluate_top(G.symbol_class("g") ** 4)


def _outcome(result) -> str:
    if result.infinite:
        return "infinite"
    if not all(line.is_rational for line, _ in result.solutions):
        return "irrational"
    if len(result.solutions) == 1:
        return "double"
    return "rational"


class FourLines:
    """Pluecker solver: general instances and instances with two transversals.

    General instances join random integer points and take the irrational
    branch almost always.  Two-transversal instances join a point of a fixed
    line L to a point of a fixed skew line M, so L and M are the two
    solutions and the solver stays on its rational branch.
    """

    name = "four_lines"
    mix = (("general", 7), ("two_transversal", 3))
    warmup = ("space.G",)

    def __init__(self, rng) -> None:
        self.rng = rng
        while True:
            a, b, c, d = (_random_point(rng, 5) for _ in range(4))
            if rank([a, b, c, d]) == 4:
                break
        self.frame = (a, b, c, d)
        self.transversals = (wedge(a, b), wedge(c, d))

    def _general(self) -> tuple:
        rng = self.rng
        while True:
            pairs = []
            for _ in range(4):
                p, q = _random_point(rng, 9), _random_point(rng, 9)
                if any(wedge(p, q)):
                    pairs.append((p, q))
            if len(pairs) < 4:
                continue
            lines = [wedge(p, q) for p, q in pairs]
            distinct = all(not _proportional(u, v) for u, v in combinations(lines, 2))
            if distinct and rank([_pairing_row(x) for x in lines]) == 4:
                return tuple(pairs)

    def _two_transversal(self) -> tuple:
        rng = self.rng
        a, b, c, d = self.frame
        while True:
            on_l, on_m = _distinct_on_line(rng, 3), _distinct_on_line(rng, 3)
            # equal cross-ratios would put all four lines on one quadric
            if _cross_ratio(on_l) != _cross_ratio(on_m):
                break
        pairs = []
        for (s, t), (u, v) in zip(on_l, on_m):
            p = tuple(s * x + t * y for x, y in zip(a, b))
            q = tuple(u * x + v * y for x, y in zip(c, d))
            pairs.append((p, q))
        return tuple(pairs)

    def round(self) -> list[Op]:
        return [
            Op(kind, self._general() if kind == "general" else self._two_transversal())
            for kind in _schedule(self.rng, self.mix)
        ]

    def run(self, op: Op, tr):
        points = [
            (oracle.ProjectivePoint(p), oracle.ProjectivePoint(q)) for p, q in op.args
        ]
        with tr.span("oracle.plucker_from_points"):
            lines = [oracle.plucker_from_points(p, q) for p, q in points]
        with tr.span("oracle.lines_meeting_four." + op.kind):
            result = oracle.lines_meeting_four(*lines)
        tr.count("oracle.lines_meeting_four.outcome." + _outcome(result))
        return result

    def check(self, op: Op, result) -> None:
        lines = [wedge(p, q) for p, q in op.args]
        solutions = [
            ([c if isinstance(c, int) else str(c) for c in line.coords], mult)
            for line, mult in result.solutions
        ]
        check_four_lines(
            lines, result.infinite, solutions, result.total_multiplicity, g4_integral()
        )
        if op.kind == "two_transversal":
            found = [coords for coords, _ in solutions]
            for t in self.transversals:
                _require(
                    any(all(isinstance(c, int) for c in s) and _proportional(s, t) for s in found),
                    f"transversal {t} missing from {found}",
                )


# ------------------------------------------------------------------ pencil

PENCIL_DEGREES = range(2, 9)


def surface_monomials(n: int) -> list[tuple[int, int, int, int]]:
    return [
        (a, b, c, n - a - b - c)
        for a in range(n + 1)
        for b in range(n + 1 - a)
        for c in range(n + 1 - a - b)
    ]


def surface_value(terms, point) -> int:
    total = 0
    for mono, coeff in terms:
        term = coeff
        for x, e in zip(point, mono):
            term *= x ** e
        total += term
    return total


def pencil_instance(rng, n: int) -> tuple:
    """Dense degree-n surface, a plane and a vertex on the plane off the surface."""
    monos = surface_monomials(n)
    while True:
        j = rng.randrange(4)
        plane = [rng.randint(-4, 4) for _ in range(4)]
        plane[j] = rng.choice((-1, 1))
        vertex = [rng.randint(-3, 3) for _ in range(4)]
        vertex[j] = 0
        # plane[j] is a unit, so this solves plane . vertex = 0 over the integers
        vertex[j] = -plane[j] * sum(a * x for a, x in zip(plane, vertex))
        if not any(vertex):
            continue
        terms = tuple((m, c) for m in monos if (c := rng.randint(-9, 9)))
        if terms and surface_value(terms, vertex) != 0:
            return n, terms, tuple(plane), tuple(vertex)


class Pencil:
    """Tangency oracle on seeded surfaces of degree 2 to 8."""

    name = "pencil"
    # Low degrees dominate so the median is a quartic and the 90th
    # percentile a quintic; degrees 6-8 appear once per round.
    mix = (("d2", 10), ("d3", 10), ("d4", 40), ("d5", 6), ("d6", 1), ("d7", 1), ("d8", 1))
    warmup = ("tangent",)

    def __init__(self, rng) -> None:
        self.rng = rng

    def round(self) -> list[Op]:
        return [
            Op(kind, pencil_instance(self.rng, int(kind[1:])))
            for kind in _schedule(self.rng, self.mix)
        ]

    def run(self, op: Op, tr):
        n, terms, plane, vertex = op.args
        with tr.span("oracle.SurfaceForm"):
            f = oracle.SurfaceForm(dict(terms))
        with tr.span(f"oracle.pencil_tangency_count.d{n}"):
            try:
                count = oracle.pencil_tangency_count(f, plane, vertex)
            except oracle.DegeneratePencil:
                tr.count("oracle.pencil.degenerate")
                raise
        tr.count("oracle.pencil.generic")
        return count

    def check(self, op: Op, count) -> None:
        n = op.args[0]
        _require(count == tangent_closed_form(n), f"degree {n}: {count} tangents")
        _require(count == coincidence.tangent_count(n), f"degree {n}: disagrees with tangent_count")


# --------------------------------------------------------------------- cli

CLI_LAUNCH = "import sys; from schubert3.cli import main; sys.exit(main())"


class Cli:
    """One subprocess per README subcommand, launched like the console script."""

    name = "cli"
    mix = (
        ("eval", 12),
        ("verify-formulas", 2),
        ("tangent-count", 3),
        ("bitangent-count", 3),
        ("oracle-four-lines", 2),
        ("oracle-pencil", 2),
        ("selftest", 1),
    )
    warmup = ("cli",)

    def __init__(self, rng, env: dict | None = None, cwd: Path | None = None) -> None:
        self.rng = rng
        self.env = env
        self.cwd = cwd

    def round(self) -> list[Op]:
        rng = self.rng
        ops = []
        for kind in _schedule(rng, self.mix):
            if kind == "eval":
                sp = rng.choice(SPACE_NAMES)
                argv = ["eval", "--space", sp]
                if rng.random() < 0.4:
                    argv.append("--json")
                # "--" keeps an expression with a leading minus from reading as an option
                argv += ["--", random_expression(rng, VOCABULARY[sp])]
            elif kind == "tangent-count":
                argv = ["tangent-count", str(rng.randint(2, 12))]
                if rng.random() < 0.3:
                    argv.append("--json")
            elif kind == "bitangent-count":
                argv = ["bitangent-count", str(rng.randint(4, 8))]
                if rng.random() < 0.3:
                    argv.append("--json")
            elif kind == "oracle-four-lines":
                argv = ["oracle", "four-lines", "--seed", str(rng.randrange(10**6))]
            elif kind == "oracle-pencil":
                argv = ["oracle", "pencil", "--degree", str(rng.randint(2, 4))]
                argv += ["--seed", str(rng.randrange(10**6))]
            else:
                argv = [kind]
            ops.append(Op(kind, tuple(argv)))
        return ops

    def run(self, op: Op, tr):
        with tr.span("cli." + op.kind):
            return subprocess.run(
                [sys.executable, "-c", CLI_LAUNCH, *op.args],
                env=self.env,
                cwd=self.cwd,
                capture_output=True,
                text=True,
                timeout=120,
            )

    def check(self, op: Op, proc) -> None:
        argv = op.args
        if op.kind == "oracle-pencil" and proc.returncode == 2 and "not generic" in proc.stderr:
            raise Refused(proc.stderr.strip())
        _require(proc.returncode == 0, f"{argv} exited {proc.returncode}: {proc.stderr[-300:]}")
        lines = proc.stdout.splitlines()
        as_json = "--json" in argv
        if op.kind == "eval":
            want = spaces.evaluate_expression(argv[2], argv[-1])
            if as_json:
                payload = json.loads(proc.stdout)
                expected = {
                    "space": want.space,
                    "input": want.input,
                    "monomial": want.monomial,
                    "schubert": want.schubert,
                }
                if want.top is not None:
                    expected["top"] = want.top
                _require(payload == expected, f"{argv}: {payload} != {expected}")
            else:
                text = want.schubert if want.top is None else f"{want.schubert} = {want.top}"
                _require(lines == [text], f"{argv}: {lines} != {[text]}")
        elif op.kind in ("tangent-count", "bitangent-count"):
            n = int(argv[1])
            if op.kind == "tangent-count":
                want = tangent_closed_form(n)
            else:
                want = bitangent_closed_form(n)
            if as_json:
                payload = json.loads(proc.stdout)
                _require(payload["n"] == n and payload["count"] == want, f"{argv}: {payload}")
                if op.kind == "bitangent-count":
                    trace = list(coincidence.bitangent_derivation(n).trace)
                    _require(payload["trace"] == trace, f"{argv}: trace differs")
            else:
                _require(lines[:1] == [str(want)], f"{argv}: first line {lines[:1]}, want {want}")
        elif op.kind == "verify-formulas":
            checks = spaces.verify_formula_suite()
            _require(len(lines) == len(checks) == 27, f"{len(lines)} formula lines")
            for line, c in zip(lines, checks):
                _require(
                    f"{c.lhs} = {c.rhs}" in line and line.split()[-1] == "ok",
                    f"formula line {line!r}",
                )
        elif op.kind == "oracle-four-lines":
            payload = json.loads(proc.stdout)
            _require(payload["seed"] == int(argv[-1]), f"{argv}: seed not echoed")
            result = oracle.lines_meeting_four(*map(oracle.PlueckerLine, payload["lines"]))
            expected = [
                [c if isinstance(c, int) else str(c) for c in line.coords] for line, _ in result.solutions
            ]
            got = [s["coords"] for s in payload["solutions"]]
            _require(got == expected, f"{argv}: CLI and in-process solutions differ")
            solutions = [(s["coords"], s["multiplicity"]) for s in payload["solutions"]]
            check_four_lines(
                payload["lines"],
                payload["infinite"],
                solutions,
                payload["total_multiplicity"],
                g4_integral(),
            )
        elif op.kind == "oracle-pencil":
            payload = json.loads(proc.stdout)
            n = int(argv[3])
            _require(payload["degree"] == n, f"{argv}: degree not echoed")
            _require(payload["count"] == tangent_closed_form(n), f"{argv}: count {payload['count']}")
            _require(payload["count"] == coincidence.tangent_count(n), f"{argv}: disagrees with tangent_count")
        else:
            _require(lines and all(line.startswith("ok ") for line in lines), f"selftest: {lines}")


# A refusal is a failed operation but not a wrong answer.
REFUSALS = (oracle.DegeneratePencil, Refused)

WORKLOADS = {w.name: w for w in (Symbolic, FourLines, Pencil, Cli)}
