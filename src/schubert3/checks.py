"""The built-in invariant checks, shared by `selftest` and the acceptance tests.

`CHECKS` lists each check by the name `selftest` prints.  A check takes no
argument and raises AssertionError when its invariant fails, with a message
that names the input and gives the actual and expected values.  The checks
raise explicitly, not through `assert`, so `python -O` cannot switch them
off.  Seeds and sizes are fixed and small; the tests run their own larger
seeded loops.
"""

from __future__ import annotations

import random
from typing import Callable

from . import coincidence, oracle, spaces

__all__ = ["CHECKS"]


def _expect(what: str, got, expected) -> None:
    """Raise AssertionError "<what> = <got>, expected <expected>" unless they are equal."""
    if got != expected:
        raise AssertionError(f"{what} = {got}, expected {expected}")


def _check_formula_suite() -> None:
    checks = spaces.verify_formula_suite()
    _expect("number of identities in verify_formula_suite()", len(checks), 27)
    bad = [c for c in checks if not c.holds]
    if bad:
        raise AssertionError(f"failed identities: {[(c.label, c.lhs) for c in bad]}")


def _check_graded_ranks() -> None:
    for name, expected in (("G", (1, 1, 2, 1, 1)), ("PS", (1, 2, 3, 3, 2, 1))):
        _expect(f"graded ranks of {name}", spaces.space(name).ring.graded_ranks(), expected)


def _check_duality_pairing() -> None:
    G = spaces.space("G")
    s = G.symbols
    pairs = [(["1"], ["G"]), (["g"], ["g_s"]), (["g_p", "g_e"], ["g_p", "g_e"])]
    for left, right in pairs:
        classes = {name: G.ring.one() if name == "1" else s[name] for name in left + right}
        matrix = [[G.evaluate_top(classes[a] * classes[b]) for b in right] for a in left]
        identity = [[int(i == j) for j in range(len(right))] for i in range(len(left))]
        _expect(f"pairing matrix of {left} against {right}", matrix, identity)


def _check_push_table() -> None:
    # over the exceptional divisor eps^k*t^(5-k) integrates to (-1)^k s_(k-2) of T_P3
    ring = coincidence.blowup_ring()
    eps, _, t2 = ring.gens()
    got = [ring.evaluate_top(eps ** (k + 1) * t2 ** (5 - k)) for k in range(2, 6)]
    _expect("integrals of eps^(k+1)*t2^(5-k) for k = 2..5", got, [1, 4, 10, 20])


def _check_counts() -> None:
    for n in range(1, 5):
        _expect(f"tangent_count({n})", coincidence.tangent_count(n), n * (n - 1))
    for n, expected in ((2, 0), (3, 0), (4, 28)):
        got = coincidence.bitangent_derivation(n).count
        _expect(f"bitangent_derivation({n}).count", got, expected)


def _check_four_lines_goldens() -> None:
    pt = oracle.ProjectivePoint
    corners = [pt([1, 0, 0, 0]), pt([0, 1, 0, 0]), pt([0, 0, 1, 0]), pt([0, 0, 0, 1])]
    p, q, r, s = corners
    edges = [oracle.plucker_from_points(*pair) for pair in ((p, q), (q, r), (r, s), (s, p))]
    result = oracle.lines_meeting_four(*edges)
    diag = {(oracle.plucker_from_points(p, r), 1), (oracle.plucker_from_points(q, s), 1)}
    what = "(infinite, solutions) for the lines meeting the tetrahedron edges pq, qr, rs, sp"
    _expect(what, (result.infinite, set(result.solutions)), (False, diag))

    def ruling(a, b):
        return oracle.plucker_from_points(pt([a, 0, b, 0]), pt([0, a, 0, b]))

    family = oracle.lines_meeting_four(ruling(1, 0), ruling(0, 1), ruling(1, 1), ruling(1, 2))
    _expect("infinite for the lines meeting four rulings of x0*x3 = x1*x2", family.infinite, True)

    tangent = oracle.plucker_from_points(pt([1, 1, 2, 2]), pt([0, 1, -2, 0]))
    touched = oracle.lines_meeting_four(ruling(1, 0), ruling(0, 1), ruling(1, 1), tangent)
    double = oracle.plucker_from_points(pt([1, 1, 0, 0]), pt([0, 0, 1, 1]))
    what = "solutions for the lines meeting three rulings of x0*x3 = x1*x2 and a tangent line"
    _expect(what, touched.solutions, ((double, 2),))


def _check_four_lines_random() -> None:
    rng = random.Random(2026)
    finite = 0
    while finite < 20:
        lines = oracle.random_four_lines(rng)
        result = oracle.lines_meeting_four(*lines)
        if result.infinite:
            continue
        finite += 1
        what = f"total multiplicity of the lines meeting {', '.join(map(str, lines))}"
        _expect(what, result.total_multiplicity, 2)


def _check_pencil_counts() -> None:
    rng = random.Random(17)
    for degree in (1, 2, 3):
        for instance in range(3):
            f, plane, vertex = oracle.random_pencil_instance(rng, degree)
            what = f"pencil_tangency_count at degree {degree}, instance {instance} of seed 17"
            _expect(what, oracle.pencil_tangency_count(f, plane, vertex), degree * (degree - 1))


def _check_pushforward_consistency() -> None:
    PS, G = spaces.space("PS"), spaces.space("G")
    rng = random.Random(99)
    monomials = PS.ring.graded_basis(5)
    for _ in range(50):
        terms = {m: rng.randrange(-9, 10) for m in monomials}
        x = PS.ring.element(terms)
        what = f"integral over G of the pushforward of {x}"
        _expect(what, G.evaluate_top(spaces.pushforward_PS_to_G(x)), PS.evaluate_top(x))


def _check_roundtrip() -> None:
    rng = random.Random(5)
    for name in spaces.SPACE_NAMES:
        sp = spaces.space(name)
        names = sorted(sp.symbols)
        for _ in range(12):
            picks = [rng.choice(names) for _ in range(3)]
            source = f"{picks[0]}*{picks[1]} + {picks[2]}^2 - {picks[0]}"
            first = sp.read(source)
            rendered = spaces.render_in_classes(sp, first)
            again = sp.read(rendered)
            _expect(f"{name}: {rendered!r}, the rendering of {source!r},", again, first)


# In the order `selftest` prints them.
CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
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
