"""The built-in invariant checks, shared by `selftest` and the acceptance tests.

`CHECKS` lists each check by the name `selftest` prints.  A check takes no
argument and raises AssertionError when its invariant fails.  Seeds and
sizes are fixed and small; the tests run their own larger seeded loops.
"""

from __future__ import annotations

import random
from typing import Callable

from . import coincidence, dsl, oracle, spaces

__all__ = ["CHECKS"]


def _check_formula_suite() -> None:
    checks = spaces.verify_formula_suite()
    assert len(checks) == 27, f"expected 27 identities, found {len(checks)}"
    bad = [c for c in checks if not c.holds]
    assert not bad, f"failed identities: {[(c.label, c.lhs) for c in bad]}"


def _check_graded_ranks() -> None:
    for name, expected in (("G", (1, 1, 2, 1, 1)), ("PS", (1, 2, 3, 3, 2, 1))):
        got = spaces.space(name).ring.graded_ranks()
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
    # over the exceptional divisor eps^k*t^(5-k) integrates to (-1)^k s_(k-2) of T_P3
    ring = coincidence.blowup_ring()
    eps, _, t2 = ring.gens()
    got = [ring.evaluate_top(eps ** (k + 1) * t2 ** (5 - k)) for k in range(2, 6)]
    assert got == [1, 4, 10, 20], f"push table {got}"


def _check_counts() -> None:
    for n in range(1, 5):
        assert coincidence.tangent_count(n) == n * (n - 1)
    got = [coincidence.bitangent_derivation(n).count for n in range(2, 5)]
    assert got == [0, 0, 28], got


def _check_four_lines_goldens() -> None:
    pt = oracle.ProjectivePoint
    corners = [pt([1, 0, 0, 0]), pt([0, 1, 0, 0]), pt([0, 0, 1, 0]), pt([0, 0, 0, 1])]
    p, q, r, s = corners
    edges = [oracle.plucker_from_points(*pair) for pair in ((p, q), (q, r), (r, s), (s, p))]
    result = oracle.lines_meeting_four(*edges)
    diag = {oracle.plucker_from_points(p, r), oracle.plucker_from_points(q, s)}
    assert not result.infinite and {ln for ln, _ in result.solutions} == diag
    assert all(mult == 1 for _, mult in result.solutions), result.solutions

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
    monomials = PS.ring.graded_basis(5)
    for _ in range(50):
        terms = {m: rng.randrange(-9, 10) for m in monomials}
        x = PS.ring.element(terms)
        assert PS.evaluate_top(x) == G.evaluate_top(spaces.pushforward_PS_to_G(x))


def _check_roundtrip() -> None:
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
