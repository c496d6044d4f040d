"""End-to-end acceptance checks, one test per criterion, all equalities exact.

Each test prints a single PASS or FAIL line (visible with pytest -s);
a FAIL line is always followed by the assertion detail from pytest.
"""

import functools
import random
from fractions import Fraction

from schubert3 import coincidence, dsl, spaces
from schubert3.chern_segre import TotalClass
from schubert3.cli import run_cli
from schubert3.dsl import Add, IntLit, Mul, Neg, Pow, Sub, Sym
from schubert3.graded_ring import PolyRing
from schubert3.oracle import (
    ProjectivePoint,
    lines_meeting_four,
    pencil_tangency_count,
    plucker_from_points,
    random_four_lines,
    random_pencil_instance,
)


def criterion(number, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number}: {summary}")
                raise
            print(f"PASS criterion {number}: {summary}")

        return run

    return wrap


def rational_rank(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def brute_force_ranks(gens, relations, top):
    """Corank of the relation-ideal slice in each degree, by elimination."""
    free = PolyRing(gens)
    rels = [free.element(t) for t in relations]
    ranks = []
    for d in range(top + 1):
        monos = free.monomials_of_degree(d)
        rows = []
        for rel in rels:
            rd = rel.degree()
            if rd is None or rd > d:
                continue
            for m in free.monomials_of_degree(d - rd):
                prod = free.monomial(m) * rel
                rows.append([prod.terms.get(mm, 0) for mm in monos])
        ranks.append(len(monos) - rational_rank(rows))
    return tuple(ranks)


@criterion(1, "four-lines count: g^4 = 2 and the exact solver conserves multiplicity")
def test_criterion_1_four_lines():
    G = spaces.space("G")
    assert G.evaluate_top(G.symbols["g"] ** 4) == 2

    rng = random.Random(20260817)
    finite = 0
    attempts = 0
    while finite < 200:
        attempts += 1
        assert attempts <= 240, "too many degenerate random instances"
        result = lines_meeting_four(*random_four_lines(rng))
        if result.infinite:
            continue
        finite += 1
        assert result.total_multiplicity == 2

    pt = ProjectivePoint
    p, q, r, s = pt([1, 0, 0, 0]), pt([0, 1, 0, 0]), pt([0, 0, 1, 0]), pt([0, 0, 0, 1])
    edges = [plucker_from_points(*pair) for pair in ((p, q), (q, r), (r, s), (s, p))]
    result = lines_meeting_four(*edges)
    diagonals = {plucker_from_points(p, r), plucker_from_points(q, s)}
    assert not result.infinite
    assert {line for line, _ in result.solutions} == diagonals
    assert all(mult == 1 for _, mult in result.solutions)

    def ruling(a, b):
        return plucker_from_points(pt([a, 0, b, 0]), pt([0, a, 0, b]))

    assert lines_meeting_four(ruling(1, 0), ruling(0, 1), ruling(1, 1), ruling(1, 2)).infinite

    tangent = plucker_from_points(pt([1, 1, 2, 2]), pt([0, 1, -2, 0]))
    touched = lines_meeting_four(ruling(1, 0), ruling(0, 1), ruling(1, 1), tangent)
    double = plucker_from_points(pt([1, 1, 0, 0]), pt([0, 0, 1, 1]))
    assert touched.solutions == ((double, 2),)


@criterion(2, "all 27 formula identities hold and verify-formulas exits 0")
def test_criterion_2_formula_suite():
    checks = spaces.verify_formula_suite()
    assert len(checks) == 27
    assert all(c.holds for c in checks)
    equations_per_label = {}
    for f in spaces.FORMULAS:
        equations_per_label[f.label] = len(f.equations)
    expected = {str(k): 1 for k in range(1, 12)}
    expected.update({"12": 2, "13": 2, "14": 6, "I": 2, "II": 1, "III": 3})
    assert equations_per_label == expected
    assert run_cli(["verify-formulas"]) == 0


@criterion(3, "graded ranks match brute-force elimination; derived relations hold")
def test_criterion_3_presentation_fidelity():
    s3 = {(1, 1): 2, (3, 0): -1}
    s4 = {(4, 0): 1, (2, 1): -3, (0, 2): 1}
    oracle_g = brute_force_ranks([("c1", 1), ("c2", 2)], [s3, s4], 4)
    G = spaces.space("G")
    package_g = tuple(len(G.ring.graded_basis(d).monomials) for d in range(5))
    assert package_g == oracle_g == (1, 1, 2, 1, 1)

    s3_ps = {(0, 1, 1): 2, (0, 3, 0): -1}
    s4_ps = {(0, 4, 0): 1, (0, 2, 1): -3, (0, 0, 2): 1}
    fiber = {(2, 0, 0): 1, (1, 1, 0): -1, (0, 0, 1): 1}
    oracle_ps = brute_force_ranks(
        [("t", 1), ("c1", 1), ("c2", 2)], [s3_ps, s4_ps, fiber], 5
    )
    PS = spaces.space("PS")
    package_ps = tuple(len(PS.ring.graded_basis(d).monomials) for d in range(6))
    assert package_ps == oracle_ps == (1, 2, 3, 3, 2, 1)

    c1, c2 = G.ring.gens()
    assert (2 * c1**2 * c2 - c1**4).is_zero()
    assert c1**2 * c2 == c2**2


@criterion(4, "Segre inversion: y1..y4 with the series oracle and the involution")
def test_criterion_4_segre_inversion():
    ring = PolyRing([("x1", 1), ("x2", 2)])
    x1, x2 = ring.gens()
    total = TotalClass(ring, [x1, x2], bound=4)
    inverse = total.invert()
    y = [inverse.component(d) for d in range(1, 5)]
    assert y[0] == -x1
    assert y[1] == x1**2 - x2
    assert y[2] == 2 * x1 * x2 - x1**3
    assert y[3] == x1**4 - 3 * x1**2 * x2 + x2**2

    # series oracle: the product of the two full expansions is 1 through
    # degree 4 in the free ring, with no truncation help
    product = (ring.one() + x1 + x2) * (ring.one() + y[0] + y[1] + y[2] + y[3])
    assert product.homogeneous_component(0) == ring.one()
    for d in range(1, 5):
        assert product.homogeneous_component(d).is_zero(), d

    # the sign variant of y4 cannot satisfy the defining identity
    variant = x1**4 + 3 * x1**2 * x2 - x2**2
    bad = (ring.one() + x1 + x2) * (ring.one() + y[0] + y[1] + y[2] + variant)
    assert not bad.homogeneous_component(4).is_zero()

    rng = random.Random(404)
    monos = {d: ring.monomials_of_degree(d) for d in range(1, 5)}
    for _ in range(100):
        components = {}
        for d in range(1, 5):
            terms = {m: rng.randint(-6, 6) for m in monos[d]}
            components[d] = ring.element(terms)
        c = TotalClass(ring, components, bound=4)
        again = c.invert().invert()
        for d in range(5):
            assert again.component(d) == c.component(d)


@criterion(5, "tangent count n(n-1) for n=1..8, confirmed by the pencil oracle")
def test_criterion_5_tangent_count():
    for n in range(1, 9):
        assert coincidence.tangent_count(n) == n * (n - 1)
    for degree in range(1, 9):
        rng = random.Random(1000 + degree)
        for _ in range(20):
            f, plane, vertex = random_pencil_instance(rng, degree)
            got = pencil_tangency_count(f, plane, vertex)
            assert got == coincidence.tangent_count(degree) == degree * (degree - 1)


@criterion(6, "bitangent count n(n-2)(n-3)(n+3)/2 with the token-exact trace")
def test_criterion_6_bitangent_count():
    for n in range(1, 9):
        derivation = coincidence.bitangent_derivation(n)
        assert derivation.count == n * (n - 2) * (n - 3) * (n + 3) // 2
    assert coincidence.bitangent_derivation(4).count == 28

    steps = coincidence.bitangent_derivation(4).steps
    assert steps[1] == "2*eps22 = 4*p1*p3 - 4*g*p1 + g_e + g_p"
    assert steps[2] == "2*eps22*g_e = 4*p1*p3*g_e - 4*p1^3*g - 3*G"


@criterion(7, "exceptional pushforward table matches the inverse tangent classes")
def test_criterion_7_pushforward_table():
    table = coincidence.segre_push_table()
    ring = table.value(2).ring
    t = ring.gen("t")
    assert table.value(2) == ring.one()
    assert table.value(3) == 4 * t
    assert table.value(4) == 10 * t * t
    assert table.value(5) == 20 * t**3

    # independent rebuild: s(T) is the inverse of c(T) = (1 + t)^4, and the
    # table must equal (-1)^k s_(k-2) with the product identity c*s = 1
    tangent = TotalClass(ring, [4 * t, 6 * t * t, 4 * t**3], bound=3)
    segre = tangent.invert()
    assert (tangent * segre).component(1).is_zero()
    for k in range(2, 6):
        expected = segre.component(k - 2)
        if k % 2:
            expected = -expected
        assert table.value(k) == expected
    assert table.value(1).is_zero()
    assert table.value(6).is_zero()


@criterion(8, "property suites: axioms, normal forms, duality, pushforward, round-trips")
def test_criterion_8_property_suites():
    PS, G = spaces.space("PS"), spaces.space("G")
    blowup = coincidence.blowup_ring()
    rng = random.Random(808)

    def random_element(ring, max_degree):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            monos = ring.monomials_of_degree(rng.randint(0, max_degree))
            if not monos:
                continue
            m = monos[rng.randrange(len(monos))]
            terms[m] = terms.get(m, 0) + rng.randint(-9, 9)
        return ring.element(terms)

    plan = [(PS.ring, 5, 400), (G.ring, 4, 300), (blowup, 6, 300)]
    checked = 0
    for ring, top, count in plan:
        for _ in range(count):
            a = random_element(ring, top)
            b = random_element(ring, top)
            c = random_element(ring, top)
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert ring.element(a.terms) == a
            checked += 1
    assert checked == 1000

    pairs = [
        ([G.ring.one()], [G.symbols["G"]]),
        ([G.symbols["g"]], [G.symbols["g_s"]]),
        ([G.symbols["g_p"], G.symbols["g_e"]], [G.symbols["g_p"], G.symbols["g_e"]]),
    ]
    for left, right in pairs:
        matrix = [[G.evaluate_top(a * b) for b in right] for a in left]
        assert matrix == [
            [1 if i == j else 0 for j in range(len(left))] for i in range(len(left))
        ]

    top_monos = PS.ring.graded_basis(5).monomials
    for _ in range(500):
        terms = {m: rng.randrange(-9, 10) for m in top_monos}
        x = PS.ring.element(terms)
        assert PS.evaluate_top(x) == G.evaluate_top(spaces.pushforward_PS_to_G(x))

    names = ["t", "g", "g_p", "p_g", "eps22", "c1", "x1"]

    def random_ast(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.4:
                return IntLit(rng.randint(0, 99))
            return Sym(rng.choice(names))
        kind = rng.randrange(5)
        if kind == 0:
            return Neg(random_ast(depth - 1))
        if kind == 1:
            return Add(random_ast(depth - 1), random_ast(depth - 1))
        if kind == 2:
            return Sub(random_ast(depth - 1), random_ast(depth - 1))
        if kind == 3:
            return Mul(random_ast(depth - 1), random_ast(depth - 1))
        return Pow(random_ast(depth - 1), rng.randint(0, 9))

    for _ in range(1000):
        ast = random_ast(4)
        assert dsl.parse(dsl.to_source(ast)) == ast
