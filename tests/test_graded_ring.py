"""Engine tests: integer elimination, graded bases, normal forms, top evaluation.

The rank oracle below recomputes every graded piece independently, using
Fraction Gaussian elimination and its own monomial enumeration, so the
engine's unit-pivot integer echelon path is checked against plain linear
algebra over Q.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from schubert3.coincidence import blowup_ring
from schubert3.graded_ring import (
    GeneratorSpec,
    GradedRingPresentation,
    PolyRing,
    RingElement,
    TorsionError,
    in_ideal_span,
    solve_integer_combination,
    substitute,
)


# ---------------------------------------------------------------------------
# independent oracles


def oracle_monomials(degrees, d):
    """All exponent vectors of weighted degree d, descending lex."""
    if d < 0:
        return []
    ranges = [range(d // g + 1) for g in degrees]
    out = [
        m
        for m in itertools.product(*ranges)
        if sum(e * g for e, g in zip(m, degrees)) == d
    ]
    out.sort(reverse=True)
    return out


def oracle_rank_q(rows):
    """Rank over Q by straightforward Gaussian elimination."""
    rows = [[Fraction(v) for v in r] for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_corank(degrees, relations, d):
    """Corank of the degree-d slice of the ideal, all arithmetic over Q.

    relations: list of dicts mapping exponent vectors to coefficients.
    """
    monos = oracle_monomials(degrees, d)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for rel in relations:
        rel_deg = sum(e * g for e, g in zip(next(iter(rel)), degrees))
        for mult in oracle_monomials(degrees, d - rel_deg):
            vec = [0] * len(monos)
            for m, c in rel.items():
                vec[index[tuple(a + b for a, b in zip(mult, m))]] += c
            rows.append(vec)
    return len(monos) - oracle_rank_q(rows)


# ---------------------------------------------------------------------------
# the four production presentations, built inline


def make_point_space():
    free = PolyRing([("t", 1)])
    t = free.gen("t")
    return GradedRingPresentation([("t", 1)], [t**4], 3, (3,))


def make_plane_space():
    free = PolyRing([("e", 1)])
    e = free.gen("e")
    return GradedRingPresentation([("e", 1)], [e**4], 3, (3,))


def make_line_space():
    free = PolyRing([("c1", 1), ("c2", 2)])
    c1, c2 = free.gens()
    y3 = 2 * c1 * c2 - c1**3
    y4 = c1**4 - 3 * c1**2 * c2 + c2**2
    return GradedRingPresentation(free.generators, [y3, y4], 4, (0, 2))


def make_flag_space():
    free = PolyRing([("t", 1), ("c1", 1), ("c2", 2)])
    t, c1, c2 = free.gens()
    y3 = 2 * c1 * c2 - c1**3
    y4 = c1**4 - 3 * c1**2 * c2 + c2**2
    incidence = t**2 - t * c1 + c2
    return GradedRingPresentation(free.generators, [y3, y4, incidence], 5, (1, 0, 2))


@pytest.fixture(scope="module")
def P3():
    return make_point_space()


@pytest.fixture(scope="module")
def G():
    return make_line_space()


@pytest.fixture(scope="module")
def PS():
    return make_flag_space()


ALL_RINGS = {
    "P3": make_point_space,
    "P3dual": make_plane_space,
    "G": make_line_space,
    "PS": make_flag_space,
}

EXPECTED_RANKS = {
    "P3": (1, 1, 1, 1),
    "P3dual": (1, 1, 1, 1),
    "G": (1, 1, 2, 1, 1),
    "PS": (1, 2, 3, 3, 2, 1),
}


# ---------------------------------------------------------------------------
# monomial enumeration


@pytest.mark.parametrize("degrees", [(1,), (1, 2), (1, 1, 2), (2, 3)])
def test_monomial_order_matches_oracle(degrees):
    ring = PolyRing([(f"x{i}", d) for i, d in enumerate(degrees)])
    for d in range(8):
        assert list(ring.monomials_of_degree(d)) == oracle_monomials(degrees, d)


def test_monomial_order_frozen_examples():
    G = make_line_space()
    assert list(G.monomials_of_degree(4)) == [(4, 0), (2, 1), (0, 2)]
    PS = make_flag_space()
    assert list(PS.monomials_of_degree(2)) == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)]
    assert PS.monomials_of_degree(-1) == ()


# ---------------------------------------------------------------------------
# graded ranks against the Q oracle


@pytest.mark.parametrize("name", sorted(ALL_RINGS))
def test_graded_ranks_frozen(name):
    ring = ALL_RINGS[name]()
    assert ring.graded_ranks() == EXPECTED_RANKS[name]


@pytest.mark.parametrize("name", sorted(ALL_RINGS))
def test_ranks_match_rational_elimination(name):
    ring = ALL_RINGS[name]()
    window = max(ring.degrees)
    for d in range(ring.top_degree + window + 1):
        corank = oracle_corank(ring.degrees, ring.relations, d)
        expected = ring.graded_basis(d).rank if d <= ring.top_degree else 0
        assert corank == expected, f"{name} degree {d}"


def test_graded_basis_bounds(G):
    with pytest.raises(ValueError):
        G.graded_basis(5)
    with pytest.raises(ValueError):
        G.graded_basis(-1)
    assert G.graded_basis(2).monomials == ((2, 0), (0, 1))
    assert G.graded_basis(2).rank == 2


# ---------------------------------------------------------------------------
# frozen normal forms


def test_point_space_normal_forms(P3):
    t = P3.gen("t")
    assert (t**4).is_zero()
    assert (t**5).is_zero()
    assert not (t**3).is_zero()
    assert P3.evaluate_top(t**3) == 1
    assert P3.evaluate_top(t**2) == 0
    assert P3.evaluate_top(7 * t**3 - t) == 7


def test_line_space_normal_forms(G):
    c1, c2 = G.gens()
    assert c1**3 == 2 * c1 * c2
    assert c1**4 == 2 * c2**2
    assert c1**2 * c2 == c2**2
    assert G.evaluate_top(c1**4) == 2
    assert G.evaluate_top(c2**2) == 1
    assert G.evaluate_top(c1**2 * c2) == 1
    assert G.evaluate_top(2 * c1 * c2 * c1) == 2
    assert (c1**5).is_zero() and (c1**3 * c2).is_zero()


def test_flag_space_normal_forms(PS):
    t, c1, c2 = PS.gens()
    assert t**2 == t * c1 - c2
    assert (t**4).is_zero()
    assert (t**3 * c2).is_zero()
    assert t * c1**2 * c2 == t * c2**2
    assert (c1 * c2**2).is_zero()
    assert (c1**5).is_zero()
    assert t * c1**4 == 2 * t * c2**2
    assert PS.graded_basis(5).monomials == ((1, 0, 2),)
    assert PS.evaluate_top(t * c2**2) == 1
    # every degree-5 monomial reduces to a small non-negative multiple
    values = {
        PS.evaluate_top(PS.monomial(m)) for m in PS.monomials_of_degree(5)
    }
    assert values == {0, 1, 2}


def test_normal_form_t_exponent_bounded(PS):
    # the incidence relation eliminates every t power above 1
    for d in range(6):
        for m in PS.graded_basis(d).monomials:
            assert m[0] <= 1


# ---------------------------------------------------------------------------
# ring structure on normal forms


def random_terms(rng, ring, max_degree):
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        monos = ring.monomials_of_degree(rng.randrange(max_degree + 1))
        if monos:
            m = rng.choice(monos)
            terms[m] = terms.get(m, 0) + rng.randrange(-9, 10)
    return terms


@pytest.mark.parametrize("name", sorted(ALL_RINGS))
def test_reduction_commutes_with_free_product(name):
    ring = ALL_RINGS[name]()
    free = PolyRing(ring.generators)
    rng = random.Random(f"free-compat-{name}")
    for _ in range(200):
        xt = random_terms(rng, free, ring.top_degree + 1)
        yt = random_terms(rng, free, ring.top_degree + 1)
        free_prod = free.element(xt) * free.element(yt)
        assert ring.element(xt) * ring.element(yt) == ring.element(free_prod.terms)


@pytest.mark.parametrize("name", sorted(ALL_RINGS))
def test_ring_axioms_on_random_triples(name):
    ring = ALL_RINGS[name]()
    rng = random.Random(f"axioms-{name}")
    one = ring.one()
    for _ in range(150):
        a = ring.element(random_terms(rng, ring, ring.top_degree))
        b = ring.element(random_terms(rng, ring, ring.top_degree))
        c = ring.element(random_terms(rng, ring, ring.top_degree))
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a * b == b * a
        assert one * a == a
        assert a - a == ring.zero()


POWER_RINGS = {**ALL_RINGS, "blowup": blowup_ring}


@pytest.mark.parametrize("name", sorted(POWER_RINGS))
def test_power_matches_repeated_product(name):
    ring = POWER_RINGS[name]()
    rng = random.Random(f"powers-{name}")
    for _ in range(3):
        terms = random_terms(rng, ring, 2)
        terms[(0,) * ring.ngens] = rng.choice((-2, -1, 1, 2))  # keeps high powers nonzero
        x = ring.element(terms)
        product = ring.one()
        for n in range(41):
            assert x**n == product, n
            product = product * x
        with pytest.raises(ValueError, match="non-negative"):
            x ** -1


def test_power_squares_and_multiplies(G, monkeypatch):
    calls = []
    multiply = RingElement.__mul__
    monkeypatch.setattr(RingElement, "__mul__", lambda a, b: calls.append(1) or multiply(a, b))
    x = G.gen("c1") + 1
    for n in (1, 2, 3, 40, 1000):
        calls.clear()
        x**n
        assert len(calls) <= 2 * math.log2(n), (n, len(calls))


def test_element_operations(G):
    c1, c2 = G.gens()
    assert (c1 + 1) - 1 == c1
    assert 3 * c1 == c1 + c1 + c1
    assert 2 - c1 * 0 == 2 * G.one()
    assert c1**0 == G.one()
    assert (-c1) * (-c1) == c1**2
    assert c1.coefficient((1, 0)) == 1
    e = c1**2 + 5 * c2 + 3
    comps = e.homogeneous_components()
    assert sorted(comps) == [0, 2]
    assert comps[2] == c1**2 + 5 * c2
    assert e.homogeneous_component(1).is_zero()
    assert not e.is_homogeneous()
    with pytest.raises(ValueError):
        e.degree()
    assert (c1 * c2).degree() == 3
    assert G.zero().degree() is None
    with pytest.raises(ValueError):
        c1 ** (-1)


def test_cross_ring_arithmetic_rejected(P3, G):
    with pytest.raises(ValueError):
        P3.gen("t") + G.gen("c1")


def test_rendering_frozen(G):
    c1, c2 = G.gens()
    assert str(G.zero()) == "0"
    assert str(-c1) == "-c1"
    assert str(-5 * G.one()) == "-5"
    assert str(1 + c1 + c1**2 - 3 * c2) == "1 + c1 + c1^2 - 3*c2"
    free = PolyRing([("c1", 1), ("c2", 2)])
    f1, f2 = free.gens()
    # a leading negative power is parenthesized so the unary minus cannot
    # be captured by the exponent when the string is parsed back
    assert str(2 * f1**2 * f2 - f1**4) == "-(c1^4) + 2*c1^2*c2"
    assert str(-f1 * f2) == "-c1*c2"
    assert str(f2 - 2 * f1**2) == "-2*c1^2 + c2"


# ---------------------------------------------------------------------------
# construction failure modes


def test_torsion_pivot_detected():
    free = PolyRing([("t", 1)])
    t = free.gen("t")
    with pytest.raises(TorsionError):
        GradedRingPresentation([("t", 1)], [2 * t**2], 1, (1,))


def test_sign_flipped_degree_four_relation_gives_torsion():
    # replacing the degree-4 relation with c1^4 + 3c1^2c2 - c2^2 leaves a
    # pivot of 5 in degree 4, so the quotient is rejected outright
    free = PolyRing([("c1", 1), ("c2", 2)])
    c1, c2 = free.gens()
    y3 = 2 * c1 * c2 - c1**3
    bad = c1**4 + 3 * c1**2 * c2 - c2**2
    with pytest.raises(TorsionError, match="pivot 5"):
        GradedRingPresentation(free.generators, [y3, bad], 4, (0, 2))


def test_non_homogeneous_relation_rejected():
    free = PolyRing([("c1", 1), ("c2", 2)])
    c1, c2 = free.gens()
    with pytest.raises(ValueError, match="homogeneous"):
        GradedRingPresentation(free.generators, [c1 + c2], 4, (0, 2))


def test_nonvanishing_above_top_rejected():
    free = PolyRing([("t", 1)])
    t = free.gen("t")
    with pytest.raises(ValueError, match="vanish"):
        GradedRingPresentation([("t", 1)], [t**5], 3, (3,))


def test_top_rank_must_be_one():
    free = PolyRing([("u", 1), ("v", 1)])
    u, v = free.gens()
    rels = [u**3, v**3, u**2 * v, u * v**2]
    with pytest.raises(ValueError, match="rank 3"):
        GradedRingPresentation(free.generators, rels, 2, (2, 0))


def test_top_class_must_generate():
    free = PolyRing([("u", 1), ("v", 1)])
    u, v = free.gens()
    rels = [v**2, u**2 - 2 * u * v]
    with pytest.raises(ValueError, match="generate"):
        GradedRingPresentation(free.generators, rels, 2, (2, 0))


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("t", 0)
    with pytest.raises(ValueError):
        GeneratorSpec("2x", 1)
    with pytest.raises(ValueError):
        PolyRing([("t", 1), ("t", 2)])


# ---------------------------------------------------------------------------
# homomorphisms and ideal membership


def test_substitute_sends_relations_to_zero(G):
    free = PolyRing([("x1", 1), ("x2", 2)])
    x1, x2 = free.gens()
    images = {"x1": G.gen("c1"), "x2": G.gen("c2")}
    y4 = x1**4 - 3 * x1**2 * x2 + x2**2
    assert substitute(y4, G, images).is_zero()
    assert substitute(x1**2 + 1, G, images) == G.gen("c1") ** 2 + 1


def test_substitute_is_multiplicative(G):
    free = PolyRing([("x1", 1), ("x2", 2)])
    images = {"x1": G.gen("c1") + 2, "x2": G.gen("c2") - G.gen("c1")}
    rng = random.Random("subst")
    for _ in range(50):
        a = free.element(random_terms(rng, free, 4))
        b = free.element(random_terms(rng, free, 4))
        assert substitute(a * b, G, images) == substitute(a, G, images) * substitute(
            b, G, images
        )


def test_substitute_missing_image(G):
    free = PolyRing([("x1", 1), ("x2", 2)])
    with pytest.raises(ValueError, match="x2"):
        substitute(free.gen("x2"), G, {"x1": G.gen("c1")})


def test_in_ideal_span_basics():
    free = PolyRing([("x1", 1), ("x2", 2)])
    x1, x2 = free.gens()
    assert in_ideal_span(x1**3, [x1**2])
    assert in_ideal_span(x1**3 - 2 * x1 * x2 + x2 * x1, [x1**2 - x2])
    assert not in_ideal_span(x1 * x2, [x1**2])
    # integer exactness: 2*x1^2 is not an integer multiple of 4*x1^2
    assert not in_ideal_span(2 * x1**2, [4 * x1**2])
    assert in_ideal_span(free.zero(), [x1**2])
    with pytest.raises(ValueError):
        in_ideal_span(x1, [x1 + x1**2])


def test_solve_integer_combination():
    assert solve_integer_combination([[1, 1], [0, 2]], [3, 5]) == [3, 1]
    assert solve_integer_combination([[2]], [1]) is None
    assert solve_integer_combination([[1, 0]], [0, 1]) is None
    assert solve_integer_combination([[1, 0], [0, 1]], [4, -7]) == [4, -7]
