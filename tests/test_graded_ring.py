"""Engine tests: integer elimination, graded bases, normal forms, top evaluation.

Every graded piece is recomputed independently by `reference.py`, with
Fraction Gaussian elimination and its own monomial enumeration, so the
engine's reduced Hermite form path is checked against plain linear
algebra over Q.
"""

import ast
import itertools
import math
import random
import re
from fractions import Fraction
from operator import add, mul, sub
from pathlib import Path

import pytest

import reference
from schubert3 import graded_ring
from schubert3.coincidence import blowup_ring
from schubert3.dsl import evaluate, parse
from schubert3.graded_ring import (
    GeneratorSpec,
    GradedRingPresentation,
    PolyRing,
    RingElement,
    TorsionError,
    power,
    series_inverse,
    substitute,
)
from schubert3.spaces import SPACE_NAMES, render_in_classes, space


# ---------------------------------------------------------------------------
# the four production presentations, built inline


def make_point_space():
    free = PolyRing([("t", 1)])
    t = free.gen("t")
    return GradedRingPresentation([t**4], t**3)


def make_plane_space():
    free = PolyRing([("e", 1)])
    e = free.gen("e")
    return GradedRingPresentation([e**4], e**3)


def make_line_space():
    free = PolyRing([("c1", 1), ("c2", 2)])
    c1, c2 = free.gens()
    y3 = 2 * c1 * c2 - c1**3
    y4 = c1**4 - 3 * c1**2 * c2 + c2**2
    return GradedRingPresentation([y3, y4], c2**2)


def make_flag_space():
    free = PolyRing([("t", 1), ("c1", 1), ("c2", 2)])
    t, c1, c2 = free.gens()
    y3 = 2 * c1 * c2 - c1**3
    y4 = c1**4 - 3 * c1**2 * c2 + c2**2
    incidence = t**2 - t * c1 + c2
    return GradedRingPresentation([y3, y4, incidence], t * c2**2)


def make_gcd_ring():
    # neither degree-1 pivot, 2 or 3 in the x column, divides the other, so
    # x's unit pivot comes only from the gcd step
    free = PolyRing([("x", 1), ("y", 1), ("z", 1)])
    x, y, z = free.gens()
    return GradedRingPresentation([2 * x + y + z, 3 * x + y, z**3], z**2)


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
    "blowup": blowup_ring,
    "gcd": make_gcd_ring,
}

EXPECTED_RANKS = {
    "P3": (1, 1, 1, 1),
    "P3dual": (1, 1, 1, 1),
    "G": (1, 1, 2, 1, 1),
    "PS": (1, 2, 3, 3, 2, 1),
    "blowup": (1, 3, 5, 6, 5, 3, 1),
    "gcd": (1, 1, 1),
}


# ---------------------------------------------------------------------------
# monomial enumeration


@pytest.mark.parametrize("degrees", [(1,), (1, 2), (1, 1, 2), (2, 3)])
def test_monomial_order_matches_oracle(degrees):
    ring = PolyRing([(f"x{i}", d) for i, d in enumerate(degrees)])
    for d in range(8):
        assert list(ring.monomials_of_degree(d)) == reference.monomials(degrees, d)


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
        monos, rows = reference.ideal_slice(ring.degrees, [r.terms for r in ring.relations], d)
        expected = len(ring.graded_basis(d)) if d <= ring.top_degree else 0
        assert len(monos) - reference.rank(rows) == expected, f"{name} degree {d}"


def test_graded_basis_bounds(G):
    with pytest.raises(ValueError):
        G.graded_basis(5)
    with pytest.raises(ValueError):
        G.graded_basis(-1)
    assert G.graded_basis(2) == ((2, 0), (0, 1))


@pytest.mark.parametrize("degree", [True, 1.0, 2.0, "2", None])
def test_graded_basis_refuses_a_degree_that_is_not_an_int(G, degree):
    with pytest.raises(ValueError, match=f"^degree must be an integer, not {re.escape(repr(degree))}$"):
        G.graded_basis(degree)


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
    assert PS.graded_basis(5) == ((1, 0, 2),)
    assert PS.evaluate_top(t * c2**2) == 1
    # every degree-5 monomial reduces to a small non-negative multiple
    values = {
        PS.evaluate_top(PS.monomial(m)) for m in PS.monomials_of_degree(5)
    }
    assert values == {0, 1, 2}


def test_normal_form_t_exponent_bounded(PS):
    # the incidence relation eliminates every t power above 1
    for d in range(6):
        for m in PS.graded_basis(d):
            assert m[0] <= 1


@pytest.mark.parametrize("name", sorted(ALL_RINGS))
def test_every_monomial_normal_form_is_a_basis_combination_mod_the_ideal(name):
    ring = ALL_RINGS[name]()
    for d in range(ring.top_degree + 1):
        monos, rows = reference.ideal_slice(ring.degrees, [r.terms for r in ring.relations], d)
        basis = ring.graded_basis(d)
        rank = reference.rank(rows)
        for m in monos:
            nf = ring.monomial(m).terms
            assert set(nf) <= set(basis), (name, m)
            if m in basis:
                assert nf == {m: 1}, (name, m)
            difference = [(mono == m) - nf.get(mono, 0) for mono in monos]
            assert reference.rank(rows + [difference]) == rank, (name, m)


def test_gcd_step_normal_forms_differ_from_their_monomials_by_the_ideal():
    ring = make_gcd_ring()
    x, y, z = ring.gens()
    assert (x, y) == (z, -3 * z)
    relations = [r.terms for r in ring.relations]
    for d in range(ring.top_degree + 1):
        for m in ring.monomials_of_degree(d):
            difference = {m: 1}
            for b, c in ring.monomial(m).terms.items():
                difference[b] = difference.get(b, 0) - c
            assert reference.in_ideal(ring.degrees, difference, relations), m


@pytest.mark.parametrize("name", sorted(ALL_RINGS))
def test_monomials_above_the_top_degree_reduce_to_zero(name):
    ring = ALL_RINGS[name]()
    for d in range(ring.top_degree + 1, ring.top_degree + 2 * max(ring.degrees) + 2):
        for m in ring.monomials_of_degree(d):
            assert ring.monomial(m, 7).is_zero(), (name, m)


MALFORMED_RINGS = {
    "G": make_line_space,
    "PS": make_flag_space,
    "free": lambda: PolyRing([("x", 1), ("y", 2)]),
    "blowup": blowup_ring,
}


@pytest.mark.parametrize("name", sorted(MALFORMED_RINGS))
def test_malformed_terms_are_refused(name):
    ring = MALFORMED_RINGS[name]()
    n = ring.ngens
    unit = (1,) + (0,) * (n - 1)
    bad_monomials = [(1,) * (n + 1), (1,) * (n - 1), (-1,) + (0,) * (n - 1)]
    bad_monomials += [(e,) + (0,) * (n - 1) for e in (1.0, 1.5, True)]
    bad_monomials.append((True,) + (False,) * (n - 1))
    for mono in bad_monomials:
        with pytest.raises(ValueError, match="exponent"):
            ring.element({mono: 1})
    for coeff in (Fraction(1, 2), 1.0, True, False):
        with pytest.raises(ValueError, match="coefficient"):
            ring.element({unit: coeff})


def test_one_normal_form_path():
    # a quotient is a GradedRingPresentation; no other class rewrites terms
    reducers = {
        (path.name, node.name)
        for path in sorted(Path(graded_ring.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "_reduce"
    }
    assert reducers == {
        ("graded_ring.py", "PolyRing"),
        ("graded_ring.py", "GradedRingPresentation"),
    }


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
        # sums and negation skip validation; they must equal the validated rebuild
        monos = {*a.terms, *b.terms}
        assert a + b == ring.element({m: a.coefficient(m) + b.coefficient(m) for m in monos})
        assert a - b == ring.element({m: a.coefficient(m) - b.coefficient(m) for m in monos})
        assert -a == ring.element({m: -c for m, c in a.terms.items()})
        assert (a - a).terms == {}


@pytest.mark.parametrize("name", sorted(ALL_RINGS))
def test_power_matches_repeated_product(name):
    ring = ALL_RINGS[name]()
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


def test_power_refuses_exponents_that_are_not_int(G):
    c1 = G.gen("c1")
    for n in (True, False, 2.0, -1):
        with pytest.raises(ValueError, match="exponent must be a non-negative integer"):
            c1**n
        with pytest.raises(ValueError, match="exponent must be a non-negative integer"):
            power(c1, n)


@pytest.mark.parametrize("name", sorted(ALL_RINGS))
def test_basis_products_are_the_validated_product(name):
    ring = ALL_RINGS[name]()
    basis = [m for d in range(ring.top_degree + 1) for m in ring.graded_basis(d)]
    for m1, m2 in itertools.product(basis, repeat=2):
        m = tuple(x + y for x, y in zip(m1, m2))
        assert ring.monomial(m1) * ring.monomial(m2) == ring.element({m: 1})


def test_arithmetic_builds_no_validated_elements(monkeypatch):
    G, PS = space("G"), space("PS")
    x = PS.symbols["p"] + 2 * PS.symbols["g"] - 1
    calls = []
    validate = RingElement.__init__
    monkeypatch.setattr(
        RingElement, "__init__", lambda e, ring, terms: calls.append(1) or validate(e, ring, terms)
    )
    evaluate(parse("(2*g + g_p)^7 - 3*g*g_e + 1"), G)
    x**5
    render_in_classes(G, evaluate(parse("1 + g + g^2 - g_e + G"), G))
    series_inverse(x + 2, 4)
    assert calls == []
    G.ring.element({})
    assert calls == [1]


def random_source(rng, names, depth):
    """A random expression over `names` and small literals, fully parenthesized."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([*names, str(rng.randrange(4))])
    op = rng.choice("+-*^n")
    left = random_source(rng, names, depth - 1)
    if op == "n":
        return f"-({left})"
    if op == "^":
        return f"({left})^{rng.randrange(4)}"
    return f"({left}) {op} ({random_source(rng, names, depth - 1)})"


def test_shared_symbol_elements_are_never_mutated():
    # `evaluate` returns a space's symbol elements as they are, and arithmetic
    # keeps its operands' term dicts; an aliased dict would corrupt them.
    def snapshot():
        return {n: {s: dict(e.terms) for s, e in space(n).symbols.items()} for n in SPACE_NAMES}

    before = snapshot()
    rng = random.Random("shared-symbols")
    for _ in range(200):
        sp = space(rng.choice(SPACE_NAMES))
        evaluate(parse(random_source(rng, sorted(sp.symbols), 4)), sp)
    assert snapshot() == before
    G = space("G")
    assert G.evaluate_top(G.symbol_class("g") ** 4) == 2


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
    t, c1 = P3.gen("t"), G.gen("c1")
    for combine in (add, sub, mul):
        for a, b in ((t, c1), (c1, t)):
            with pytest.raises(ValueError, match="^elements belong to different rings$"):
                combine(a, b)


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


def reference_render(ring, terms):
    """Terms as printed: degree, then descending lex; signs between the terms."""
    def weight(m):
        return sum(e * g for e, g in zip(m, ring.degrees))

    text = ""
    for m in sorted(terms, key=lambda m: (weight(m), [-e for e in m])):
        c = terms[m]
        names = [g.name for g in ring.generators]
        body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e)
        piece = str(abs(c)) if not body else body if abs(c) == 1 else f"{abs(c)}*{body}"
        if text:
            text += (" + " if c > 0 else " - ") + piece
        elif c > 0:
            text = piece
        else:
            # a leading minus before a power would be read back as the power's base
            text = f"-({piece})" if "^" in piece.split("*")[0] else "-" + piece
    return text or "0"


def assert_table_entries_are_fresh(ring):
    """Every stored entry is what a fresh computation gives, and prints as the reference."""
    names = [g.name for g in ring.generators]
    for m, entry in ring._monomials.items():
        degree = sum(e * g for e, g in zip(m, ring.degrees))
        assert entry == (degree, tuple(-e for e in m), graded_ring.monomial_source(names, m))
        assert graded_ring.format_terms(ring, {m: 1}) == reference_render(ring, {m: 1})


@pytest.mark.parametrize("name", [*SPACE_NAMES, "blowup"])
def test_monomial_table_holds_degree_order_and_source(name):
    ring = blowup_ring() if name == "blowup" else space(name).ring
    names = [g.name for g in ring.generators]
    table = ring._monomials
    rng = random.Random(f"render {name}")
    basis = [m for d in range(ring.top_degree + 1) for m in ring.graded_basis(d)]
    for _ in range(50):
        terms = {m: rng.randint(-3, 3) for m in rng.sample(basis, rng.randint(0, len(basis)))}
        e = ring.element(terms)
        assert str(e) == reference_render(ring, e.terms)
    assert_table_entries_are_fresh(ring)
    expected = [m for d in range(ring.top_degree + 1) for m in reference.monomials(ring.degrees, d)]
    # the first two fields of an entry are its sort key: degree, then descending lex
    assert sorted(expected, key=lambda m: table[m][:2]) == expected
    for m in expected:
        degree, _, source = table[m]
        assert degree == sum(e * g for e, g in zip(m, ring.degrees)) == ring.monomial_degree(m)
        assert source == graded_ring.monomial_source(names, m)
    assert_table_entries_are_fresh(ring)


@pytest.mark.parametrize("make", [make_point_space, make_line_space, make_flag_space])
def test_construction_renders_no_monomial(make):
    ring = make()
    assert len(ring._monomials) == 0
    ring.gen(ring.generators[0].name) ** ring.top_degree
    assert len(ring._monomials) == 0
    str(ring.one())
    assert list(ring._monomials) == [(0,) * ring.ngens]
    assert_table_entries_are_fresh(ring)


def test_a_free_ring_stores_each_monomial_entry_on_first_lookup():
    free = PolyRing([("t", 1), ("c1", 1), ("c2", 2)])
    assert len(free._monomials) == 0
    t, c1, c2 = free.gens()
    e = 3 * t**2 * c2 - c1**5 + 7 - t * c1 * c2**4
    assert str(e) == reference_render(free, e.terms) == "7 + 3*t^2*c2 - c1^5 - t*c1*c2^4"
    assert sorted(free._monomials) == sorted(e.terms)
    e = t * c2 - c1**2
    assert str(e) == reference_render(free, e.terms) == "-(c1^2) + t*c2"
    assert free.monomial_degree((1, 1, 4)) == 10
    assert len(free._monomials) == 6
    assert free.monomial_degree((2, 3, 1)) == 7
    assert len(free._monomials) == 7
    assert_table_entries_are_fresh(free)


def test_hermite_form_is_reduced_and_keeps_the_lattice():
    # rows whose pivots are not 1, which no ring construction produces: the
    # form is checked for its shape, and for its lattice against the reference
    rng = random.Random("hermite")
    for _ in range(80):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        scale = [rng.choice((1, 2, 3, 4, 6)) for _ in range(ncols)]
        rows = [[rng.randint(-9, 9) * k for k in scale] for _ in range(nrows)]
        form = graded_ring.hermite_form(rows, ncols)
        cols = [col for col, _ in form]
        assert cols == sorted(set(cols))
        for i, (col, row) in enumerate(form):
            assert not any(row[:col]) and row[col] > 0
            assert all(0 <= above[col] < row[col] for _, above in form[:i])
        # the pivots of an echelon basis are invariants of the lattice
        reference_pivots = [(col, row[col]) for col, row in reference.hermite_echelon(rows, ncols)]
        assert [(col, row[col]) for col, row in form] == reference_pivots
        # each column a degree-1 generator, each row a linear form: the ideal's
        # degree-1 slice is the row lattice, so each basis lies in the other's
        degrees = (1,) * ncols

        def form_of(vec):
            return {tuple(int(i == j) for i in range(ncols)): c for j, c in enumerate(vec) if c}

        given, reduced = [form_of(r) for r in rows], [form_of(r) for _, r in form]
        assert all(reference.in_ideal(degrees, v, given) for v in reduced)
        assert all(reference.in_ideal(degrees, v, reduced) for v in given)


# ---------------------------------------------------------------------------
# construction failure modes


def test_torsion_pivot_detected():
    free = PolyRing([("t", 1)])
    t = free.gen("t")
    with pytest.raises(TorsionError):
        GradedRingPresentation([2 * t**2], t)


def test_sign_flipped_degree_four_relation_gives_torsion():
    # replacing the degree-4 relation with c1^4 + 3c1^2c2 - c2^2 leaves a
    # pivot of 5 in degree 4, so the quotient is rejected outright
    free = PolyRing([("c1", 1), ("c2", 2)])
    c1, c2 = free.gens()
    y3 = 2 * c1 * c2 - c1**3
    bad = c1**4 + 3 * c1**2 * c2 - c2**2
    with pytest.raises(TorsionError, match="pivot 5"):
        GradedRingPresentation([y3, bad], c2**2)


def test_non_homogeneous_relation_rejected():
    free = PolyRing([("c1", 1), ("c2", 2)])
    c1, c2 = free.gens()
    with pytest.raises(ValueError, match="homogeneous"):
        GradedRingPresentation([c1 + c2], c2**2)


def test_nonvanishing_above_top_rejected():
    free = PolyRing([("t", 1)])
    t = free.gen("t")
    with pytest.raises(ValueError, match="vanish"):
        GradedRingPresentation([t**5], t**3)


def test_top_rank_must_be_one():
    free = PolyRing([("u", 1), ("v", 1)])
    u, v = free.gens()
    rels = [u**3, v**3, u**2 * v, u * v**2]
    with pytest.raises(ValueError, match="rank 3"):
        GradedRingPresentation(rels, u**2)


def test_top_class_must_generate():
    free = PolyRing([("u", 1), ("v", 1)])
    u, v = free.gens()
    rels = [v**2, u**2 - 2 * u * v]
    with pytest.raises(ValueError, match="generate"):
        GradedRingPresentation(rels, u**2)


def test_top_class_is_the_class_that_integrates_to_one():
    free = PolyRing([("t", 1)])
    t = free.gen("t")
    with pytest.raises(ValueError, match="coefficient 1 or -1"):
        GradedRingPresentation([t**4], 2 * t**3)
    ring = GradedRingPresentation([t**4], -(t**3))
    assert ring.evaluate_top(ring.gen("t") ** 3) == -1
    assert ring.evaluate_top(-(ring.gen("t") ** 3)) == 1


def test_constant_relation_rejected():
    free = PolyRing([("t", 1)])
    t = free.gen("t")
    with pytest.raises(ValueError, match="constant relation would collapse the ring"):
        GradedRingPresentation([t**4, free.one()], t**3)


def test_relations_may_be_any_iterable():
    free = PolyRing([("c1", 1), ("c2", 2)])
    c1, c2 = free.gens()
    relations = [2 * c1 * c2 - c1**3, c1**4 - 3 * c1**2 * c2 + c2**2]
    from_list = GradedRingPresentation(relations, c2**2)
    from_generator = GradedRingPresentation((r for r in relations), c2**2)
    assert from_generator.relations == from_list.relations
    assert from_generator.graded_ranks() == from_list.graded_ranks() == (1, 1, 2, 1, 1)
    for d in range(5):
        for m in free.monomials_of_degree(d):
            assert from_generator.monomial(m).terms == from_list.monomial(m).terms


def test_relations_and_top_class_share_one_free_ring():
    t = PolyRing([("t", 1)]).gen("t")
    twin = PolyRing([("t", 1)]).gen("t")
    with pytest.raises(ValueError, match="must live in one free ring"):
        GradedRingPresentation([twin**4], t**3)


def test_generator_spec_validation():
    for degree in (0, 1.5, True, "2"):
        with pytest.raises(ValueError, match="degree must be a positive integer"):
            GeneratorSpec("t", degree)
        with pytest.raises(ValueError, match="degree must be a positive integer"):
            PolyRing([("x", 1), ("y", degree)])
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
