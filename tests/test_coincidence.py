"""Blow-up calculus: canonical forms, integrals, tangent and bitangent counts.

The rewrite ring is deliberately under-presented, so the heavy oracle here
is rational linear algebra on the full relation ideal: coranks of the
honest quotient are frozen degree by degree, and the degree-6 integral is
compared against the unique functional that kills the ideal slice.
"""

from fractions import Fraction
import math
import random

import pytest

from schubert3 import coincidence, linalg, spaces
from schubert3.chern_segre import TotalClass
from schubert3.coincidence import (
    InterpretationTable,
    bitangent_derivation,
    blowup_ring,
    coincidence_class,
    eval_exceptional,
    eval_total,
    exceptional_split,
    phi_pullback,
    segre_push_table,
    surface_excess_class,
    tangent_count,
)
from schubert3.graded_ring import PolyRing

FREE = PolyRing([("t1", 1), ("t2", 1), ("eps", 1)])


def free_relation_ideal():
    """Generators of the full relation ideal in the free ring."""
    t1, t2, eps = FREE.gens()
    c1 = eps - t1 - t2
    c2 = t1 * t2 - eps * t2
    rel3 = 2 * c1 * c2 - c1 ** 3
    rel4 = c1 ** 4 - 3 * c1 ** 2 * c2 + c2 ** 2
    return [eps * t1 - eps * t2, rel3, rel4, t1 ** 4, t2 ** 4]


def ideal_slice_rows(generators, d):
    """Degree-d slice of the ideal as coefficient rows over the monomials."""
    monos = FREE.monomials_of_degree(d)
    rows = []
    for g in generators:
        dg = g.degree()
        if dg > d:
            continue
        for m in FREE.monomials_of_degree(d - dg):
            prod = g * FREE.monomial(m)
            rows.append([prod.coefficient(mono) for mono in monos])
    return rows, monos


def rref(rows, ncols):
    """Reduced row echelon form over the rationals; returns (rows, pivots)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        lead = mat[r][col]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def reduce_vector(vec, echelon, pivots):
    out = [Fraction(x) for x in vec]
    for row, pc in zip(echelon, pivots):
        f = out[pc]
        if f:
            out = [a - f * b for a, b in zip(out, row)]
    return out


def random_integer_matrix(rng, nrows, ncols, rank):
    """Product of random nrows x rank and rank x ncols integer matrices."""
    left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(rank)]
    return [
        [sum(row[k] * right[k][j] for k in range(rank)) for j in range(ncols)] for row in left
    ]


def test_fraction_free_rref_matches_rational_reference():
    """linalg.rref is the rational rref above, each row scaled to primitive integers."""
    rng = random.Random(20)
    deficient = 0
    for _ in range(300):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        matrix = random_integer_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        rows, pivots = linalg.rref(matrix, ncols)
        ref_rows, ref_pivots = rref(matrix, ncols)
        assert pivots == ref_pivots
        deficient += len(pivots) < nrows
        for row, pc, ref_row in zip(rows, pivots, ref_rows):
            assert all(type(x) is int for x in row)
            assert math.gcd(*row) == 1
            assert row[pc] > 0
            assert all(row[other] == 0 for other in pivots if other != pc)
            assert [Fraction(x, row[pc]) for x in row] == ref_row
    assert deficient > 50


def test_canonical_form_rules():
    ring = blowup_ring()
    t1, t2, eps = ring.gens()
    assert eps * t1 == eps * t2
    assert (t1 ** 4).is_zero()
    assert (t2 ** 4).is_zero()
    assert (eps * t1 ** 3 * t2).is_zero()
    assert (eps - t1 - t2) ** 2 == ring.element(
        {(0, 0, 2): 1, (0, 1, 1): -4, (2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}
    )
    # eps powers are not truncated; only the evaluation functionals see them
    assert not (eps ** 9).is_zero()


def test_exceptional_split_shape():
    ring = blowup_ring()
    rng = random.Random(41)
    monos6 = [m for d in range(0, 7) for m in ring.monomials_of_degree(d)]
    for _ in range(30):
        c = ring.element({m: rng.randint(-6, 6) for m in rng.sample(monos6, 8)})
        free, h = exceptional_split(c)
        assert free + ring.gen("eps") * h == c
        assert all(k == 0 and a <= 3 and b <= 3 for (a, b, k) in free.terms)
        assert all(a == 0 and b <= 3 for (a, b, _) in h.terms)
    with pytest.raises(ValueError):
        exceptional_split(FREE.gen("t1"))


def test_pullback_images_frozen():
    G = spaces.space("G")
    assert str(phi_pullback(G.symbol_class("g"))) == "t1 + t2 - eps"
    assert str(phi_pullback(G.symbol_class("g_e"))) == "t1*t2 - t2*eps"
    c1 = G.ring.gen("c1")
    c2 = G.ring.gen("c2")
    ic1 = phi_pullback(c1)
    ic2 = phi_pullback(c2)
    rel3 = 2 * ic1 * ic2 - ic1 ** 3
    rel4 = ic1 ** 4 - 3 * ic1 ** 2 * ic2 + ic2 ** 2
    # neither relation image rewrites to zero; they die only under integrals
    assert rel3.terms == {
        (0, 0, 3): -1,
        (0, 1, 2): 4,
        (0, 2, 1): -6,
        (0, 3, 0): 1,
        (1, 2, 0): 1,
        (2, 1, 0): 1,
        (3, 0, 0): 1,
    }
    assert rel4.terms == {
        (0, 0, 4): 1,
        (0, 1, 3): -5,
        (0, 2, 2): 10,
        (0, 3, 1): -10,
        (1, 3, 0): 1,
        (2, 2, 0): 1,
        (3, 1, 0): 1,
    }
    with pytest.raises(ValueError):
        phi_pullback(spaces.space("P3").ring.gen("t"))


def test_relation_images_invisible_to_integrals():
    G = spaces.space("G")
    ring = blowup_ring()
    ic1 = phi_pullback(G.ring.gen("c1"))
    ic2 = phi_pullback(G.ring.gen("c2"))
    for image in (2 * ic1 * ic2 - ic1 ** 3, ic1 ** 4 - 3 * ic1 ** 2 * ic2 + ic2 ** 2):
        d = image.degree()
        for m in ring.monomials_of_degree(6 - d):
            assert eval_total(image * ring.monomial(m)) == 0
        for m in ring.monomials_of_degree(5 - d):
            assert eval_exceptional(image * ring.monomial(m)) == 0


def test_free_relation_expansion_frozen():
    rel3 = free_relation_ideal()[1]
    assert rel3.terms == {
        (0, 0, 3): -1,
        (1, 0, 2): 3,
        (0, 1, 2): 1,
        (2, 0, 1): -3,
        (1, 1, 1): -2,
        (0, 2, 1): -1,
        (3, 0, 0): 1,
        (2, 1, 0): 1,
        (1, 2, 0): 1,
        (0, 3, 0): 1,
    }


def test_quotient_coranks():
    """The full ideal cuts the free ring down to ranks 1,3,5,6,5,3,1."""
    generators = free_relation_ideal()
    coranks = []
    for d in range(7):
        rows, monos = ideal_slice_rows(generators, d)
        _, pivots = rref(rows, len(monos))
        coranks.append(len(monos) - len(pivots))
    assert coranks == [1, 3, 5, 6, 5, 3, 1]


def test_total_integral_matches_quotient_functional():
    """eval_total is the unique rational functional killing the ideal.

    The degree-6 slice of the honest quotient is one-dimensional, so the
    functional vanishing on the ideal and normalized at t1^3*t2^3 is
    determined; the rewrite-based integral must agree with it on every
    class, canonical or not.
    """
    generators = free_relation_ideal()
    rows, monos = ideal_slice_rows(generators, 6)
    echelon, pivots = rref(rows, len(monos))
    free_cols = [j for j in range(len(monos)) if j not in pivots]
    assert len(free_cols) == 1
    j0 = free_cols[0]

    def functional(vec):
        return reduce_vector(vec, echelon, pivots)[j0]

    unit = {m: i for i, m in enumerate(monos)}
    top = [0] * len(monos)
    top[unit[(3, 3, 0)]] = 1
    scale = functional(top)
    assert scale != 0

    ring = blowup_ring()
    rng = random.Random(977)
    for _ in range(60):
        terms = {m: rng.randint(-9, 9) for m in rng.sample(monos, rng.randint(1, 10))}
        vec = [0] * len(monos)
        for m, c in terms.items():
            vec[unit[m]] = c
        expected = functional(vec) / scale
        assert Fraction(eval_total(ring.element(terms))) == expected


def test_push_table():
    table = segre_push_table()
    p3 = spaces.space("P3").ring
    t = p3.gen("t")
    assert table.value(2) == p3.one()
    assert table.value(3) == 4 * t
    assert table.value(4) == 10 * t * t
    assert table.value(5) == 20 * t ** 3
    assert table.value(0).is_zero()
    assert table.value(1).is_zero()
    assert table.value(6).is_zero()
    with pytest.raises(ValueError):
        table.value(-1)
    # the table is the series inverse of the tangent class
    tangent = TotalClass(p3, [4 * t, 6 * t * t, 4 * t ** 3], bound=3)
    assert tangent * tangent.invert() == TotalClass.one(p3, 3)


def test_exceptional_integral_examples():
    ring = blowup_ring()
    t2 = ring.gen("t2")
    eps = ring.gen("eps")
    assert eval_exceptional(eps ** 2 * t2 ** 3) == 1
    assert eval_exceptional(eps ** 3 * t2 ** 2) == 4
    # eps-free terms and single eps factors integrate to zero
    assert eval_exceptional(ring.gen("t1") * t2 + eps * t2 ** 2) == 0
    for n in range(1, 6):
        full = -n * eps ** 3 * t2 ** 2 + (n * n + 3 * n) * eps ** 2 * t2 ** 3
        assert eval_exceptional(full) == n * n - n
    with pytest.raises(ValueError):
        eval_exceptional(FREE.gen("eps"))


def test_total_integral_examples():
    ring = blowup_ring()
    t1, t2, eps = ring.gens()
    assert eval_total(t1 ** 3 * t2 ** 3) == 1
    assert eval_total(eps ** 6) == 20
    assert eval_total(eps ** 3 * t2 ** 3) == 1
    assert eval_total(t1 ** 3 * t2 ** 3 - 2 * eps ** 6) == -39
    with pytest.raises(ValueError):
        eval_total(FREE.gen("t1"))


def test_coincidence_class():
    ring = blowup_ring()
    t1, t2, eps = ring.gens()
    assert coincidence_class() == eps
    g = spaces.space("G").symbol_class("g")
    assert eps + phi_pullback(g) == t1 + t2
    assert eps * t1 == eps * t2
    # bidegree reading: a (p, q) correspondence meets the diagonal p+q times
    for p, q in [(1, 1), (2, 3), (5, 0)]:
        restricted = sum(c for (a, b, k), c in (p * t1 + q * t2).terms.items() if k == 0)
        assert restricted == p + q


def test_surface_excess_class():
    ring = blowup_ring()
    assert surface_excess_class(1).terms == {(1, 1, 0): 1, (0, 1, 1): -1}
    assert surface_excess_class(2).terms == {(1, 1, 0): 4, (0, 1, 1): -2}
    surface_excess_class(5)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            surface_excess_class(bad)


def test_tangent_count():
    for n in range(1, 9):
        assert tangent_count(n) == n * (n - 1)
    with pytest.raises(ValueError):
        tangent_count(0)
    # the n=2 integrand, fully expanded
    g_s = spaces.space("G").symbol_class("g_s")
    integrand = surface_excess_class(2) * phi_pullback(g_s)
    assert integrand.terms == {
        (3, 2, 0): 4,
        (2, 3, 0): 4,
        (0, 3, 2): 10,
        (0, 2, 3): -2,
    }


def test_interpretation_table():
    table = InterpretationTable()
    n = table.ring.gen("n")
    assert table.entries["G"] == n * (n - 1) * (n - 2) * (n - 3)
    assert table.entries["p1*p3*g_e"] == n * n * (n - 2) * (n - 3)

    from schubert3.coincidence import _config_ring

    ring = _config_ring()
    assert table.interpret(ring.gen("G")) == table.entries["G"]
    assert table.interpret(ring.gen("p1") ** 3 * ring.gen("g")).is_zero()
    with pytest.raises(ValueError):
        table.interpret(ring.gen("p2") * ring.gen("p4") * ring.gen("g_e"))
    with pytest.raises(ValueError):
        table.interpret(FREE.gen("t1"))


def test_bitangent_counts():
    expected = [4, 0, 0, 28, 120, 324, 700, 1320]
    for n, want in zip(range(1, 9), expected):
        derivation = bitangent_derivation(n)
        assert derivation.count == want
        assert derivation.count == n * (n - 2) * (n - 3) * (n + 3) // 2
        assert derivation.n == n
    with pytest.raises(ValueError):
        bitangent_derivation(0)


def test_bitangent_trace_frozen():
    derivation = bitangent_derivation(4)
    assert derivation.steps == (
        "2*eps22 = (p1 + p2 - g)*(p3 + p4 - g)",
        "2*eps22 = 4*p1*p3 - 4*g*p1 + g_e + g_p",
        "2*eps22*g_e = 4*p1*p3*g_e - 4*p1^3*g - 3*G",
    )
    assert derivation.interpretation == (
        "G -> n*(n-1)*(n-2)*(n-3)",
        "p1*p3*g_e -> n^2*(n-2)*(n-3)",
        "p1^3*g -> 0",
        "2*count = n^4 - 2*n^3 - 9*n^2 + 18*n",
        "count = 28",
    )
    assert derivation.trace == derivation.steps + derivation.interpretation
    assert bitangent_derivation(7).interpretation[-1] == "count = 700"


def _assert_rule_refused(monkeypatch, rule, perturbed, message):
    rules = list(coincidence._RULES)
    rules[rules.index(rule)] = perturbed
    monkeypatch.setattr(coincidence, "_RULES", tuple(rules))
    coincidence._proven_rules.cache_clear()
    try:
        with pytest.raises(AssertionError, match=message):
            bitangent_derivation(4)
    finally:
        monkeypatch.undo()
        coincidence._proven_rules.cache_clear()
    assert bitangent_derivation(4).count == 28


def test_bitangent_rewrite_rules_are_proven(monkeypatch):
    _assert_rule_refused(
        monkeypatch,
        ("G", "g*g_e", "g_s"),
        ("G", "g*g_e", "2*g_s"),
        r"g\*g_e -> 2\*g_s does not hold in G",
    )


def test_chord_square_expands_by_a_proven_formula_9(monkeypatch):
    (formula_9,) = [f for f in spaces.FORMULAS if f.label == "9"]
    ((lhs, rhs),) = formula_9.equations
    _assert_rule_refused(
        monkeypatch,
        (formula_9.space, lhs, rhs),
        ("G", "g^2", "g_p + 2*g_e"),
        r"^rewrite rule g\^2 -> g_p \+ 2\*g_e does not hold in G$",
    )


def test_phi_certificate_rejects_a_perturbed_image(monkeypatch):
    t1, t2, eps = blowup_ring().gens()
    perturbed = {"c1": eps - t1 - t2, "c2": t1 * t2}
    monkeypatch.setattr(coincidence, "_phi_images", lambda: perturbed)
    coincidence._phi_certificate.cache_clear()
    try:
        with pytest.raises(AssertionError, match="total-space integral"):
            coincidence._phi_certificate()
    finally:
        monkeypatch.undo()
        coincidence._phi_certificate.cache_clear()
    assert coincidence._phi_certificate()
