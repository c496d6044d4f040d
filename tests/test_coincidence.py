"""Blow-up calculus: canonical forms, integrals, tangent and bitangent counts.

The blow-up is Keel's presentation.  The heavy oracle here is rational
linear algebra on a second generating set of its ideal, built from the
pulled-back relations of the line space rather than from Keel's cubic:
coranks of that quotient are frozen degree by degree, and the degree-6
integral is compared against the unique functional that kills the ideal
slice.
"""

from fractions import Fraction
import random
import re

import pytest

import reference
from schubert3 import coincidence, spaces
from schubert3.coincidence import (
    bitangent_derivation,
    blowup_ring,
    phi_pullback,
    surface_excess_class,
    tangent_count,
    tangent_derivation,
)
from schubert3.graded_ring import PolyRing, series_inverse, substitute

FREE = PolyRing([("eps", 1), ("t1", 1), ("t2", 1)])


def free_relation_ideal():
    """Generators of the full relation ideal in the free ring, as literals.

    eps*(t1 - t2), the images rel3 = 2*c1*c2 - c1^3 and rel4 = c1^4 -
    3*c1^2*c2 + c2^2 of the line-space relations under c1 = eps - t1 - t2,
    c2 = t1*t2 - eps*t2, then t1^4 and t2^4; keys are (eps, t1, t2) exponents.
    """
    rel3 = {
        (3, 0, 0): -1, (2, 1, 0): 3, (2, 0, 1): 1, (1, 2, 0): -3, (1, 1, 1): -2,
        (1, 0, 2): -1, (0, 3, 0): 1, (0, 2, 1): 1, (0, 1, 2): 1, (0, 0, 3): 1,
    }
    rel4 = {
        (4, 0, 0): 1, (3, 1, 0): -4, (3, 0, 1): -1, (2, 2, 0): 6, (2, 1, 1): 3,
        (2, 0, 2): 1, (1, 3, 0): -4, (1, 2, 1): -3, (1, 1, 2): -2, (1, 0, 3): -1,
        (0, 4, 0): 1, (0, 3, 1): 1, (0, 2, 2): 1, (0, 1, 3): 1, (0, 0, 4): 1,
    }
    return [{(1, 1, 0): 1, (1, 0, 1): -1}, rel3, rel4, {(0, 4, 0): 1}, {(0, 0, 4): 1}]


def test_canonical_form_rules():
    ring = blowup_ring()
    eps, t1, t2 = ring.gens()
    assert eps * t1 == eps * t2
    assert (t1 ** 4).is_zero()
    assert (t2 ** 4).is_zero()
    assert (eps * t1 ** 3 * t2).is_zero()
    assert (eps - t1 - t2) ** 2 == ring.element(
        {(2, 0, 0): 1, (1, 0, 1): -4, (0, 2, 0): 1, (0, 1, 1): 2, (0, 0, 2): 1}
    )
    # the ring is honest: everything above the top degree 6 vanishes
    assert not (eps ** 6).is_zero()
    assert (eps ** 7).is_zero()


def test_exceptional_split_shape():
    # a normal form splits as an eps-free part in t1, t2 plus eps times a
    # class in eps and t2 alone, of eps-degree at most 1
    ring = blowup_ring()
    rng = random.Random(41)
    monos6 = [m for d in range(0, 7) for m in ring.monomials_of_degree(d)]
    for _ in range(30):
        c = ring.element({m: rng.randint(-6, 6) for m in rng.sample(monos6, 8)})
        free = ring.element({m: x for m, x in c.terms.items() if m[0] == 0})
        h = ring.element({(k - 1, a, b): x for (k, a, b), x in c.terms.items() if k})
        assert free + ring.gen("eps") * h == c
        assert all(a <= 3 and b <= 3 for (_, a, b) in free.terms)
        assert all(k <= 1 and a == 0 and b <= 3 for (k, a, b) in h.terms)
    with pytest.raises(ValueError):
        ring.evaluate_top(FREE.gen("t1"))


def test_pullback_images_frozen():
    G = spaces.space("G")
    assert str(phi_pullback(G.symbol_class("g"))) == "-eps + t1 + t2"
    assert str(phi_pullback(G.symbol_class("g_e"))) == "-eps*t2 + t1*t2"
    c1 = G.ring.gen("c1")
    c2 = G.ring.gen("c2")
    ic1 = phi_pullback(c1)
    ic2 = phi_pullback(c2)
    rel3 = 2 * ic1 * ic2 - ic1 ** 3
    rel4 = ic1 ** 4 - 3 * ic1 ** 2 * ic2 + ic2 ** 2
    # both relation images reduce to zero: phi is a ring map
    assert rel3.is_zero()
    assert rel4.is_zero()
    # with eps*t1 folded into eps*t2 and fourth powers dropped, the degree-3
    # image is Keel's cubic relation and the degree-4 image lies in the ideal
    keel = blowup_ring().relations
    (cubic,) = [r for r in keel if r.degree() == 3]
    assert cubic.terms == {
        (3, 0, 0): -1,
        (2, 0, 1): 4,
        (1, 0, 2): -6,
        (0, 0, 3): 1,
        (0, 1, 2): 1,
        (0, 2, 1): 1,
        (0, 3, 0): 1,
    }
    folded4 = {
        (4, 0, 0): 1,
        (3, 0, 1): -5,
        (2, 0, 2): 10,
        (1, 0, 3): -10,
        (0, 1, 3): 1,
        (0, 2, 2): 1,
        (0, 3, 1): 1,
    }
    assert reference.in_ideal((1, 1, 1), folded4, [r.terms for r in keel])
    with pytest.raises(ValueError):
        phi_pullback(spaces.space("P3").ring.gen("t"))


def test_relation_images_invisible_to_integrals():
    G = spaces.space("G")
    ring = blowup_ring()
    eps = ring.gen("eps")
    # the images as unreduced free polynomials, read into the ring only
    # after each product with a complementary monomial
    free_eps, t1, t2 = FREE.gens()
    images = {"c1": free_eps - t1 - t2, "c2": t1 * t2 - free_eps * t2}
    for rel in G.ring.relations:
        image = substitute(rel, FREE, images)
        d = image.degree()
        for m in ring.monomials_of_degree(6 - d):
            assert ring.evaluate_top(ring.element((image * FREE.monomial(m)).terms)) == 0
        for m in ring.monomials_of_degree(5 - d):
            product = ring.element((image * FREE.monomial(m)).terms)
            assert ring.evaluate_top(product * eps) == 0


def test_free_relation_expansion_frozen():
    # the one place PolyRing's products meet the literal generators
    eps, t1, t2 = FREE.gens()
    c1 = eps - t1 - t2
    c2 = t1 * t2 - eps * t2
    rel3 = 2 * c1 * c2 - c1 ** 3
    rel4 = c1 ** 4 - 3 * c1 ** 2 * c2 + c2 ** 2
    expanded = [eps * t1 - eps * t2, rel3, rel4, t1 ** 4, t2 ** 4]
    assert [g.terms for g in expanded] == free_relation_ideal()


def test_quotient_coranks():
    """The full ideal cuts the free ring down to ranks 1,3,5,6,5,3,1."""
    relations = free_relation_ideal()
    coranks = []
    for d in range(7):
        monos, rows = reference.ideal_slice((1, 1, 1), relations, d)
        coranks.append(len(monos) - reference.rank(rows))
    assert coranks == [1, 3, 5, 6, 5, 3, 1]


def test_total_integral_matches_quotient_functional():
    """evaluate_top is the unique rational functional killing the ideal.

    The degree-6 slice of the honest quotient is one-dimensional, so the
    functional vanishing on the ideal and normalized at t1^3*t2^3 is
    determined; the integral of Keel's presentation must agree with it on
    every class, canonical or not.
    """
    relations = free_relation_ideal()
    monos, rows = reference.ideal_slice((1, 1, 1), relations, 6)
    echelon, pivots = reference.rref(rows, len(monos))
    free_cols = [j for j in range(len(monos)) if j not in pivots]
    assert len(free_cols) == 1
    j0 = free_cols[0]

    def functional(vec):
        return reference.reduce_vector(vec, echelon, pivots)[j0]

    unit = {m: i for i, m in enumerate(monos)}
    top = [0] * len(monos)
    top[unit[(0, 3, 3)]] = 1
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
        assert Fraction(ring.evaluate_top(ring.element(terms))) == expected


def test_push_table():
    # over the exceptional divisor eps^k*t^(5-k) integrates to (-1)^k s_(k-2)
    # of T_P3: the integral over the blow-up of eps^(k+1)*t2^(5-k)
    ring = blowup_ring()
    eps, _, t2 = ring.gens()
    pushed = [ring.evaluate_top(eps ** (k + 1) * t2 ** (5 - k)) for k in range(6)]
    assert pushed == [0, 0, 1, 4, 10, 20]
    assert (eps ** 7).is_zero()
    with pytest.raises(ValueError):
        eps ** -1
    # the table is the series inverse of the tangent class
    t = spaces.space("P3").ring.gen("t")
    tangent = 1 + 4 * t + 6 * t * t + 4 * t ** 3
    assert tangent * series_inverse(tangent, 3) == 1


def test_exceptional_integral_examples():
    ring = blowup_ring()
    t2 = ring.gen("t2")
    eps = ring.gen("eps")

    def exceptional(c):
        return ring.evaluate_top(c * eps)

    assert exceptional(eps ** 2 * t2 ** 3) == 1
    assert exceptional(eps ** 3 * t2 ** 2) == 4
    # eps-free terms and single eps factors integrate to zero
    assert exceptional(ring.gen("t1") * t2 + eps * t2 ** 2) == 0
    assert exceptional(ring.gen("t1") ** 3 * t2 ** 2) == 0
    for n in range(1, 6):
        full = -n * eps ** 3 * t2 ** 2 + (n * n + 3 * n) * eps ** 2 * t2 ** 3
        assert exceptional(full) == n * n - n
    with pytest.raises(ValueError):
        exceptional(FREE.gen("eps"))


def test_total_integral_examples():
    ring = blowup_ring()
    eps, t1, t2 = ring.gens()
    assert ring.evaluate_top(t1 ** 3 * t2 ** 3) == 1
    assert ring.evaluate_top(eps ** 6) == 20
    assert ring.evaluate_top(eps ** 3 * t2 ** 3) == 1
    assert ring.evaluate_top(t1 ** 3 * t2 ** 3 - 2 * eps ** 6) == -39
    with pytest.raises(ValueError):
        ring.evaluate_top(FREE.gen("t1"))


def test_coincidence_class():
    ring = blowup_ring()
    eps, t1, t2 = ring.gens()
    g = spaces.space("G").symbol_class("g")
    assert eps + phi_pullback(g) == t1 + t2
    assert eps * t1 == eps * t2
    # bidegree reading: a (p, q) correspondence meets the diagonal p+q times
    for p, q in [(1, 1), (2, 3), (5, 0)]:
        restricted = sum(c for (k, a, b), c in (p * t1 + q * t2).terms.items() if k == 0)
        assert restricted == p + q


def test_surface_excess_class():
    ring = blowup_ring()
    assert surface_excess_class(1).terms == {(0, 1, 1): 1, (1, 0, 1): -1}
    assert surface_excess_class(2).terms == {(0, 1, 1): 4, (1, 0, 1): -2}
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
    assert integrand.terms == {(2, 0, 3): 2, (0, 3, 2): 2, (0, 2, 3): 2}


def test_bitangent_counts():
    expected = [0, 0, 28, 120, 324, 700, 1320]
    for n, want in zip(range(2, 9), expected):
        derivation = bitangent_derivation(n)
        assert derivation.count == want
        assert derivation.count == n * (n - 2) * (n - 3) * (n + 3) // 2
        assert derivation.n == n
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"^n = {n} is outside the domain n >= 2$"):
            bitangent_derivation(n)


@pytest.mark.parametrize(
    "count, least",
    [(surface_excess_class, 1), (tangent_derivation, 1), (tangent_count, 1), (bitangent_derivation, 2)],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_counts_refuse_n_outside_their_domain(count, least):
    for n in range(-1, least):
        with pytest.raises(ValueError, match=f"^n = {n} is outside the domain n >= {least}$"):
            count(n)
    count(least)


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


def test_bitangent_chain_runs_once_per_process(monkeypatch):
    # the rewrite chain is n-free: a hundred counts cost one derivation
    calls = []
    rewrite = coincidence._rewrite

    def counted(e, rules):
        calls.append(len(rules))
        return rewrite(e, rules)

    monkeypatch.setattr(coincidence, "_rewrite", counted)
    coincidence._doubled_count.cache_clear()
    try:
        bitangent_derivation(4)
        per_derivation = len(calls)
        assert per_derivation == 5
        for n in range(2, 101):
            assert bitangent_derivation(n).count == n * (n - 2) * (n - 3) * (n + 3) // 2
        assert len(calls) == per_derivation
    finally:
        monkeypatch.undo()
        coincidence._doubled_count.cache_clear()


def _assert_rule_refused(monkeypatch, rule, perturbed, message):
    rules = list(coincidence._RULES)
    rules[rules.index(rule)] = perturbed
    monkeypatch.setattr(coincidence, "_RULES", tuple(rules))
    coincidence._doubled_count.cache_clear()
    try:
        with pytest.raises(AssertionError, match=message):
            bitangent_derivation(4)
    finally:
        monkeypatch.undo()
        coincidence._doubled_count.cache_clear()
    assert bitangent_derivation(4).count == 28


def test_bitangent_rewrite_rules_are_proven(monkeypatch):
    _assert_rule_refused(
        monkeypatch,
        ("G", "g*g_e", "g_s"),
        ("G", "g*g_e", "2*g_s"),
        r"g\*g_e -> 2\*g_s does not hold in G",
    )


def test_rule_kinds_are_the_four_tables():
    # a mistyped kind would leave its row neither proven nor applied
    assert {kind for kind, _, _ in coincidence._RULES} == {"sym", "G", "PS", "count"}


def test_bitangent_symmetrization_is_checked(monkeypatch):
    _assert_rule_refused(
        monkeypatch,
        ("sym", "p4", "p3"),
        ("sym", "p4", "p1"),
        "symmetrized product drifted",
    )


def test_bitangent_interpretation_is_checked(monkeypatch):
    _assert_rule_refused(
        monkeypatch,
        ("count", "G", "n*(n-1)*(n-2)*(n-3)"),
        ("count", "G", "n*(n-1)*(n-2)"),
        "collected count polynomial drifted",
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
    eps, t1, t2 = blowup_ring().gens()

    def perturbed(e, target, images):
        return substitute(e, target, {**images, "c2": t1 * t2})

    monkeypatch.setattr(coincidence, "substitute", perturbed)
    coincidence._phi_images.cache_clear()
    (rel3, _) = spaces.space("G").ring.relations
    try:
        with pytest.raises(AssertionError, match=f"the G relation {re.escape(str(rel3))} pulls"):
            coincidence._phi_images()
    finally:
        monkeypatch.undo()
        coincidence._phi_images.cache_clear()
    assert coincidence._phi_images()["c2"] == t1 * t2 - eps * t2
