"""Total class arithmetic against series oracles computed in the free ring."""

import math
import random

import pytest

from schubert3.chern_segre import TotalClass
from schubert3.graded_ring import PolyRing, in_ideal_span


def series_inverse_oracle(ring, comps, bound):
    """Truncated geometric series sum((-u)^k) with u the positive part.

    Independent of the degree-by-degree recurrence in TotalClass.invert.
    """
    u = ring.zero()
    for e in comps:
        u = u + e
    acc = ring.zero()
    term = ring.one()
    for _ in range(bound + 1):
        acc = acc + term
        term = term * -u
    return [acc.homogeneous_component(d) for d in range(1, bound + 1)]


def random_total(rng, ring, bound):
    comps = {}
    for d in range(1, bound + 1):
        terms = {}
        for m in ring.monomials_of_degree(d):
            if rng.random() < 0.6:
                terms[m] = rng.randrange(-6, 7)
        comps[d] = ring.element(terms)
    return TotalClass(ring, comps, bound)


@pytest.fixture(scope="module")
def free2():
    return PolyRing([("x1", 1), ("x2", 2)])


def test_inversion_matches_geometric_series(free2):
    rng = random.Random("series")
    for _ in range(100):
        c = random_total(rng, free2, 4)
        expected = series_inverse_oracle(free2, c.components(), 4)
        assert list(c.invert().components()) == expected


def test_inversion_is_an_involution(free2):
    rng = random.Random("involution")
    for _ in range(100):
        c = random_total(rng, free2, 5)
        assert c.invert().invert() == c


def test_product_with_inverse_is_one(free2):
    rng = random.Random("unit")
    for _ in range(40):
        c = random_total(rng, free2, 4)
        assert c * c.invert() == TotalClass.one(free2, 4)


def test_inverse_of_product_is_product_of_inverses(free2):
    rng = random.Random("hom")
    for _ in range(40):
        a = random_total(rng, free2, 4)
        b = random_total(rng, free2, 4)
        assert (a * b).invert() == a.invert() * b.invert()


def test_binomial_inverse_frozen():
    ring = PolyRing([("t", 1)])
    t = ring.gen("t")
    c = TotalClass(ring, [4 * t, 6 * t**2, 4 * t**3], 3)
    s = c.invert()
    assert list(s.components()) == [-4 * t, 10 * t**2, -20 * t**3]
    # coefficients of (1+t)^(-4)
    for k in range(1, 4):
        assert s.component(k) == (-1) ** k * math.comb(k + 3, 3) * t**k


def test_tautological_inverse_frozen(free2):
    x1, x2 = free2.gens()
    s = TotalClass(free2, [x1, x2], 4).invert()
    assert s.component(1) == -x1
    assert s.component(2) == x1**2 - x2
    assert s.component(3) == 2 * x1 * x2 - x1**3
    assert s.component(4) == x1**4 - 3 * x1**2 * x2 + x2**2


def test_sign_variant_is_not_the_inverse_component(free2):
    x1, x2 = free2.gens()
    s4 = TotalClass(free2, [x1, x2], 4).invert().component(4)
    variant = x1**4 + 3 * x1**2 * x2 - x2**2
    assert variant != s4
    assert variant - s4 == 6 * x1**2 * x2 - 2 * x2**2


def test_higher_inverse_components_lie_in_low_ideal(free2):
    x1, x2 = free2.gens()
    s = TotalClass(free2, [x1, x2], 6).invert()
    s3, s4, s5, s6 = (s.component(d) for d in range(3, 7))
    assert s5 == -x1 * s4 - x2 * s3
    assert in_ideal_span(s5, [s3, s4])
    assert in_ideal_span(s6, [s3, s4])
    assert not in_ideal_span(x1**3, [s3, s4])


def test_product_components_frozen():
    ring = PolyRing([("t1", 1), ("t2", 1), ("eps", 1)])
    t1, t2, eps = ring.gens()
    a = TotalClass(ring, [eps - t1], 2)
    b = TotalClass(ring, [-t2], 2)
    prod = a * b
    assert prod.component(1) == eps - t1 - t2
    assert prod.component(2) == t1 * t2 - eps * t2


def test_product_in_quotient_ring_truncates():
    from schubert3.graded_ring import GradedRingPresentation

    free = PolyRing([("c1", 1), ("c2", 2)])
    f1, f2 = free.gens()
    G = GradedRingPresentation(
        free.generators,
        [2 * f1 * f2 - f1**3, f1**4 - 3 * f1**2 * f2 + f2**2],
        4,
        (0, 2),
    )
    c1, c2 = G.gens()
    c = TotalClass(G, [c1, c2, G.zero(), c2**2], 4)
    assert (c * c.invert()) == TotalClass.one(G, 4)


def test_validation_errors(free2):
    x1, x2 = free2.gens()
    with pytest.raises(ValueError, match="homogeneous"):
        TotalClass(free2, [x1 + x2], 2)
    with pytest.raises(ValueError, match="outside"):
        TotalClass(free2, {3: x1**3}, 2)
    with pytest.raises(ValueError, match="different ring"):
        other = PolyRing([("x1", 1), ("x2", 2)])
        TotalClass(free2, [other.gen("x1")], 2)
    c = TotalClass(free2, [x1, x2], 2)
    with pytest.raises(ValueError):
        c.component(3)
    with pytest.raises(ValueError, match="bounds"):
        c * TotalClass(free2, [x1], 1)
    assert c.component(0) == free2.one()
    assert c != TotalClass(free2, [x1], 2)
    assert c.as_element() == 1 + x1 + x2
