"""Inverting total Chern classes into Segre classes with `series_inverse`.

A total class is a plain ring element 1 + a_1 + a_2 + ...; its inverse is
checked against series oracles computed in the free ring.
"""

import math
import random

import pytest

import reference
from schubert3.graded_ring import GradedRingPresentation, PolyRing, series_inverse


def truncate(e, bound):
    """The components of e in degrees 0..bound."""
    out = e.ring.zero()
    for d in range(bound + 1):
        out = out + e.homogeneous_component(d)
    return out


def series_inverse_oracle(u, bound):
    """Truncated geometric series sum((-p)^k) with p = u - 1 the positive part.

    Independent of the degree-by-degree recurrence in series_inverse.
    """
    acc = u.ring.zero()
    term = u.ring.one()
    for _ in range(bound + 1):
        acc = acc + term
        term = term * (1 - u)
    return truncate(acc, bound)


def random_total(rng, ring, bound):
    total = ring.one()
    for d in range(1, bound + 1):
        terms = {}
        for m in ring.monomials_of_degree(d):
            if rng.random() < 0.6:
                terms[m] = rng.randrange(-6, 7)
        total = total + ring.element(terms)
    return total


@pytest.fixture(scope="module")
def free2():
    return PolyRing([("x1", 1), ("x2", 2)])


def test_inversion_matches_geometric_series(free2):
    rng = random.Random("series")
    for _ in range(100):
        u = random_total(rng, free2, 4)
        assert series_inverse(u, 4) == series_inverse_oracle(u, 4)


def test_inversion_is_an_involution(free2):
    rng = random.Random("involution")
    for _ in range(100):
        u = random_total(rng, free2, 5)
        assert series_inverse(series_inverse(u, 5), 5) == u


def test_product_with_inverse_is_one(free2):
    rng = random.Random("unit")
    for _ in range(40):
        u = random_total(rng, free2, 4)
        assert truncate(u * series_inverse(u, 4), 4) == 1


def test_inverse_of_product_is_product_of_inverses(free2):
    rng = random.Random("hom")
    for _ in range(40):
        a = random_total(rng, free2, 4)
        b = random_total(rng, free2, 4)
        expected = truncate(series_inverse(a, 4) * series_inverse(b, 4), 4)
        assert series_inverse(a * b, 4) == expected


def test_binomial_inverse_frozen():
    ring = PolyRing([("t", 1)])
    t = ring.gen("t")
    s = series_inverse(1 + 4 * t + 6 * t**2 + 4 * t**3, 3)
    assert s == 1 - 4 * t + 10 * t**2 - 20 * t**3
    # coefficients of (1+t)^(-4)
    for k in range(1, 4):
        assert s.homogeneous_component(k) == (-1) ** k * math.comb(k + 3, 3) * t**k


def test_tautological_inverse_frozen(free2):
    x1, x2 = free2.gens()
    s = series_inverse(1 + x1 + x2, 4)
    assert s.homogeneous_component(1) == -x1
    assert s.homogeneous_component(2) == x1**2 - x2
    assert s.homogeneous_component(3) == 2 * x1 * x2 - x1**3
    assert s.homogeneous_component(4) == x1**4 - 3 * x1**2 * x2 + x2**2


def test_sign_variant_is_not_the_inverse_component(free2):
    x1, x2 = free2.gens()
    s4 = series_inverse(1 + x1 + x2, 4).homogeneous_component(4)
    variant = x1**4 + 3 * x1**2 * x2 - x2**2
    assert variant != s4
    assert variant - s4 == 6 * x1**2 * x2 - 2 * x2**2


def test_higher_inverse_components_lie_in_low_ideal(free2):
    x1, x2 = free2.gens()
    s = series_inverse(1 + x1 + x2, 6)
    s3, s4, s5, s6 = (s.homogeneous_component(d) for d in range(3, 7))
    assert s5 == -x1 * s4 - x2 * s3
    low = [s3.terms, s4.terms]
    assert reference.in_ideal(free2.degrees, s5.terms, low)
    assert reference.in_ideal(free2.degrees, s6.terms, low)
    assert not reference.in_ideal(free2.degrees, (x1**3).terms, low)


def test_product_components_frozen():
    ring = PolyRing([("t1", 1), ("t2", 1), ("eps", 1)])
    t1, t2, eps = ring.gens()
    prod = (1 + eps - t1) * (1 - t2)
    assert prod.homogeneous_component(1) == eps - t1 - t2
    assert prod.homogeneous_component(2) == t1 * t2 - eps * t2


def test_product_in_quotient_ring_truncates():
    free = PolyRing([("c1", 1), ("c2", 2)])
    f1, f2 = free.gens()
    G = GradedRingPresentation(
        [2 * f1 * f2 - f1**3, f1**4 - 3 * f1**2 * f2 + f2**2], f2**2
    )
    c1, c2 = G.gens()
    u = 1 + c1 + c2 + c2**2
    # G vanishes above degree 4, so the truncated inverse is exact
    assert u * series_inverse(u, 4) == 1


def test_validation_errors(free2):
    x1, x2 = free2.gens()
    for u in (free2.zero(), 2 + x1, -1 + x1 + x2, x1 + x2):
        with pytest.raises(ValueError, match="degree-0 part"):
            series_inverse(u, 2)
    with pytest.raises(ValueError, match="bound"):
        series_inverse(1 + x1, -1)
    assert series_inverse(1 + x1, 0) == 1


def test_bound_must_be_a_non_negative_int(free2):
    x1 = free2.gen("x1")
    for bound in (True, False, 2.0, -1):
        with pytest.raises(ValueError, match=f"bound must be a non-negative integer, not {bound!r}"):
            series_inverse(1 + x1, bound)
