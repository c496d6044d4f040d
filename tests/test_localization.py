"""Ring integrals against torus localization, which knows no relation.

Every top-degree monomial of P3, P3dual, G, PS and the blown-up double
space must integrate in its presentation as it does by the Bott residue
formula (`localization.py`), and the tangent count must equal the
fixed-point sum of its integrand written straight in the generators, with
no ring at all.
Two weight vectors guard against a weight that happens to hide a mismatch.
"""

import pytest

from localization import (
    blowup_space,
    flag_space,
    integrate,
    line_space,
    monomial,
    plane_space,
    point_space,
)
from schubert3 import coincidence, spaces

WEIGHTS = [(3, 17, -5, 101), (2, -7, 11, 29)]

RINGS = {
    "P3": (lambda: spaces.space("P3").ring, point_space),
    "P3dual": (lambda: spaces.space("P3dual").ring, plane_space),
    "G": (lambda: spaces.space("G").ring, line_space),
    "PS": (lambda: spaces.space("PS").ring, flag_space),
    "blowup": (coincidence.blowup_ring, blowup_space),
}


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("name", sorted(RINGS))
def test_top_monomials_integrate_as_by_localization(name, weights):
    make_ring, make_points = RINGS[name]
    ring, points = make_ring(), make_points(weights)
    names = [g.name for g in ring.generators]
    monomials = ring.monomials_of_degree(ring.top_degree)
    for m in monomials:
        expected = integrate(monomial(names, m), points)
        assert ring.evaluate_top(ring.monomial(m)) == expected, (name, m)
    assert len(monomials) == {"P3": 1, "P3dual": 1, "G": 3, "PS": 12, "blowup": 28}[name]


@pytest.mark.parametrize("weights", WEIGHTS)
def test_tangent_count_by_localization(weights):
    points = blowup_space(weights)
    for n in range(1, 13):

        def integrand(v):
            eps, t1, t2 = v["eps"], v["t1"], v["t2"]
            c1, c2 = eps - t1 - t2, t1 * t2 - eps * t2
            return (n * n * t1 * t2 - n * t2 * eps) * (-c1 * c2) * eps

        assert coincidence.tangent_count(n) == integrate(integrand, points) == n * (n - 1)
