"""Integrals by torus localization: the Bott residue formula, with no relations.

A torus acting on C^4 with integer weights w0..w3 on the coordinates
acts on P3, on its dual P3dual, on the line space G, on the point-line
flags PS and on the blown-up double space with finitely many fixed
points.  A class that is a polynomial in the generators integrates to
the sum, over the fixed points, of that polynomial evaluated at the
generators' equivariant values there, divided by the product of the
tangent weights there (the equivariant Euler class of the tangent
space).

Each space below is a list of fixed points, each a pair (values, tangent
weights); `integrate` sums exact Fractions over it.  Nothing here knows a
relation of any presentation, so a wrong relation changes `evaluate_top`
and not this sum.  The weights must be pairwise distinct, so that no
tangent weight vanishes; the sum is then an integer that does not depend on
them.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import prod


def point_space(w):
    """P3: the coordinate points p_i, where t = -w_i."""
    return [
        ({"t": -w[i]}, [w[m] - w[i] for m in range(4) if m != i])
        for i in range(4)
    ]


def plane_space(w):
    """P3dual: the coordinate planes, where e = w_i."""
    return [
        ({"e": w[i]}, [w[i] - w[m] for m in range(4) if m != i])
        for i in range(4)
    ]


def line_space(w):
    """G: the coordinate lines span(e_i, e_j), with c1 and c2 of the subbundle."""
    return [
        (
            {"c1": w[i] + w[j], "c2": w[i] * w[j]},
            [w[k] - w[l] for k in range(4) if k not in (i, j) for l in (i, j)],
        )
        for i, j in combinations(range(4), 2)
    ]


def flag_space(w):
    """PS: the flags e_i in span(e_i, e_j), i != j.

    c1 and c2 are as on G, and t = +w_i, the opposite sign to P3's, since
    the point class of PS is p = -t.  The tangent space is G's plus the
    direction of the point along its line, of weight w_j - w_i.
    """
    return [
        (
            {"t": w[i], "c1": w[i] + w[j], "c2": w[i] * w[j]},
            [w[k] - w[l] for k in range(4) if k not in (i, j) for l in (i, j)] + [w[j] - w[i]],
        )
        for i, j in permutations(range(4), 2)
    ]


def blowup_space(w):
    """P3 x P3 blown up along the diagonal: 12 pairs off it, 12 points over it.

    Off the diagonal the fixed points are the pairs (p_i, p_j), i != j,
    where eps = 0.  Over p_i on the diagonal they are the normal directions
    e_k, k != i, where eps = w_k - w_i.
    """
    points = []
    for i, j in permutations(range(4), 2):
        values = {"eps": 0, "t1": -w[i], "t2": -w[j]}
        tangent = [w[m] - w[i] for m in range(4) if m != i]
        tangent += [w[m] - w[j] for m in range(4) if m != j]
        points.append((values, tangent))
    for i, k in permutations(range(4), 2):
        values = {"eps": w[k] - w[i], "t1": -w[i], "t2": -w[i]}
        tangent = [w[m] - w[i] for m in range(4) if m != i]
        tangent += [w[m] - w[k] for m in range(4) if m not in (i, k)]
        tangent.append(w[k] - w[i])
        points.append((values, tangent))
    return points


def integrate(polynomial, fixed_points) -> Fraction:
    """Sum of polynomial(values) / e(T) over the fixed points.

    `polynomial` takes the dict of generator values at a point and returns
    an integer.
    """
    return sum(
        (Fraction(polynomial(values), prod(tangent)) for values, tangent in fixed_points),
        Fraction(0),
    )


def monomial(names, exponents):
    """The monomial with these exponents, as a polynomial for `integrate`."""
    return lambda values: prod(values[x] ** e for x, e in zip(names, exponents))
