"""Rational line geometry: incidence, the four-lines problem, pencil tangency.

The solver is cross-checked against independent classical facts: incidence
of two spanned lines matches the vanishing of a 4x4 determinant, the
tetrahedron and quadric-ruling configurations have known answers, and the
discriminant degree reproduces the tangency counts of plane sections.
"""

import ast
from fractions import Fraction
from itertools import permutations
from pathlib import Path
import random

import pytest

from schubert3 import oracle
from schubert3.oracle import (
    DegeneratePencil,
    PlueckerLine,
    ProjectivePoint,
    QNum,
    SolutionSet,
    SurfaceForm,
    incidence_form,
    lines_meeting_four,
    pencil_discriminant,
    pencil_tangency_count,
    plucker_from_points,
    random_four_lines,
    random_line,
    random_pencil_instance,
    random_projective_point,
    random_surface_form,
)


def det4(rows):
    total = Fraction(0)
    for perm in permutations(range(4)):
        sign = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(4):
            term *= rows[i][perm[i]]
        total += term
    return total


def poly_gcd(a, b):
    """Degree of gcd is all the squarefreeness checks need."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim([Fraction(x) for x in a]), trim([Fraction(x) for x in b])
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        lead = b[-1]
        while len(a) >= len(b) and a:
            f = a[-1] / lead
            for i in range(len(b)):
                a[len(a) - len(b) + i] -= f * b[i]
            a = trim(a)
        a, b = b, a
    return a


def point(*coords):
    return ProjectivePoint(coords)


def line(p, q):
    return plucker_from_points(ProjectivePoint(p), ProjectivePoint(q))


def ruling(s, t):
    """Line of one ruling family of the quadric surface xw = yz."""
    return line((s, 0, t, 0), (0, s, 0, t))


def test_projective_point_canonical():
    assert point(2, 4, -6, 0).coords == (1, 2, -3, 0)
    assert point(Fraction(1, 2), 0, Fraction(3, 4), 1).coords == (2, 0, 3, 4)
    assert point(-1, 2, 0, 0).coords == (1, -2, 0, 0)
    assert point(0, -3, 0, 6).coords == (0, 1, 0, -2)
    assert point(1, 0, 0, 0) == point(7, 0, 0, 0)
    assert hash(point(1, 1, 1, 1)) == hash(point(3, 3, 3, 3))
    with pytest.raises(ValueError):
        ProjectivePoint([0, 0, 0, 0])
    with pytest.raises(ValueError):
        ProjectivePoint([1, 2, 3])
    with pytest.raises(AttributeError):
        point(1, 0, 0, 0).coords = (0, 0, 0, 1)


def test_plucker_from_points():
    axis = line((1, 0, 0, 0), (0, 1, 0, 0))
    assert axis.coords == (1, 0, 0, 0, 0, 0)
    a, b = (1, 2, 3, 4), (4, 3, 2, 1)
    assert line(a, b) == line(b, a)
    with pytest.raises(ValueError):
        line((1, 2, 3, 4), (2, 4, 6, 8))
    with pytest.raises(ValueError):
        PlueckerLine([1, 0, 0, 1, 0, 0])
    with pytest.raises(ValueError):
        PlueckerLine([0, 0, 0, 0, 0, 0])


def test_incidence_form_matches_determinant():
    rng = random.Random(41)
    hits = {True: 0, False: 0}
    while min(hits.values()) < 20:
        p = random_projective_point(rng)
        q = random_projective_point(rng)
        r = random_projective_point(rng)
        if p == q or len({p, q, r}) < 3:
            continue
        if hits[True] <= hits[False]:
            weights = [rng.randint(-3, 3) for _ in range(3)]
            coords = [
                sum(w * v.coords[i] for w, v in zip(weights, (p, q, r)))
                for i in range(4)
            ]
            if not any(coords):
                continue
            s = ProjectivePoint(coords)
        else:
            s = random_projective_point(rng)
        if s in (p, q, r):
            continue
        try:
            l1, l2 = plucker_from_points(p, q), plucker_from_points(r, s)
        except ValueError:
            continue
        d = det4([p.coords, q.coords, r.coords, s.coords])
        value = incidence_form(l1, l2)
        assert (value == 0) == (d == 0)
        assert value == incidence_form(l2, l1)
        hits[d == 0] += 1


def test_qnum_arithmetic():
    x = QNum(1, 2, 5)
    y = QNum(3, -1, 5)
    assert x + y == QNum(4, 1, 5)
    assert x * y == QNum(3 - 10, 6 - 1, 5)
    assert x - x == 0
    assert x.conjugate() == QNum(1, -2, 5)
    assert (x * x.conjugate()) == 1 - 4 * 5
    assert QNum(Fraction(1, 2)) + Fraction(1, 2) == 1
    assert str(QNum(1, 2, 5)) == "1 + 2*sqrt(5)"
    assert str(QNum(0, -1, -11)) == "-sqrt(-11)"
    assert str(QNum(Fraction(1, 2), Fraction(-1, 3), 2)) == "1/2 - 1/3*sqrt(2)"
    with pytest.raises(ValueError):
        QNum(0, 1, 2) * QNum(0, 1, 3)


def test_four_lines_tetrahedron():
    p, q, r, s = point(1, 0, 0, 0), point(0, 1, 0, 0), point(0, 0, 1, 0), point(0, 0, 0, 1)
    edges = [plucker_from_points(*pair) for pair in ((p, q), (q, r), (r, s), (s, p))]
    result = lines_meeting_four(*edges)
    assert not result.infinite
    assert {ln for ln, _ in result.solutions} == {
        plucker_from_points(p, r),
        plucker_from_points(q, s),
    }
    assert [m for _, m in result.solutions] == [1, 1]

    p, q, r, s = point(1, 0, 0, 1), point(0, 1, 0, 0), point(1, 2, 3, 4), point(0, 0, 1, 0)
    edges = [plucker_from_points(*pair) for pair in ((p, q), (q, r), (r, s), (s, p))]
    result = lines_meeting_four(*edges)
    assert not result.infinite
    assert {ln for ln, _ in result.solutions} == {
        plucker_from_points(p, r),
        plucker_from_points(q, s),
    }
    assert result.total_multiplicity == 2


def test_four_lines_ruling_family_is_infinite():
    result = lines_meeting_four(ruling(1, 0), ruling(0, 1), ruling(1, 1), ruling(1, 2))
    assert result.infinite
    assert result.solutions == ()


def test_four_lines_through_common_point_is_infinite():
    apex = point(1, 1, 1, 1)
    others = [point(1, 0, 0, 0), point(0, 1, 0, 0), point(0, 0, 1, 0), point(0, 0, 0, 1)]
    pencil = [plucker_from_points(apex, o) for o in others]
    assert lines_meeting_four(*pencil).infinite


def test_four_lines_coplanar_is_infinite():
    a, b, c, d = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)
    sides = [line(a, b), line(b, c), line(c, a), line(a, d)]
    assert lines_meeting_four(*sides).infinite


def test_four_lines_tangent_gives_double_line():
    tangent = line((1, 1, 2, 2), (0, 1, -2, 0))
    result = lines_meeting_four(ruling(1, 0), ruling(0, 1), ruling(1, 1), tangent)
    assert not result.infinite
    expected = line((1, 1, 0, 0), (0, 0, 1, 1))
    assert result.solutions == ((expected, 2),)


def test_four_lines_duplicate_input_rejected():
    l1 = ruling(1, 0)
    with pytest.raises(ValueError):
        lines_meeting_four(l1, ruling(0, 1), ruling(1, 1), l1)


def test_four_lines_random_conservation():
    rng = random.Random(7)
    finite = 0
    conjugate_pairs = 0
    while finite < 60:
        lines = random_four_lines(rng)
        result = lines_meeting_four(*lines)
        if result.infinite:
            continue
        finite += 1
        assert result.total_multiplicity == 2
        for solution, _ in result.solutions:
            for given in lines:
                assert incidence_form(solution, given) == 0
            assert solution.quadric_value() == 0
        irrational = [ln for ln, _ in result.solutions if not ln.is_rational]
        if irrational:
            assert len(irrational) == 2
            assert irrational[1] == irrational[0].conjugate()
            conjugate_pairs += 1
    assert conjugate_pairs > 0


def test_solution_set_validation():
    with pytest.raises(ValueError):
        SolutionSet(infinite=True, solutions=((ruling(1, 0), 1),))
    with pytest.raises(ValueError):
        SolutionSet.finite([(ruling(1, 0), 0)])
    assert SolutionSet.infinite_family().total_multiplicity == 0


def test_surface_form_canonicalization():
    f = SurfaceForm({(2, 0, 0, 0): Fraction(1, 2), (0, 2, 0, 0): Fraction(3, 2)})
    assert f.terms == {(2, 0, 0, 0): 1, (0, 2, 0, 0): 3}
    assert f.degree == 2
    g = SurfaceForm({(1, 0, 0, 0): -2, (0, 1, 0, 0): 4})
    assert g.terms == {(0, 1, 0, 0): 2, (1, 0, 0, 0): -1}
    assert f.value([1, 1, 0, 0]) == 4
    with pytest.raises(ValueError):
        SurfaceForm({(1, 0, 0, 0): 0})
    with pytest.raises(ValueError):
        SurfaceForm({(1, 0, 0, 0): 1, (2, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        SurfaceForm({(0, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        SurfaceForm({(1, 0, -1, 1): 1})


def test_pencil_quadric_section():
    f = SurfaceForm({(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): -1})
    vertex = point(2, 0, 0, 1)
    assert pencil_tangency_count(f, [0, 0, 1, 0], vertex) == 2
    disc = pencil_discriminant(f, [0, 0, 1, 0], vertex)
    assert len(disc) - 1 == 2
    assert disc[2] != 0


def test_pencil_linear_section_has_no_tangents():
    f = SurfaceForm({(1, 0, 0, 0): 1, (0, 1, 0, 0): 2})
    assert pencil_tangency_count(f, [0, 0, 1, 0], point(1, 0, 0, 0)) == 0


def test_pencil_cubic_discriminant_squarefree():
    rng = random.Random(11)
    f, plane, vertex = random_pencil_instance(rng, 3)
    disc = list(pencil_discriminant(f, plane, vertex))
    assert disc == [
        216234004257936,
        -833196112770816,
        795229315926840,
        -315135285353264,
        51917072031400,
        -1173036342864,
        -392780864584,
    ]
    derivative = [i * c for i, c in enumerate(disc)][1:]
    assert len(poly_gcd(disc, derivative)) <= 1


def test_pencil_random_instances():
    rng = random.Random(3)
    for degree in (1, 2, 3):
        for _ in range(5):
            f, plane, vertex = random_pencil_instance(rng, degree)
            assert pencil_tangency_count(f, plane, vertex) == degree * (degree - 1)


def test_pencil_discriminant_top_coefficient_is_one_determinant():
    rng = random.Random(17)
    for degree in range(1, 7):
        for _ in range(3):
            f, plane, vertex = random_pencil_instance(rng, degree)
            disc = pencil_discriminant(f, plane, vertex)
            assert all(type(c) is int for c in disc)
            v, w1, w2 = oracle._plane_frame(plane, vertex)
            coeffs = oracle._pencil_coefficients(f, v, w1, w2)
            top = oracle._sylvester_det(
                [coeffs.get((degree - i, i), 0) for i in range(degree + 1)]
            )
            expected = degree * (degree - 1)
            assert (disc[expected] if len(disc) > expected else 0) == top
            assert len(disc) - 1 <= expected
            # D is sampled only at lam = 0..n(n-1); values outside that
            # range check the degree bound the interpolation relies on
            for lam in (-2, -1, *range(expected + 1, degree * (2 * degree - 1) + 1)):
                value = sum(c * lam**i for i, c in enumerate(disc))
                assert value == oracle._sylvester_det_at(coeffs, degree, lam)


def test_pencil_tangent_on_the_first_line():
    # D(0) = 0 here: a tangent lies on the lam = 0 line, so the count
    # must go on to further values of D instead of refusing the pencil
    for degree, seed in ((2, 3080), (3, 2828)):
        f, plane, vertex = random_pencil_instance(random.Random(seed), degree)
        disc = pencil_discriminant(f, plane, vertex)
        assert disc[0] == 0 and len(disc) - 1 == degree * (degree - 1)
        assert pencil_tangency_count(f, plane, vertex) == degree * (degree - 1)


def test_pencil_degree_twelve():
    f, plane, vertex = random_pencil_instance(random.Random(12), 12)
    assert pencil_tangency_count(f, plane, vertex) == 132


def test_generators_reject_nonpositive_degree():
    with pytest.raises(ValueError, match="degree at least 1"):
        random_surface_form(random.Random(0), -1)
    with pytest.raises(ValueError, match="degree at least 1"):
        random_pencil_instance(random.Random(0), 0)


def test_oracle_imports_no_symbolic_ring():
    tree = ast.parse(Path(oracle.__file__).read_text())
    relative = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    }
    assert relative == {"linalg"}


def test_pencil_preconditions():
    f = SurfaceForm({(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): -1})
    with pytest.raises(ValueError, match="lie on the plane"):
        pencil_tangency_count(f, [0, 0, 1, 0], point(0, 0, 1, 0))
    with pytest.raises(ValueError, match="section curve"):
        pencil_tangency_count(f, [0, 0, 1, 0], point(1, 0, 0, 1))
    split = SurfaceForm({(0, 0, 1, 1): 1})
    with pytest.raises(ValueError, match="identically zero"):
        pencil_tangency_count(split, [0, 0, 1, 0], point(1, 0, 0, 0))
    with pytest.raises(ValueError, match="not all zero"):
        pencil_tangency_count(f, [0, 0, 0, 0], point(1, 0, 0, 0))


def test_pencil_degenerate_double_plane():
    f = SurfaceForm({(2, 0, 0, 0): 1})
    with pytest.raises(DegeneratePencil):
        pencil_tangency_count(f, [0, 0, 1, 0], point(1, 0, 0, 0))


def test_generators_are_deterministic():
    a = random_four_lines(random.Random(5))
    b = random_four_lines(random.Random(5))
    assert a == b
    fa, pa, va = random_pencil_instance(random.Random(5), 2)
    fb, pb, vb = random_pencil_instance(random.Random(5), 2)
    assert (fa, pa, va) == (fb, pb, vb)
    assert random_line(random.Random(9)) == random_line(random.Random(9))
    assert random_surface_form(random.Random(9), 3) == random_surface_form(
        random.Random(9), 3
    )
