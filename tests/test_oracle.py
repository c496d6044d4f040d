"""Rational line geometry: incidence, the four-lines problem, pencil tangency.

The solver is cross-checked against independent classical facts: incidence
of two spanned lines matches the vanishing of a 4x4 determinant, the
tetrahedron and quadric-ruling configurations have known answers, and the
discriminant degree reproduces the tangency counts of plane sections.
"""

import ast
import copy
from fractions import Fraction
import hashlib
from itertools import combinations
from math import comb, isqrt
from pathlib import Path
import pickle
import random
import re

import pytest

from reference import (
    bareiss_det,
    canonical_int_vector,
    rank,
    read_surd,
    read_surd_line,
    rref,
    surd_mul,
    surd_pairing,
    surd_quadric,
    surd_sub,
)
from schubert3 import checks, graded_ring, oracle
from schubert3.oracle import (
    DegeneratePencil,
    PlueckerLine,
    ProjectivePoint,
    SolutionSet,
    SurfaceForm,
    incidence_form,
    lines_meeting_four,
    pencil_tangency_count,
    plucker_from_points,
    random_four_lines,
    random_line,
    random_pencil_instance,
    random_projective_point,
    random_surface_form,
    resultant,
)


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


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: ProjectivePoint([1, 2, 3]),
            "a projective point has 4 homogeneous coordinates, not 3: [1, 2, 3]",
        ),
        (
            lambda: ProjectivePoint(["1/2", 0, 0, 1, Fraction(-2, 3)]),
            "a projective point has 4 homogeneous coordinates, not 5: [1/2, 0, 0, 1, -2/3]",
        ),
        (lambda: PlueckerLine([1, 2, 3]), "a line has 6 Pluecker coordinates, not 3: [1, 2, 3]"),
        (
            lambda: PlueckerLine(
                [*PlueckerLine.quadratic([1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], 2).coords, 7]
            ),
            "a line has 6 Pluecker coordinates, not 7: [1 + sqrt(2), 0, 0, 0, 0, 0, 7]",
        ),
        (
            lambda: PlueckerLine.quadratic([1, 0, 0, 0, 0, 0, 7], [1, 0, 0, 0, 0, 0], 2),
            "a line has 6 Pluecker coordinates, not 7: [1, 0, 0, 0, 0, 0, 7]",
        ),
        (
            lambda: PlueckerLine.quadratic([1, 0, 0, 0, 0, 0], ["1/2", 0, 0], 2),
            "a line has 6 Pluecker coordinates, not 3: [1/2, 0, 0]",
        ),
    ],
)
def test_length_refusals_name_the_count_and_the_entries(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


OFF_QUADRIC = "coordinates violate the Pluecker quadric: "


@pytest.mark.parametrize(
    "coords, message",
    [
        # rational and off the quadric (b = 0 gives the rational line a)
        (([1, 0, 0, 1, 0, 0], [0] * 6, 2), OFF_QUADRIC + "1"),
        (([2, 0, 0, 1, 0, 0], [0] * 6, 0), OFF_QUADRIC + "2"),
        # (a, b, d) for a + b*sqrt(2): Q(a) + 2*Q(b) = 1 fails, polar(a, b) = 0 holds
        (([1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0], 2), OFF_QUADRIC + "1"),
        # Q(a) + 2*Q(b) = 0 holds, polar(a, b) = 1 fails
        (([0, 0, 0, 1, 0, 0], [1, 0, 0, 0, 0, 0], 2), OFF_QUADRIC + "sqrt(2)"),
        (([1, 0, 0, 1, 0, 0], [1, 0, 0, 0, 0, 0], 2), OFF_QUADRIC + "1 + sqrt(2)"),
        (([1, 0, 0, 1, 0, 0], [1, 0, 0, 1, 0, 0], 2), OFF_QUADRIC + "3 + 2*sqrt(2)"),
        (([1, 0, 0, 2, 0, 0], [1, 0, 0, -1, 0, 0], -3), OFF_QUADRIC + "5 + sqrt(-3)"),
        # the quadric value is reported on the canonical coordinates
        (([0, 0, 0, 4, 0, 0], [2, 0, 0, 0, 0, 0], 5), OFF_QUADRIC + "2*sqrt(5)"),
    ],
)
def test_quadric_refusal_is_pinned(coords, message):
    with pytest.raises(ValueError) as refused:
        PlueckerLine.quadratic(*coords)
    assert str(refused.value) == message


def test_quadratic_lines_are_accepted_exactly_when_the_reference_quadric_vanishes():
    rng = random.Random(3401)
    radicands = [d for d in range(-12, 40) if d and (d < 0 or isqrt(d) ** 2 != d)]
    verdicts = {"accepted": 0, "refused": 0}
    for trial in range(1500):
        d = rng.choice(radicands)
        if trial % 3:
            # a wedge of two points over Q(sqrt(d)) lies on the quadric; a
            # near miss moves one integer of it
            p, q = ([(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)] for _ in "pq")
            wedge = [surd_sub(surd_mul(p[i], q[j], d), surd_mul(p[j], q[i], d)) for i, j in WEDGE_PAIRS]
            a, b = [x for x, _ in wedge], [y for _, y in wedge]
            if trial % 3 == 2:
                (a, b)[rng.randrange(2)][rng.randrange(6)] += rng.choice((-1, 1))
        else:
            a, b = ([rng.randint(-3, 3) for _ in range(6)] for _ in "ab")
        if not any(b):
            continue
        accepted = surd_quadric(list(zip(a, b)), d) == (0, 0)
        ints = canonical_int_vector([c for pair in zip(a, b) for c in pair])
        canonical = list(zip(ints[::2], ints[1::2]))
        try:
            line = PlueckerLine.quadratic(a, b, d)
        except ValueError as refused:
            assert not accepted, (a, b, d)
            assert str(refused).startswith(OFF_QUADRIC)
            x, y = surd_quadric(canonical, d)
            assert read_surd(str(refused).removeprefix(OFF_QUADRIC)) == (x, y, d if y else 0)
            verdicts["refused"] += 1
        else:
            assert accepted, (a, b, d)
            assert read_surd_line(line.coords) == (canonical, d)
            verdicts["accepted"] += 1
    assert min(verdicts.values()) > 300, verdicts


@pytest.mark.parametrize(
    "vec",
    [
        [3, 6, -9, 12],
        (3, 6, -9, 12),
        (-4, 0, 6, 0, 10, 0),
        [0, 0, -7, 14, 0, 21],
        [0, 5, 0, 0],
        (1, -1, 0, 0, 0, 0),
        [Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)],
        [Fraction(-2, 3), 4, 0, Fraction(8, 9)],
        [0, Fraction(-10, 7), 20, Fraction(30, 7)],
        [2**70, -(2**71), 3 * 2**70],
    ],
)
def test_canonical_int_vector_is_the_reference_formula(vec):
    got = oracle._canonical_int_vector(vec)
    assert type(got) is tuple and all(type(x) is int for x in got)
    assert got == canonical_int_vector(vec)


def test_canonical_int_vector_random_against_the_reference():
    rng = random.Random(3402)
    for _ in range(500):
        n = rng.randint(1, 12)
        scale = rng.randint(1, 6)
        vec = [scale * rng.randint(-9, 9) for _ in range(n)]
        if rng.random() < 0.5:
            vec = [Fraction(x, rng.randint(1, 8)) if rng.random() < 0.5 else x for x in vec]
        if not any(vec):
            continue
        assert oracle._canonical_int_vector(vec) == canonical_int_vector(vec)
        assert oracle._canonical_int_vector(tuple(vec)) == canonical_int_vector(vec)


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
        d = bareiss_det([list(x.coords) for x in (p, q, r, s)])
        value = incidence_form(l1, l2)
        assert (value == 0) == (d == 0)
        assert value == incidence_form(l2, l1)
        hits[d == 0] += 1


def printed_entry(x, y, d):
    """The entry x + y*sqrt(d) as a line prints it: p02 of the line (1, x + y*sqrt(d), 0, ...)."""
    return PlueckerLine.quadratic([1, x, 0, 0, 0, 0], [0, y, 0, 0, 0, 0], d).coords[1]


def test_qnum_arithmetic():
    # the entries a + b*sqrt(d) once held by QNum: each prints from the
    # line's integer parts, with no "1*" and no "+ -"
    assert printed_entry(1, 2, 5) == "1 + 2*sqrt(5)"
    assert printed_entry(0, -1, -11) == "-sqrt(-11)"
    assert printed_entry(0, 1, 3) == "sqrt(3)"
    assert printed_entry(0, 3, 3) == "3*sqrt(3)"
    assert printed_entry(-4, -3, 7) == "-4 - 3*sqrt(7)"
    assert printed_entry(7, -1, -3) == "7 - sqrt(-3)"
    # an entry with no radical part prints its int, as a string
    line = PlueckerLine.quadratic([1, 5, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], 2)
    assert line.coords == ("1", "5", "sqrt(2)", "0", "0", "0")
    assert str(line) == "(p01=1, p02=5, p03=sqrt(2), p23=0, p31=0, p12=0)"
    # conjugation negates b, and the core moves the sign when b leads
    x = PlueckerLine.quadratic([1, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0], 5)
    assert x.conjugate() == PlueckerLine.quadratic([1, 0, 0, 0, 0, 0], [-2, 0, 0, 0, 0, 0], 5)
    assert x.conjugate().conjugate() == x and x.conjugate() != x
    assert PlueckerLine([7, 0, 0, 0, 0, 0]).conjugate() == PlueckerLine([1, 0, 0, 0, 0, 0])
    # fractional parts are scaled to coprime integers with the rest of the line
    half = PlueckerLine.quadratic(
        [Fraction(1, 2), 0, 0, 0, 0, 0], [Fraction(4, 3), 0, 0, 0, 0, 0], 7
    )
    assert repr(half) == "PlueckerLine.quadratic([3, 0, 0, 0, 0, 0], [8, 0, 0, 0, 0, 0], 7)"
    assert half == PlueckerLine.quadratic(["3/2", 0, 0, 0, 0, 0], [4, 0, 0, 0, 0, 0], 7)
    # a line with no radical part keeps no radicand
    zero = PlueckerLine.quadratic([1, 0, 0, 0, 0, 0], [0] * 6, 5)
    assert zero.is_rational and zero == PlueckerLine([1, 0, 0, 0, 0, 0])
    assert repr(zero) == "PlueckerLine([1, 0, 0, 0, 0, 0])" and zero.coords == (1, 0, 0, 0, 0, 0)
    assert PlueckerLine.quadratic([1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], 0) == zero
    # a differing radical part counts
    assert x != PlueckerLine.quadratic([1, 0, 0, 0, 0, 0], [3, 0, 0, 0, 0, 0], 5)
    assert x != PlueckerLine([1, 0, 0, 0, 0, 0])
    # the repr rebuilds the line
    for built in (x, x.conjugate(), half, zero, line):
        assert eval(repr(built)) == built


def test_qnum_equality_is_total_and_hashes_agree():
    # equality reads the parts: 2*sqrt(2) and sqrt(8) spell one number, but
    # no radicand is factored, so the two spellings are two unequal keys
    over_2 = PlueckerLine.quadratic([1, 3, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0], 2)
    over_8 = PlueckerLine.quadratic([1, 3, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], 8)
    assert over_2.coords[0] == "1 + 2*sqrt(2)" and over_8.coords[0] == "1 + sqrt(8)"
    assert over_2 != over_8 and len({over_2, over_8}) == 2
    # the same integer parts over another radicand are another line
    over_3 = PlueckerLine.quadratic([1, 3, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0], 3)
    assert over_2 != over_3 and len({over_2, over_3}) == 2
    # a rational line is one key whichever constructor spelled it
    rational = PlueckerLine([2, 6, 0, 0, 0, 0])
    assert rational == PlueckerLine.quadratic([1, 3, 0, 0, 0, 0], [0] * 6, 2)
    assert hash(rational) == hash(PlueckerLine.quadratic([1, 3, 0, 0, 0, 0], [0] * 6, 2))
    assert rational != over_2 and len({rational, over_2, over_8}) == 3

    def radicand(line):
        return read_surd_line(line.coords)[1]

    # irrational solutions of two four-lines problems over different
    # radicands compare without raising
    rng = random.Random(0)
    found = []
    while len(set(map(radicand, found))) < 2:
        result = lines_meeting_four(*random_four_lines(rng))
        found += [line for line, _ in result.solutions if not line.is_rational]
    line_a, line_b = found[0], found[-1]
    assert radicand(line_a) != radicand(line_b)
    assert line_a != line_b and line_a == found[0]
    assert len({line_a, line_b, found[1]}) == 3
    # pairing them would leave both extensions, so it is refused
    with pytest.raises(ValueError, match="^cannot mix different quadratic extensions$"):
        incidence_form(line_a, line_b)


def test_qnum_folds_a_perfect_square_radicand():
    # (1, 2*sqrt(4)) is (1, 4), and (3, 2*sqrt(9)) is (3, 6), i.e. (1, 2)
    folded = PlueckerLine.quadratic([1, 0, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0], 4)
    assert folded == PlueckerLine([1, 4, 0, 0, 0, 0]) and folded.is_rational
    assert hash(folded) == hash(PlueckerLine([1, 4, 0, 0, 0, 0]))
    assert repr(folded) == "PlueckerLine([1, 4, 0, 0, 0, 0])"
    assert folded.coords == (1, 4, 0, 0, 0, 0)
    # sqrt(4), 2*sqrt(1) and 2 are one number, and equality is transitive
    assert (
        PlueckerLine.quadratic([1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], 4)
        == PlueckerLine.quadratic([1, 0, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0], 1)
        == PlueckerLine([1, 2, 0, 0, 0, 0])
    )
    assert PlueckerLine.quadratic([3, 0, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0], 9) == PlueckerLine(
        [1, 2, 0, 0, 0, 0]
    )
    assert PlueckerLine.quadratic([1, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0], 4) == PlueckerLine(
        [1, -2, 0, 0, 0, 0]
    )
    # a negative square is no square: sqrt(-4) stays
    over_minus_4 = PlueckerLine.quadratic([1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], -4)
    assert not over_minus_4.is_rational and over_minus_4.coords[1] == "sqrt(-4)"


# bool and float, and values that Fraction cannot read or that divide by zero
@pytest.mark.parametrize("bad", [True, False, 0.5, 0.1, 1.0, None, "1 + sqrt(2)", "1/0", 1j])
def test_oracle_refuses_inexact_numbers(bad):
    def refused(build, wording="not an exact number:"):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{wording} {bad!r}')}$"):
            build()

    refused(lambda: ProjectivePoint([bad, 0, 0, 1]))
    refused(lambda: PlueckerLine([bad, 0, 0, 0, 0, 1]))
    refused(lambda: PlueckerLine.quadratic([bad, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0], 2))
    refused(lambda: PlueckerLine.quadratic([1, 0, 0, 0, 0, 0], [bad, 0, 0, 0, 0, 0], 2))
    refused(
        lambda: PlueckerLine.quadratic([1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], bad),
        "a radicand is an int, not",
    )
    refused(lambda: SolutionSet(False, ((ruling(1, 0), bad),)), "a multiplicity is an int, not")
    refused(lambda: SurfaceForm({(1, 0, 0, 0): bad, (0, 1, 0, 0): 1}))
    f = SurfaceForm({(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): -1})
    refused(lambda: f.value([bad, 0, 0, 1]))
    refused(lambda: pencil_tangency_count(f, [0, 0, bad, 0], point(1, 0, 0, 1)))
    # strings stay exact input
    assert PlueckerLine.quadratic(["1/2", 0, 0, 0, 0, 0], ["1/3", 0, 0, 0, 0, 0], 2) == (
        PlueckerLine.quadratic([3, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0], 2)
    )
    assert ProjectivePoint(["2", 4, 0, 0]) == point(1, 2, 0, 0)


def random_integer_matrix(rng, nrows, ncols, rank):
    """Product of random nrows x rank and rank x ncols integer matrices."""
    left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(rank)]
    return [
        [sum(row[k] * right[k][j] for k in range(rank)) for j in range(ncols)] for row in left
    ]


def reference_kernel(rows, ncols):
    """Canonical kernel basis read off the reference rref, one vector per free column."""
    echelon, pivots = rref(rows, ncols)
    basis = []
    for j in range(ncols):
        if j not in pivots:
            v = [0] * ncols
            v[j] = 1
            for row, pc in zip(echelon, pivots):
                v[pc] = -row[j]
            basis.append(canonical_int_vector(v))
    return basis


def echelon_combination(rng, pivots, ncols):
    """Random invertible mix of an echelon matrix with the given pivot columns.

    Every free entry right of a pivot is nonzero, so that no kernel entry
    vanishes by accident and a wrong sign in any Cramer entry shows.
    """
    nonzero = (-3, -2, -1, 1, 2, 3)
    echelon = [
        [int(j == p) if j in pivots or j <= p else rng.choice(nonzero) for j in range(ncols)]
        for p in pivots
    ]
    while True:
        mix = [[rng.randint(-3, 3) for _ in pivots] for _ in pivots]
        if rank(mix) == len(pivots):
            return [
                [sum(m * row[j] for m, row in zip(coeffs, echelon)) for j in range(ncols)]
                for coeffs in mix
            ]


def test_rational_kernel_annihilates_its_rows():
    # Cramer's rule on 4 x 6 matrices of every rank 0-4, some with zeroed
    # columns so that the pivot columns are not (0, 1, 2, 3), one of rank 4
    # for each pivot set, and the plane kernel of one row, each equal to the
    # kernel of the reference rref; below rank 4 the four-lines kernel is
    # empty (an infinite family)
    rng = random.Random(8)
    cases = []
    for r in range(5):
        for _ in range(80):
            rows = random_integer_matrix(rng, 4, 6, r)
            for col in rng.sample(range(6), rng.randint(0, 2)):
                for row in rows:
                    row[col] = 0
            cases.append((rows, 6, oracle._four_lines_kernel))
    for pivots in combinations(range(6), 4):
        cases.append((echelon_combination(rng, pivots, 6), 6, oracle._four_lines_kernel))
    for _ in range(200):
        row = [rng.choice([0, 0, rng.randint(-6, 6)]) for _ in range(4)]
        if any(row):
            cases.append(([row], 4, lambda rows: oracle._plane_kernel(rows[0])))
    ranks, pivots = set(), set()
    for rows, ncols, kernel_of in cases:
        kernel = kernel_of(rows)
        r = rank(rows)
        ranks.add((ncols, r))
        if ncols == 6 and r < 4:
            assert kernel == []
            continue
        pivots.add(tuple(rref(rows, ncols)[1]))
        assert kernel == reference_kernel(rows, ncols)
        assert len(kernel) == ncols - r
        assert rank(kernel) == len(kernel)
        for v in kernel:
            assert all(type(x) is int for x in v)
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    assert ranks == {(6, r) for r in range(5)} | {(4, 1)}
    assert {p for p in pivots if len(p) == 4} == set(combinations(range(6), 4))


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


@pytest.mark.parametrize(
    "pairs",
    [
        # the first, third and fourth lines lie in the plane x1 = x3
        [
            ((-2, -8, -6, -8), (-1, 5, -8, 5)),
            ((5, 0, -5, -4), (1, 6, 4, -4)),
            ((7, 8, -4, 8), (5, -1, -9, -1)),
            ((-1, 6, 4, 6), (7, 5, 2, 5)),
        ],
        # the last three lines lie in the plane x1 = -x2
        [
            ((4, 0, 8, 3), (-7, 4, -2, 3)),
            ((-6, -7, 7, -2), (-3, -9, 9, 7)),
            ((1, -5, 5, 8), (-7, -5, 5, 9)),
            ((6, 1, -1, 4), (-8, -3, 3, 0)),
        ],
        # the last three lines lie in the plane x0 = -x3 (perfbench four_lines,
        # seed 106, round 1,516)
        [
            ((0, -2, 5, 9), (-9, 0, -6, -7)),
            ((9, 1, 8, -9), (1, 0, 2, -1)),
            ((0, -6, 1, 0), (-6, -9, 6, 6)),
            ((-8, 2, 3, 8), (-8, 1, 7, 8)),
        ],
        # the first, second and fourth lines lie in the plane x1 - x2 + x3 = 0
        # (perfbench four_lines, seed 106, round 1,768)
        [
            ((-4, -9, -6, 3), (4, 4, 0, -4)),
            ((9, -3, 1, 4), (-1, 0, 8, 8)),
            ((-7, 8, -5, -5), (-1, 6, 9, 3)),
            ((5, -5, 3, 8), (5, -6, -4, 2)),
        ],
    ],
)
def test_four_lines_three_coplanar_is_infinite(pairs):
    # Coordinates are x0..x3.  The remaining line meets the plane of the other
    # three in one point, so every line of that plane through it meets all four.
    lines = [line(p, q) for p, q in pairs]
    assert lines_meeting_four(*lines).infinite


def test_four_lines_solver_needs_no_qnum_arithmetic():
    # no coordinate type is left: a quadratic answer is built, validated and
    # checked on its integer parts, and its coordinates are printed on read
    assert not hasattr(oracle, "QNum")
    rng = random.Random(3403)
    solved = 0
    while solved < 20:
        result = lines_meeting_four(*random_four_lines(rng))
        if result.infinite or result.solutions[0][0].is_rational:
            continue
        solved += 1
        # every entry of a quadratic line is a string with int parts, over
        # one radicand, and the line takes the same parts back
        for line, _ in result.solutions:
            assert all(type(c) is str for c in line.coords)
            pairs, d = read_surd_line(line.coords)
            assert d and all(x.denominator == y.denominator == 1 for x, y in pairs)
            a, b = [int(x) for x, _ in pairs], [int(y) for _, y in pairs]
            assert PlueckerLine.quadratic(a, b, d) == line
            # the rational constructor refuses the printed entries
            with pytest.raises(ValueError, match="sqrt"):
                PlueckerLine(line.coords)


def test_four_lines_refuses_a_quadratic_input_line():
    rng = random.Random(3405)
    while True:
        lines = random_four_lines(rng)
        result = lines_meeting_four(*lines)
        if not result.infinite and not result.solutions[0][0].is_rational:
            break
    for solution, _ in result.solutions:
        for k in range(4):
            given = [*lines[:k], solution, *lines[k + 1 :]]
            with pytest.raises(ValueError) as refused:
                lines_meeting_four(*given)
            assert str(refused.value) == f"the four-lines solver takes rational lines, not {solution}"


def test_incidence_form_pairs_quadratic_lines_on_integer_parts():
    root2 = PlueckerLine.quadratic([0] * 6, [1, 0, 0, 0, 0, 0], 2)
    p23 = PlueckerLine([0, 0, 0, 1, 0, 0])
    # the pair (x, y) is x + y*sqrt(2): here sqrt(2)
    assert incidence_form(root2, p23) == incidence_form(p23, root2) == (0, 1)
    assert incidence_form(root2, root2) == (0, 0)
    with pytest.raises(ValueError, match="^cannot mix different quadratic extensions$"):
        incidence_form(root2, PlueckerLine.quadratic([0] * 6, [1, 0, 0, 0, 0, 0], 3))
    rng = random.Random(3404)
    quadratic = 0
    while quadratic < 40:
        lines = random_four_lines(rng)
        value = incidence_form(lines[0], lines[1])
        assert type(value) is int
        pairs = [read_surd_line(line.coords)[0] for line in lines[:2]]
        assert (value, 0) == surd_pairing(*pairs, 0)
        result = lines_meeting_four(*lines)
        if result.infinite or result.solutions[0][0].is_rational:
            continue
        quadratic += 1
        line, conjugate = (solution for solution, _ in result.solutions)
        x, d = read_surd_line(line.coords)
        for other in (*lines, conjugate, line):
            a, b = surd_pairing(x, read_surd_line(other.coords)[0], d)
            for value in (incidence_form(line, other), incidence_form(other, line)):
                assert type(value) is tuple and type(value[0]) is type(value[1]) is int
                assert value == (a, b)


def test_conjugate_is_the_entrywise_conjugate():
    # the line through [1 : 0 : 0 : 1] and [0 : sqrt(2) : 1 : 3]: its first
    # nonzero interleaved entry is a b part, so conjugating moves the sign
    hand_built = PlueckerLine.quadratic([0, 1, 3, -1, 0, 0], [1, 0, 0, 0, 1, 0], 2)
    assert hand_built.coords == ("sqrt(2)", "1", "3", "-1", "sqrt(2)", "0")
    assert hand_built.conjugate().coords == ("sqrt(2)", "-1", "-3", "1", "sqrt(2)", "0")
    lines = [hand_built]
    rng = random.Random(3406)
    while len(lines) < 41:
        result = lines_meeting_four(*random_four_lines(rng))
        if not result.infinite and not result.solutions[0][0].is_rational:
            lines += [line for line, _ in result.solutions]
    for line in lines:
        pairs, d = read_surd_line(line.coords)
        conjugate = PlueckerLine.quadratic([x for x, _ in pairs], [-y for _, y in pairs], d)
        assert line.conjugate() == conjugate
        assert repr(line.conjugate()) == repr(conjugate)
        assert line.conjugate() != line
        assert line.conjugate().conjugate() == line
    rational = ruling(1, 2)
    assert rational.conjugate() is rational


def test_four_lines_tangent_gives_double_line():
    tangent = line((1, 1, 2, 2), (0, 1, -2, 0))
    result = lines_meeting_four(ruling(1, 0), ruling(0, 1), ruling(1, 1), tangent)
    assert not result.infinite
    expected = line((1, 1, 0, 0), (0, 0, 1, 1))
    assert result.solutions == ((expected, 2),)
    # the same configuration moved so that the double line is the first
    # kernel vector: the restricted quadric's a and b both vanish
    moved = [(0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 1, 1, 0, -1, 1), (2, 1, 2, 0, -4, 2)]
    result = lines_meeting_four(*(PlueckerLine(list(c)) for c in moved))
    assert result.solutions == ((PlueckerLine([1, 0, 0, 0, 0, 0]), 2),)


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
            # the repr rebuilds rational and quadratic answers alike
            assert eval(repr(solution)) == solution
            x, d = read_surd_line(solution.coords)
            for given in lines:
                assert surd_pairing(x, read_surd_line(given.coords)[0], d) == (0, 0)
            assert surd_quadric(x, d) == (0, 0)
        irrational = [ln for ln, _ in result.solutions if not ln.is_rational]
        if irrational:
            assert len(irrational) == 2
            assert irrational[1] == irrational[0].conjugate()
            conjugate_pairs += 1
    assert conjugate_pairs > 0


WEDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))


def wedge(p, q):
    return tuple(p[i] * q[j] - p[j] * q[i] for i, j in WEDGE_PAIRS)


def check_printed_solutions(lines, result):
    """Read the printed solutions back and check them in Fraction arithmetic."""
    assert not result.infinite
    assert sum(mult for _, mult in result.solutions) == 2
    found = []
    for solution, _ in result.solutions:
        coords = list(solution.coords)
        x, d = read_surd_line(coords)
        assert surd_pairing(x, x, d) == (0, 0), coords
        for given in lines:
            assert surd_pairing(x, [(c, 0) for c in given], d) == (0, 0), (coords, given)
        found.append(coords)
    return found


def test_four_lines_printed_solutions_read_back_general():
    rng = random.Random(2024)

    def random_point():
        return tuple(rng.randint(-9, 9) for _ in range(4))

    checked = 0
    while checked < 300:
        lines = [wedge(random_point(), random_point()) for _ in range(4)]
        if not all(any(ln) for ln in lines) or len({PlueckerLine(ln) for ln in lines}) < 4:
            continue
        if rank([ln[3:] + ln[:3] for ln in lines]) < 4:
            continue
        result = lines_meeting_four(*map(PlueckerLine, lines))
        if result.infinite:
            continue
        check_printed_solutions(lines, result)
        checked += 1


def test_four_lines_printed_solutions_read_back_two_transversal():
    # every input joins a point of L to a point of M, so L and M are the answer
    a, b, c, d = (1, 2, 0, 1), (0, 1, 3, -1), (2, 0, 1, 1), (1, -1, 1, 0)
    assert rank([a, b, c, d]) == 4
    transversals = [wedge(a, b), wedge(c, d)]
    rng = random.Random(2025)

    def distinct_on_line():
        # four pairwise distinct points (s, t) of the projective line
        while True:
            st = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
            if all(s1 * t2 - s2 * t1 for (s1, t1), (s2, t2) in combinations(st, 2)):
                return st

    def cross_ratio(st):
        def det(i, j):
            return st[i][0] * st[j][1] - st[j][0] * st[i][1]

        return Fraction(det(0, 2) * det(1, 3), det(0, 3) * det(1, 2))

    for _ in range(200):
        while True:
            on_l, on_m = distinct_on_line(), distinct_on_line()
            # equal cross-ratios would put the four lines on one quadric
            if cross_ratio(on_l) != cross_ratio(on_m):
                break
        lines = []
        for (s, t), (u, v) in zip(on_l, on_m):
            p = tuple(s * x + t * y for x, y in zip(a, b))
            q = tuple(u * x + v * y for x, y in zip(c, d))
            lines.append(wedge(p, q))
        found = check_printed_solutions(lines, lines_meeting_four(*map(PlueckerLine, lines)))
        for t in transversals:
            assert any(
                all(isinstance(x, int) for x in coords) and rank([coords, t]) == 1
                for coords in found
            ), (t, found)


def test_oracle_values_survive_copy_deepcopy_and_pickle():
    # each value rebuilds through its validating constructor or line core
    rng = random.Random(3407)
    while True:
        result = lines_meeting_four(*random_four_lines(rng))
        if not result.infinite and not result.solutions[0][0].is_rational:
            break
    values = [
        point(2, 4, -6, 0),
        ruling(1, 2),
        result.solutions[0][0],
        random_surface_form(rng, 3),
        result,
        lines_meeting_four(ruling(1, 0), ruling(0, 1), ruling(1, 1), ruling(1, 2)),
    ]
    for value in values:
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value)
            assert repr(clone) == repr(value)
    # a copy is rebuilt by a validating call, so a tampered payload is
    # refused, and scaled parts come back canonical
    for value, tampered in (
        (values[0], ([0, 0, 0, 0],)),
        (values[1], ((1, 0, 0, 1, 0, 0), (0,) * 6, 0)),
        (values[2], ((1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), 2)),
        (values[3], ({},)),
    ):
        build, _ = value.__reduce__()
        with pytest.raises(ValueError):
            build(*tampered)
    build, _ = values[1].__reduce__()
    assert build((2, 0, 0, 0, 0, 0), (0,) * 6, 0) == PlueckerLine([1, 0, 0, 0, 0, 0])


def test_solution_set_validation():
    with pytest.raises(ValueError):
        SolutionSet(infinite=True, solutions=((ruling(1, 0), 1),))
    with pytest.raises(ValueError):
        SolutionSet.finite([(ruling(1, 0), 0)])
    assert SolutionSet.infinite_family().total_multiplicity == 0


class ExponentSeq:
    """A hashable sequence of exponents that is not a tuple and never equals one."""

    def __init__(self, *exponents):
        self.exponents = exponents

    def __iter__(self):
        return iter(self.exponents)

    def __hash__(self):
        return hash(("ExponentSeq", self.exponents))

    def __eq__(self, other):
        return isinstance(other, ExponentSeq) and other.exponents == self.exponents


def test_surface_form_canonicalization():
    def refused(coeffs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SurfaceForm(coeffs)

    f = SurfaceForm({(2, 0, 0, 0): Fraction(1, 2), (0, 2, 0, 0): Fraction(3, 2)})
    assert f.terms == {(2, 0, 0, 0): 1, (0, 2, 0, 0): 3}
    assert f.degree == 2
    g = SurfaceForm({(1, 0, 0, 0): -2, (0, 1, 0, 0): 4})
    assert g.terms == {(0, 1, 0, 0): 2, (1, 0, 0, 0): -1}
    assert f.value([1, 1, 0, 0]) == 4
    assert f.value([Fraction(1, 2), 0, 0, 0]) == Fraction(1, 4)
    assert all(type(c) is int for c in f.terms.values())
    assert type(f.value(ProjectivePoint([1, -2, 3, 5]))) is int
    refused({}, "a surface form must be nonzero")
    refused({(1, 0, 0, 0): 0}, "a surface form must be nonzero")
    refused({(1, 0, 0, 0): 0, (0, 1, 0, 0): Fraction(0)}, "a surface form must be nonzero")
    refused({(1, 0, 0, 0): 1, (2, 0, 0, 0): 1}, "a surface form must be homogeneous")
    refused({(0, 0, 0, 0): 1}, "a surface form must have degree at least 1")
    # a zero coefficient does not count against homogeneity
    assert SurfaceForm({(1, 0, 0, 0): 2, (0, 0, 0, 5): 0}).terms == {(1, 0, 0, 0): 1}
    # exponents are never rounded: (1.5, 0, 0, 0.9) is not read as x
    bad_monos = [(1.5, 0, 0, 0.9), (1.0, 0, 0, 0), (True, 0, 0, 0), (0, 0, 0, True)]
    for mono in bad_monos + [(1, 0, -1, 1), (1, 0, 0), (1, 0, 0, 0, 0)]:
        refused({mono: 1, (0, 1, 0, 0): 2}, f"bad monomial exponents {mono!r}")
    for bad in (True, 2.0):
        refused({(1, 0, 0, 0): 1, (0, 1, 0, 0): bad}, f"not an exact number: {bad!r}")
    # the first bad item refuses, whether its key or its value is bad
    refused({(1, 0, 0, 0): 0.5, (1, 0, 0): 1}, "not an exact number: 0.5")
    refused({(1, 0, 0): 0.5, (1, 0, 0, 0): 1}, "bad monomial exponents (1, 0, 0)")

    # keys are read with tuple(); two keys equal after tuple() add up, and a
    # sum that cancels leaves the form
    h = SurfaceForm({ExponentSeq(0, 0, 1, 1): 4, (1, 0, 0, 1): 6, ExponentSeq(0, 2, 0, 0): -2})
    assert h.terms == {(0, 0, 1, 1): 2, (0, 2, 0, 0): -1, (1, 0, 0, 1): 3}
    assert all(type(m) is tuple for m in h.terms)
    cancelled = {(1, 0, 0, 0): 3, ExponentSeq(1, 0, 0, 0): -3, (0, 1, 0, 0): -2}
    assert SurfaceForm(cancelled).terms == {(0, 1, 0, 0): 1}
    refused({(1, 0, 0, 0): 3, ExponentSeq(1, 0, 0, 0): -3}, "a surface form must be nonzero")
    refused({ExponentSeq(1, 0, 0): 3}, "bad monomial exponents (1, 0, 0)")

    # Fractions scale to coprime integers with the first term positive
    q = SurfaceForm(
        {(0, 2, 0, 0): Fraction(-3, 4), (2, 0, 0, 0): Fraction(9, 2), (1, 1, 0, 0): "3/2"}
    )
    assert list(q.terms.items()) == [((0, 2, 0, 0), 1), ((1, 1, 0, 0), -2), ((2, 0, 0, 0), -6)]
    assert all(type(c) is int for c in q.terms.values())
    r = SurfaceForm({(0, 0, 0, 1): -6, (0, 0, 1, 0): 4, (1, 0, 0, 0): Fraction(10, 5)})
    assert list(r.terms.items()) == [((0, 0, 0, 1), 3), ((0, 0, 1, 0), -2), ((1, 0, 0, 0), -1)]
    assert q == SurfaceForm({(2, 0, 0, 0): 6, (1, 1, 0, 0): 2, (0, 2, 0, 0): -1})

    # the Horner walk reads the terms in this order
    rng = random.Random(31)
    for degree in range(1, 9):
        coeffs = {m: rng.randint(-9, 9) for m in rng.sample(oracle._surface_monomials(degree), 4)}
        coeffs[(degree, 0, 0, 0)] = 1
        s = SurfaceForm(coeffs)
        assert list(s.terms) == sorted(s.terms)
        assert hash(s) == hash(SurfaceForm(dict(reversed(coeffs.items()))))


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

            def direct(w):
                return sylvester_det(oracle._line_section(f, v, w))

            # the top coefficient is the determinant on the lam = infinity line
            expected = degree * (degree - 1)
            assert (disc[expected] if len(disc) > expected else 0) == direct(w2)
            assert len(disc) - 1 <= expected
            # D is sampled only at lam = 0..n(n-1); values outside that
            # range check the degree bound the interpolation relies on
            for lam in (-2, -1, *range(expected + 1, degree * (2 * degree - 1) + 1)):
                value = sum(c * lam**i for i, c in enumerate(disc))
                assert value == direct([a + lam * b for a, b in zip(w1, w2)])


def test_line_section_matches_surface_values():
    rng = random.Random(29)
    pairs = ((1, 0), (0, 1), (2, -3), (-1, 4), (-2, -5))
    for degree in range(1, 9):
        f, plane, vertex = random_pencil_instance(rng, degree)
        v, w1, w2 = oracle._plane_frame(plane, vertex)
        for w in (w1, w2, [a - 3 * b for a, b in zip(w1, w2)]):
            section = oracle._line_section(f, v, w)
            assert len(section) == degree + 1
            assert all(type(c) is int for c in section)
            for s, u in pairs:
                value = sum(c * s ** (degree - i) * u**i for i, c in enumerate(section))
                assert value == f.value([s * a + u * b for a, b in zip(v, w)])


def test_pencil_discriminant_is_pinned():
    f, plane, vertex = random_pencil_instance(random.Random(4), 4)
    assert pencil_discriminant(f, plane, vertex) == (
        3158978318120287281635328,
        -1230274035105778222350336,
        2281178557380963456552960,
        -54222280522678573522993152,
        -15426435917683490393581056,
        76219515932467214553412608,
        185117288387340727173300480,
        37134292268636366965035264,
        -139726085040026720270279712,
        -141169042243158608575173888,
        -46256605924910510327178240,
        -8532202353664922832347136,
        -316142496466935098927616,
    )
    f, plane, vertex = random_pencil_instance(random.Random(8), 8)
    digest = hashlib.sha256(repr(pencil_discriminant(f, plane, vertex)).encode())
    assert digest.hexdigest() == (
        "962266dcf0718b81220fae00bfb3a4e0d21f520dd9b8039eb46bf9b3397ab29a"
    )


def test_pencil_tangent_on_the_first_line():
    # D(0) = 0 here: a tangent lies on the lam = 0 line, so the count
    # must go on to further values of D instead of refusing the pencil
    for degree, seed in ((2, 3080), (3, 2828)):
        f, plane, vertex = random_pencil_instance(random.Random(seed), degree)
        disc = pencil_discriminant(f, plane, vertex)
        assert disc[0] == 0 and len(disc) - 1 == degree * (degree - 1)
        assert pencil_tangency_count(f, plane, vertex) == degree * (degree - 1)


def test_pencil_discriminant_degree_drops():
    # a tangent at lam = infinity lowers the degree of D below n(n-1); the
    # trailing zeros are trimmed and the count still sees every tangent
    for degree, seed, disc_degree in ((2, 507, 1), (3, 900, 5)):
        f, plane, vertex = random_pencil_instance(random.Random(seed), degree)
        disc = pencil_discriminant(f, plane, vertex)
        assert len(disc) - 1 == disc_degree and disc[-1] != 0
        assert pencil_tangency_count(f, plane, vertex) == degree * (degree - 1)


def test_pencil_degree_twelve():
    f, plane, vertex = random_pencil_instance(random.Random(12), 12)
    assert pencil_tangency_count(f, plane, vertex) == 132


def test_pencil_degree_thirty_two():
    f, plane, vertex = random_pencil_instance(random.Random(32), 32)
    assert pencil_tangency_count(f, plane, vertex) == 992


def test_generators_reject_nonpositive_degree():
    with pytest.raises(ValueError, match="degree at least 1"):
        random_surface_form(random.Random(0), -1)
    with pytest.raises(ValueError, match="degree at least 1"):
        random_pencil_instance(random.Random(0), 0)


def imported_names(module):
    """Each import of a package module, as (level, dotted parts of module and name)."""
    path = Path(oracle.__file__).parent / f"{module}.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.level, [*(node.module or "").split("."), alias.name]


def test_oracle_imports_no_symbolic_ring():
    # the oracle imports nothing from the package, so a count and its check
    # share no routine
    for level, parts in imported_names("oracle"):
        assert not level and parts[0] != "schubert3", parts


def test_linalg_routines_stay_on_their_side():
    # the rings eliminate with graded_ring's Hermite form, and no ring imports
    # the oracle, so each side eliminates with its own routines
    for ring in ("graded_ring", "spaces", "dsl", "coincidence"):
        for _, parts in imported_names(ring):
            assert "oracle" not in parts, (ring, parts)
    assert not (Path(oracle.__file__).parent / "linalg.py").exists()
    assert "hermite_form" in graded_ring.__all__


def test_tests_check_the_rings_eliminations_only_through_the_reference():
    # a test that reduced with the rings' own echelon would agree with a bug
    # in it, so no test module imports or reaches for those routines
    # in the name of the rings' own elimination, except for the one invariant
    # test of `hermite_form`, which checks its form against the reference
    forbidden = {"hermite_form", "int_echelon", "reduce_mod_echelon", "_relation_echelon"}
    exempt = ("test_graded_ring.py", "test_hermite_form_is_reduced_and_keeps_the_lattice")
    exempted = 0
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        skipped = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) == exempt:
                skipped |= {id(inner) for inner in ast.walk(node)}
                exempted += 1
        nodes = [node for node in ast.walk(tree) if id(node) not in skipped]
        named = {
            alias.name
            for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        named |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        assert not named & forbidden, path.name
    assert exempted == 1


def test_plane_frame_completes_the_vertex():
    # the plane's first nonzero dual coordinate sits in each column in turn,
    # and the vertex is nonzero on every nonempty subset of the free columns
    for first in range(4):
        for tail in ([2, -3, 5, 7], [2, 0, 0, 0]):
            plane = [0] * first + tail[: 4 - first]
            free = [j for j in range(4) if j != first]
            for k in range(1, 8):
                vertex = [0] * 4
                for bit, j in enumerate(free):
                    if k >> bit & 1:
                        vertex[j] = j + 2
                vertex[first] = Fraction(-sum(a * x for a, x in zip(plane, vertex)), plane[first])
                v, w1, w2 = oracle._plane_frame(plane, vertex)
                assert v == ProjectivePoint(vertex).coords
                for w in (w1, w2):
                    assert sum(a * x for a, x in zip(plane, w)) == 0
                assert rank([v, w1, w2]) == 3


def test_pencil_preconditions():
    f = SurfaceForm({(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): -1})
    with pytest.raises(ValueError, match="lie on the plane"):
        pencil_tangency_count(f, [0, 0, 1, 0], point(0, 0, 1, 0))
    with pytest.raises(ValueError, match="section curve"):
        pencil_tangency_count(f, [0, 0, 1, 0], point(1, 0, 0, 1))
    split = SurfaceForm({(0, 0, 1, 1): 1})
    with pytest.raises(ValueError, match="identically zero"):
        pencil_tangency_count(split, [0, 0, 1, 0], point(1, 0, 0, 0))
    # f = prod_{k<n} (k*y - w) cuts z = 0 in n concurrent lines through V:
    # the sections on lam = 0..n-1 vanish, and the one on lam = n does not
    for n in range(1, 6):
        coeffs = [1]
        for k in range(n):
            coeffs = poly_mul(coeffs, [k, -1])
        lines = SurfaceForm({(0, n - j, 0, j): c for j, c in enumerate(coeffs)})
        with pytest.raises(ValueError, match="^the vertex lies on the section curve$"):
            pencil_tangency_count(lines, [0, 0, 1, 0], point(1, 0, 0, 0))
    with pytest.raises(ValueError, match="not all zero"):
        pencil_tangency_count(f, [0, 0, 0, 0], point(1, 0, 0, 0))


def test_random_pencil_instance_keeps_the_vertex_off_the_surface():
    # seeds 76 and 192 at degree 1, and 67 and 169 at degree 3, redraw a
    # surface through the vertex
    for degree in (1, 2, 3):
        for seed in range(200):
            f, plane, vertex = random_pencil_instance(random.Random(seed), degree)
            assert sum(a * x for a, x in zip(plane, vertex.coords)) == 0
            assert f.value(vertex) != 0, (degree, seed)


def test_pencil_degenerate_double_plane():
    f = SurfaceForm({(2, 0, 0, 0): 1})
    with pytest.raises(DegeneratePencil):
        pencil_tangency_count(f, [0, 0, 1, 0], point(1, 0, 0, 0))


def sylvester_matrix(a, b):
    """Sylvester matrix of two descending coefficient lists, rows of a first."""
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = [[0] * i + list(a) + [0] * (size - i - m - 1) for i in range(n)]
    return rows + [[0] * i + list(b) + [0] * (size - i - n - 1) for i in range(m)]


def sylvester_det(p):
    """Resultant of the binary form sum p[i] s^(n-i) u^i and its s-derivative."""
    n = len(p) - 1
    return bareiss_det(sylvester_matrix(p, [(n - i) * c for i, c in enumerate(p[:-1])]))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_resultant_is_the_sylvester_determinant():
    rng = random.Random(61)

    def poly(degree):
        coeffs = [rng.randint(-50, 50) for _ in range(degree + 1)]
        while coeffs[0] == 0:
            coeffs[0] = rng.randint(-50, 50)
        return coeffs

    for _ in range(150):
        a, b = poly(rng.randint(0, 12)), poly(rng.randint(0, 12))
        if len(a) + len(b) == 2:
            continue
        for x, y in ((a, b), (b, a)):
            expected = bareiss_det(sylvester_matrix(x, y))
            assert resultant(x, y) == expected, (x, y)
    # odd times odd degree: swapping the arguments flips the sign
    for m, n in ((1, 1), (1, 3), (3, 5), (5, 7), (7, 3)):
        a, b = poly(m), poly(n)
        expected = bareiss_det(sylvester_matrix(a, b))
        assert resultant(a, b) == expected == -resultant(b, a), (a, b)
    # a shared root x = r makes the resultant 0
    for _ in range(40):
        root = [1, -rng.randint(-9, 9)]
        a = poly_mul(root, poly(rng.randint(0, 11)))
        b = poly_mul(root, poly(rng.randint(0, 11)))
        assert bareiss_det(sylvester_matrix(a, b)) == 0
        assert resultant(a, b) == 0 == resultant(b, a)
    # two constants have the empty Sylvester matrix, and Res(a, c) = c^(deg a)
    assert resultant([4], [7]) == 1 and type(resultant([4], [7])) is int
    assert resultant([2, 1], [5]) == 5 == resultant([5], [2, 1])


@pytest.mark.parametrize("p", [(1 << 61) - 1, 101, 3])
def test_resultant_mod_p_is_the_sylvester_determinant(p):
    # the resultant is a polynomial in the coefficients: reducing them mod p
    # first keeps it mod p, which a residue check of D(lam) relies on
    rng = random.Random(61)

    def poly(degree):
        coeffs = [rng.randint(-50, 50) for _ in range(degree + 1)]
        while coeffs[0] % p == 0:
            coeffs[0] = rng.randint(-50, 50)
        return coeffs

    def reduced(coeffs):
        return [c % p for c in coeffs]

    zeros = 0
    for _ in range(150):
        a, b = poly(rng.randint(0, 12)), poly(rng.randint(0, 12))
        if len(a) + len(b) == 2:
            continue
        expected = bareiss_det(sylvester_matrix(a, b))
        assert resultant(reduced(a), reduced(b)) % p == expected % p, (a, b)
        zeros += expected != 0 and expected % p == 0
    # a shared root x = r makes the integer resultant, and so every residue, 0
    for _ in range(40):
        root = [1, -rng.randint(-9, 9)]
        a = poly_mul(root, poly(rng.randint(0, 11)))
        b = poly_mul(root, poly(rng.randint(0, 11)))
        if a[0] % p and b[0] % p:
            assert resultant(reduced(a), reduced(b)) % p == 0
    assert resultant(reduced([4]), reduced([7])) % p == 1
    assert resultant(reduced([2, 1]), reduced([5])) % p == 5 % p
    # at p = 3 some nonzero resultants have residue 0
    if p == 3:
        assert zeros > 0


def test_resultant_refuses_leading_zeros():
    for a, b in (([0, 1, 2], [1, 1]), ([1, 1], [0, 1]), ([], [1]), ([1, 2], [])):
        with pytest.raises(ValueError, match="leading coefficient"):
            resultant(a, b)


DOUBLE_PLANE = SurfaceForm({(2, 0, 0, 0): 1})


def pencil_cases():
    """Pencils whose D(0) = 0 (seeds 3080, 2828) or whose D drops degree (507, 900)."""
    yield from (
        random_pencil_instance(random.Random(seed), degree)
        for degree, seed in ((2, 3080), (3, 2828), (2, 507), (3, 900))
    )


def square(g):
    """The surface form g^2."""
    terms = {}
    for m1, c1 in g.terms.items():
        for m2, c2 in g.terms.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            terms[mono] = terms.get(mono, 0) + c1 * c2
    return SurfaceForm(terms)


@pytest.fixture
def resultant_values(monkeypatch):
    """Every value of Res(p, p') the count takes, in the order it takes them."""
    values = []

    def recorded(a, b):
        values.append(resultant(a, b))
        return values[-1]

    monkeypatch.setattr(oracle, "resultant", recorded)
    return values


@pytest.mark.parametrize("prime", [2, 3])
def test_pencil_count_decides_exactly_when_residues_vanish(resultant_values, prime):
    # the count decides on the exact D(lam): on these pencils a nonzero
    # D(lam) it certifies with is 0 mod a tiny prime, where a residue alone
    # could not tell it from a degenerate pencil, and n(n-1) still comes back
    checks._check_pencil_counts()
    resultant_values.clear()
    for f, plane, vertex in pencil_cases():
        assert pencil_tangency_count(f, plane, vertex) == f.degree * (f.degree - 1)
    assert any(value and value % prime == 0 for value in resultant_values)
    with pytest.raises(DegeneratePencil):
        pencil_tangency_count(DOUBLE_PLANE, [0, 0, 1, 0], point(1, 0, 0, 0))


def test_pencil_count_needs_no_determinant_at_the_real_prime(resultant_values):
    # one exact resultant per line and no determinant: the count stops at the
    # first nonzero D(lam), and that value is nonzero mod P = 2^61 - 1 too, so
    # reducing it mod P would decide the same
    assert not hasattr(oracle, "_sylvester_det") and not hasattr(oracle, "_PRIME")
    P = (1 << 61) - 1
    instances = [*pencil_cases(), random_pencil_instance(random.Random(32), 32)]
    for f, plane, vertex in instances:
        resultant_values.clear()
        assert pencil_tangency_count(f, plane, vertex) == f.degree * (f.degree - 1)
        *zeros, last = resultant_values
        assert not any(zeros) and last % P, (f.degree, resultant_values)
    assert instances[-1][0].degree == 32
    # only a degenerate pencil takes D on all n(n-1) + 1 lines
    resultant_values.clear()
    with pytest.raises(DegeneratePencil):
        pencil_tangency_count(DOUBLE_PLANE, [0, 0, 1, 0], point(1, 0, 0, 0))
    assert resultant_values == [0, 0, 0]


def test_pencil_count_proves_a_double_surface_degenerate():
    # every section of a double surface g^2 is a square, so D vanishes on
    # every line the count tries
    g = random_surface_form(random.Random(4), 4)
    double = square(g)
    assert double.degree == 8 and double.value([1, 0, 1, 0]) != 0
    with pytest.raises(DegeneratePencil):
        pencil_tangency_count(double, (1, 2, -1, 3), point(1, 0, 1, 0))


@pytest.mark.parametrize("sign", [1, -1])
def test_line_section_digits_at_their_edge(sign):
    # (s + sign*u)^n: the largest digit is C(n, n/2), and with sign -1 the
    # digits alternate in sign, so both halves of the signed digit range occur
    for n in range(1, 41):
        f = SurfaceForm({(n, 0, 0, 0): 1})
        section = oracle._line_section(f, (1, 0, 0, 0), (sign, 0, 0, 0))
        assert section == [comb(n, i) * sign**i for i in range(n + 1)]
        # (sign*s)^n on the line through V = (sign, 0, 0, 0) and W = (0, 1, 0, 0)
        # reaches the digit bound sum |c| * max(|v| + |w|)^n = 1 exactly
        section = oracle._line_section(f, (sign, 0, 0, 0), (0, 1, 0, 0))
        assert section == [sign**n] + [0] * n


def lagrange(xs, ys):
    """Ascending coefficients of the interpolating polynomial, in Fractions."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, scale = [Fraction(1)], Fraction(yi)
        for j, xj in enumerate(xs):
            if j != i:
                basis = [0] + basis
                for t in range(len(basis) - 1):
                    basis[t] -= xj * basis[t + 1]
                scale /= xi - xj
        coeffs = [c + scale * b for c, b in zip(coeffs, basis)]
    return coeffs


def pencil_discriminant(f, plane, vertex):
    """Ascending integer coefficients of the pencil's tangency discriminant D.

    D(lam), the Sylvester determinant of the section on the line through V
    and W1 + lam*W2, has degree at most n(n-1): its values at lam = 0..n(n-1)
    determine it.  Trailing zero coefficients are trimmed.
    """
    v, w1, w2 = oracle._plane_frame(plane, vertex)
    lams = range(f.degree * (f.degree - 1) + 1)
    values = [
        sylvester_det(oracle._line_section(f, v, [a + lam * b for a, b in zip(w1, w2)]))
        for lam in lams
    ]
    coeffs = lagrange(lams, values)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    assert all(c.denominator == 1 for c in coeffs)
    return tuple(c.numerator for c in coeffs)


def test_line_section_is_the_interpolated_restriction():
    rng = random.Random(517)
    for degree in range(1, 13):
        f = random_surface_form(rng, degree)
        for _ in range(3):
            v = [rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(4)]
            w = [rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(4)]
            v[rng.randrange(4)] = rng.choice((-3, -1, 2))
            values = [f.value([s * a + b for a, b in zip(v, w)]) for s in range(degree + 1)]
            expected = lagrange(range(degree + 1), values)[::-1]
            assert oracle._line_section(f, v, w) == expected


def reference_section(f, v, w):
    """_line_section by its first formula: each monomial's product of powers."""
    n = f.degree
    reach = max(abs(a) + abs(b) for a, b in zip(v, w))
    k = (sum(map(abs, f.terms.values())) * reach**n).bit_length() + 1
    px, py, pz, pw = ([((a << k) + b) ** e for e in range(n + 1)] for a, b in zip(v, w))
    value = sum(c * px[i] * py[j] * pz[l] * pw[m] for (i, j, l, m), c in f.terms.items())
    digits = []
    for _ in range(n + 1):
        digit = value % (1 << k)
        if digit >= 1 << (k - 1):
            digit -= 1 << k
        digits.append(digit)
        value = (value - digit) >> k
    return digits[::-1]


def test_line_section_is_the_reference_formula():
    rng = random.Random(2900)
    for degree in range(1, 13):
        for density in (1.0, 0.15):
            monos = oracle._surface_monomials(degree)
            coeffs = {m: rng.randint(-9, 9) for m in monos if rng.random() < density}
            coeffs[rng.choice(monos)] = rng.choice((-7, 5))
            f = SurfaceForm(coeffs)
            for _ in range(2):
                plane = [rng.randint(-4, 4) for _ in range(3)] + [1]
                vertex = [rng.randint(-3, 3) for _ in range(3)]
                vertex.append(-sum(a * x for a, x in zip(plane, vertex)))
                if not any(vertex):
                    continue
                v, w1, w2 = oracle._plane_frame(plane, vertex)
                for lam in range(degree + 1):
                    w = [a + lam * b for a, b in zip(w1, w2)]
                    assert oracle._line_section(f, v, w) == reference_section(f, v, w)
    # forms whose exponents skip levels of the walk
    skipping = [
        {(7, 0, 0, 0): 3},
        {(0, 0, 0, 7): -2},
        {(2, 1, 3, 1): 5},
        {(3, 4, 0, 0): 1, (3, 1, 3, 0): -2, (3, 0, 0, 4): 3, (0, 7, 0, 0): 4},
        {(1, 5, 1, 0): 2, (1, 5, 0, 1): -1, (1, 2, 4, 0): 6, (1, 2, 0, 4): 1, (1, 0, 0, 6): 9},
        {(0, 5, 2, 0): 1, (0, 3, 0, 4): -8, (0, 0, 7, 0): 2, (0, 0, 1, 6): -3},
        {(7, 0, 0, 0): 1, (0, 0, 0, 7): 1},
        {(4, 3, 0, 0): 2, (2, 0, 5, 0): -5, (0, 0, 3, 4): 1},
    ]
    frames = [
        ((1, 2, -1, 3), (2, -3, 0, 1)),
        ((0, 0, 0, 1), (1, 1, 1, 0)),
        ((-3, 1, 2, 2), (0, 5, -4, 1)),
    ]
    for coeffs in skipping:
        f = SurfaceForm(coeffs)
        for v, w in frames:
            assert oracle._line_section(f, v, w) == reference_section(f, v, w)


def test_value_is_the_sum_of_its_terms():
    rng = random.Random(2901)
    for degree in range(1, 9):
        f = random_surface_form(rng, degree)
        for _ in range(3):
            point = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)]
            x, y, z, w = point
            direct = sum(c * x**i * y**j * z**l * w**m for (i, j, l, m), c in f.terms.items())
            assert f.value(point) == direct
            assert f.value([str(c) for c in point]) == direct
    f = SurfaceForm({(0, 1, 1, 0): 2, (2, 0, 0, 0): 1})
    assert f.value([Fraction(1, 2), Fraction(1, 2), 1, 0]) == Fraction(5, 4)
    assert type(f.value([1, Fraction(3, 4), Fraction(2, 3), 7])) is int
    for bad, shown in (
        ([1, 2], "2: [1, 2]"),
        ([1, "1/2", 3], "3: [1, 1/2, 3]"),
        ([1, 2, 3, 4, 5], "5: [1, 2, 3, 4, 5]"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"4 homogeneous coordinates, not {shown}")):
            f.value(bad)


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
