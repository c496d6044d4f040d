"""Exact projective line geometry cross-checking the symbolic counts.

Everything runs over the rationals (or a quadratic extension when a
discriminant is not a perfect square): points and lines carry canonical
integer coordinates, incidence is the polarized Pluecker pairing, and the
four-lines problem is solved by Cramer's rule on the 4 x 4 minors of the
incidence rows plus one binary quadratic.  Tables built once at import
list the 15 column pairs, the six Laplace terms of each 4 x 4 minor in the
two row pairs' 2 x 2 minors, and the two Cramer vectors of each pivot set.
Every line, given or derived, is built by one core from its integer parts
a and b and radicand d, which it canonicalizes, checks on the quadric and
stores, and it stores nothing else: d is never a square, so x + y*sqrt(d)
vanishes exactly when x and y both do.  A quadratic line's coordinates are
printed from those parts when read.

Tangency counting for pencils restricts the surface to one
line of the pencil at a time, by one Horner walk over the sorted terms of
f at a Kronecker point whose base-2^k digits are the integer binary form,
and takes the resultant of that form with its derivative over the
integers, by the subresultant remainder sequence (`resultant`): a
vanishing discriminant is a certified double root, not a numerical
coincidence, and the first nonzero one certifies the count n(n-1).  The
discriminant is never expanded in the pencil parameter: the count needs
only one of its values.  Nothing here imports from the rest of the
package, so the symbolic rings and this check share no routine.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, combinations, repeat
from math import gcd, isqrt, lcm
from operator import mul
import random
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "DegeneratePencil",
    "PlueckerLine",
    "ProjectivePoint",
    "RANDOM_BOUND",
    "SolutionSet",
    "SurfaceForm",
    "incidence_form",
    "lines_meeting_four",
    "pencil_tangency_count",
    "plucker_from_points",
    "random_four_lines",
    "random_line",
    "random_pencil_instance",
    "random_projective_point",
    "random_surface_form",
    "resultant",
]

Rational = Union[int, Fraction]


def _rational(x) -> Rational:
    """Exact value of x: an int when it is integral, otherwise a Fraction.

    bool and float are refused: True is not a coordinate, and 0.1 is not 1/10.
    So is anything Fraction cannot read, such as None or "1 + sqrt(2)".
    """
    if type(x) is int:
        return x
    if isinstance(x, (bool, float)):
        raise ValueError(f"not an exact number: {x!r}")
    try:
        x = Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact number: {x!r}") from None
    return x.numerator if x.denominator == 1 else x


def _surd(x: int, y: int, d: int) -> str:
    """x + y*sqrt(d) as printed: "x", "x + y*sqrt(d)", "-sqrt(d)", ...; no "1*"."""
    if not y:
        return str(x)
    root = f"sqrt({d})" if abs(y) == 1 else f"{abs(y)}*sqrt({d})"
    if not x:
        return root if y > 0 else f"-{root}"
    return f"{x} {'-' if y < 0 else '+'} {root}"


def _wrong_count(expected: str, vec: Sequence) -> ValueError:
    """Refusal of a coordinate list of the wrong length, naming its count and entries."""
    return ValueError(f"{expected}, not {len(vec)}: [{', '.join(map(str, vec))}]")


def _canonical_int_vector(vec: Sequence[Rational]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, first sign positive."""
    ints = vec
    for x in vec:
        if type(x) is not int:  # an all-int vector has no denominators to clear
            denom = lcm(*{y.denominator for y in vec})
            ints = [y.numerator * (denom // y.denominator) for y in vec]
            break
    content = gcd(*ints)
    if next(filter(None, ints)) < 0:
        content = -content
    return tuple(ints) if content == 1 else tuple(v // content for v in ints)


class ProjectivePoint:
    """Point of projective 3-space with canonical coprime integer coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Rational]) -> None:
        vec = [_rational(x) for x in coords]
        if len(vec) != 4:
            raise _wrong_count("a projective point has 4 homogeneous coordinates", vec)
        if not any(vec):
            raise ValueError("homogeneous coordinates must not all vanish")
        object.__setattr__(self, "coords", _canonical_int_vector(vec))

    def __setattr__(self, name, value):
        raise AttributeError("ProjectivePoint is immutable")

    def __reduce__(self):
        return ProjectivePoint, (self.coords,)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjectivePoint) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"ProjectivePoint({list(self.coords)!r})"

    def __str__(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coords) + "]"


_COORD_NAMES = ("p01", "p02", "p03", "p23", "p31", "p12")
# the b part of a rational line
_NO_PARTS = (0,) * 6


def _quadric_on(vec: Sequence[int]) -> int:
    return vec[0] * vec[3] + vec[1] * vec[4] + vec[2] * vec[5]


def _polar_on(u: Sequence[int], v: Sequence[int]) -> int:
    return (
        u[0] * v[3]
        + u[3] * v[0]
        + u[1] * v[4]
        + u[4] * v[1]
        + u[2] * v[5]
        + u[5] * v[2]
    )


class PlueckerLine:
    """Line of projective 3-space in Pluecker coordinates.

    A line stores only its parts (a, b, d): the line a + b*sqrt(d) for
    integer vectors a and b and an int radicand d that is never a square
    (d = 0 and b = 0 for a rational line).  One core, `_set_parts`, builds
    every line: it scales the interleaved vector a0, b0, a1, b1, ... to
    coprime integers, first nonzero entry positive, and rejects parts off
    the Pluecker quadric (Q(a) + d*Q(b) and polar(a, b) must both vanish,
    exact since sqrt(d) is irrational).  `PlueckerLine(coords)` takes six
    rationals and `quadratic(a, b, d)` a quadratic line's parts; both
    validate input and end in that core.  `coords` is printed on read: the
    ints of a rational line, or the entries of a quadratic one as strings.
    Equality reads the parts, so a line spelled over sqrt(8) never equals
    one spelled over 2*sqrt(2): no radicand is factored.
    """

    __slots__ = ("_parts",)

    def __init__(self, coords: Iterable[Rational]) -> None:
        raw = list(coords)
        if len(raw) != 6:
            raise _wrong_count("a line has 6 Pluecker coordinates", raw)
        exact = [_rational(x) for x in raw]
        if not any(exact):
            raise ValueError("Pluecker coordinates must not all vanish")
        self._set_parts(exact, _NO_PARTS, 0)

    @classmethod
    def quadratic(cls, a: Iterable[Rational], b: Iterable[Rational], d: int) -> PlueckerLine:
        """The line a + b*sqrt(d); a square d folds into a, and d = 0 or b = 0 gives a."""
        a, b = [_rational(x) for x in a], [_rational(y) for y in b]
        if len(a) != 6 or len(b) != 6:
            raise _wrong_count("a line has 6 Pluecker coordinates", a if len(a) != 6 else b)
        if type(d) is not int:
            raise ValueError(f"a radicand is an int, not {d!r}")
        if d > 0 and isqrt(d) ** 2 == d:
            a, d = [x + y * isqrt(d) for x, y in zip(a, b)], 0
        if not d or not any(b):
            return cls(a)
        return cls._from_parts(a, b, d)

    @classmethod
    def _from_parts(
        cls, a: Sequence[int], b: Sequence[int] = _NO_PARTS, d: int = 0
    ) -> PlueckerLine:
        line = object.__new__(cls)
        line._set_parts(a, b, d)
        return line

    def _set_parts(self, a: Sequence[Rational], b: Sequence[Rational], d: int) -> None:
        """Store the line a + b*sqrt(d), not all zero; d is 0 (b unused) or not a square.

        The parts are scaled to coprime integers with the first nonzero
        interleaved entry positive, so a conjugate's sign is fixed here too.
        """
        if d:
            # a0, b0, a1, b1, ...: its first nonzero entry is positive exactly
            # when the first nonzero (a, b) pair is
            ints = _canonical_int_vector([c for pair in zip(a, b) for c in pair])
            a, b = ints[::2], ints[1::2]
            # sqrt(d) is irrational, so Q(a + b*sqrt(d)) splits into two integers
            q, r = _quadric_on(a) + d * _quadric_on(b), _polar_on(a, b)
        else:
            a = _canonical_int_vector(a)
            b, q, r = _NO_PARTS, _quadric_on(a), 0
        if q or r:
            raise ValueError(f"coordinates violate the Pluecker quadric: {_surd(q, r, d)}")
        object.__setattr__(self, "_parts", (a, b, d))

    def __setattr__(self, name, value):
        raise AttributeError("PlueckerLine is immutable")

    def __reduce__(self):
        return PlueckerLine._from_parts, self._parts

    @property
    def coords(self) -> tuple:
        """The canonical ints of a rational line; the printed entries of a quadratic one."""
        a, b, d = self._parts
        return a if not d else tuple(map(_surd, a, b, repeat(d)))

    @property
    def is_rational(self) -> bool:
        return not self._parts[2]

    def conjugate(self) -> "PlueckerLine":
        """The line a - b*sqrt(d); the core moves the sign when b leads."""
        a, b, d = self._parts
        return self if not d else PlueckerLine._from_parts(a, [-y for y in b], d)

    def __eq__(self, other) -> bool:
        return isinstance(other, PlueckerLine) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        a, b, d = self._parts
        if not d:
            return f"PlueckerLine({list(a)!r})"
        return f"PlueckerLine.quadratic({list(a)!r}, {list(b)!r}, {d!r})"

    def __str__(self) -> str:
        body = ", ".join(f"{n}={c}" for n, c in zip(_COORD_NAMES, self.coords))
        return f"({body})"


def plucker_from_points(p: ProjectivePoint, q: ProjectivePoint) -> PlueckerLine:
    """Line spanned by two distinct points, as canonical wedge coordinates."""
    x, y = p.coords, q.coords
    pairs = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
    wedge = [x[i] * y[j] - x[j] * y[i] for i, j in pairs]
    if not any(wedge):
        raise ValueError("coincident points span no line")
    return PlueckerLine._from_parts(wedge)


def incidence_form(l1: PlueckerLine, l2: PlueckerLine):
    """Polarized quadric pairing; zero exactly when the lines meet.

    An int for two rational lines; otherwise a1 + b1*sqrt(d) and a2 + b2*sqrt(d)
    pair to x + y*sqrt(d) with x = polar(a1, a2) + d*polar(b1, b2) and
    y = polar(a1, b2) + polar(b1, a2), returned as the int pair (x, y); the
    lines meet exactly when it is (0, 0).
    """
    (a1, b1, d1), (a2, b2, d2) = l1._parts, l2._parts
    if not (d1 or d2):
        return _polar_on(a1, a2)
    if d1 and d2 and d1 != d2:
        raise ValueError("cannot mix different quadratic extensions")
    d = d1 or d2
    return _polar_on(a1, a2) + d * _polar_on(b1, b2), _polar_on(a1, b2) + _polar_on(b1, a2)


class SolutionSet(namedtuple("SolutionSet", "infinite solutions")):
    """Solutions of an incidence problem: a finite weighted list or a family."""

    __slots__ = ()

    def __new__(
        cls, infinite: bool, solutions: tuple[tuple[PlueckerLine, int], ...] = ()
    ) -> "SolutionSet":
        if infinite and solutions:
            raise ValueError("an infinite family carries no solution list")
        for line, mult in solutions:
            if not isinstance(line, PlueckerLine):
                raise ValueError(f"a solution is a PlueckerLine, not {line!r}")
            if type(mult) is not int:
                raise ValueError(f"a multiplicity is an int, not {mult!r}")
            if mult < 1:
                raise ValueError("multiplicities must be positive")
        return tuple.__new__(cls, (infinite, solutions))

    @classmethod
    def infinite_family(cls) -> "SolutionSet":
        return cls(infinite=True)

    @classmethod
    def finite(cls, pairs: Iterable[tuple[PlueckerLine, int]]) -> "SolutionSet":
        return cls(infinite=False, solutions=tuple(pairs))

    @property
    def total_multiplicity(self) -> int:
        return sum(mult for _, mult in self.solutions)


# Tables of the four-lines kernel, built once.  A 2 x 2 minor of two rows
# is the entry of its column pair's index in _PAIRS, so the minors of rows
# {0, 1} and of rows {2, 3} are two flat lists.
_PAIRS = tuple(combinations(range(6), 2))


def _laplace_terms(cols: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """(top index, low index, sign) terms of the 4 x 4 minor on cols.

    The Laplace expansion along rows {0, 1}: columns cols[p], cols[q] of the
    top minor, the complementary two of the low one, sign (-1)^(p + q + 1).
    """
    terms = []
    for p, q in combinations(range(4), 2):
        rest = tuple(c for k, c in enumerate(cols) if k not in (p, q))
        terms.append((_PAIRS.index((cols[p], cols[q])), _PAIRS.index(rest), (-1) ** (p + q + 1)))
    return tuple(terms)


_MINOR_TERMS = {cols: _laplace_terms(cols) for cols in combinations(range(6), 4)}
# each 4-column set in combinations(range(6), 4) order: its minor's terms
# and, per free column j ascending, the Cramer vector over U = sorted(T + (j,))
# as (U[k], (-1)^k, terms of the minor on U without U[k])
_PIVOT_SETS = tuple(
    (
        terms,
        tuple(
            tuple((u[k], (-1) ** k, _MINOR_TERMS[u[:k] + u[k + 1 :]]) for k in range(5))
            for u in (tuple(sorted(cols + (j,))) for j in range(6) if j not in cols)
        ),
    )
    for cols, terms in _MINOR_TERMS.items()
)


def _laplace(terms: Sequence[tuple[int, int, int]], top: list[int], low: list[int]) -> int:
    """The 4 x 4 minor whose Laplace terms are given, from the two rows' 2 x 2 minors."""
    minor = 0
    for t, u, sign in terms:
        minor += sign * top[t] * low[u]
    return minor


def _four_lines_kernel(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Canonical integer kernel basis of a 4 x 6 matrix of rank 4, by Cramer's rule.

    The 2 x 2 minors of rows {0, 1} and {2, 3} are two flat lists over
    _PAIRS, and each 4 x 4 minor is the six-term Laplace expansion that
    _PIVOT_SETS lists for its columns.  The pivot columns T are the first
    column set, in lexicographic order, with a nonzero 4 x 4 minor, as in
    the reduced row echelon form.  Each free column j gives
    U = sorted(T + (j,)) and the generalized cross product
    v[U[k]] = (-1)^k minor(U without U[k]), which annihilates every row and
    vanishes on the other free column; the table holds both vectors of each
    pivot set.  Empty below rank 4.
    """
    r0, r1, r2, r3 = rows
    top = [r0[i] * r1[j] - r0[j] * r1[i] for i, j in _PAIRS]
    low = [r2[i] * r3[j] - r2[j] * r3[i] for i, j in _PAIRS]
    for terms, vectors in _PIVOT_SETS:
        if _laplace(terms, top, low):
            break
    else:
        return []
    basis = []
    for entries in vectors:
        v = [0] * 6
        for col, sign, terms in entries:
            v[col] = sign * _laplace(terms, top, low)
        basis.append(_canonical_int_vector(v))
    return basis


def _plane_kernel(dual: Sequence[int]) -> list[tuple[int, ...]]:
    """Canonical basis dual[p]*e_j - dual[j]*e_p, j != p ascending, of the plane dual.x = 0.

    p is the first column where dual is nonzero, so each vector is zero on
    the other free columns.
    """
    p = next(j for j, x in enumerate(dual) if x)
    return [
        _canonical_int_vector([dual[p] if i == j else -dual[j] if i == p else 0 for i in range(4)])
        for j in range(4)
        if j != p
    ]


def lines_meeting_four(
    l1: PlueckerLine, l2: PlueckerLine, l3: PlueckerLine, l4: PlueckerLine
) -> SolutionSet:
    """All lines meeting four given pairwise distinct rational lines.

    The four incidence conditions are linear on the quadric; their exact
    rational kernel is intersected with the quadric.  A kernel of dimension
    3 or more, or a kernel pencil lying inside the quadric, gives an
    infinite family; otherwise the binary quadratic has exactly two roots
    counted with multiplicity, possibly conjugate over a square root.
    Each returned line a + b*sqrt(d) is checked on its integer parts: it
    meets an input exactly when a and b both do, since a stored d is never
    a square.
    """
    lines = (l1, l2, l3, l4)
    for line in lines:
        if not line.is_rational:
            raise ValueError(f"the four-lines solver takes rational lines, not {line}")
    if len(set(lines)) < 4:
        raise ValueError("the four lines must be pairwise distinct")
    # the pairing with a line is the dot product with its swapped halves
    given = [line._parts[0] for line in lines]
    rows = [v[3:] + v[:3] for v in given]
    kernel = _four_lines_kernel(rows)
    if len(kernel) != 2:
        return SolutionSet.infinite_family()
    va, vb = kernel
    a = _quadric_on(va)
    b = _polar_on(va, vb)
    c = _quadric_on(vb)
    if a == 0 and b == 0 and c == 0:
        return SolutionSet.infinite_family()

    line_of = PlueckerLine._from_parts
    pairs: list[tuple[PlueckerLine, int]]
    if a == 0 and b == 0:
        pairs = [(line_of(va), 2)]
    elif a == 0:
        second = [-c * x + b * y for x, y in zip(va, vb)]
        pairs = [(line_of(va), 1), (line_of(second), 1)]
    else:
        disc = b * b - 4 * a * c
        if disc == 0:
            coords = [-b * x + 2 * a * y for x, y in zip(va, vb)]
            pairs = [(line_of(coords), 2)]
        else:
            root = isqrt(disc) if disc > 0 else None
            if root is not None and root * root == disc:
                plus = [(-b + root) * x + 2 * a * y for x, y in zip(va, vb)]
                minus = [(-b - root) * x + 2 * a * y for x, y in zip(va, vb)]
                pairs = [(line_of(plus), 1), (line_of(minus), 1)]
            else:
                # (-b + sqrt(disc))*va + 2a*vb, and disc is not a square
                plus = [-b * x + 2 * a * y for x, y in zip(va, vb)]
                line = line_of(plus, va, disc)
                pairs = [(line, 1), (line.conjugate(), 1)]

    for solution, _ in pairs:
        parts = solution._parts[:2]
        if any(_polar_on(part, x) for part in parts for x in given):
            raise AssertionError("solver produced a line missing an input line")
    result = SolutionSet.finite(pairs)
    if result.total_multiplicity != 2:
        raise AssertionError("finite solution sets must have total multiplicity 2")
    return result


class SurfaceForm:
    """Homogeneous form of degree n in x, y, z, w with exact coefficients.

    Coefficients are coprime integers, the first positive (surfaces are
    projective, so scaling is immaterial), and `terms` runs in ascending
    lex order, which the Horner walk `_horner` relies on.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, coeffs: Mapping[tuple[int, int, int, int], Rational]) -> None:
        clean: dict[tuple[int, int, int, int], Rational] = {}
        for mono, value in coeffs.items():
            if type(mono) is not tuple:
                mono = tuple(mono)
            if len(mono) != 4 or not (
                type(mono[0]) is type(mono[1]) is type(mono[2]) is type(mono[3]) is int
            ) or min(mono) < 0:
                raise ValueError(f"bad monomial exponents {mono!r}")
            if type(value) is not int:
                value = _rational(value)
            if value and mono in clean:  # keys equal after tuple(); a zero sum drops out
                value += clean.pop(mono)
            if value:
                clean[mono] = value
        if not clean:
            raise ValueError("a surface form must be nonzero")
        monos = sorted(clean)
        degrees = set(map(sum, monos))
        if len(degrees) != 1:
            raise ValueError("a surface form must be homogeneous")
        (degree,) = degrees
        if degree < 1:
            raise ValueError("a surface form must have degree at least 1")
        ints = _canonical_int_vector([clean[m] for m in monos])
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", dict(zip(monos, ints)))

    def __setattr__(self, name, value):
        raise AttributeError("SurfaceForm is immutable")

    def __reduce__(self):
        return SurfaceForm, (self.terms,)

    def value(self, point: Union[ProjectivePoint, Sequence[Rational]]):
        coords = point.coords if isinstance(point, ProjectivePoint) else [*map(_rational, point)]
        if len(coords) != 4:
            raise _wrong_count("a projective point has 4 homogeneous coordinates", coords)
        return _rational(_horner(self, coords))

    def __eq__(self, other) -> bool:
        return isinstance(other, SurfaceForm) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(self.terms.items()))

    def __repr__(self) -> str:
        return f"SurfaceForm({self.terms!r})"


class DegeneratePencil(ValueError):
    """The tangency discriminant vanishes identically; the configuration is special."""


def _plane_frame(
    plane: Sequence[Rational], vertex: Union[ProjectivePoint, Sequence[Rational]]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Integer basis (V, W1, W2) of a plane through the given vertex."""
    dual = [_rational(x) for x in plane]
    if len(dual) != 4 or not any(dual):
        raise ValueError("a plane needs 4 dual coordinates, not all zero")
    dual = _canonical_int_vector(dual)
    point = vertex if isinstance(vertex, ProjectivePoint) else ProjectivePoint(vertex)
    v = point.coords
    if sum(d * x for d, x in zip(dual, v)) != 0:
        raise ValueError("the vertex must lie on the plane")
    # one kernel vector dual[p]*e_j - dual[j]*e_p per free column j, zero on
    # the other free columns; V lies on the plane, so it is nonzero on some
    # free column, and dropping the kernel vector of the last such column
    # leaves a completion of V
    kernel = _plane_kernel(dual)
    pivot = next(j for j, x in enumerate(dual) if x)
    free = [j for j in range(4) if j != pivot]
    drop = max(i for i, col in enumerate(free) if v[col])
    w1, w2 = kernel[:drop] + kernel[drop + 1 :]
    return v, w1, w2


def _horner(f: SurfaceForm, coords: Sequence[Rational]) -> Rational:
    """f at coords, by a Horner walk over the sorted terms of f.

    Reversed, the terms visit x's exponent i, then y's j, then z's l in
    descending order, and the terms walked so far sum to
    (ax + (ay + az*z^cl)*y^cj)*x^ci.  A term adds c*w^m to az, and a change
    of l, j or i folds one level into the next by the power of the gap.
    """
    px, py, pz, pw = (list(accumulate([x] * f.degree, mul, initial=1)) for x in coords)
    ci, cj, cl, _ = next(reversed(f.terms))
    ax = ay = az = 0
    for (i, j, l, m), c in reversed(f.terms.items()):
        if i != ci:
            ax = (ax + (ay + az * pz[cl]) * py[cj]) * px[ci - i]
            ay = az = 0
        elif j != cj:
            ay = (ay + az * pz[cl]) * py[cj - j]
            az = 0
        else:
            az *= pz[cl - l]
        az += c * pw[m]
        ci, cj, cl = i, j, l
    return (ax + (ay + az * pz[cl]) * py[cj]) * px[ci]


def _line_section(f: SurfaceForm, v: Sequence[int], w: Sequence[int]) -> list[int]:
    """Coefficients p of the section f(s*V + u*W) = sum p[i] s^(n-i) u^i.

    Kronecker substitution: f(s*V + W) = sum p[n-j] s^j, and every
    coefficient obeys |p[i]| <= B = sum |c| * max_x(|v_x| + |w_x|)^n, over
    the coefficients c of f and the coordinates x, because the l1 norm of
    the product of the (v_x s + w_x)^e_x in a monomial is at most the
    product of the (|v_x| + |w_x|)^e_x.  With 2^(k-1) > B the coefficients
    are the n + 1 signed base-2^k digits of the one integer f(2^k V + W),
    read from the lowest; p[0] = f(V).  That integer is one Horner walk
    over the sorted terms of f (`_horner`).
    """
    n = f.degree
    reach = max(abs(a) + abs(b) for a, b in zip(v, w))
    k = (sum(map(abs, f.terms.values())) * reach**n).bit_length() + 1
    value = _horner(f, [(a << k) + b for a, b in zip(v, w)])
    mask, half = (1 << k) - 1, 1 << (k - 1)
    digits = []
    for _ in range(n + 1):
        digit = value & mask
        if digit >= half:
            digit -= 1 << k
        digits.append(digit)
        value = (value - digit) >> k
    return digits[::-1]


def resultant(a: Sequence[int], b: Sequence[int]) -> int:
    """Resultant of two integer polynomials: the determinant of their Sylvester matrix.

    a and b are descending coefficient lists with nonzero leading
    coefficients.  The subresultant remainder sequence (Collins 1967;
    Brown-Traub 1971; Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 3.3.7) replaces each a by the pseudo-remainder of a by b,
    divided exactly by g*h^delta, which keeps every entry the size of a
    subresultant.  Res(a, b) = (-1)^(deg a deg b) Res(b, a), a zero
    remainder means a common factor and resultant 0, and the last step
    reads the resultant off the leading coefficient of the constant b.
    """
    if not a or not b or not a[0] or not b[0]:
        raise ValueError("both polynomials need a nonzero leading coefficient")
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -1
    g = h = 1
    while len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        delta = m - n
        if m * n % 2:
            sign = -sign
        # pseudo-remainder: b[0]^(delta+1) * a mod b
        lead, tail = b[0], b[1:]
        r = list(a)
        for _ in range(delta + 1):
            q = r[0]
            r = [lead * x - q * y for x, y in zip(r[1:], tail)] + [lead * x for x in r[n + 1 :]]
        top = next((i for i, c in enumerate(r) if c), None)
        if top is None:
            return 0
        divisor = g * h**delta
        a, b = b, [c // divisor for c in r[top:]]
        g = a[0]
        # h^(1 - delta) * g^delta, written so that delta = 0 stays integral
        h = g**delta * h // h**delta
    m = len(a) - 1
    return sign * (b[0] ** m * h // h**m)


def pencil_tangency_count(
    f: SurfaceForm,
    plane: Sequence[Rational],
    vertex: Union[ProjectivePoint, Sequence[Rational]],
) -> int:
    """Tangent lines to the plane section among lines through the vertex.

    Counts tangent lines with multiplicity as the roots of the tangency
    discriminant D, of degree at most n(n-1) in the pencil parameter lam.
    Homogenized to degree n(n-1), D has exactly n(n-1) roots whenever it
    is not identically zero, which a single nonzero value D(lam) certifies.
    D(lam) is the resultant of the section p on the line lam and its
    derivative p', taken exactly over Z.  The count restricts f to the lines
    lam = 0, 1, ... one at a time and returns at the first nonzero D(lam).
    D vanishes identically exactly when it vanishes at lam = 0..n(n-1); then
    DegeneratePencil is raised.
    The lines run through V and W1 + lam*W2 for the frame (V, W1, W2) of the
    plane, and a vertex on the surface is refused.
    """
    n = f.degree
    expected = n * (n - 1)
    v, w1, w2 = _plane_frame(plane, vertex)

    def section(lam: int) -> list[int]:
        return _line_section(f, v, [a + lam * b for a, b in zip(w1, w2)])

    for lam in range(expected + 1):
        p = section(lam)
        if p[0] == 0:
            # every section leads with f(V); the restriction to the plane has
            # degree at most n in lam, so n + 1 zero sections make it zero
            if not any(any(section(k)) for k in range(n + 1)):
                raise ValueError("the plane section of the surface is identically zero")
            raise ValueError("the vertex lies on the section curve")
        # p' leads with n*f(V), so both leading coefficients are nonzero
        if resultant(p, [(n - i) * c for i, c in enumerate(p[:-1])]):
            return expected
    raise DegeneratePencil(
        "the tangency discriminant vanishes identically; the pencil is not generic"
    )


# Largest absolute value of a random coordinate or surface coefficient.
RANDOM_BOUND = 10


def random_projective_point(rng: random.Random) -> ProjectivePoint:
    while True:
        coords = [rng.randint(-RANDOM_BOUND, RANDOM_BOUND) for _ in range(4)]
        if any(coords):
            return ProjectivePoint(coords)


def random_line(rng: random.Random) -> PlueckerLine:
    while True:
        p = random_projective_point(rng)
        q = random_projective_point(rng)
        if p != q:
            return plucker_from_points(p, q)


def random_four_lines(rng: random.Random) -> tuple[PlueckerLine, ...]:
    while True:
        lines = tuple(random_line(rng) for _ in range(4))
        if len(set(lines)) == 4:
            return lines


def _surface_monomials(degree: int) -> list[tuple[int, int, int, int]]:
    """Exponent vectors of the given degree in x, y, z, w, descending lex order."""
    return [
        (a, b, c, degree - a - b - c)
        for a in range(degree, -1, -1)
        for b in range(degree - a, -1, -1)
        for c in range(degree - a - b, -1, -1)
    ]


def random_surface_form(rng: random.Random, degree: int) -> SurfaceForm:
    if degree < 1:
        raise ValueError(f"a surface needs degree at least 1, not {degree}")
    monos = _surface_monomials(degree)
    while True:
        coeffs = {m: rng.randint(-RANDOM_BOUND, RANDOM_BOUND) for m in monos}
        if any(coeffs.values()):
            return SurfaceForm(coeffs)


def random_pencil_instance(
    rng: random.Random, degree: int
) -> tuple[SurfaceForm, tuple[int, ...], ProjectivePoint]:
    """Surface, plane and on-plane vertex with the preconditions satisfied."""
    while True:
        plane = [rng.randint(-5, 5) for _ in range(4)]
        if not any(plane):
            continue
        basis = _plane_kernel(plane)
        weights = [rng.randint(-3, 3) for _ in basis]
        coords = [sum(w * b[i] for w, b in zip(weights, basis)) for i in range(4)]
        if not any(coords):
            continue
        vertex = ProjectivePoint(coords)
        f = random_surface_form(rng, degree)
        if f.value(vertex) == 0:
            continue
        return f, tuple(plane), vertex
