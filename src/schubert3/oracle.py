"""Exact projective line geometry cross-checking the symbolic counts.

Everything runs over the rationals (or a quadratic extension when a
discriminant is not a perfect square): points and lines carry canonical
integer coordinates, incidence is the polarized Pluecker pairing, and the
four-lines problem is solved by exact kernel computation plus one binary
quadratic.  Tangency counting for pencils restricts the surface to one
line of the pencil at a time, by exact evaluation at n + 1 integer points
and interpolation, and takes the resultant of that integer binary form
with its derivative: a vanishing discriminant is a certified double root,
not a numerical coincidence, and one nonzero Sylvester determinant
certifies the count n(n-1).  Nothing here uses the symbolic rings.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, isqrt, lcm
from operator import mul
import random
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .linalg import bareiss_det, rref

__all__ = [
    "DegeneratePencil",
    "PlueckerLine",
    "ProjectivePoint",
    "QNum",
    "SolutionSet",
    "SurfaceForm",
    "incidence_form",
    "lines_meeting_four",
    "pencil_discriminant",
    "pencil_tangency_count",
    "plucker_from_points",
    "random_four_lines",
    "random_line",
    "random_pencil_instance",
    "random_projective_point",
    "random_surface_form",
]

Rational = Union[int, Fraction]


def _rational(x) -> Rational:
    """Exact value of x: an int when it is integral, otherwise a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class QNum:
    """Exact number a + b*sqrt(d) in a quadratic extension of the rationals.

    d may be negative; nothing here takes real parts.  Arithmetic mixes
    freely with ints and Fractions, and two QNums can combine only when
    their radicands agree.  a and b are ints whenever they are integral.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Rational, b: Rational = 0, d: int = 0) -> None:
        a, b = _rational(a), _rational(b)
        if b == 0:
            d = 0
        if d == 0:
            b = 0
        self.a, self.b, self.d = a, b, int(d)

    def _coerce(self, other) -> "QNum | None":
        if isinstance(other, QNum):
            if self.d and other.d and self.d != other.d:
                raise ValueError("cannot mix different quadratic extensions")
            return other
        if isinstance(other, (int, Fraction)):
            return QNum(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QNum(self.a + other.a, self.b + other.b, self.d or other.d)

    __radd__ = __add__

    def __neg__(self):
        return QNum(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QNum(self.a * other, self.b * other, self.d)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self.d or other.d
        return QNum(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QNum":
        return QNum(self.a, -self.b, self.d)

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.d})"
        if abs(self.b) != 1:
            root = f"{abs(self.b)}*{root}"
        sign = "-" if self.b < 0 else "+"
        if self.a == 0:
            return root if self.b > 0 else f"-{root}"
        return f"{self.a} {sign} {root}"

    def __repr__(self) -> str:
        return f"QNum({self.a!r}, {self.b!r}, {self.d!r})"


def _scaled_to_ints(vec: Sequence[Rational]) -> list[int]:
    """Multiply a vector of ints and Fractions by the lcm of its denominators."""
    denom = lcm(*(x.denominator for x in vec))
    if denom == 1:
        return [x.numerator for x in vec]
    return [x.numerator * (denom // x.denominator) for x in vec]


def _canonical_int_vector(vec: Sequence[Rational]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, first sign positive."""
    ints = _scaled_to_ints(vec)
    content = gcd(*ints)
    if next(v for v in ints if v) < 0:
        content = -content
    return tuple(v // content for v in ints)


def _canonical_qnum_vector(vec: Sequence[QNum]) -> tuple[QNum, ...]:
    """Scale so all a and b are coprime integers, first nonzero (a, b) positive."""
    ints = _scaled_to_ints([x.a for x in vec] + [x.b for x in vec])
    pairs = list(zip(ints[: len(vec)], ints[len(vec) :]))
    content = gcd(*ints)
    # (a, b) < (0, 0) exactly when a < 0, or a == 0 and b < 0
    if next(p for p in pairs if p != (0, 0)) < (0, 0):
        content = -content
    return tuple(QNum(a // content, b // content, x.d) for (a, b), x in zip(pairs, vec))


class ProjectivePoint:
    """Point of projective 3-space with canonical coprime integer coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Rational]) -> None:
        vec = [_rational(x) for x in coords]
        if len(vec) != 4:
            raise ValueError("a projective point has 4 homogeneous coordinates")
        if not any(vec):
            raise ValueError("homogeneous coordinates must not all vanish")
        object.__setattr__(self, "coords", _canonical_int_vector(vec))

    def __setattr__(self, name, value):
        raise AttributeError("ProjectivePoint is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjectivePoint) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"ProjectivePoint({list(self.coords)!r})"

    def __str__(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coords) + "]"


_COORD_NAMES = ("p01", "p02", "p03", "p23", "p31", "p12")


class PlueckerLine:
    """Line of projective 3-space in Pluecker coordinates.

    Coordinates are canonical coprime integers when rational; solutions of
    a four-lines problem with irrational discriminant carry QNum entries
    instead.  Construction rejects vectors off the Pluecker quadric.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Union[Rational, QNum]]) -> None:
        raw = list(coords)
        if len(raw) != 6:
            raise ValueError("a line has 6 Pluecker coordinates")
        if any(isinstance(x, QNum) and x.d for x in raw):
            vec = _canonical_qnum_vector(
                [x if isinstance(x, QNum) else QNum(x) for x in raw]
            )
        else:
            exact = [x.a if isinstance(x, QNum) else _rational(x) for x in raw]
            if not any(exact):
                raise ValueError("Pluecker coordinates must not all vanish")
            vec = _canonical_int_vector(exact)
        object.__setattr__(self, "coords", tuple(vec))
        q = self.quadric_value()
        if q != 0:
            raise ValueError(f"coordinates violate the Pluecker quadric: {q}")

    def __setattr__(self, name, value):
        raise AttributeError("PlueckerLine is immutable")

    def quadric_value(self):
        p01, p02, p03, p23, p31, p12 = self.coords
        return p01 * p23 + p02 * p31 + p03 * p12

    @property
    def is_rational(self) -> bool:
        return all(not isinstance(x, QNum) for x in self.coords)

    def conjugate(self) -> "PlueckerLine":
        return PlueckerLine(
            [x.conjugate() if isinstance(x, QNum) else x for x in self.coords]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, PlueckerLine) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"PlueckerLine({list(self.coords)!r})"

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
    return PlueckerLine(wedge)


def incidence_form(l1: PlueckerLine, l2: PlueckerLine):
    """Polarized quadric pairing; zero exactly when the lines meet."""
    a = l1.coords
    b = l2.coords
    return (
        a[0] * b[3]
        + a[3] * b[0]
        + a[1] * b[4]
        + a[4] * b[1]
        + a[2] * b[5]
        + a[5] * b[2]
    )


class SolutionSet(namedtuple("SolutionSet", "infinite solutions")):
    """Solutions of an incidence problem: a finite weighted list or a family."""

    __slots__ = ()

    def __new__(
        cls, infinite: bool, solutions: tuple[tuple[PlueckerLine, int], ...] = ()
    ) -> "SolutionSet":
        if infinite and solutions:
            raise ValueError("an infinite family carries no solution list")
        if any(mult < 1 for _, mult in solutions):
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


def _rational_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Canonical integer basis of the right kernel, one vector per free column."""
    mat, pivots = rref(rows, ncols)
    # scaling by the lcm of the pivot entries keeps the kernel vectors integral
    common = lcm(*(row[pc] for row, pc in zip(mat, pivots)))
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [0] * ncols
        v[j] = common
        for row, pc in zip(mat, pivots):
            v[pc] = -row[j] * (common // row[pc])
        basis.append(_canonical_int_vector(v))
    return basis


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


def lines_meeting_four(
    l1: PlueckerLine, l2: PlueckerLine, l3: PlueckerLine, l4: PlueckerLine
) -> SolutionSet:
    """All lines meeting four given pairwise distinct lines.

    The four incidence conditions are linear on the quadric; their exact
    rational kernel is intersected with the quadric.  A kernel of dimension
    3 or more, or a kernel pencil lying inside the quadric, gives an
    infinite family; otherwise the binary quadratic has exactly two roots
    counted with multiplicity, possibly conjugate over a square root.
    """
    lines = (l1, l2, l3, l4)
    for i in range(4):
        for j in range(i + 1, 4):
            if lines[i] == lines[j]:
                raise ValueError("the four lines must be pairwise distinct")
    rows = []
    for line in lines:
        p01, p02, p03, p23, p31, p12 = line.coords
        rows.append((p23, p31, p12, p01, p02, p03))
    kernel = _rational_kernel(rows, 6)
    if len(kernel) != 2:
        return SolutionSet.infinite_family()
    va, vb = kernel
    a = _quadric_on(va)
    b = _polar_on(va, vb)
    c = _quadric_on(vb)
    if a == 0 and b == 0 and c == 0:
        return SolutionSet.infinite_family()

    pairs: list[tuple[PlueckerLine, int]]
    if a == 0 and b == 0:
        pairs = [(PlueckerLine(va), 2)]
    elif a == 0:
        second = [-c * x + b * y for x, y in zip(va, vb)]
        pairs = [(PlueckerLine(va), 1), (PlueckerLine(second), 1)]
    else:
        disc = b * b - 4 * a * c
        if disc == 0:
            coords = [-b * x + 2 * a * y for x, y in zip(va, vb)]
            pairs = [(PlueckerLine(coords), 2)]
        else:
            root = isqrt(disc) if disc > 0 else None
            if root is not None and root * root == disc:
                plus = [(-b + root) * x + 2 * a * y for x, y in zip(va, vb)]
                minus = [(-b - root) * x + 2 * a * y for x, y in zip(va, vb)]
                pairs = [(PlueckerLine(plus), 1), (PlueckerLine(minus), 1)]
            else:
                plus = [QNum(-b * x + 2 * a * y, x, disc) for x, y in zip(va, vb)]
                line = PlueckerLine(plus)
                pairs = [(line, 1), (line.conjugate(), 1)]

    for solution, _ in pairs:
        for line in lines:
            if incidence_form(solution, line) != 0:
                raise AssertionError("solver produced a line missing an input line")
    result = SolutionSet.finite(pairs)
    if result.total_multiplicity != 2:
        raise AssertionError("finite solution sets must have total multiplicity 2")
    return result


class SurfaceForm:
    """Homogeneous form of degree n in x, y, z, w with exact coefficients.

    Coefficients are canonicalized to coprime integers with the first
    monomial (in the internal order) positive; surfaces are projective, so
    scaling is immaterial.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, coeffs: Mapping[tuple[int, int, int, int], Rational]) -> None:
        clean: dict[tuple[int, int, int, int], Rational] = {}
        for mono, value in coeffs.items():
            mono = tuple(map(int, mono))
            if len(mono) != 4 or min(mono) < 0:
                raise ValueError(f"bad monomial exponents {mono!r}")
            value = _rational(value)
            if value:
                clean[mono] = clean.get(mono, 0) + value
        clean = {m: c for m, c in clean.items() if c}
        if not clean:
            raise ValueError("a surface form must be nonzero")
        degrees = {sum(m) for m in clean}
        if len(degrees) != 1:
            raise ValueError("a surface form must be homogeneous")
        (degree,) = degrees
        if degree < 1:
            raise ValueError("a surface form must have degree at least 1")
        monos = sorted(clean)
        ints = _canonical_int_vector([clean[m] for m in monos])
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", dict(zip(monos, ints)))

    def __setattr__(self, name, value):
        raise AttributeError("SurfaceForm is immutable")

    def value(self, point: Union[ProjectivePoint, Sequence[Rational]]):
        if isinstance(point, ProjectivePoint):
            coords = point.coords
        else:
            coords = [_rational(x) for x in point]
        x, y, z, w = coords
        total = 0
        for (a, b, c, d), coeff in self.terms.items():
            total += coeff * x**a * y**b * z**c * w**d
        return _rational(total)

    def __eq__(self, other) -> bool:
        return isinstance(other, SurfaceForm) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

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
    kernel = _rational_kernel([dual], 4)
    for i in range(len(kernel)):
        for j in range(i + 1, len(kernel)):
            _, pivots = rref([v, kernel[i], kernel[j]], 4)
            if len(pivots) == 3:
                return v, kernel[i], kernel[j]
    raise ValueError("could not complete the vertex to a basis of the plane")


def _differences(values: Sequence[int]) -> list[int]:
    """Forward differences at 0: entry k is the k-th difference of values at 0."""
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def _interpolate(values: Sequence[int]) -> list[int]:
    """Ascending coefficients of the polynomial taking values[x] at x = 0, 1, ...

    The k-th difference at 0 is k! times the k-th Newton coefficient, so
    the division is exact when the values come from an integer polynomial.
    """
    newton = [d // factorial(k) for k, d in enumerate(_differences(values))]
    # sum_k newton[k] * x (x - 1) ... (x - k + 1), expanded by Horner
    poly: list[int] = []
    for k in range(len(newton) - 1, -1, -1):
        shifted = [0] + poly
        for i, c in enumerate(poly):
            shifted[i] -= k * c
        shifted[0] += newton[k]
        poly = shifted
    return poly


def _line_section(f: SurfaceForm, v: Sequence[int], w: Sequence[int]) -> list[int]:
    """Coefficients p of the section f(s*V + u*W) = sum p[i] s^(n-i) u^i.

    f is evaluated at the integer points s*V + W, s = 0..n, with one table
    of coordinate powers per point; exact interpolation gives p, p[0] = f(V).
    """
    n = f.degree
    values = []
    for s in range(n + 1):
        px, py, pz, pw = (
            list(accumulate([s * a + b] * n, mul, initial=1)) for a, b in zip(v, w)
        )
        values.append(
            sum(c * px[i] * py[j] * pz[k] * pw[l] for (i, j, k, l), c in f.terms.items())
        )
    return _interpolate(values)[::-1]


def _sylvester_det(p: Sequence[int]) -> int:
    """Resultant of the binary form sum p[i] s^(n-i) u^i and its s-derivative."""
    n = len(p) - 1
    dp = [(n - i) * p[i] for i in range(n)]
    size = 2 * n - 1
    matrix = []
    for i in range(n - 1):
        matrix.append([0] * i + list(p) + [0] * (size - i - n - 1))
    for i in range(n):
        matrix.append([0] * i + dp + [0] * (size - i - n))
    return bareiss_det(matrix)


def _pencil_sections(
    f: SurfaceForm,
    plane: Sequence[Rational],
    vertex: Union[ProjectivePoint, Sequence[Rational]],
    count: int,
) -> Iterator[list[int]]:
    """Sections of f on the lines through V and W1 + lam*W2, lam = 0..count-1."""
    v, w1, w2 = _plane_frame(plane, vertex)

    def section(lam: int) -> list[int]:
        return _line_section(f, v, [a + lam * b for a, b in zip(w1, w2)])

    for lam in range(count):
        p = section(lam)
        if p[0] == 0:
            # every section leads with f(V); the restriction to the plane has
            # degree at most n in lam, so n + 1 zero sections make it zero
            if not any(any(section(k)) for k in range(f.degree + 1)):
                raise ValueError("the plane section of the surface is identically zero")
            raise ValueError("the vertex lies on the section curve")
        yield p


def pencil_discriminant(
    f: SurfaceForm,
    plane: Sequence[Rational],
    vertex: Union[ProjectivePoint, Sequence[Rational]],
) -> tuple[int, ...]:
    """Ascending integer coefficients of the tangency discriminant of a pencil.

    Lines in the plane through the vertex are parameterized by lam; the
    surface restricts to each line as a binary form in s whose resultant
    with its own derivative detects tangency.  The discriminant D(lam) has
    integer coefficients and degree at most n(n-1).  Each section
    coefficient has degree at most n in lam: sections on the lines lam = 0..n
    start its difference table, which carries it on to lam = n(n-1) by
    additions alone.  D is sampled there and interpolated exactly.
    """
    n = f.degree
    tables = [_differences(c) for c in zip(*_pencil_sections(f, plane, vertex, n + 1))]
    values = []
    for _ in range(n * (n - 1) + 1):
        values.append(_sylvester_det([t[0] for t in tables]))
        for t in tables:
            for k in range(n):
                t[k] += t[k + 1]
    poly = _interpolate(values)
    while poly and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


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
    The surface is restricted to the lines lam = 0, 1, ... one at a time
    until one section's Sylvester determinant D(lam) is nonzero.  D
    vanishes identically exactly when it vanishes at lam = 0..n(n-1); then
    DegeneratePencil is raised.
    """
    expected = f.degree * (f.degree - 1)
    if any(map(_sylvester_det, _pencil_sections(f, plane, vertex, expected + 1))):
        return expected
    raise DegeneratePencil(
        "the tangency discriminant vanishes identically; the pencil is not generic"
    )


def random_projective_point(rng: random.Random, bound: int = 10) -> ProjectivePoint:
    while True:
        coords = [rng.randint(-bound, bound) for _ in range(4)]
        if any(coords):
            return ProjectivePoint(coords)


def random_line(rng: random.Random, bound: int = 10) -> PlueckerLine:
    while True:
        p = random_projective_point(rng, bound)
        q = random_projective_point(rng, bound)
        if p != q:
            return plucker_from_points(p, q)


def random_four_lines(rng: random.Random, bound: int = 10) -> tuple[PlueckerLine, ...]:
    while True:
        lines = tuple(random_line(rng, bound) for _ in range(4))
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


def random_surface_form(rng: random.Random, degree: int, bound: int = 10) -> SurfaceForm:
    if degree < 1:
        raise ValueError(f"a surface needs degree at least 1, not {degree}")
    monos = _surface_monomials(degree)
    while True:
        coeffs = {m: rng.randint(-bound, bound) for m in monos}
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
        basis = _rational_kernel([_canonical_int_vector(plane)], 4)
        weights = [rng.randint(-3, 3) for _ in basis]
        coords = [sum(w * b[i] for w, b in zip(weights, basis)) for i in range(4)]
        if not any(coords):
            continue
        vertex = ProjectivePoint(coords)
        f = random_surface_form(rng, degree)
        if f.value(vertex) == 0:
            continue
        return f, tuple(plane), vertex
