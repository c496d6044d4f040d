"""Plain exact references the tests recompute against: stdlib only.

Rational elimination, canonical integer vectors, a fraction-free
determinant, the graded ideal slice, integer ideal membership, the
Pluecker quadric and pairing over Q(sqrt(d)) and a reader of printed
coordinates a + b*sqrt(d), written the straightforward
way over Fractions, ints, (a, b) pairs and plain {exponents: coefficient}
dicts.  Nothing here imports schubert3, so a bug in the
package's linear algebra or rings cannot agree with itself here.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm
import re


def rref(rows, ncols):
    """Reduced row echelon form over Q: the nonzero rows and their pivot columns."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        lead = mat[r][col]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def rank(rows):
    """Rank over Q: the number of pivots."""
    return len(rref(rows, len(rows[0]) if rows else 0)[1])


def canonical_int_vector(vec):
    """A nonzero rational vector scaled to coprime integers, first nonzero entry positive."""
    fracs = [Fraction(x) for x in vec]
    denom = lcm(*(x.denominator for x in fracs))
    ints = [int(x * denom) for x in fracs]
    sign = 1 if next(v for v in ints if v) > 0 else -1
    content = gcd(*ints)
    return tuple(sign * v // content for v in ints)


def surd_add(x, y):
    """Sum of two numbers of Q(sqrt(d)), each an (a, b) pair for a + b*sqrt(d)."""
    return x[0] + y[0], x[1] + y[1]


def surd_sub(x, y):
    """Difference of two (a, b) pairs of Q(sqrt(d))."""
    return x[0] - y[0], x[1] - y[1]


def surd_mul(x, y, d):
    """Product of two (a, b) pairs of Q(sqrt(d)): sqrt(d)*sqrt(d) = d."""
    (a, b), (c, e) = x, y
    return a * c + b * e * d, a * e + b * c


def surd_pairing(u, v, d):
    """Pluecker pairing of two 6-vectors of (a, b) pairs, as an (a, b) pair.

    u01*v23 + u02*v31 + u03*v12 + u23*v01 + u31*v02 + u12*v03, one product
    at a time.
    """
    total = (0, 0)
    for i, j in ((0, 3), (1, 4), (2, 5), (3, 0), (4, 1), (5, 2)):
        total = surd_add(total, surd_mul(u[i], v[j], d))
    return total


def surd_quadric(u, d):
    """Pluecker quadric u01*u23 + u02*u31 + u03*u12 of a 6-vector of (a, b) pairs."""
    total = (0, 0)
    for i, j in ((0, 3), (1, 4), (2, 5)):
        total = surd_add(total, surd_mul(u[i], u[j], d))
    return total


_RATIONAL = re.compile(r"-?\d+(?:/\d+)?")
_SURD = re.compile(r"(?:(-?\d+(?:/\d+)?) ([+-]) |(-))?(?:(\d+(?:/\d+)?)\*)?sqrt\((-?\d+)\)")


def read_surd(text):
    """(a, b, d) for the value a + b*sqrt(d) of a printed coordinate.

    text is an int, "p/q", or "a + b*sqrt(d)" with the rational part, the
    sign and the factor b optional, as in "-sqrt(-11)" and "2*sqrt(5)".
    A rational coordinate reads as (a, 0, 0).
    """
    if isinstance(text, int) or _RATIONAL.fullmatch(text):
        return Fraction(text), Fraction(0), 0
    match = _SURD.fullmatch(text)
    if match is None:
        raise ValueError(f"not a printed coordinate: {text!r}")
    a, sign, minus, b, d = match.groups()
    b = Fraction(b or 1)
    return Fraction(a or 0), -b if sign == "-" or minus else b, int(d)


def read_surd_line(coords):
    """A printed line's (a, b) pairs and its one radicand d, 0 when every entry is rational."""
    parsed = [read_surd(c) for c in coords]
    radicands = {d for _, _, d in parsed if d}
    if len(radicands) > 1:
        raise ValueError(f"a line over two radicands: {coords!r}")
    return [(a, b) for a, b, _ in parsed], next(iter(radicands), 0)


def reduce_vector(vec, rows, pivots):
    """vec minus the combination of rref rows that clears its pivot entries."""
    out = [Fraction(x) for x in vec]
    for row, col in zip(rows, pivots):
        f = out[col]
        if f:
            out = [a - f * b for a, b in zip(out, row)]
    return out


def bareiss_det(matrix):
    """Fraction-free determinant of a square integer matrix (Bareiss 1968)."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def monomials(degrees, d):
    """All exponent vectors of weighted degree d, descending lex."""
    if d < 0:
        return []
    ranges = [range(d // g + 1) for g in degrees]
    out = [m for m in product(*ranges) if sum(e * g for e, g in zip(m, degrees)) == d]
    out.sort(reverse=True)
    return out


def ideal_slice(degrees, relations, d):
    """Degree-d monomials, and the degree-d monomial multiples of each relation as rows.

    relations: homogeneous {exponents: coefficient} dicts; a zero one adds no row.
    """
    monos = monomials(degrees, d)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for rel in filter(None, relations):
        rel_deg = sum(e * g for e, g in zip(next(iter(rel)), degrees))
        for mult in monomials(degrees, d - rel_deg):
            vec = [0] * len(monos)
            for m, c in rel.items():
                vec[index[tuple(a + b for a, b in zip(mult, m))]] += c
            rows.append(vec)
    return monos, rows


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    if not b:
        return abs(a), -1 if a < 0 else 1, 0
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


def hermite_echelon(rows, ncols):
    """Integer row echelon form spanning the same lattice over Z, as (pivot column, row).

    Each step replaces the pivot row p and a row r by x*p + y*r and
    a*r - b*p, where g = x*p[col] + y*r[col] is the gcd of their entries and
    a, b are those entries over g.  The change has determinant x*a + y*b = 1,
    so it keeps the lattice, and r's entry becomes 0.  Pivots are positive.
    """
    work = [list(row) for row in rows if any(row)]
    echelon = []
    for col in range(ncols):
        live = [row for row in work if row[col]]
        if not live:
            continue
        pivot, rest = live[0], [row for row in work if not row[col]]
        for row in live[1:]:
            g, x, y = _xgcd(pivot[col], row[col])
            a, b = pivot[col] // g, row[col] // g
            pivot, row = (
                [x * p + y * q for p, q in zip(pivot, row)],
                [a * q - b * p for p, q in zip(pivot, row)],
            )
            if any(row):
                rest.append(row)
        if pivot[col] < 0:
            pivot = [-v for v in pivot]
        echelon.append((col, pivot))
        work = rest
    return echelon


def in_ideal(degrees, element, relations):
    """Whether the {exponents: coefficient} element lies in the ideal of the relations over Z.

    Each homogeneous component must be an integer combination of the rows
    of its degree's ideal slice; relations must be homogeneous.
    """
    def degree(m):
        return sum(e * g for e, g in zip(m, degrees))

    if any(len({degree(m) for m in rel}) > 1 for rel in relations):
        raise ValueError("relations must be homogeneous")
    components = {}
    for m, c in element.items():
        if c:
            components.setdefault(degree(m), {})[m] = c
    for d, component in components.items():
        monos, rows = ideal_slice(degrees, relations, d)
        vec = [component.get(m, 0) for m in monos]
        # a remainder left at a pivot column stays there: later rows are zero in it
        for col, row in hermite_echelon(rows, len(monos)):
            q = vec[col] // row[col]
            vec = [v - q * e for v, e in zip(vec, row)]
        if any(vec):
            return False
    return True
