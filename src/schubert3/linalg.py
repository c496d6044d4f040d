"""Exact elimination over the integers, and one resultant modulo a prime.

Two eliminations live here on purpose, one for each side of the check.
The symbolic side (`graded_ring` and `spaces`) uses only `int_echelon`, an
integer lattice echelon by extended-gcd row operations that keeps the row
lattice over Z, and `reduce_mod_echelon`: normal forms, ideal membership
and the inverse of each render basis.  The geometry oracle uses only
`rref`, a fraction-free Gauss-Jordan reduction that keeps the row space
over Q, `bareiss_det`, the fraction-free determinant of Bareiss (1968),
and `resultant_mod_p`, the Euclidean resultant of two polynomials over
Z/p (Collins 1967; von zur Gathen-Gerhard, Modern Computer Algebra,
ch. 6).  So a symbolic count and its oracle check never share an
elimination routine; `test_linalg_routines_stay_on_their_side` in
tests/test_oracle.py enforces the split.  Every entry stays an int.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

__all__ = [
    "bareiss_det",
    "int_echelon",
    "reduce_mod_echelon",
    "resultant_mod_p",
    "rref",
]


def rref(rows: Iterable[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form over Z.

    Returns (rows, pivot columns): one primitive integer row per pivot, with
    a positive entry at its pivot column and zeros in every other pivot
    column.  Dividing each row by its pivot entry gives the reduced row
    echelon form over Q.  Zero rows are dropped, so the number of pivots is
    the rank.
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = _primitive(mat[r])
        if prow[col] < 0:
            prow = [-x for x in prow]
        mat[r] = prow
        lead = prow[col]
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != r:
                g = gcd(lead, f)
                a, b = lead // g, f // g
                mat[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(col)
    return mat[: len(pivots)], pivots


def _primitive(row: list[int]) -> list[int]:
    """Divide an integer row by the gcd of its entries."""
    content = gcd(*row)
    if content > 1:
        return [x // content for x in row]
    return row


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def int_echelon(rows: Iterable[Sequence[int]], ncols: int) -> list[tuple[int, list[int]]]:
    """Integer row echelon form with positive pivots (no unit normalization).

    Returns a list of (pivot column, row) with strictly increasing pivot
    columns; every row is zero left of its pivot.  The input rows are
    consumed as spans; the result spans the same integer row lattice.
    """
    work = [list(r) for r in rows if any(r)]
    result: list[tuple[int, list[int]]] = []
    for col in range(ncols):
        src = [r for r in work if r[col]]
        if not src:
            continue
        piv = src[0]
        for r in src[1:]:
            a, b = piv[col], r[col]
            if b % a == 0:
                q = b // a
                for j in range(col, ncols):
                    r[j] -= q * piv[j]
            else:
                g, x, y = _xgcd(a, b)
                aa, bb = a // g, b // g
                for j in range(col, ncols):
                    pj, rj = piv[j], r[j]
                    piv[j] = x * pj + y * rj
                    r[j] = aa * rj - bb * pj
        work = [r for r in work if r is not piv and any(r)]
        if piv[col] < 0:
            piv[:] = [-v for v in piv]
        result.append((col, piv))
    return result


def reduce_mod_echelon(vec: list[int], echelon: Sequence[tuple[int, list[int]]]) -> list[int]:
    """Subtract integer multiples of echelon rows; remainder may be nonzero."""
    n = len(vec)
    out = list(vec)
    for col, row in echelon:
        c = out[col]
        if c and c % row[col] == 0:
            q = c // row[col]
            for j in range(col, n):
                out[j] -= q * row[j]
    return out


def bareiss_det(matrix: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
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


def resultant_mod_p(a: Sequence[int], b: Sequence[int], p: int) -> int:
    """Resultant of two polynomials modulo a prime p, in the range 0..p-1.

    a and b are descending coefficient lists whose leading coefficients are
    nonzero mod p, so the degrees are len - 1 both over Z and over Z/p, and
    the result is the determinant of their Sylvester matrix reduced mod p.
    The Euclidean remainder sequence uses Res(a, b) = (-1)^(deg a deg b)
    lc(b)^(deg a - deg r) Res(b, r) for r = a mod b, down to
    Res(a, c) = c^(deg a) for a constant c; a zero remainder before that
    means a common factor and resultant 0.
    """
    if not a or not b or a[0] % p == 0 or b[0] % p == 0:
        raise ValueError("both polynomials need a leading coefficient nonzero mod p")
    a = [c % p for c in a]
    b = [c % p for c in b]
    result = 1
    while len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        inverse = pow(b[0], -1, p)
        r = a[:]
        for i in range(m - n + 1):
            q = r[i] * inverse % p
            if q:
                r[i + 1 : i + n + 1] = [
                    (x - q * y) % p for x, y in zip(r[i + 1 : i + n + 1], b[1:])
                ]
        r = r[max(m - n + 1, 0) :]
        lead = next((i for i, c in enumerate(r) if c), None)
        if lead is None:
            return 0
        r = r[lead:]
        if m * n % 2:
            result = -result
        result = result * pow(b[0], m - (len(r) - 1), p) % p
        a, b = b, r
    return result * pow(b[0], len(a) - 1, p) % p
