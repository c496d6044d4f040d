"""Exact elimination and one resultant, all over the integers.

Two eliminations live here on purpose, one for each side of the check.
The symbolic side (`graded_ring` and `spaces`) uses only `int_echelon`, an
integer lattice echelon by extended-gcd row operations that keeps the row
lattice over Z, and `reduce_mod_echelon`: normal forms and the inverse of
each render basis.  The geometry oracle uses only
`rref`, a fraction-free Gauss-Jordan reduction that keeps the row space
over Q, and `resultant`, the subresultant remainder sequence of two
integer polynomials (Collins 1967; Brown-Traub 1971).  So a symbolic count
and its oracle check never share an elimination routine;
`test_linalg_routines_stay_on_their_side` in tests/test_oracle.py enforces
the split.  Every entry stays an int.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

__all__ = [
    "int_echelon",
    "reduce_mod_echelon",
    "resultant",
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
