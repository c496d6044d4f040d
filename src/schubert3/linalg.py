"""Exact integer elimination for the symbolic rings.

`graded_ring` and `spaces` compute normal forms and the inverse of each
render basis with `int_echelon`, an integer lattice echelon by
extended-gcd row operations that keeps the row lattice over Z, and
`reduce_mod_echelon`.  Every entry stays an int.  The geometry oracle
imports nothing from here, so a symbolic count and its oracle check never
share an elimination routine.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["int_echelon", "reduce_mod_echelon"]


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

