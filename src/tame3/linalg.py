"""Exact linear algebra over ℚ for systems with no echelon structure.

The reduction search's cancellation stages, span intersections and
connecting corrections solve here.  Affine-span membership over canonical
representatives does not: those are already in echelon form, and
``vertices`` decides membership by cancelling top terms.

Systems here are tall and narrow — rows are monomials (hundreds at most),
columns are a handful of candidate polynomials — so a dense fraction-exact
Gauss-Jordan sweep is both simple and fast enough.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping, Sequence

_F0 = Fraction(0)


def _rref(rows: list[list[Fraction]], n: int) -> list[int]:
    """Gauss–Jordan sweep over the first n columns of rows, in place.

    Each pivot row is scaled to a leading 1 and cleared from every other row;
    columns past n are carried along.  Returns the pivot columns in order:
    pivot k sits in row k, and rows past the last pivot are zero on the
    first n columns.
    """
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        lead = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break
    return pivot_cols


def solve_exact(
    columns: Sequence[Mapping[Hashable, Fraction]],
    rhs: Mapping[Hashable, Fraction],
) -> list[Fraction] | None:
    """Solve Σ xᵢ·columnᵢ = rhs exactly, or return None if inconsistent.

    Columns and right-hand side are sparse vectors (mappings from an arbitrary
    orderable row key to Fraction).  When the system is underdetermined the
    returned solution sets every free variable to zero.
    """
    keys: set = set(rhs)
    for col in columns:
        keys.update(col)
    ordered = sorted(keys)
    n = len(columns)
    rows = [
        [col.get(k, _F0) for col in columns] + [Fraction(rhs.get(k, _F0))]
        for k in ordered
    ]
    pivot_cols = _rref(rows, n)
    if any(row[n] for row in rows[len(pivot_cols):]):
        return None
    x = [_F0] * n
    for idx, c in enumerate(pivot_cols):
        x[c] = rows[idx][n]
    return x


def nullspace(
    columns: Sequence[Mapping[Hashable, Fraction]],
) -> list[list[Fraction]]:
    """Exact basis of {x : Σ xᵢ·columnᵢ = 0} for sparse columns.

    Returns one coefficient vector per free column of the reduced system;
    an all-zero column family yields the standard basis.
    """
    keys: set = set()
    for col in columns:
        keys.update(col)
    ordered = sorted(keys)
    n = len(columns)
    rows = [[col.get(k, _F0) for col in columns] for k in ordered]
    pivot_cols = _rref(rows, n)
    basis: list[list[Fraction]] = []
    for free in (c for c in range(n) if c not in pivot_cols):
        vec = [_F0] * n
        vec[free] = Fraction(1)
        for idx, pc in enumerate(pivot_cols):
            vec[pc] = -rows[idx][free]
        basis.append(vec)
    return basis


def det2(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a 2×2 matrix."""
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def det3(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a 3×3 matrix."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
