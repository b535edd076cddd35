"""Exact linear algebra over ℚ: echelon forms and Gauss–Jordan solves.

``good_representative`` brings a component tuple to echelon form (no
constants, distinct monic top terms); ``affine_coordinates`` decides
affine-span membership over such a basis by cancelling top terms.

The reduction search's cancellation stages, span intersections and
connecting corrections have no echelon structure and solve here densely.
Those systems are tall and narrow — rows are monomials (hundreds at most),
columns are a handful of candidate polynomials — so a fraction-exact
Gauss-Jordan sweep is both simple and fast enough.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from tame3 import poly
from tame3.errors import DegenerateTuple
from tame3.poly import Poly

_CONST = (0, 0, 0)
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


def good_representative(components: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """Canonicalize a component tuple: the deterministic good representative.

    Constants are dropped, colliding top degrees are eliminated (later
    component minus the proportional multiple of the earlier one), the result
    is sorted by strictly increasing degree and scaled monic.  Raises
    DegenerateTuple when the components are linearly dependent with constants
    (no good representative exists).
    """
    work = []
    for i, p in enumerate(components):
        q = dict(p)
        q.pop(_CONST, None)
        if not q:
            raise DegenerateTuple(f"component {i + 1} is constant")
        work.append((q, i))
    while True:
        work.sort(key=lambda t: (poly.grlex_key(poly.deg(t[0])), t[1]))
        # sorted, so the first collision is between neighbours
        k = next(
            (k for k in range(1, len(work))
             if poly.deg(work[k - 1][0]) == poly.deg(work[k][0])),
            None,
        )
        if k is None:
            return tuple(poly.scale(1 / poly.top_term(p).coefficient, p) for p, _ in work)
        (pa, _), (pb, ib) = work[k - 1], work[k]
        ratio = poly.top_term(pb).coefficient / poly.top_term(pa).coefficient
        q = poly.sub(pb, poly.scale(ratio, pa))
        q.pop(_CONST, None)
        if not q:
            raise DegenerateTuple("components are linearly dependent with constants")
        work[k] = (q, ib)


def affine_coordinates(
    basis: tuple[Poly, ...], target: Poly
) -> list[Fraction] | None:
    """Coefficients writing target as an affine combination of basis, or None.

    basis is in echelon form, as every canonical representative is: no
    constant components and distinct top degrees.  The top term of what is
    left of target either is the constant (the last coordinate), or is
    cancelled by the one basis element of that degree, or proves target
    outside the span.  Distinct top degrees make the coordinates unique.
    """
    coords = [_F0] * (len(basis) + 1)
    slot = {poly.deg(b): i for i, b in enumerate(basis)}
    rest = dict(target)
    while rest:
        top = poly.deg(rest)
        if top == _CONST:
            coords[-1] = Fraction(rest[top])
            break
        i = slot.get(top)
        if i is None:
            return None
        c = rest[top] / basis[i][top]
        coords[i] = c
        for e, b in basis[i].items():
            s = rest.get(e, _F0) - c * b
            if s:
                rest[e] = s
            else:
                del rest[e]
    return coords
