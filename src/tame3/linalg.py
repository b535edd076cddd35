"""Exact linear algebra over ℚ through one top-term cancellation.

Vectors are sparse mappings from an orderable row key to Fraction; a
vector's top is its largest row.  ``_reduce`` cancels tops against pivots
with distinct tops, and it is the only elimination in the package: good
representatives (echelon form: no constants, distinct monic top terms),
affine coordinates over them, the searches' solves and nullspaces, and
``reduction.simple_search``'s strip against the pivot's powers.
Exponent-triple rows are ordered graded-lex, so a canonical column is
already echelon and becomes a pivot with no arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from tame3 import poly
from tame3.errors import DegenerateTuple
from tame3.poly import Poly

_CONST = (0, 0, 0)
_F0 = Fraction(0)
_F1 = Fraction(1)


def _add_multiple(acc: dict, c: Fraction, vec: Mapping) -> None:
    """acc += c·vec in place, dropping the entries that cancel."""
    for k, v in vec.items():
        s = acc.get(k, _F0) + c * v
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def _reduce(pivots: Mapping, p: Mapping, key) -> tuple[dict, dict]:
    """Cancel the top of p against the pivot with that top, while one exists.

    pivots maps a row to a vector whose top (largest row under key) is that
    row.  Returns (rest, taken) with p = rest + Σ taken[t]·pivots[t]; rest
    is empty or its top is no pivot's.  A nonzero combination of pivots has
    a pivot's top, so a nonempty rest proves p outside their span.
    """
    rest = {k: v for k, v in p.items() if v}
    taken: dict = {}
    while rest:
        top = max(rest, key=key)
        piv = pivots.get(top)
        if piv is None:
            break
        c = taken[top] = rest[top] / piv[top]
        _add_multiple(rest, -c, piv)
    return rest, taken


def _echelon(columns: Sequence[Mapping], key) -> tuple[dict, dict, list[dict]]:
    """Take the columns in order; each becomes a pivot or a free column.

    Returns (pivots, exprs, free): the reduced pivot columns by top, their
    expressions over the original pivot columns by the same top, and per
    free column j, in order, a combination {j: 1, …} equal to zero.
    """
    pivots: dict = {}
    exprs: dict = {}
    free: list[dict] = []
    for j, col in enumerate(columns):
        rest, taken = _reduce(pivots, col, key)
        expr = {j: _F1}
        for t, c in taken.items():
            _add_multiple(expr, -c, exprs[t])
        if rest:
            top = max(rest, key=key)
            pivots[top] = rest
            exprs[top] = expr
        else:
            free.append(expr)
    return pivots, exprs, free


def _row_key(k):
    """Graded-lex on exponent triples; any other row key orders as itself."""
    return poly.grlex_key(k) if isinstance(k, tuple) else k


def solve_exact(
    columns: Sequence[Mapping[Hashable, Fraction]],
    rhs: Mapping[Hashable, Fraction],
) -> list[Fraction] | None:
    """Solve Σ xᵢ·columnᵢ = rhs exactly, or return None if inconsistent.

    Columns and right-hand side are sparse vectors (mappings from an arbitrary
    orderable row key to Fraction).  When the system is underdetermined the
    returned solution sets every free variable to zero.
    """
    pivots, exprs, _ = _echelon(columns, _row_key)
    rest, taken = _reduce(pivots, rhs, _row_key)
    if rest:
        return None
    x: dict = {}
    for t, c in taken.items():
        _add_multiple(x, c, exprs[t])
    return [x.get(i, _F0) for i in range(len(columns))]


def nullspace(
    columns: Sequence[Mapping[Hashable, Fraction]],
) -> list[list[Fraction]]:
    """Exact basis of {x : Σ xᵢ·columnᵢ = 0} for sparse columns.

    Returns one coefficient vector per free column, a column in the span of
    the columns before it, with 1 in that column's slot and 0 in the other
    free slots; an all-zero column family yields the standard basis.
    """
    _, _, free = _echelon(columns, _row_key)
    return [[expr.get(i, _F0) for i in range(len(columns))] for expr in free]


def det3(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a 3×3 matrix."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def good_representative(components: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """Canonicalize a component tuple: the deterministic good representative.

    Constants are dropped, each component's top is cancelled against the
    earlier components' (already reduced) in graded-lex order, and the
    result is sorted by strictly increasing degree and scaled monic.  Raises
    DegenerateTuple when the components are linearly dependent with
    constants (no good representative exists).
    """
    work = []
    for i, p in enumerate(components):
        q = dict(p)
        q.pop(_CONST, None)
        if not q:
            raise DegenerateTuple(f"component {i + 1} is constant")
        work.append(q)
    pivots: dict = {}
    for q in work:
        rest, _ = _reduce(pivots, q, poly.grlex_key)
        if not rest:
            raise DegenerateTuple("components are linearly dependent with constants")
        pivots[poly.deg(rest)] = rest
    return tuple(
        poly.scale(1 / pivots[t][t], pivots[t])
        for t in sorted(pivots, key=poly.grlex_key)
    )


def affine_coordinates(
    basis: tuple[Poly, ...], target: Poly
) -> list[Fraction] | None:
    """Coefficients writing target as an affine combination of basis, or None.

    basis is in echelon form, as every canonical representative is: no
    constant components and distinct top degrees.  Cancelling top terms
    leaves the constant (the last coordinate) or proves target outside the
    span.  Distinct top degrees make the coordinates unique, so a target
    equal by value to a basis component is that unit vector, with no
    reduction.
    """
    for i, b in enumerate(basis):
        if target == b:
            return [_F1 if j == i else _F0 for j in range(len(basis))] + [_F0]
    tops = [poly.deg(b) for b in basis]
    rest, taken = _reduce(dict(zip(tops, basis)), target, poly.grlex_key)
    const = rest.pop(_CONST, _F0)
    if rest:
        return None
    return [taken.get(t, _F0) for t in tops] + [Fraction(const)]
